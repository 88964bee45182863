"""Physical constants: reference values, derived rates and the thermal
velocity that memory_a.motional_lifetime builds from them."""

import math

import numpy as np
import pytest

from memlink.constants import CODATA
from memlink.memory_a import CoherenceParams, motional_lifetime


class TestReferenceValues:
    """Hard-coded constants against independent reference digits."""

    def test_bohr_magneton_in_joule_per_gauss(self):
        # CODATA 2018: 9.2740100783e-24 J/T, converted to J/G
        np.testing.assert_allclose(CODATA.mu_b, 9.2740100783e-28, rtol=1e-10)

    def test_hbar(self):
        np.testing.assert_allclose(CODATA.hbar, 1.054571817e-34, rtol=1e-10)

    def test_boltzmann(self):
        np.testing.assert_allclose(CODATA.k_b, 1.380649e-23, rtol=1e-12)

    def test_rb87_mass(self):
        # 86.909180531 u times the 2018 atomic mass constant
        np.testing.assert_allclose(CODATA.m_rb87,
                                   86.909180531 * 1.66053906660e-27,
                                   rtol=1e-12)
        np.testing.assert_allclose(CODATA.m_rb87, 1.4431609e-25, rtol=1e-7)

    def test_bundle_is_frozen(self):
        with pytest.raises(Exception):
            CODATA.hbar = 1.0


class TestZeemanRate:
    def test_rate_in_rad_per_second_per_gauss(self):
        np.testing.assert_allclose(CODATA.zeeman_rate_rad_per_s_gauss,
                                   8794100.059190186, rtol=1e-12)

    def test_rate_as_frequency(self):
        # mu_B/h is about 1.3996 MHz per gauss
        np.testing.assert_allclose(CODATA.zeeman_hz_per_gauss,
                                   1.3996244944648475e6, rtol=1e-12)
        np.testing.assert_allclose(
            CODATA.zeeman_hz_per_gauss,
            CODATA.zeeman_rate_rad_per_s_gauss / (2.0 * math.pi), rtol=1e-15)


def thermal_velocity(temperature_k, mass_kg=CODATA.m_rb87):
    """rms velocity sqrt(k_B T / m) as motional_lifetime = 1/(k v) uses it,
    read back at a wavevector of 1 /m."""
    c = CoherenceParams(temperature_k=temperature_k, mass_kg=mass_kg)
    return 1.0 / motional_lifetime(1.0, c)


class TestThermalVelocity:
    def test_rms_velocity_at_35_microkelvin(self):
        np.testing.assert_allclose(thermal_velocity(35e-6),
                                   0.05786531042640057, rtol=1e-12)

    def test_zero_temperature(self):
        assert thermal_velocity(0.0) == 0.0

    def test_scaling_with_sqrt_temperature(self):
        v1 = thermal_velocity(10e-6)
        v4 = thermal_velocity(40e-6)
        np.testing.assert_allclose(v4, 2.0 * v1, rtol=1e-12)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            thermal_velocity(-1e-6)

    def test_custom_mass(self):
        np.testing.assert_allclose(
            thermal_velocity(35e-6, mass_kg=4.0 * CODATA.m_rb87),
            0.5 * thermal_velocity(35e-6), rtol=1e-12)
