"""Converted fiber link: efficiencies, latency checks, loss maps."""

import numpy as np
import pytest

from memlink.channel import (
    ChannelConfigError,
    ChannelParams,
    channel_efficiency,
    direct_transmission,
    fiber_transmission,
    latency,
    photon_loss_joint,
    transmit,
)
from memlink.source import AtomPhotonState, SourceParams, atom_photon_state
from oracles import partial_trace, pure_state, validate


def joint_pure(amps):
    return AtomPhotonState(state=pure_state(amps), cutoff=2)


def single_photon_input():
    """Atom idle, exactly one photon in the early bin."""
    amps = np.zeros(36)
    amps[1] = 1.0
    return joint_pure(amps)


def photon_pops(s):
    pops = np.diag(s.state).real.reshape(6, 6)
    return pops.sum(axis=0)


class TestScalarEfficiencies:
    def test_fiber_transmission_hand_value(self):
        np.testing.assert_allclose(fiber_transmission(7.1),
                                   0.19498445997580455, rtol=1e-12)

    def test_fiber_transmission_edge_cases(self):
        assert fiber_transmission(0.0) == pytest.approx(1.0)
        assert fiber_transmission(10.0) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            fiber_transmission(-1.0)

    def test_channel_efficiency_default(self):
        np.testing.assert_allclose(channel_efficiency(ChannelParams()),
                                   0.040361783214991544, rtol=1e-12)

    def test_channel_efficiency_is_product(self):
        p = ChannelParams(eta_dfg=0.5, fiber_loss_db=3.0, eta_sfg=0.4)
        np.testing.assert_allclose(channel_efficiency(p),
                                   0.5 * 10 ** -0.3 * 0.4, rtol=1e-12)

    def test_direct_transmission_hand_value(self):
        np.testing.assert_allclose(direct_transmission(20.5),
                                   6.683439175686149e-08, rtol=1e-12)

    def test_converted_link_beats_direct_by_orders(self):
        ratio = channel_efficiency(ChannelParams()) / direct_transmission(20.5)
        assert ratio > 1e4


class TestLatency:
    def test_default_value(self):
        assert latency(ChannelParams()) == pytest.approx(103e-6)

    def test_consistent_with_flight_time(self):
        flight = 20.5e3 * 1.47 / 2.99792458e8
        assert abs(103e-6 - flight) < 0.05 * 103e-6

    def test_inconsistent_latency_rejected(self):
        with pytest.raises(ChannelConfigError):
            ChannelParams(latency_s=90e-6)

    def test_inconsistent_length_rejected(self):
        with pytest.raises(ChannelConfigError):
            ChannelParams(length_km=30.0)


class TestParamValidation:
    def test_efficiency_bounds(self):
        with pytest.raises(ChannelConfigError):
            ChannelParams(eta_dfg=1.2)
        with pytest.raises(ChannelConfigError):
            ChannelParams(eta_sfg=-0.1)

    def test_background_bounds(self):
        with pytest.raises(ChannelConfigError):
            ChannelParams(background_rate=1.0)

    def test_negative_loss_rejected(self):
        with pytest.raises(ChannelConfigError):
            ChannelParams(fiber_loss_db=-2.0)


class TestTransmit:
    def test_single_photon_survival(self):
        p = ChannelParams()
        out = transmit(single_photon_input(), p)
        pops = photon_pops(out)
        eta = channel_efficiency(p)
        assert pops[1] == pytest.approx(eta, abs=1e-12)
        assert pops[0] == pytest.approx(1.0 - eta, abs=1e-12)

    def test_vacuum_passes_unchanged(self):
        amps = np.zeros(36)
        amps[0] = 1.0
        out = transmit(joint_pure(amps), ChannelParams())
        assert out.state[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_atom_marginal_untouched(self):
        s = atom_photon_state(SourceParams(chi=0.1, double_amp_scale=0.8))
        out = transmit(s, ChannelParams())
        before = partial_trace(s.state, (6, 6), keep=0)
        after = partial_trace(out.state, (6, 6), keep=0)
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_no_photon_population_gain(self):
        s = atom_photon_state(SourceParams(chi=0.2))
        out = transmit(s, ChannelParams())
        before = 1.0 - photon_pops(s)[0]
        after = 1.0 - photon_pops(out)[0]
        assert after <= before + 1e-12

    def test_loss_composition(self):
        s = atom_photon_state(SourceParams(chi=0.15, double_amp_scale=0.7,
                                           phi0=0.4))
        step2 = photon_loss_joint(photon_loss_joint(s, 0.5), 0.3)
        direct = photon_loss_joint(s, 0.15)
        np.testing.assert_allclose(step2.state, direct.state, atol=1e-10)

    def test_background_mixes_unpolarized_photon(self):
        amps = np.zeros(36)
        amps[0] = 1.0
        p = ChannelParams(background_rate=0.2)
        out = transmit(joint_pure(amps), p)
        pops = photon_pops(out)
        assert pops[0] == pytest.approx(0.8, abs=1e-12)
        assert pops[1] == pytest.approx(0.1, abs=1e-12)
        assert pops[2] == pytest.approx(0.1, abs=1e-12)
        validate(out.state)

    def test_output_remains_physical(self):
        s = atom_photon_state(SourceParams(chi=0.2, double_amp_scale=0.9))
        out = transmit(s, ChannelParams(background_rate=0.01))
        validate(out.state)
