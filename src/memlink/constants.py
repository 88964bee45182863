"""Physical constants used across the simulator.

Values are CODATA 2018 recommendations (and the AME atomic mass for
rubidium-87), hard-coded to at least ten significant digits.  Magnetic
fields are expressed in gauss throughout the package, so the Bohr
magneton is stored in J/G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018 reference values (SI)
_MU_B_J_PER_T = 9.2740100783e-24
_HBAR_J_S = 1.054571817e-34
_K_B_J_PER_K = 1.380649e-23
_ATOMIC_MASS_KG = 1.66053906660e-27
_RB87_MASS_U = 86.909180531


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants bundle threaded through the physics modules.

    Attributes:
        mu_b: Bohr magneton in J/G.
        hbar: reduced Planck constant in J*s.
        k_b: Boltzmann constant in J/K.
        m_rb87: mass of a rubidium-87 atom in kg.
    """

    mu_b: float = _MU_B_J_PER_T * 1e-4
    hbar: float = _HBAR_J_S
    k_b: float = _K_B_J_PER_K
    m_rb87: float = _RB87_MASS_U * _ATOMIC_MASS_KG

    @property
    def zeeman_rate_rad_per_s_gauss(self) -> float:
        """Differential Zeeman phase rate between the two spin-wave modes,
        in rad/s per gauss of bias field."""
        return self.mu_b / self.hbar

    @property
    def zeeman_hz_per_gauss(self) -> float:
        """Same rate expressed as an oscillation frequency (Hz/G)."""
        return self.zeeman_rate_rad_per_s_gauss / (2.0 * math.pi)


CODATA = PhysicalConstants()
