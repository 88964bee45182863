"""Frequency-converted fiber link between the two nodes.

The write photon is shifted to the telecom O band, sent through deployed
fiber, and shifted back at the receiving node.  The link is therefore a
product of three efficiencies (down-conversion, fiber transmission,
up-conversion) plus a small uncorrelated background added by the
converters, and a fixed propagation latency that sets the minimum
storage time at the emitting node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dualrail
from .qcore import (DensityMatrix, KrausChannel, apply_channel, partial_trace,
                    post_select, tensor)
from .source import AtomPhotonState, atom_labels, photon_labels

SPEED_OF_LIGHT = 2.99792458e8  # m/s

# Representative attenuation of standard fiber at the native (near
# infrared) photon wavelength, used only by the direct-transmission
# comparison scenario.  Chosen, not measured on this link.
VISIBLE_BAND_DB_PER_KM = 3.5


class ChannelConfigError(ValueError):
    """Raised for inconsistent link parameters."""


@dataclass(frozen=True)
class ChannelParams:
    """Efficiencies and geometry of the converted link.

    Attributes:
        eta_dfg: efficiency of the difference-frequency stage at the sender.
        fiber_loss_db: total fiber attenuation in dB.
        eta_sfg: efficiency of the sum-frequency stage at the receiver.
        length_km: one-way fiber length.
        refractive_index: group index used for the latency cross-check.
        latency_s: one-way classical-signal/photon latency.
        background_rate: probability per attempt that an uncorrelated
            converter-noise photon joins the signal mode pair.
    """

    eta_dfg: float = 0.46
    fiber_loss_db: float = 7.1
    eta_sfg: float = 0.45
    length_km: float = 20.5
    refractive_index: float = 1.47
    latency_s: float = 103e-6
    background_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta_dfg", "eta_sfg"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ChannelConfigError(f"{name} must be in [0, 1], got {v}")
        if self.fiber_loss_db < 0.0:
            raise ChannelConfigError("fiber_loss_db must be non-negative")
        if self.length_km <= 0.0:
            raise ChannelConfigError("length_km must be positive")
        if self.refractive_index < 1.0:
            raise ChannelConfigError("refractive_index must be at least 1")
        if self.latency_s <= 0.0:
            raise ChannelConfigError("latency_s must be positive")
        if not 0.0 <= self.background_rate < 1.0:
            raise ChannelConfigError("background_rate must be in [0, 1)")
        flight = self.length_km * 1e3 * self.refractive_index / SPEED_OF_LIGHT
        if abs(self.latency_s - flight) > 0.05 * self.latency_s:
            raise ChannelConfigError(
                f"latency {self.latency_s:.3e} s inconsistent with "
                f"length/index flight time {flight:.3e} s (>5%)"
            )


def fiber_transmission(loss_db: float) -> float:
    """Power transmission 10^(-dB/10)."""
    if loss_db < 0.0:
        raise ValueError("loss must be non-negative dB")
    return 10.0 ** (-loss_db / 10.0)


def channel_efficiency(p: ChannelParams) -> float:
    """End-to-end single-photon survival of the converted link."""
    return p.eta_dfg * fiber_transmission(p.fiber_loss_db) * p.eta_sfg


def direct_transmission(length_km: float,
                        db_per_km: float = VISIBLE_BAND_DB_PER_KM) -> float:
    """Survival if the photon were sent at its native wavelength."""
    return fiber_transmission(db_per_km * length_km)


def latency(p: ChannelParams) -> float:
    """One-way distribution latency in seconds."""
    return p.latency_s


def _background_state(cutoff: int) -> DensityMatrix:
    """Unpolarized single background photon on the bin pair."""
    dim = dualrail.sector_dim(cutoff)
    i1, i2 = dualrail.qubit_indices(cutoff)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[i1, i1] = 0.5
    mat[i2, i2] = 0.5
    return DensityMatrix(mat, photon_labels(cutoff))


def photon_loss_joint(cutoff: int, eta: float, atom_dim: int) -> KrausChannel:
    """Loss channel on the photonic factor of an (atom x photon) state."""
    return dualrail.loss_channel(cutoff, eta, eta, name=f"link({eta:g})",
                                 embed=(atom_dim, 1))


def transmit(s: AtomPhotonState, p: ChannelParams,
             rng: np.random.Generator | None = None) -> AtomPhotonState:
    """Propagate the photonic half through the converted link.

    Applies the exact photon-loss map (each excitation survives with
    probability ``channel_efficiency``) and mixes in the converter
    background as an uncorrelated unpolarized single photon.  The atomic
    factor is untouched.  The map is deterministic; ``rng`` is accepted
    for signature uniformity with the sampling stages and unused here.
    """
    del rng
    eta = channel_efficiency(p)
    atom_dim = dualrail.sector_dim(s.cutoff)
    lossy = apply_channel(s.state, photon_loss_joint(s.cutoff, eta, atom_dim))
    if p.background_rate > 0.0:
        atom_marginal = partial_trace(
            lossy, (atom_dim, dualrail.sector_dim(s.cutoff)), keep=0,
            labels=atom_labels(s.cutoff),
        )
        bg = tensor(atom_marginal, _background_state(s.cutoff))
        mat = (1.0 - p.background_rate) * lossy.mat + p.background_rate * bg.mat
        lossy = DensityMatrix(mat, lossy.labels, lossy.weight)
    return AtomPhotonState(state=lossy, cutoff=s.cutoff,
                           ladder_weight=s.ladder_weight)


def sample_transmit(s: AtomPhotonState, p: ChannelParams,
                    rng: np.random.Generator) -> tuple[AtomPhotonState, bool]:
    """Trajectory version of ``transmit`` for single-shot studies.

    Measures the photon number after the loss map and collapses onto
    "some photon survived" or "all lost", returning the collapsed state
    and the survival flag.  Statistics over many calls reproduce the
    deterministic map's populations.
    """
    out = transmit(s, p)
    dim = dualrail.sector_dim(s.cutoff)
    pops = out.state.probabilities().reshape(dim, dim)
    occs = dualrail.occupations(s.cutoff)
    p_vac = float(sum(pops[:, j].sum() for j, occ in enumerate(occs)
                      if occ == (0, 0)))
    survived = bool(rng.random() >= p_vac)
    keep = [
        a * dim + j
        for a in range(dim)
        for j, occ in enumerate(occs)
        if (occ == (0, 0)) != survived
    ]
    collapsed = post_select(out.state, keep)
    return (
        AtomPhotonState(state=collapsed, cutoff=s.cutoff,
                        ladder_weight=s.ladder_weight),
        survived,
    )
