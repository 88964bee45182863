"""Frequency-converted fiber link between the two nodes.

The write photon is shifted to the telecom O band, sent through deployed
fiber, and shifted back at the receiving node.  The link is therefore a
product of three efficiencies (down-conversion, fiber transmission,
up-conversion) plus a small uncorrelated background added by the
converters, and a fixed propagation latency that sets the minimum
storage time at the emitting node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dualrail
from .qcore import apply_to_second
from .source import AtomPhotonState

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


def direct_transmission(length_km: float) -> float:
    """Survival if the photon were sent at its native wavelength."""
    return fiber_transmission(VISIBLE_BAND_DB_PER_KM * length_km)


def latency(p: ChannelParams) -> float:
    """One-way distribution latency in seconds."""
    return p.latency_s


def _background_state(cutoff: int) -> np.ndarray:
    """Unpolarized single background photon on the bin pair."""
    dim = dualrail.sector_dim(cutoff)
    i1, i2 = dualrail.qubit_indices(cutoff)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[i1, i1] = 0.5
    mat[i2, i2] = 0.5
    return mat


def photon_loss_joint(s: AtomPhotonState, eta: float) -> AtomPhotonState:
    """Each photonic excitation of a joint state survives with
    probability ``eta``; the atomic factor is untouched."""
    loss = dualrail.loss_channel(s.cutoff, eta, eta)
    return AtomPhotonState(state=apply_to_second(s.state, loss),
                           cutoff=s.cutoff)


def _background(lossy: np.ndarray, cutoff: int) -> np.ndarray:
    """The state's atomic marginal beside one unpolarized background
    photon, the state a background click replaces the signal by."""
    d = dualrail.sector_dim(cutoff)
    lead = lossy.shape[:-2]
    atom_marginal = np.einsum("...abcb->...ac",
                              lossy.reshape(lead + (d, d, d, d)))
    return np.einsum("...ac,bd->...abcd", atom_marginal,
                     _background_state(cutoff)).reshape(lossy.shape)


def transmit(s: AtomPhotonState, p: ChannelParams) -> AtomPhotonState:
    """Propagate the photonic half through the converted link.

    Applies the exact photon-loss map (each excitation survives with
    probability ``channel_efficiency``) and mixes in the converter
    background as an uncorrelated unpolarized single photon.  The atomic
    factor is untouched.  The map is linear, so a stack of states goes
    through it at once.
    """
    lossy = photon_loss_joint(s, channel_efficiency(p)).state
    if p.background_rate > 0.0:
        bg = _background(lossy, s.cutoff)
        lossy = (1.0 - p.background_rate) * lossy + p.background_rate * bg
    return AtomPhotonState(state=lossy, cutoff=s.cutoff)


def background_rows(lossy: AtomPhotonState) -> np.ndarray:
    """``transmit``'s state, rows[0] + background_rate * rows[1], from
    the lossy signal L (``transmit`` at rate 0, or a stack of them): L
    and the background minus L, stacked on a new first axis."""
    return np.stack([lossy.state,
                     _background(lossy.state, lossy.cutoff) - lossy.state])
