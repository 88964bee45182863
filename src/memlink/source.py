"""Write-process entanglement source at the emitting node.

A weak write pulse scatters a photon into one of two time bins (early or
late) while leaving a matching collective excitation in one of two
spin-wave modes.  The emitted joint state is, to lowest order, the
maximally entangled pair

    (|dn>|E> + e^{-i phi(t)} |up>|L>) / sqrt(2)

where the relative phase starts at ``phi0`` and then precesses at the
differential Zeeman rate set by the bias field, which belongs to the
stored qubit (``memory_a.CoherenceParams``), not to the source.
Higher-order terms (two excitations in one bin, or one in each) are
retained up to the configured Fock cutoff because they are the
dominant intrinsic noise of the protocol.

Branch probabilities use the convention that the single-pair
probability is exactly ``chi``; the vacuum amplitude absorbs whatever
is left after the retained ladder, and anything beyond the cutoff is
counted as unretrievable (a negligible O(chi^3) correction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dualrail


class SourceConfigError(ValueError):
    """Raised for physically inconsistent source parameters."""


@dataclass(frozen=True)
class SourceParams:
    """Knobs of the write process.

    Attributes:
        chi: probability of emitting exactly one photon/spin-wave pair
            per write attempt.
        phi0: initial relative phase between the two branches (rad).
        fock_cutoff: maximum total excitation number retained per side.
        double_amp_scale: multiplier on the within-bin double-excitation
            amplitude relative to the uncorrelated-ladder value 1.0.
            This is a calibration parameter, not a measured quantity.
        write_imbalance: fractional asymmetry of the two write pulses;
            0 gives a balanced superposition.
        collection: probability that the emitted write photon ends up in
            the outgoing collection mode.  The default is fixed so that
            chi x collection x channel efficiency x mean storage map-in
            reproduces the published entangling efficiency of 3.1e-4.
    """

    chi: float = 0.054
    phi0: float = 0.0
    fock_cutoff: int = 2
    double_amp_scale: float = 1.0
    write_imbalance: float = 0.0
    collection: float = 0.29622295

    def __post_init__(self) -> None:
        if not 0.0 < self.chi < 1.0:
            raise SourceConfigError(f"chi must be in (0, 1), got {self.chi}")
        if self.chi * (1.0 + self.chi) >= 1.0:
            raise SourceConfigError(
                f"chi={self.chi} too large for a subnormalized truncated ladder"
            )
        if self.fock_cutoff < 2:
            raise SourceConfigError(
                f"fock_cutoff must be at least 2, got {self.fock_cutoff}"
            )
        if self.double_amp_scale < 0.0:
            raise SourceConfigError("double_amp_scale must be non-negative")
        if not -1.0 < self.write_imbalance < 1.0:
            raise SourceConfigError(
                f"write_imbalance must be in (-1, 1), got {self.write_imbalance}"
            )
        if not 0.0 <= self.collection <= 1.0:
            raise SourceConfigError(
                f"collection must be in [0, 1], got {self.collection}"
            )


@dataclass
class AtomPhotonState:
    """Joint atom-photon state right after a write attempt.

    ``state`` is the density matrix on (atomic sector) x (photonic
    sector), the atomic factor first.  Every map of the link is linear,
    so ``state`` may also be a (..., D, D) stack: a state beside its
    derivatives, carried through each map in one product.
    """

    state: np.ndarray
    cutoff: int


def _bin_amplitudes(chi_bin: float, cutoff: int) -> list[float]:
    """Amplitude ladder within one time bin: a_k for k = 0..cutoff.

    a_0 is left at 1 here; the joint vacuum amplitude is fixed at the
    end so the retained branches keep their exact probabilities.  The
    double-excitation scale is applied per total excitation number when
    the bins are combined, so that it damps every multi-pair event,
    within-bin and across-bin alike.
    """
    return [chi_bin ** (k / 2.0) for k in range(cutoff + 1)]


def _kets(p: SourceParams) -> tuple[np.ndarray, np.ndarray]:
    """The joint ket of one write attempt and its derivative by
    ``double_amp_scale``, from one pass over the excitation ladder.

    The two bins are independent ladders with single-pair probability
    chi/2 each (modulo write imbalance), correlated excitation-by-
    excitation between the photonic bin and its spin-wave mode.  The
    relative phase of the late branch is phi0 per late excitation.
    """
    cutoff = p.fock_cutoff
    dim = dualrail.sector_dim(cutoff)
    idx = dualrail.index_of(cutoff)
    chi_e = p.chi * (1.0 + p.write_imbalance) / 2.0
    chi_l = p.chi * (1.0 - p.write_imbalance) / 2.0
    amps_e = _bin_amplitudes(chi_e, cutoff)
    amps_l = _bin_amplitudes(chi_l, cutoff)

    ket = np.zeros(dim * dim, dtype=complex)
    dket = np.zeros(dim * dim, dtype=complex)
    ladder_weight = 0.0
    dweight = 0.0
    for ke in range(cutoff + 1):
        for kl in range(cutoff + 1 - ke):
            if ke == 0 and kl == 0:
                continue
            bare = amps_e[ke] * amps_l[kl]
            phase = np.exp(-1j * p.phi0 * kl)
            power = max(ke + kl - 1, 0)
            amp = bare * p.double_amp_scale ** power * phase
            damp = (bare * power * p.double_amp_scale ** (power - 1) * phase
                    if power else 0.0)
            j = idx[(ke, kl)]
            ket[j * dim + j] = amp
            dket[j * dim + j] = damp
            ladder_weight += abs(amp) ** 2
            dweight += 2.0 * (amp.conjugate() * damp).real
    if ladder_weight >= 1.0:
        raise SourceConfigError(
            f"excitation ladder weight {ladder_weight:.4f} reaches 1; "
            "lower chi or double_amp_scale"
        )
    # the vacuum amplitude sqrt(1 - weight) absorbs the ladder's change
    ket[0] = math.sqrt(1.0 - ladder_weight)
    dket[0] = -dweight / (2.0 * ket[0].real)
    return ket, dket


def atom_photon_state(p: SourceParams) -> AtomPhotonState:
    """Build the joint density matrix of one write attempt at t = 0."""
    ket, _ = _kets(p)
    mat = np.outer(ket, ket.conj())
    return AtomPhotonState(state=mat, cutoff=p.fock_cutoff)


def state_slope(p: SourceParams) -> np.ndarray:
    """d rho / d double_amp_scale of ``atom_photon_state(p).state``:
    d(psi psi^dag) = dpsi psi^dag + psi dpsi^dag."""
    ket, dket = _kets(p)
    half = np.outer(dket, ket.conj())
    return half + half.conj().T
