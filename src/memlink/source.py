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
counted as unretrievable (a negligible O(chi^3) correction).  The
state is also an exact polynomial in the double-excitation scale and
the vacuum amplitude (``state_polynomial``), which ``calibrate`` fits.
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
    so ``state`` may also be a (..., D, D) stack, carried through each
    map in one product.
    """

    state: np.ndarray
    cutoff: int


def _ladder(p: SourceParams):
    """(sector index, power of double_amp_scale, bare amplitude, phase)
    of every retained branch but the vacuum.

    The two bins are independent ladders with single-pair probability
    chi/2 each (modulo write imbalance), correlated excitation-by-
    excitation between the photonic bin and its spin-wave mode.  The
    relative phase of the late branch is phi0 per late excitation, and
    the double-excitation scale enters once per excitation beyond the
    first, so it damps every multi-pair event, within-bin and across-bin
    alike.
    """
    cutoff = p.fock_cutoff
    idx = dualrail.index_of(cutoff)
    chi_e = p.chi * (1.0 + p.write_imbalance) / 2.0
    chi_l = p.chi * (1.0 - p.write_imbalance) / 2.0
    for ke in range(cutoff + 1):
        for kl in range(cutoff + 1 - ke):
            if ke or kl:
                yield (idx[(ke, kl)], ke + kl - 1,
                       chi_e ** (ke / 2.0) * chi_l ** (kl / 2.0),
                       np.exp(-1j * p.phi0 * kl))


def _vacuum_amplitude(ladder_weight: float) -> float:
    """sqrt(1 - ladder_weight), or a SourceConfigError from 1 on."""
    if ladder_weight >= 1.0:
        raise SourceConfigError(
            f"excitation ladder weight {ladder_weight:.4f} reaches 1; "
            "lower chi or double_amp_scale")
    return math.sqrt(1.0 - ladder_weight)


def atom_photon_state(p: SourceParams) -> AtomPhotonState:
    """Build the joint density matrix of one write attempt at t = 0."""
    dim = dualrail.sector_dim(p.fock_cutoff)
    ket = np.zeros(dim * dim, dtype=complex)
    ladder_weight = 0.0
    for j, power, bare, phase in _ladder(p):
        amp = bare * p.double_amp_scale ** power * phase
        ket[j * dim + j] = amp
        ladder_weight += abs(amp) ** 2
    ket[0] = _vacuum_amplitude(ladder_weight)
    return AtomPhotonState(state=np.outer(ket, ket.conj()),
                           cutoff=p.fock_cutoff)


def state_polynomial(p: SourceParams) -> np.ndarray:
    """``atom_photon_state(p).state`` at any double_amp_scale s as an
    (F, D, D) stack, F = 3c - 1 at cutoff c: the state is the sum of its
    rows times the ``features`` of s.  The ket is v|0> + sum_k s^k K_k,
    with v the vacuum amplitude, so its outer product has terms in s^k
    (k <= 2c - 2) and v s^k (k < c)."""
    c, dim = p.fock_cutoff, dualrail.sector_dim(p.fock_cutoff)
    ket = np.zeros((c, dim * dim), dtype=complex)
    for j, power, bare, phase in _ladder(p):
        ket[power, j * dim + j] = bare * phase
    rows = np.zeros((3 * c - 1, dim * dim, dim * dim), dtype=complex)
    rows[0, 0, 0] = 1.0
    for a in range(c):
        # v^2 = 1 - sum_k |K_k|^2 s^(2k), and v is real
        rows[2 * a, 0, 0] -= np.vdot(ket[a], ket[a]).real
        rows[2 * c - 1 + a, :, 0] += ket[a]
        rows[2 * c - 1 + a, 0, :] += ket[a].conj()
        for b in range(c):
            rows[a + b] += np.outer(ket[a], ket[b].conj())
    return rows


def features(p: SourceParams) -> np.ndarray:
    """(2, F): [s^k for k <= 2c - 2] + [v s^k for k < c] at p's
    double_amp_scale s (see ``state_polynomial``), then their
    derivatives by s."""
    c, s = p.fock_cutoff, p.double_amp_scale
    k = np.arange(2 * c - 1)
    mono = np.array([s ** k, np.concatenate(([0.0], k[1:] * s ** k[:-1]))])
    weights = np.zeros(c)
    for _, power, bare, _ in _ladder(p):
        weights[power] += bare * bare
    w, dw = mono[:, ::2] @ weights
    v = _vacuum_amplitude(w)
    return np.concatenate(
        (mono, v * mono[:, :c] + [[0.0], [-dw / (2.0 * v)]] * mono[0, :c]),
        axis=1)
