"""Two-mode number-truncated Fock sector.

Both halves of the link live in the same kind of space: a pair of
bosonic modes (early/late time bins, up/down spatial modes, or the two
spin-wave modes of the emitting ensemble) truncated at a total
excitation number ``cutoff``.  For the default cutoff of 2 the basis is

    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2)

which is the vacuum, the single-excitation qubit and the three
double-excitation states responsible for higher-order noise.

This module provides the operator toolbox on that sector: per-mode loss
channels, linear mode rotations (beam splitters / waveplates), quantum
transfer between the modes, dephasing and threshold-detector POVMs.
All constructions are exact on the truncated space.

The detector POVM has one formula, ``threshold_povm``: each element's
coefficients as a polynomial of degree 2 in the dark-count probability.
No dark rate changes the coefficients, so one rotated set serves every
dark rate, and calibration's noise polynomial contracts the set itself.

Loss and transfer channels are real Kraus stacks built from their
closed-form amplitudes.  Given vectors of survival or transfer
probabilities they build one channel per entry, stacked on a leading
axis, so node A's storage over a whole delay sweep is one stack, built
and validated as one ``KrausChannel``.  The sector's occupation tables
(``occupations``, ``index_of``) are the module's only caches.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, sqrt

import numpy as np

from .qcore import KrausChannel


@lru_cache(maxsize=8)
def occupations(cutoff: int) -> tuple[tuple[int, int], ...]:
    """Basis occupation pairs (n1, n2), ordered by total number."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    occs = []
    for total in range(cutoff + 1):
        for n2 in range(total + 1):
            occs.append((total - n2, n2))
    return tuple(occs)


def sector_dim(cutoff: int) -> int:
    return len(occupations(cutoff))


@lru_cache(maxsize=8)
def index_of(cutoff: int) -> dict:
    return {occ: i for i, occ in enumerate(occupations(cutoff))}


def qubit_indices(cutoff: int) -> tuple[int, int]:
    """Indices of the single-excitation states (mode1, mode2)."""
    idx = index_of(cutoff)
    return idx[(1, 0)], idx[(0, 1)]


def _probabilities(*values) -> list[np.ndarray]:
    """The arguments as float arrays, each entry in [0, 1]."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    for arr in arrays:
        if not ((0.0 <= arr) & (arr <= 1.0)).all():
            raise ValueError(f"probability {arr} outside [0, 1]")
    return arrays


def loss_channel(cutoff: int, eta1, eta2) -> KrausChannel:
    """Independent beam-splitter loss on each mode.

    Each excitation of mode m survives with probability eta_m.  The map
    is trace preserving on the truncated sector: lost excitations move
    population toward the vacuum rather than out of the space.  Arrays
    of survival probabilities give one channel per entry, stacked on
    the leading axes of the operators.
    """
    eta1, eta2 = _probabilities(eta1, eta2)
    occs = occupations(cutoff)
    idx = index_of(cutoff)
    # one operator per pair of lost quanta (l1, l2), l1 + l2 <= cutoff
    lost = occupations(cutoff)
    ops = np.zeros(eta1.shape + (len(lost), len(occs), len(occs)),
                   dtype=float)
    for op, (l1, l2) in enumerate(lost):
        for j, (n1, n2) in enumerate(occs):
            if l1 > n1 or l2 > n2:
                continue
            amp1 = sqrt(comb(n1, l1)) * eta1 ** ((n1 - l1) / 2.0) \
                * (1.0 - eta1) ** (l1 / 2.0)
            amp2 = sqrt(comb(n2, l2)) * eta2 ** ((n2 - l2) / 2.0) \
                * (1.0 - eta2) ** (l2 / 2.0)
            ops[..., op, idx[(n1 - l1, n2 - l2)], j] = amp1 * amp2
    return KrausChannel(ops, name="loss")


def mode_rotation(cutoff: int, w: np.ndarray) -> np.ndarray:
    """Unitary on the sector induced by the linear mode map d = W a.

    ``w`` is the 2x2 unitary taking old mode operators to new ones.  The
    returned matrix R satisfies (R rho R^dag) being the same state
    written in the new mode basis; it is exact on the truncated sector
    because a passive linear map conserves total excitation number.
    """
    w = np.asarray(w, dtype=complex)
    if w.shape != (2, 2):
        raise ValueError(f"mode map must be 2x2, got {w.shape}")
    if not np.allclose(w @ w.conj().T, np.eye(2), atol=1e-10):
        raise ValueError("mode map must be unitary")
    occs = occupations(cutoff)
    idx = index_of(cutoff)
    dim = len(occs)
    r = np.zeros((dim, dim), dtype=complex)
    # a_j^dag = sum_k w[k, j] d_k^dag; expand the monomial per basis ket.
    for col, (n1, n2) in enumerate(occs):
        # poly maps new-basis occupations -> amplitude
        poly: dict[tuple[int, int], complex] = {(0, 0): 1.0 + 0.0j}
        for j, n in ((0, n1), (1, n2)):
            if n == 0:
                continue
            new_poly: dict[tuple[int, int], complex] = {}
            for i in range(n + 1):
                coeff = comb(n, i) * w[0, j] ** i * w[1, j] ** (n - i)
                for (p, q), amp in poly.items():
                    key = (p + i, q + n - i)
                    new_poly[key] = new_poly.get(key, 0.0) + amp * coeff
            poly = new_poly
        norm_in = sqrt(factorial(n1) * factorial(n2))
        for (p, q), amp in poly.items():
            r[idx[(p, q)], col] = amp * sqrt(factorial(p) * factorial(q)) / norm_in
    return r


def transfer_channel(cutoff: int, gamma) -> KrausChannel:
    """Per-quantum incoherent transfer from mode 2 into mode 1.

    Each excitation of mode 2 independently hops to mode 1 with
    probability ``gamma``.  Coherences between states of different mode-2
    occupation acquire the usual sqrt(1-gamma) amplitude factors, which
    makes the single-excitation block the standard amplitude-damping
    channel from mode 2 toward mode 1.  An array of probabilities
    stacks one channel per entry, as for loss_channel.
    """
    (gamma,) = _probabilities(gamma)
    occs = occupations(cutoff)
    idx = index_of(cutoff)
    ops = np.zeros(gamma.shape + (cutoff + 1, len(occs), len(occs)),
                   dtype=float)
    for k_moved in range(cutoff + 1):
        for j, (n1, n2) in enumerate(occs):
            if k_moved > n2:
                continue
            amp = sqrt(comb(n2, k_moved)) * gamma ** (k_moved / 2.0) \
                * (1.0 - gamma) ** ((n2 - k_moved) / 2.0)
            ops[..., k_moved, idx[(n1 + k_moved, n2 - k_moved)], j] = amp
    return KrausChannel(ops, name="transfer")


def mode2_count_vector(cutoff: int) -> np.ndarray:
    """Mode-2 occupation per basis index, as an integer vector."""
    return np.array([n2 for _, n2 in occupations(cutoff)], dtype=int)


def dephasing_envelope(cutoff: int, coherence_arg) -> np.ndarray:
    """Entrywise Gaussian envelope for inhomogeneous phase diffusion.

    ``coherence_arg`` is the squared Gaussian argument accrued by a
    single-quantum coherence, i.e. the single-excitation off-diagonal is
    multiplied by exp(-coherence_arg).  A coherence between states whose
    mode-2 occupations differ by dn scales as exp(-dn^2 * coherence_arg),
    the signature of a shared random phase.  The result multiplies a
    density matrix entrywise (a random-unitary, hence CP, map); an array
    of arguments gives a stack of envelopes.
    """
    arg = np.asarray(coherence_arg, dtype=float)
    if (arg < 0.0).any():
        raise ValueError("coherence argument must be non-negative")
    n2 = mode2_count_vector(cutoff)
    dn = n2[:, None] - n2[None, :]
    return np.exp(-(dn.astype(float) ** 2) * arg[..., None, None])


def threshold_povm(cutoff: int, rot: np.ndarray | None,
                   eta: float) -> dict[str, np.ndarray]:
    """POVM of two threshold detectors behind a mode rotation, as a
    polynomial in the dark-count probability d.

    A detector watching n excitations misses them all with probability
    q = (1 - eta)^n and then clicks only on a dark count, so it clicks
    with probability c + q d, where c = 1 - q, and stays silent with
    q (1 - d).  Each element, one click-or-miss factor per detector, is
    P[0] + P[1] d + P[2] d^2; "both", for one, is
    c0 c1 + (c0 q1 + q0 c1) d + q0 q1 d^2.  Taken in d, no coefficient
    cancels: the vacuum's "both" is d^2 exactly.

    Args:
        cutoff: sector truncation.
        rot: sector unitary taking state amplitudes into the detector
            basis, whose first mode goes to the "plus" detector (see
            ``mode_rotation``); None for the bare mode basis.
        eta: detection efficiency applied per excitation.

    Returns:
        dict of the (3, d, d) coefficient stacks P of the elements
        "plus", "minus", "both" and "none", which sum to the identity on
        the sector at every dark rate.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"detection efficiency {eta} outside [0, 1]")
    q = (1.0 - eta) ** np.array(occupations(cutoff), dtype=float)
    (q0, q1), (c0, c1) = q.T, (1.0 - q).T
    coeffs = {
        "plus": (c0 * q1, q0 * q1 - c0 * q1, -q0 * q1),
        "minus": (q0 * c1, q0 * q1 - q0 * c1, -q0 * q1),
        "both": (c0 * c1, c0 * q1 + q0 * c1, q0 * q1),
        "none": (q0 * q1, -2.0 * q0 * q1, q0 * q1),
    }
    if rot is None:
        rot = np.eye(sector_dim(cutoff), dtype=complex)
    return {key: np.stack([rot.conj().T @ np.diag(c.astype(complex)) @ rot
                           for c in cs])
            for key, cs in coeffs.items()}
