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
transfer between the modes, phase accumulation and number diagnostics.
All constructions are exact on the truncated space.

Loss and transfer channels can be built already embedded in a larger
tensor product (``embed=(left, right)`` puts identities of those
dimensions on either side).  Each distinct channel is built and
validated once and then shared from a small lru_cache, so its operator
arrays are read-only.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, sqrt

import numpy as np

from .qcore import KrausChannel, Observable


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


def sector_labels(cutoff: int, vacuum: str, mode1: str, mode2: str) -> tuple[str, ...]:
    """Readable label per basis state, e.g. vac, E, L, EE, LL, EL."""
    out = []
    for n1, n2 in occupations(cutoff):
        if n1 == 0 and n2 == 0:
            out.append(vacuum)
        else:
            out.append(mode1 * n1 + mode2 * n2)
    return tuple(out)


def qubit_indices(cutoff: int) -> tuple[int, int]:
    """Indices of the single-excitation states (mode1, mode2)."""
    idx = index_of(cutoff)
    return idx[(1, 0)], idx[(0, 1)]


def number_operator(cutoff: int, mode: int | None = None) -> np.ndarray:
    """Diagonal number operator for one mode, or total if mode is None."""
    occs = occupations(cutoff)
    if mode is None:
        diag = [n1 + n2 for n1, n2 in occs]
    elif mode in (0, 1):
        diag = [occ[mode] for occ in occs]
    else:
        raise ValueError("mode must be 0, 1 or None")
    return np.diag(np.asarray(diag, dtype=complex))


def loss_channel(cutoff: int, eta1: float, eta2: float,
                 name: str = "", embed: tuple[int, int] = (1, 1)
                 ) -> KrausChannel:
    """Independent beam-splitter loss on each mode.

    Each excitation of mode m survives with probability eta_m.  The map
    is trace preserving on the truncated sector: lost excitations move
    population toward the vacuum rather than out of the space.  With
    ``embed=(left, right)`` every operator is kron(I_left, K, I_right).
    """
    for eta in (eta1, eta2):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"survival probability {eta} outside [0, 1]")
    return _loss_channel(cutoff, float(eta1), float(eta2),
                         name or f"loss({eta1:g},{eta2:g})", tuple(embed))


@lru_cache(maxsize=8)
def _loss_channel(cutoff: int, eta1: float, eta2: float, name: str,
                  embed: tuple[int, int]) -> KrausChannel:
    occs = occupations(cutoff)
    idx = index_of(cutoff)
    dim = len(occs)
    ops = []
    for l1 in range(cutoff + 1):
        for l2 in range(cutoff + 1 - l1):
            k = np.zeros((dim, dim), dtype=complex)
            nonzero = False
            for j, (n1, n2) in enumerate(occs):
                if l1 > n1 or l2 > n2:
                    continue
                amp1 = sqrt(comb(n1, l1)) * eta1 ** ((n1 - l1) / 2.0) \
                    * (1.0 - eta1) ** (l1 / 2.0)
                amp2 = sqrt(comb(n2, l2)) * eta2 ** ((n2 - l2) / 2.0) \
                    * (1.0 - eta2) ** (l2 / 2.0)
                amp = amp1 * amp2
                if amp != 0.0:
                    k[idx[(n1 - l1, n2 - l2)], j] = amp
                    nonzero = True
            if nonzero:
                ops.append(k)
    return _embedded(ops, name, embed)


def _embedded(ops: list[np.ndarray], name: str,
              embed: tuple[int, int]) -> KrausChannel:
    """One validated channel of kron(I_left, K, I_right), read-only."""
    left, right = embed
    eye_l = np.eye(left, dtype=complex)
    eye_r = np.eye(right, dtype=complex)
    ch = KrausChannel([np.kron(np.kron(eye_l, k), eye_r) for k in ops],
                      name=name)
    for k in ch.operators:
        k.setflags(write=False)
    return ch


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


def transfer_channel(cutoff: int, gamma: float,
                     embed: tuple[int, int] = (1, 1)) -> KrausChannel:
    """Per-quantum incoherent transfer from mode 2 into mode 1.

    Each excitation of mode 2 independently hops to mode 1 with
    probability ``gamma``.  Coherences between states of different mode-2
    occupation acquire the usual sqrt(1-gamma) amplitude factors, which
    makes the single-excitation block the standard amplitude-damping
    channel from mode 2 toward mode 1.  ``embed`` as for loss_channel.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"transfer probability {gamma} outside [0, 1]")
    return _transfer_channel(cutoff, float(gamma), tuple(embed))


@lru_cache(maxsize=8)
def _transfer_channel(cutoff: int, gamma: float,
                      embed: tuple[int, int]) -> KrausChannel:
    occs = occupations(cutoff)
    idx = index_of(cutoff)
    dim = len(occs)
    ops = []
    for k_moved in range(cutoff + 1):
        k = np.zeros((dim, dim), dtype=complex)
        nonzero = False
        for j, (n1, n2) in enumerate(occs):
            if k_moved > n2:
                continue
            amp = sqrt(comb(n2, k_moved)) * gamma ** (k_moved / 2.0) \
                * (1.0 - gamma) ** ((n2 - k_moved) / 2.0)
            if amp != 0.0:
                k[idx[(n1 + k_moved, n2 - k_moved)], j] = amp
                nonzero = True
        if nonzero:
            ops.append(k)
    return _embedded(ops, f"transfer({gamma:g})", embed)


def phase_unitary(cutoff: int, phi: float) -> np.ndarray:
    """Diagonal unitary putting phase exp(-i phi) on each mode-2 quantum."""
    occs = occupations(cutoff)
    diag = np.array([np.exp(-1j * phi * n2) for _, n2 in occs])
    return np.diag(diag)


def mode2_count_vector(cutoff: int) -> np.ndarray:
    """Mode-2 occupation per basis index, as an integer vector."""
    return np.array([n2 for _, n2 in occupations(cutoff)], dtype=int)


def dephasing_envelope(cutoff: int, coherence_arg: float) -> np.ndarray:
    """Entrywise Gaussian envelope for inhomogeneous phase diffusion.

    ``coherence_arg`` is the squared Gaussian argument accrued by a
    single-quantum coherence, i.e. the single-excitation off-diagonal is
    multiplied by exp(-coherence_arg).  A coherence between states whose
    mode-2 occupations differ by dn scales as exp(-dn^2 * coherence_arg),
    the signature of a shared random phase.  The result multiplies a
    density matrix entrywise (a random-unitary, hence CP, map).
    """
    if coherence_arg < 0.0:
        raise ValueError("coherence argument must be non-negative")
    n2 = mode2_count_vector(cutoff)
    dn = n2[:, None] - n2[None, :]
    return np.exp(-(dn.astype(float) ** 2) * coherence_arg)


def click_probabilities(cutoff: int, eta: float, dark: float) -> np.ndarray:
    """Per-detector click probability table for the diagonal basis.

    Returns an array P[state, mode] giving the probability that the
    detector watching that mode fires, for a state of definite
    occupation: 1 - (1-eta)^n * (1-dark).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"detection efficiency {eta} outside [0, 1]")
    if not 0.0 <= dark < 1.0:
        raise ValueError(f"dark-count probability {dark} outside [0, 1)")
    occs = np.array(occupations(cutoff), dtype=float)
    return 1.0 - (1.0 - eta) ** occs * (1.0 - dark)


def detection_povm(cutoff: int, basis: np.ndarray | None, eta: float,
                   dark: float) -> dict[str, np.ndarray]:
    """POVM for two threshold detectors behind a mode rotation.

    Args:
        cutoff: sector truncation.
        basis: 2x2 unitary whose columns are the +1 / -1 eigenmodes to
            be separated onto the two detectors (None for the bare mode
            basis).
        eta: detection efficiency applied per excitation.
        dark: per-window dark-count probability of each detector.

    Returns:
        dict with elements "plus", "minus", "both", "none" summing to
        the identity on the sector.
    """
    dim = sector_dim(cutoff)
    pc = click_probabilities(cutoff, eta, dark)
    outcomes = {
        "plus": pc[:, 0] * (1.0 - pc[:, 1]),
        "minus": (1.0 - pc[:, 0]) * pc[:, 1],
        "both": pc[:, 0] * pc[:, 1],
        "none": (1.0 - pc[:, 0]) * (1.0 - pc[:, 1]),
    }
    if basis is None:
        rot = np.eye(dim, dtype=complex)
    else:
        # State amplitudes in the detector basis are <eigenmode|psi>,
        # i.e. the mode map is the adjoint of the eigenvector matrix.
        rot = mode_rotation(cutoff, np.asarray(basis, dtype=complex).conj().T)
    return {
        key: rot.conj().T @ np.diag(diag.astype(complex)) @ rot
        for key, diag in outcomes.items()
    }


def qubit_observable(cutoff: int, obs2: np.ndarray,
                     labels: tuple[str, ...], name: str = "") -> Observable:
    """Embed a 2x2 observable on the single-excitation block of the sector.

    All other basis states are assigned eigenvalue zero, which is the
    convention used for analytic cross-checks on post-selected blocks.
    """
    obs2 = np.asarray(obs2, dtype=complex)
    dim = sector_dim(cutoff)
    i1, i2 = qubit_indices(cutoff)
    mat = np.zeros((dim, dim), dtype=complex)
    sel = np.ix_((i1, i2), (i1, i2))
    mat[sel] = obs2
    return Observable(mat, labels, name=name)
