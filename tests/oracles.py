"""Analytic reference helpers for the tests, on plain numpy arrays.

The chain never builds a state from a ket, post-selects a block, takes
an expectation value or starts from a bare qubit; these helpers do, so
the tests can check the chain's output against hand-derivable states
and expectation values.  Matrices go in and come out as arrays.

The chain builds the detector POVM as a polynomial in the dark rate;
``detection_povm`` is the reference product of click probabilities it
is checked against.

The chain also never evolves a joint state through node A's storage:
it pulls node A's POVM back instead.  ``decohere_state`` is the forward
(Schroedinger-picture) reference for that step, on the whole joint
matrix with every Kraus operator padded by identities, so the tests can
check the Heisenberg engine against a walk that shares none of its
contractions.
"""

import math

import numpy as np

from memlink import dualrail
from memlink.detection import DetectionConfig, _node_matrix, _z_sign_b
from memlink.memory_a import (MemoryConfigError, retrieval_weights,
                              zeeman_phase_increment)

ATOL = 1e-9


def pure_state(amplitudes) -> np.ndarray:
    """Density matrix of a ket, normalized here."""
    vec = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm < 1e-10:
        raise ValueError("cannot normalize a zero ket")
    vec = vec / norm
    return np.outer(vec, vec.conj())


def validate(rho, atol: float = ATOL) -> None:
    """Assert that rho is Hermitian, of unit trace and positive."""
    rho = np.asarray(rho)
    assert np.allclose(rho, rho.conj().T, atol=atol), "not Hermitian"
    assert abs(rho.trace() - 1.0) <= atol, f"trace {rho.trace()} is not 1"
    low = np.linalg.eigvalsh(rho).min()
    assert low >= -atol, f"negative eigenvalue {low}"


def expectation(rho, obs) -> float:
    """Tr(rho O), asserting that no imaginary part is left over."""
    val = np.trace(np.asarray(rho) @ np.asarray(obs))
    assert abs(val.imag) <= ATOL, f"imaginary residue {val.imag:.2e}"
    return float(val.real)


def post_select(rho, indices) -> tuple[np.ndarray, float]:
    """Block of rho on the basis indices, renormalized, and its weight;
    a block of weight zero gives the maximally mixed state."""
    idx = np.asarray(indices, dtype=int)
    sub = np.asarray(rho)[np.ix_(idx, idx)]
    prob = float(np.real(np.trace(sub)))
    if prob <= 1e-10:
        return np.eye(len(idx), dtype=complex) / len(idx), 0.0
    return sub / prob, prob


def project_basis(setting, cfg: DetectionConfig | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 observable of each node for a basis setting."""
    cfg = cfg or DetectionConfig()
    return (_node_matrix(setting.node_a, 1.0),
            _node_matrix(setting.node_b, _z_sign_b(setting.node_b, cfg)))


def from_qubit_block(mat2, cutoff: int = 2) -> np.ndarray:
    """A stored qubit's sector matrix whose single-excitation block is
    mat2."""
    mat2 = np.asarray(mat2, dtype=complex)
    if mat2.shape != (2, 2):
        raise ValueError(f"expected a 2x2 block, got {mat2.shape}")
    dim = dualrail.sector_dim(cutoff)
    block = np.ix_(dualrail.qubit_indices(cutoff),
                   dualrail.qubit_indices(cutoff))
    mat = np.zeros((dim, dim), dtype=complex)
    mat[block] = mat2
    return mat


def click_probabilities(cutoff: int, eta: float, dark: float) -> np.ndarray:
    """P[state, mode]: the probability that the detector watching that
    mode fires, for a state of definite occupation n:
    1 - (1 - eta)^n (1 - dark)."""
    occs = np.array(dualrail.occupations(cutoff), dtype=float)
    return 1.0 - (1.0 - eta) ** occs * (1.0 - dark)


def detection_povm(cutoff: int, rot, eta: float,
                   dark: float) -> dict[str, np.ndarray]:
    """Two threshold detectors behind the sector unitary ``rot`` (None
    for the bare mode basis), each element a product of one click or
    miss probability per detector."""
    pc = click_probabilities(cutoff, eta, dark)
    outcomes = {
        "plus": pc[:, 0] * (1.0 - pc[:, 1]),
        "minus": (1.0 - pc[:, 0]) * pc[:, 1],
        "both": pc[:, 0] * pc[:, 1],
        "none": (1.0 - pc[:, 0]) * (1.0 - pc[:, 1]),
    }
    if rot is None:
        rot = np.eye(dualrail.sector_dim(cutoff), dtype=complex)
    return {key: rot.conj().T @ np.diag(diag.astype(complex)) @ rot
            for key, diag in outcomes.items()}


def apply_channel(rho, operators) -> np.ndarray:
    """sum_k K rho K^dag over a list or stack of Kraus operators."""
    rho = np.asarray(rho)
    return sum(k @ rho @ k.conj().T for k in operators)


def partial_trace(rho, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite state (keep 0 or 1)."""
    d0, d1 = dims
    t = np.asarray(rho).reshape(d0, d1, d0, d1)
    if keep == 0:
        return np.einsum("ikjk->ij", t)
    if keep == 1:
        return np.einsum("kikj->ij", t)
    raise ValueError("keep must be 0 or 1")


def embedded(operators, left: int, right: int) -> list[np.ndarray]:
    """Every operator padded with identities: kron(I_left, K, I_right)."""
    return [np.kron(np.kron(np.eye(left), k), np.eye(right))
            for k in operators]


def phase_unitary(cutoff: int, phi: float) -> np.ndarray:
    """Diagonal unitary putting phase exp(-i phi) on each mode-2 quantum."""
    return np.diag([np.exp(-1j * phi * n2)
                    for _, n2 in dualrail.occupations(cutoff)])


def decohere_state(rho, cutoff: int, duration_s: float, c,
                   g) -> tuple[np.ndarray, tuple]:
    """Node A's storage for ``duration_s`` after the write pulse, forward.

    ``rho`` lives on (atomic sector) x (rest).  Applies the bias-field
    phase, T1 transfer and Gaussian T2* dephasing; returns the state and
    the per-mode retrieval weights at the end.  Neither the readout loss
    nor the mains ripple is applied.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = dualrail.sector_dim(cutoff)
    if rho.shape[0] % dim:
        raise MemoryConfigError(
            f"state dimension {rho.shape[0]} does not contain the "
            f"{dim}-dimensional atomic sector as first factor")
    if duration_s < 0.0:
        raise MemoryConfigError("duration must be non-negative")
    rest = rho.shape[0] // dim
    u = np.kron(phase_unitary(cutoff, zeeman_phase_increment(c, duration_s)),
                np.eye(rest))
    rho = u @ rho @ u.conj().T
    gamma = 1.0 - math.exp(-duration_s / c.t1_s)
    transfer = dualrail.transfer_channel(cutoff, gamma).operators
    rho = apply_channel(rho, embedded(transfer, 1, rest))
    if math.isfinite(c.t2_star_s):
        env = dualrail.dephasing_envelope(
            cutoff, duration_s ** 2 / c.t2_star_s ** 2)
        rho = rho * np.kron(env, np.ones((rest, rest)))
    return rho, retrieval_weights(duration_s, c, g)


def single_excitation_block(rho, cutoff: int) -> tuple[np.ndarray, float]:
    """Post-select one spin wave x one photon of an atom x photon state:
    the block ordered (dn,E), (dn,L), (up,E), (up,L), and its weight."""
    dim = dualrail.sector_dim(cutoff)
    a1, a2 = dualrail.qubit_indices(cutoff)
    return post_select(rho, [a1 * dim + a1, a1 * dim + a2,
                             a2 * dim + a1, a2 * dim + a2])


def excitation_probabilities(rho, cutoff: int) -> np.ndarray:
    """Probability of each total photon number 0..cutoff of an
    atom x photon state."""
    dim = dualrail.sector_dim(cutoff)
    photon = np.real(np.diag(rho)).reshape(dim, dim).sum(axis=0)
    out = np.zeros(cutoff + 1)
    for j, (n1, n2) in enumerate(dualrail.occupations(cutoff)):
        out[n1 + n2] += photon[j]
    return out
