"""Dense density-matrix engine for small composite Hilbert spaces.

Every state in the simulator lives in a space of dimension ~40 or less,
so plain complex numpy matrices are used throughout: no sparsity, no
symbolic layer and no basis names.  States keep their matrix
normalized to unit trace, and every channel must preserve trace, so
no probability can leak out of a state unnoticed.  The one step that
discards probability, ``post_select``, returns it beside the state.

Tolerances follow two tiers: ``ATOL_EXACT`` for single algebraic steps
and ``ATOL_ACCUM`` for quantities assembled from longer chains of
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ATOL_EXACT = 1e-10
ATOL_ACCUM = 1e-9

# Single-qubit Pauli matrices, used as building blocks for observables.
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class QuantumStateError(ValueError):
    """Raised when a matrix fails the checks required of its role."""


def _as_complex_matrix(mat: np.ndarray | Sequence) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise QuantumStateError(f"expected a square matrix, got shape {arr.shape}")
    return arr


@dataclass(eq=False)
class DensityMatrix:
    """A density matrix: a square complex matrix, checked by ``validate``
    to be Hermitian, of unit trace and positive semidefinite."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        self.mat = _as_complex_matrix(self.mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def validate(self, atol: float = ATOL_ACCUM) -> None:
        """Check Hermiticity, unit trace and positivity; raise if violated."""
        if not np.allclose(self.mat, self.mat.conj().T, atol=atol):
            raise QuantumStateError("density matrix is not Hermitian")
        tr = self.mat.trace()
        if abs(tr - 1.0) > atol:
            raise QuantumStateError(f"density matrix trace {tr} is not 1")
        eigs = np.linalg.eigvalsh(self.mat)
        if eigs.min() < -atol:
            raise QuantumStateError(f"negative eigenvalue {eigs.min()}")

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def probabilities(self) -> np.ndarray:
        """Diagonal populations as a real vector."""
        return np.real(np.diag(self.mat)).copy()


def pure_state(amplitudes: Sequence[complex]) -> DensityMatrix:
    """Build a DensityMatrix from ket amplitudes (normalized internally)."""
    vec = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm < ATOL_EXACT:
        raise QuantumStateError("cannot normalize a zero ket")
    vec = vec / norm
    return DensityMatrix(np.outer(vec, vec.conj()))


@dataclass(eq=False)
class Observable:
    """Hermitian operator, named for error messages."""

    mat: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        self.mat = _as_complex_matrix(self.mat)
        if not np.allclose(self.mat, self.mat.conj().T, atol=ATOL_EXACT):
            raise QuantumStateError(f"observable {self.name!r} is not Hermitian")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_dichotomic(self, atol: float = ATOL_ACCUM) -> bool:
        """True when the spectrum is exactly {+1, -1} (O^2 = I)."""
        return bool(np.allclose(self.mat @ self.mat, np.eye(self.dim), atol=atol))


@dataclass(eq=False)
class KrausChannel:
    """A completely positive, trace-preserving map given by its Kraus
    operators: the constructor rejects a set whose sum(K^dag K) is not
    the identity, so a sub-unital set cannot silently renormalize
    probability away when applied.
    """

    operators: list[np.ndarray]
    name: str = ""

    def __post_init__(self) -> None:
        self.operators = [_as_complex_matrix(k) for k in self.operators]
        if not self.operators:
            raise QuantumStateError("a channel needs at least one Kraus operator")
        dim = self.operators[0].shape[0]
        if any(k.shape != (dim, dim) for k in self.operators):
            raise QuantumStateError("Kraus operators must share one dimension")
        total = sum(k.conj().T @ k for k in self.operators)
        deviation = np.abs(np.linalg.eigvalsh(total - np.eye(dim))).max()
        if deviation > ATOL_ACCUM:
            raise QuantumStateError(
                f"channel {self.name!r} is not trace preserving "
                f"(sum of K^dag K deviates from I by {deviation:.2e})"
            )

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def apply_channel(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Apply sum_k K rho K^dag and divide by the trace, which the
    channel preserves up to rounding."""
    if channel.dim != rho.dim:
        raise QuantumStateError(
            f"channel dimension {channel.dim} != state dimension {rho.dim}"
        )
    out = np.zeros_like(rho.mat)
    for k in channel.operators:
        out += k @ rho.mat @ k.conj().T
    return DensityMatrix(out / float(np.real(np.trace(out))))


def expectation(rho: DensityMatrix, obs: Observable) -> float:
    """Tr(rho O) for the normalized branch state.

    Raises if the residual imaginary part exceeds the accumulated
    tolerance, which catches mismatched operator/state conventions.
    """
    if obs.dim != rho.dim:
        raise QuantumStateError(
            f"observable dimension {obs.dim} != state dimension {rho.dim}"
        )
    val = np.trace(rho.mat @ obs.mat)
    if abs(val.imag) > ATOL_ACCUM:
        raise QuantumStateError(
            f"expectation of {obs.name!r} has imaginary residue {val.imag:.2e}"
        )
    return float(val.real)


def partial_trace(rho: DensityMatrix, dims: tuple[int, int],
                  keep: int) -> DensityMatrix:
    """Trace out one factor of a bipartite state.

    Args:
        rho: state on a space of dimension dims[0] * dims[1].
        dims: factor dimensions, in tensor order.
        keep: 0 to keep the first factor, 1 the second.
    """
    d0, d1 = dims
    if d0 * d1 != rho.dim:
        raise QuantumStateError(f"dims {dims} incompatible with dimension {rho.dim}")
    t = rho.mat.reshape(d0, d1, d0, d1)
    if keep == 0:
        mat = np.einsum("ikjk->ij", t)
    elif keep == 1:
        mat = np.einsum("kikj->ij", t)
    else:
        raise ValueError("keep must be 0 or 1")
    return DensityMatrix(mat)


def post_select(rho: DensityMatrix, indices: Sequence[int]
                ) -> tuple[DensityMatrix, float]:
    """Project onto a subset of basis indices and renormalize.

    Returns the renormalized state and the projection probability; a
    projection of probability zero gives the maximally mixed state.
    """
    idx = np.asarray(indices, dtype=int)
    sub = rho.mat[np.ix_(idx, idx)]
    prob = float(np.real(np.trace(sub)))
    if prob <= ATOL_EXACT:
        return DensityMatrix(np.eye(len(idx), dtype=complex) / len(idx)), 0.0
    return DensityMatrix(sub / prob), prob
