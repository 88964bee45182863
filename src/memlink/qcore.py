"""Dense density-matrix engine for small composite Hilbert spaces.

Every state in the simulator lives in a space of dimension ~40 or less,
so plain complex numpy matrices are used throughout: no sparsity, no
symbolic layer.  States keep their matrix normalized to unit trace and
carry branch probability in a separate ``weight`` field, which lets
lossy, post-selected branches stay explicit instead of being silently
renormalized away.

Tolerances follow two tiers: ``ATOL_EXACT`` for single algebraic steps
and ``ATOL_ACCUM`` for quantities assembled from longer chains of
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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
    """A normalized density matrix plus the probability of its branch.

    Attributes:
        mat: trace-one Hermitian positive semidefinite matrix.
        labels: physical name of each basis index, e.g. ("dn,E", ...).
        weight: probability that the experiment is in this branch.  A
            freshly prepared state has weight 1; conditioning on a lossy
            event multiplies it down.
    """

    mat: np.ndarray
    labels: tuple[str, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        self.mat = _as_complex_matrix(self.mat)
        self.labels = tuple(self.labels)
        if len(self.labels) != self.mat.shape[0]:
            raise QuantumStateError(
                f"{len(self.labels)} labels for dimension {self.mat.shape[0]}"
            )
        if not (0.0 <= self.weight <= 1.0 + ATOL_ACCUM):
            raise QuantumStateError(f"branch weight {self.weight} outside [0, 1]")

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

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.mat.copy(), self.labels, self.weight)

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def probabilities(self) -> np.ndarray:
        """Diagonal populations as a real vector."""
        return np.real(np.diag(self.mat)).copy()

    def relabeled(self, labels: Iterable[str]) -> "DensityMatrix":
        return DensityMatrix(self.mat.copy(), tuple(labels), self.weight)


def pure_state(amplitudes: Sequence[complex], labels: Sequence[str],
               weight: float = 1.0) -> DensityMatrix:
    """Build a DensityMatrix from ket amplitudes (normalized internally)."""
    vec = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm < ATOL_EXACT:
        raise QuantumStateError("cannot normalize a zero ket")
    vec = vec / norm
    return DensityMatrix(np.outer(vec, vec.conj()), tuple(labels), weight)


@dataclass(eq=False)
class Observable:
    """Hermitian operator with named basis indices."""

    mat: np.ndarray
    labels: tuple[str, ...]
    name: str = ""

    def __post_init__(self) -> None:
        self.mat = _as_complex_matrix(self.mat)
        self.labels = tuple(self.labels)
        if len(self.labels) != self.mat.shape[0]:
            raise QuantumStateError(
                f"{len(self.labels)} labels for dimension {self.mat.shape[0]}"
            )
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
    """A completely positive map given by its Kraus operators.

    ``trace_preserving`` channels satisfy sum(K^dag K) = I; sub-unital
    collections (sum <= I) model conditioning on a surviving branch and
    shrink the state weight when applied.
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
        total = self._completeness()
        excess = np.linalg.eigvalsh(total - np.eye(dim)).max()
        if excess > ATOL_ACCUM:
            raise QuantumStateError(
                f"channel {self.name!r} over-complete by {excess:.2e}"
            )

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def _completeness(self) -> np.ndarray:
        return sum(k.conj().T @ k for k in self.operators)

    def is_trace_preserving(self, atol: float = ATOL_ACCUM) -> bool:
        return bool(np.allclose(self._completeness(), np.eye(self.dim), atol=atol))


def tensor(a, b):
    """Kronecker product of two objects of the same kind.

    Accepts two DensityMatrix or two Observable instances; the result's
    labels are the pairwise-joined labels of the factors.
    """
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        labels = tuple(f"{la},{lb}" for la in a.labels for lb in b.labels)
        return DensityMatrix(np.kron(a.mat, b.mat), labels, a.weight * b.weight)
    if isinstance(a, Observable) and isinstance(b, Observable):
        labels = tuple(f"{la},{lb}" for la in a.labels for lb in b.labels)
        name = f"{a.name}*{b.name}" if a.name or b.name else ""
        return Observable(np.kron(a.mat, b.mat), labels, name)
    raise TypeError(
        f"tensor requires two states or two observables, got "
        f"{type(a).__name__} and {type(b).__name__}"
    )


def apply_channel(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Apply sum_k K rho K^dag, renormalizing and updating the weight.

    For a trace-preserving channel the weight is unchanged.  For a
    sub-unital channel the trace that leaks away multiplies the branch
    weight, so probability is tracked explicitly rather than lost.
    """
    if channel.dim != rho.dim:
        raise QuantumStateError(
            f"channel dimension {channel.dim} != state dimension {rho.dim}"
        )
    out = np.zeros_like(rho.mat)
    for k in channel.operators:
        out += k @ rho.mat @ k.conj().T
    survival = float(np.real(np.trace(out)))
    if survival <= ATOL_EXACT:
        # The branch is extinguished; keep a well-formed placeholder state.
        dim = rho.dim
        return DensityMatrix(np.eye(dim, dtype=complex) / dim, rho.labels, 0.0)
    return DensityMatrix(out / survival, rho.labels, rho.weight * survival)


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
                  keep: int, labels: Sequence[str]) -> DensityMatrix:
    """Trace out one factor of a bipartite state.

    Args:
        rho: state on a space of dimension dims[0] * dims[1].
        dims: factor dimensions, in tensor order.
        keep: 0 to keep the first factor, 1 the second.
        labels: labels of the kept factor.
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
    return DensityMatrix(mat, tuple(labels), rho.weight)


def post_select(rho: DensityMatrix, indices: Sequence[int]) -> DensityMatrix:
    """Project onto a subset of basis indices and renormalize.

    The projection probability multiplies the branch weight.  Labels of
    the kept indices carry over.
    """
    idx = np.asarray(indices, dtype=int)
    sub = rho.mat[np.ix_(idx, idx)]
    prob = float(np.real(np.trace(sub)))
    labels = tuple(rho.labels[i] for i in idx)
    if prob <= ATOL_EXACT:
        return DensityMatrix(np.eye(len(idx), dtype=complex) / len(idx), labels, 0.0)
    return DensityMatrix(sub / prob, labels, rho.weight * prob)
