"""Dense density-matrix engine for small composite Hilbert spaces.

Every state in the simulator lives in a space of dimension ~40 or less,
so plain complex numpy matrices are used throughout: no sparsity, no
symbolic layer and no basis names.  States keep their matrix
normalized to unit trace, and every channel must preserve trace, so
no probability can leak out of a state unnoticed.

``ATOL_ACCUM`` is the tolerance for quantities assembled from chains of
operations, such as the completeness of a Kraus set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ATOL_ACCUM = 1e-9

# Single-qubit Pauli matrices, the building blocks of the basis settings.
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
    """A density matrix as a square complex matrix; the trace-preserving
    channels that build it keep it Hermitian, positive and of unit trace."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        self.mat = _as_complex_matrix(self.mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


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
