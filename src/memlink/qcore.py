"""Dense operator toolbox for small composite Hilbert spaces.

Every operator in the simulator acts on a two-mode sector of dimension
~10 or less, or on the joint space of two such sectors, so plain numpy
arrays are used throughout: no sparsity, no symbolic layer and no
basis names.  A joint state is a square matrix on (first factor) x
(second factor).  A map on one factor acts on that factor's axes of
the (d0, d1, d0, d1) view, so no operator padded with identities is
ever built.

A channel is a stack of Kraus operators, and ``KrausChannel`` rejects
a stack whose sum(K^dag K) is not the identity, so no probability can
leak out of a state unnoticed.  A stack may carry leading axes (one
channel per delay, say); every channel in it is checked, and an empty
one passes.  A channel acts forward on a state, or on a stack of
states in one product (``apply_to_second``), or backward on
measurement effects (``adjoint_matrix``, the Heisenberg picture:
Tr[E Phi(rho)] = Tr[Phi^dag(E) rho]).  The adjoint and the Kraus check
are each one batched matrix product over the Kraus index.

``ATOL_ACCUM`` is the tolerance for quantities assembled from chains of
operations, such as the completeness of a Kraus set.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(eq=False)
class KrausChannel:
    """A completely positive, trace-preserving map given by its Kraus
    operators, a real or complex (..., m, d, d) stack: the constructor
    rejects a set whose sum(K^dag K) is not the identity, so a
    sub-unital set cannot silently lose probability when applied.
    """

    operators: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        ops = np.asarray(self.operators)
        if ops.ndim < 3 or ops.shape[-3] == 0:
            raise QuantumStateError(
                "a channel needs at least one Kraus operator")
        if ops.shape[-1] != ops.shape[-2]:
            raise QuantumStateError(
                f"Kraus operators must be square, got shape {ops.shape}")
        self.operators = ops
        total = (ops.conj().swapaxes(-1, -2) @ ops).sum(-3)
        # an empty stack holds no channel to check
        deviation = np.abs(np.linalg.eigvalsh(
            total - np.eye(self.dim))).max(initial=0.0)
        if deviation > ATOL_ACCUM:
            raise QuantumStateError(
                f"channel {self.name!r} is not trace preserving "
                f"(sum of K^dag K deviates from I by {deviation:.2e})"
            )

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]


def apply_to_second(rho: np.ndarray, channel: KrausChannel) -> np.ndarray:
    """sum_k (1 x K) rho (1 x K)^dag for a joint state, or a (..., D, D)
    stack of them, whose second factor the (unstacked) channel acts on.

    One product: the channel's matrix on the second factor's row-
    flattened (ket, bra) pairs, which is the conjugate of its adjoint's,
    meets every state's block for each pair of first-factor indices.
    """
    d = channel.dim
    d0 = rho.shape[-1] // d
    # rho[n, a, c, a', c'] as rows (c, c'), columns (n, a, a')
    cols = rho.reshape(-1, d0, d, d0, d).transpose(2, 4, 0, 1, 3)
    out = adjoint_matrix(channel).conj() @ cols.reshape(d * d, -1)
    return (out.reshape(d, d, -1, d0, d0).transpose(2, 3, 0, 4, 1)
            .reshape(rho.shape))


def adjoint_matrix(channel: KrausChannel) -> np.ndarray:
    """The adjoint E -> sum_k K^dag E K as a (..., d*d, d*d) matrix on
    row-flattened operators: Phi^dag(E).ravel() = E.ravel() @ M.

    One matrix per channel of a stack; the adjoint of Phi then Psi is
    M_Psi @ M_Phi, so a chain of maps composes by matrix products
    (Wood, Biamonte & Cory, arXiv:1111.6950).  It is built as one
    matrix product over the Kraus index, so where each entry has at
    most one nonzero Kraus term, as in every loss and transfer channel,
    it equals the entry-wise sum bit for bit.
    """
    ops = channel.operators
    d = channel.dim
    # sum_k conj(K_k)[x, a] K_k[y, b] as one (x a, k) @ (k, y b) product
    left = ops.conj().reshape(ops.shape[:-2] + (d * d,)).swapaxes(-1, -2)
    mat = left @ ops.reshape(ops.shape[:-2] + (d * d,))
    mat = mat.reshape(ops.shape[:-3] + (d, d, d, d)).swapaxes(-3, -2)
    return mat.reshape(ops.shape[:-3] + (d * d, d * d))
