"""Dense Hermitian matrix utilities shared by every other module.

All operators in this package are small dense complex matrices.  The helpers
here enforce a single hermiticity policy (symmetrize, then reject inputs whose
anti-Hermitian part is large), provide tensor-product bookkeeping (partial
trace, partial transpose), expose spectral helpers (support projectors,
pseudo-inverse square roots) with one shared rank tolerance, and hold the one
check that a list of effects is a measurement and the one check that a table
of probabilities is real.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np

Array = np.ndarray

#: Relative tolerance for treating an eigenvalue as zero.
RANK_TOL = 1e-9

#: Default relative tolerance for hermiticity checks.
HERM_TOL = 1e-12

#: Tolerance of :func:`check_povm`: on each effect's hermiticity and lowest
#: eigenvalue, and on the distance of the effects' sum from the identity.
POVM_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: The three Pauli matrices indexed 0, 1, 2.
PAULIS = (SX, SY, SZ)


def hermitian_part(mats: Array) -> Array:
    """``(M + M^H) / 2`` over the last two axes."""
    return 0.5 * (mats + mats.conj().swapaxes(-1, -2))


def require_hermitian(matrix: Array, tol: float = HERM_TOL) -> Array:
    """Return the Hermitian part of ``matrix``, rejecting clearly non-Hermitian input.

    The anti-Hermitian residue must stay below ``tol`` relative to the matrix
    scale; within that budget the symmetrized matrix is returned so that all
    downstream eigensolves see exactly Hermitian data.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    hermitian = hermitian_part(matrix)
    scale = max(1.0, float(np.linalg.norm(hermitian)))
    residue = float(np.linalg.norm(matrix - hermitian))
    if residue > tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: anti-Hermitian norm {residue:.3e} "
            f"exceeds {tol:.1e} x scale"
        )
    return hermitian


def kron(*factors: Array) -> Array:
    """Kronecker product of one or more matrices, left to right."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    return reduce(np.kron, (np.asarray(f, dtype=complex) for f in factors))


def _as_subsystems(dims: Sequence[int], which: int | Sequence[int]) -> tuple[int, ...]:
    if isinstance(which, (int, np.integer)):
        which = (int(which),)
    subsystems = tuple(int(w) for w in which)
    for w in subsystems:
        if not 0 <= w < len(dims):
            raise ValueError(f"subsystem index {w} out of range for dims {tuple(dims)}")
    if len(set(subsystems)) != len(subsystems):
        raise ValueError(f"repeated subsystem index in {subsystems}")
    return subsystems


def _check_dims(matrix: Array, dims: Sequence[int]) -> Array:
    matrix = np.asarray(matrix, dtype=complex)
    total = int(np.prod(dims))
    if matrix.shape != (total, total):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match dims {tuple(dims)} "
            f"(expected {(total, total)})"
        )
    return matrix


def partial_trace(matrix: Array, dims: Sequence[int], keep: int | Sequence[int]) -> Array:
    """Trace out every tensor factor except the ones listed in ``keep``.

    ``dims`` gives the local dimension of each factor in order; ``keep`` is a
    single index or a sequence of indices of the factors to retain.  The result
    acts on the kept factors in their original order.
    """
    matrix = _check_dims(matrix, dims)
    keep_idx = _as_subsystems(dims, keep)
    n = len(dims)
    tensor = matrix.reshape(*dims, *dims)
    # Row axes are 0..n-1, column axes are n..2n-1.  Contract the dropped pairs.
    row_labels = list(range(n))
    col_labels = list(range(n, 2 * n))
    for axis in range(n):
        if axis not in keep_idx:
            col_labels[axis] = row_labels[axis]
    out_labels = [row_labels[axis] for axis in keep_idx] + [
        col_labels[axis] for axis in keep_idx
    ]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    kept_dim = int(np.prod([dims[axis] for axis in keep_idx]))
    return reduced.reshape(kept_dim, kept_dim)


def partial_transpose(matrix: Array, dims: Sequence[int], which: int | Sequence[int]) -> Array:
    """Transpose the tensor factors listed in ``which``, leaving the rest alone."""
    matrix = _check_dims(matrix, dims)
    swap_idx = _as_subsystems(dims, which)
    n = len(dims)
    tensor = matrix.reshape(*dims, *dims)
    axes = list(range(2 * n))
    for axis in swap_idx:
        axes[axis], axes[n + axis] = axes[n + axis], axes[axis]
    total = int(np.prod(dims))
    return tensor.transpose(axes).reshape(total, total)


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (ascending) and matching orthonormal eigenvectors (columns)."""

    eigenvalues: Array
    eigenvectors: Array


def eigh(matrix: Array) -> SpectralDecomposition:
    """Hermitian eigendecomposition with eigenvalues sorted ascending."""
    hermitian = require_hermitian(matrix)
    values, vectors = np.linalg.eigh(hermitian)
    return SpectralDecomposition(values, vectors)


def is_psd(matrix: Array, tol: float = RANK_TOL) -> bool:
    """Whether ``matrix`` is positive semidefinite up to ``-tol`` on eigenvalues."""
    hermitian = require_hermitian(matrix, tol=max(tol, HERM_TOL))
    values = np.linalg.eigvalsh(hermitian)
    return bool(values.min(initial=0.0) >= -tol)


def _stack_label(index: Sequence[int]) -> str:
    """`` at index i,j`` naming an item of a stack, empty for an unstacked input."""
    return f" at index {','.join(str(int(i)) for i in index)}" if len(index) else ""


def check_povm(effects: Array | Sequence[Array], context: str) -> Array:
    """The effects as one complex array, once each is positive and they sum to the identity.

    ``effects`` has shape ``(..., n, d, d)``: leading axes hold a stack of
    measurements, each checked alike.  Every check runs at :data:`POVM_TOL`;
    a failure raises ``ValueError`` prefixed with ``context`` and, for a
    stack, the index of the first failing measurement.
    """
    try:
        out = np.asarray(effects, dtype=complex)
    except ValueError as exc:
        raise ValueError(f"{context}: effects do not share one shape") from exc
    if out.size == 0 or out.ndim < 3 or out.shape[-1] != out.shape[-2]:
        raise ValueError(f"{context}: effects have shape {out.shape}, expected (..., n, d, d)")
    hermitian = hermitian_part(out)
    scale = np.maximum(1.0, np.linalg.norm(hermitian, axis=(-2, -1)))
    skew = np.linalg.norm(out - hermitian, axis=(-2, -1)) > POVM_TOL * scale
    negative = np.linalg.eigvalsh(hermitian)[..., 0] < -POVM_TOL
    if np.any(skew | negative):
        *index, b = np.argwhere(skew | negative)[0]
        problem = "not Hermitian" if skew[(*index, b)] else "not positive"
        raise ValueError(f"{context}{_stack_label(index)}: effect {b} is {problem}")
    drift = np.linalg.norm(out.sum(axis=-3) - np.eye(out.shape[-1]), axis=(-2, -1))
    if np.any(drift > POVM_TOL):
        index = np.argwhere(drift > POVM_TOL)[0]
        raise ValueError(f"{context}{_stack_label(index)}: effects do not sum to the identity")
    return out


def real_table(values: Array, entry_axes: int, name: str) -> Array:
    """The real part of a table whose last ``entry_axes`` axes index ``(a, b, *inputs)``.

    An entry whose imaginary part exceeds 1e-10 raises ``ValueError`` naming
    the first such entry in C order, and its index in a stack.
    """
    bad = np.abs(values.imag) > 1e-10
    if np.any(bad):
        index = np.argwhere(bad)[0]
        a, b, *inputs = index[-entry_axes:]
        raise ValueError(
            f"{name} ({a},{b}|{','.join(map(str, inputs))}){_stack_label(index[:-entry_axes])} "
            f"has imaginary part {values.imag[tuple(index)]:.3e}"
        )
    return values.real


class SupportOps(NamedTuple):
    """Support-space companions of a positive semidefinite matrix."""

    sqrt_pinv: Array
    support: Array
    kernel: Array


def _zero_threshold(values: Array) -> float:
    scale = float(values.max(initial=0.0))
    return RANK_TOL * max(scale, 1.0) if scale <= 1.0 else RANK_TOL * scale


def support_ops(matrix: Array) -> SupportOps:
    """Pseudo-inverse square root, support projector, and kernel projector.

    Eigenvalues below ``RANK_TOL`` (relative to the largest eigenvalue) count
    as zero; eigenvalues more negative than that threshold raise, since the
    input is meant to be positive semidefinite.
    """
    values, vectors = eigh(matrix)
    threshold = _zero_threshold(values)
    if values.min(initial=0.0) < -threshold:
        raise ValueError(
            f"matrix has negative eigenvalue {values.min():.3e}; "
            "support_ops expects a positive semidefinite input"
        )
    positive = values > threshold
    inv_sqrt = np.zeros_like(values)
    inv_sqrt[positive] = 1.0 / np.sqrt(values[positive])
    on = vectors[:, positive]
    off = vectors[:, ~positive]
    sqrt_pinv = (on * inv_sqrt[positive]) @ on.conj().T
    support = on @ on.conj().T
    kernel = off @ off.conj().T
    return SupportOps(sqrt_pinv, support, kernel)


def sqrt_psd(matrix: Array) -> Array:
    """Positive semidefinite square root, clipping eigenvalue noise at zero."""
    values, vectors = eigh(matrix)
    threshold = _zero_threshold(values)
    if values.min(initial=0.0) < -threshold:
        raise ValueError(
            f"matrix has negative eigenvalue {values.min():.3e}; "
            "sqrt_psd expects a positive semidefinite input"
        )
    clipped = np.sqrt(np.clip(values, 0.0, None))
    return (vectors * clipped) @ vectors.conj().T
