"""Small semidefinite programming solver over sparse equality rows.

Problems are stated over a product of complex Hermitian blocks:

    minimize    Re tr(C X)
    subject to  Re tr(A_i X) = b_i      for each equality row i,
                X block-wise positive semidefinite.

A problem is its data in svec coordinates (:class:`SdpProblem`): ``c``,
``a`` as one CSR array with one row per equality and one column per packed
coordinate, and ``b``.  There is no other format; every producer writes
these arrays, every consumer (the solver, the phase-one probe, the audits)
reads the rows as CSR, and nothing densifies them.  A side-``n`` block has
``n**2`` coordinates: the real symmetric svec of its real part (the
diagonal, then ``sqrt(2)`` times the strict lower triangle), then ``sqrt(2)``
times the imaginary part of the strict lower triangle, so ``svec(A) .
svec(B) = Re tr(A B)``.  Real data give zero imaginary coordinates and real
iterates.

The solver runs a homogeneous self-dual interior-point method with
Nesterov-Todd scaling and Mehrotra predictor-corrector steps, so a run ends
either near an optimal primal-dual pair or on an explicit Farkas certificate
of infeasibility.  Every producer emits independent equality rows, and the
one presolve is the proof: a Cholesky factorization of their shifted Gram
matrix.  Rows it cannot prove independent are refused with ``ValueError``.
The blocks are complex Hermitian cones, as in SeDuMi (Sturm, *Optim. Methods
Softw.* 11-12 (1999)): the scaling, the corrector, the step lengths and the
congruences ``W A W`` run in complex arithmetic, while the Schur complement
and ``x``, ``s``, ``y`` are real.  The NT scaling is Todd, Toh & Tutuncu's
factored form (:class:`_Scaling`).  A step is accepted once its new iterate
factors: it is halved until then, as in SDPT3, and the accepted iterate's
scaling serves the next iteration; a step halved below ``1e-12`` ends the
solve ``numerical_trouble``.

Indexed blocks tied by real rows (:class:`HermitianBlockBuilder`: one row
per trace equality, one per svec coordinate of a matrix equality) are packed
a whole coefficient stack at a time as ``(row, column, value)`` triplets.  A
linear matrix inequality solved through the dual is written entry by entry
(:func:`svec_entries`), with no dense coefficient matrix.

Every membership test, :func:`feasibility_phase1` among them, returns a
:class:`MembershipReport`, whose ``verdict`` is the program's one rule from a
margin to inside, outside or undecided.  A report comes from a solve
(:meth:`MembershipReport.from_solve`) or, when the data alone rule the
instance out, from :func:`ruled_out_report`.

The iteration never loops over single blocks.  Blocks of equal side are
gathered once per solve into ``(K, n, n)`` stacks, and the scaling, the
corrector, the step lengths and the congruences run over each stack at
once.  Side-2 stacks, one block per deterministic strategy and trusted input
in a hidden-state problem, have closed forms, since a per-matrix LAPACK or
BLAS call costs more than a 2 x 2 matrix's arithmetic: their products sum
broadcast outer products (:func:`_mul`, which side 1 shares), and the SVD of
the NT scaling and the step length's smallest eigenvalue are 2 x 2
formulas.  Every other side calls batched LAPACK and stacked ``@``, and every
side's Cholesky factors come from LAPACK.  The Schur complement is formed
from the rows' entries, ``S_ij = sum_k <A_jk, W_k A_ik W_k>`` with ``W_k``
the NT scaling matrix (SDPA's formula for sparse rows; Fujisawa, Kojima &
Nakata, *Math. Program.* 79 (1997)).  Each solve sorts the CSR entries of
its rows once and splits each side group into touch classes, the blocks
touched by the same number of rows, so no block is padded to another's rank
count.  Each iteration builds ``W A W`` for every row on the blocks it
touches, as a sum of one outer product of a column and a row of ``W`` per
entry (broadcast up to side 2, as in :func:`_mul`), and pairs it with the
other rows' entries in one sparse product per touch class.  There is no Gram
product in the iteration.  The ``W A W`` buffer is filled and paired one
piece of ranks at a time, and only one piece is alive.  Rows that share no
block with each other, each the first row on every block it touches, have a
diagonal block of the Schur complement, so they go first: their factor is
the square root of that diagonal, the elimination is exact, and LAPACK
factors only the trailing block of the other rows (in a hidden-state phase
one, the trace ties go first, and 72 of 319 rows remain at ``m_a = 8``).  A
program with fewer than two such rows, as every one-block program, is
factored whole.  That block, or the whole matrix, is factored by numpy's
LAPACK, like the blocks' Cholesky factors, so the iteration's matrix-matrix
work runs in one BLAS thread pool (numpy and scipy may each load their own);
only the one-vector triangular solves against that factor call scipy's
LAPACK ``potrs``, fetched once per solve.  One Schur matrix is alive at a
time: it is factored as it is (a shifted copy is made only for a jitter),
dropped once factored, and its factor goes before the next iteration's
Schur complement is assembled.

The solver is deterministic: re-solving the same problem reproduces the same
iterates bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from steercert.matcore import hermitian_part

if TYPE_CHECKING:
    from scipy import sparse

Array = np.ndarray

#: The phases of an interior-point iteration that :attr:`SdpSolution.phase_seconds` times.
PHASES = ("scaling", "schur", "cholesky", "step")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_TROUBLE = "numerical_trouble"

#: Equality rows count as independent only when their smallest singular value
#: provably exceeds this times their largest norm (the presolve's one check).
#: The rounding margin of that proof binds first: ``m`` rows of ``n`` columns
#: are refused when ``sigma_min(a)**2 <= 2 (m + n) eps tr(a a^T)``, up to
#: ``2.5e-5`` times the largest row norm for a (4,3,2) relaxation bound.
PRESOLVE_RANK_TOL = 1e-10

#: Complex entries per piece of the Schur complement's ``W A W`` buffer, which
#: is filled and paired a run of ranks at a time (4 MiB).
_SLICE_ENTRIES = 1 << 18

#: Side of the blocks in which the assembled Schur complement is symmetrized.
_SYMMETRIZE_SIDE = 256


# ---------------------------------------------------------------------------
# Hermitian vectorization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[Array, Array, Array, Array]:
    """Where the svec coordinates of an ``n x n`` matrix sit in its float view.

    Entry ``(i, j)`` holds its real part at float ``2 (i n + j)`` and its
    imaginary part one further.  Coordinate ``p`` is ``weights[p]`` times the
    float at ``lower[p]``, on or below the diagonal; the mirror float at
    ``upper[p]`` is ``mirror[p]`` (+1 real, -1 imaginary) times that float.
    """
    rows, cols = np.tril_indices(n)
    strict_rows, strict_cols = np.tril_indices(n, -1)
    lower = np.concatenate([2 * (rows * n + cols), 2 * (strict_rows * n + strict_cols) + 1])
    upper = np.concatenate([2 * (cols * n + rows), 2 * (strict_cols * n + strict_rows) + 1])
    weights = np.where(lower // 2 % (n + 1) == 0, 1.0, np.sqrt(2.0))
    mirror = np.where(lower % 2 == 0, 1.0, -1.0)
    return lower, upper, weights, mirror


def svec_dim(n: int) -> int:
    """Length of the packed vector for a Hermitian ``n x n`` matrix."""
    return n * n


def _block_offsets(dims: Sequence[int]) -> Array:
    """Start of each block's coordinates in the packed vector, then the total length."""
    return np.concatenate([[0], np.cumsum([svec_dim(n) for n in dims])]).astype(int)


def _svec_identity(dims: Sequence[int]) -> Array:
    out = np.empty(int(_block_offsets(dims)[-1]))
    for group in _side_groups(dims):
        out[group.gather] = svec(np.eye(group.side))
    return out


def svec(mats: Array) -> Array:
    """Pack Hermitian matrices (the last two axes) so that dot products are ``Re tr(A B)``.

    Only the lower triangle is read.
    """
    mats = np.ascontiguousarray(mats, dtype=complex)
    n = mats.shape[-1]
    lower, _, weights, _ = _layout(n)
    return mats.view(float).reshape(mats.shape[:-2] + (2 * n * n,))[..., lower] * weights


def svec_entries(index: Array, rows: Array, cols: Array, values: Array, n: int) -> tuple[Array, ...]:
    """The places ``(vector, coordinate, value)``, zeros kept, that Hermitian
    entries ``values`` at ``(rows, cols)``, on or below the diagonal, take in
    the packed side-``n`` vectors ``index``: each real part, times ``sqrt(2)``
    off the diagonal, and off the diagonal ``sqrt(2)`` times each imaginary
    part, as :func:`svec` of a matrix with that lower triangle would.
    """
    strict = rows != cols
    low, left = rows[strict], cols[strict]
    coords = [rows * (rows + 1) // 2 + cols, n * (n + 1) // 2 + low * (low - 1) // 2 + left]
    scaled = [values.real * np.where(strict, np.sqrt(2.0), 1.0), values.imag[strict] * np.sqrt(2.0)]
    return np.concatenate([index, index[strict]]), np.concatenate(coords), np.concatenate(scaled)


def smat(vector: Array) -> Array:
    """Inverse of :func:`svec`: a complex Hermitian matrix."""
    vector = np.asarray(vector, dtype=float)
    n = int(round(np.sqrt(len(vector))))
    if svec_dim(n) != len(vector):
        raise ValueError(f"vector of length {len(vector)} is not a packed Hermitian matrix")
    return _smat_batch(vector, n)


def _smat_batch(vecs: Array, n: int) -> Array:
    """:func:`smat` over the last axis of a stack of packed vectors."""
    lower, upper, weights, mirror = _layout(n)
    out = np.zeros(vecs.shape[:-1] + (n, n), dtype=complex)
    flat = out.view(float).reshape(vecs.shape[:-1] + (2 * n * n,))
    values = vecs / weights
    flat[..., lower] = values
    flat[..., upper] = values * mirror
    return out


def _t(mats: Array) -> Array:
    """Conjugate transpose over the last two axes."""
    return mats.conj().swapaxes(-1, -2)


def _mul(a: Array, b: Array, out: Array | None = None) -> Array:
    """``a @ b`` over stacks, into ``out`` if given.  Up to two rows of ``a``
    it sums broadcast outer products of ``a``'s columns and ``b``'s rows:
    numpy's ``@`` calls BLAS once per matrix, which costs more than the
    arithmetic of so small a product."""
    if a.shape[-2] > 2:
        return np.matmul(a, b, out=out)
    out = np.multiply(a[..., :, 0, None], b[..., None, 0, :], out=out)
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


# ---------------------------------------------------------------------------
# Problem containers
# ---------------------------------------------------------------------------


@dataclass
class SdpProblem:
    """A block semidefinite program over complex Hermitian variables, in svec coordinates.

    ``c`` and every row of ``a`` concatenate one :func:`svec` per block of
    ``block_dims``: the program minimizes ``c . x`` subject to ``a x = b``,
    with every block of ``x`` positive semidefinite.  Block ``k``
    of side ``n`` owns ``n**2`` coordinates; with real data, the imaginary
    ones are zero.  Whatever 2-D rows ``a`` is given, it is stored as a CSR
    array with sorted indices, duplicates summed and no stored zeros.
    """

    block_dims: tuple[int, ...]
    c: Array
    a: sparse.csr_array
    b: Array

    def __post_init__(self) -> None:
        # scipy.sparse takes 0.13-0.15 s to import after numpy: the first problem loads it.
        from scipy import sparse
        self.block_dims = tuple(int(n) for n in self.block_dims)
        for k, dim in enumerate(self.block_dims):
            if dim < 1:
                raise ValueError(f"block {k} has non-positive dimension {dim}")
        total = int(_block_offsets(self.block_dims)[-1])
        self.c, self.b = (np.asarray(v, dtype=float) for v in (self.c, self.b))
        self.a = sparse.csr_array(self.a, dtype=float, copy=True)
        self.a.sum_duplicates()
        self.a.eliminate_zeros()
        if self.c.shape != (total,) or self.b.ndim != 1 or self.a.shape != (len(self.b), total):
            raise ValueError(
                f"c, a, b have shapes {self.c.shape}, {self.a.shape}, {self.b.shape}; "
                f"these blocks need ({total},), (m, {total}), (m,)"
            )

    @property
    def num_rows(self) -> int:
        return len(self.b)


@dataclass
class SdpSolution:
    """Outcome of a solve: a status, values, block matrices, and audit residuals.

    For ``infeasible`` runs ``y`` holds the Farkas certificate (normalized so
    that ``b . y = 1``) and the block values are absent.  Every other status
    reports the last iterate the solve checked, the optimal one or the one it
    stopped at, and its residuals.  ``phase_seconds``
    sums, over the iterations, the seconds spent in each of :data:`PHASES`:
    the Nesterov-Todd scaling, the Schur complement's assembly, its Cholesky
    factorization, and the rest of the step (the Newton solves, the
    corrector and the step lengths).
    """

    status: str
    primal_value: float
    dual_value: float
    block_values: list[Array] | None
    y: Array | None
    residuals: dict[str, float]
    iterations: int
    note: str = ""
    phase_seconds: dict[str, float] = field(default_factory=dict)


def equality_residuals(problem: SdpProblem, block_values: Sequence[Array]) -> Array:
    """Signed residual ``a x - b`` of every equality row at the given Hermitian block values."""
    packed = np.empty(problem.a.shape[1])
    for group in _side_groups(problem.block_dims):
        packed[group.gather] = svec(np.stack([block_values[k] for k in group.blocks]))
    return problem.a @ packed - problem.b


def farkas_terms(problem: SdpProblem, y: Array) -> tuple[float, float]:
    """Quality of an infeasibility certificate ``y``.

    Returns ``b . y`` together with the largest eigenvalue over blocks of
    ``sum_i y_i A_i``; a valid certificate has the first positive and the
    second at most zero (up to roundoff).
    """
    combo = problem.a.T @ y
    max_eig = max(
        float(np.linalg.eigvalsh(group.unpack(combo)).max())
        for group in _side_groups(problem.block_dims)
    )
    return float(problem.b @ y), max_eig


# ---------------------------------------------------------------------------
# The interior-point engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SideGroup:
    """The blocks of one side, in problem order, and their svec coordinates.

    ``gather[k]`` indexes block ``blocks[k]`` in the packed vector, so
    ``vector[gather]`` packs the whole group as a ``(K, svec_dim(side))``
    stack and ``out[gather] = ...`` scatters one back.
    """

    side: int
    blocks: Array
    gather: Array

    def unpack(self, vector: Array) -> Array:
        """The group's blocks of a packed vector as a ``(K, side, side)`` stack."""
        return _smat_batch(vector[self.gather], self.side)


def _side_groups(dims: Sequence[int]) -> list[_SideGroup]:
    """Blocks grouped by side; blocks of one side need not be contiguous."""
    offsets = _block_offsets(dims)
    dims_arr = np.asarray(dims)
    groups = []
    for side in sorted(set(dims)):
        blocks = np.flatnonzero(dims_arr == side)
        gather = offsets[blocks][:, None] + np.arange(svec_dim(side))
        groups.append(_SideGroup(side, blocks, gather))
    return groups


def _unpack_blocks(vector: Array, groups: list[_SideGroup]) -> list[Array]:
    """Every block of a packed vector, in problem order."""
    blocks = {}
    for group in groups:
        blocks.update(zip(group.blocks.tolist(), group.unpack(vector)))
    return [blocks[k] for k in range(len(blocks))]


@dataclass
class _Scaling:
    """Nesterov-Todd scaling of a ``(K, n, n)`` stack of blocks, in the
    Todd-Toh-Tutuncu factored form (Todd, Toh & Tutuncu, *SIAM J. Optim.* 8
    (1998); Toh, Todd & Tutuncu, *Optim. Methods Softw.* 11 (1999)).

    With Cholesky factors ``x = L_x L_x^H``, ``s = L_s L_s^H`` and the SVD
    ``L_s^H L_x = U diag(lam) V^H``, ``g = L_x V diag(lam)^-1/2`` and ``g_inv
    = diag(lam)^-1/2 U^H L_s^H`` is its inverse.  ``w = g g^H`` is the
    scaling matrix, with ``w s w = x``, and the scaled point ``g_inv x
    g_inv^H = g^H s g`` is ``diag(lam)``: the corrector and the step lengths
    read the directions in that diagonal frame, through :meth:`primal` and
    :meth:`dual`.  For side 2 the step length's smallest eigenvalue is a
    closed form; every other side calls LAPACK's ``eigvalsh``.
    """

    w: Array
    g: Array
    g_inv: Array
    lam: Array

    def primal(self, dmats: Array) -> Array:
        """A primal direction in the scaled frame, ``g_inv d g_inv^H``."""
        return _mul(_mul(self.g_inv, dmats), _t(self.g_inv))

    def dual(self, dmats: Array) -> Array:
        """A dual direction in the scaled frame, ``g^H d g``."""
        return _mul(_mul(_t(self.g), dmats), self.g)

    def max_step(self, scaled: Array) -> float:
        """Largest alpha keeping ``diag(lam) + alpha scaled`` positive semidefinite.

        It is ``-1 / lambda_min(diag(lam)^-1/2 scaled diag(lam)^-1/2)`` over the stack.
        """
        root_inv = 1.0 / np.sqrt(self.lam)
        balanced = scaled * (root_inv[..., :, None] * root_inv[..., None, :])
        if scaled.shape[-1] == 2:
            a, d, b = balanced[..., 0, 0].real, balanced[..., 1, 1].real, balanced[..., 1, 0]
            min_eig = float(((a + d) / 2 - np.hypot((a - d) / 2, np.abs(b))).min())
        else:
            min_eig = float(np.linalg.eigvalsh(balanced).min())
        return -1.0 / min_eig if min_eig < -1e-14 else np.inf


def _svd_side2(m: Array, det: Array) -> tuple[Array, Array, Array]:
    """``np.linalg.svd`` of a ``(K, 2, 2)`` stack whose determinants ``det`` are positive.

    ``sigma_1**2`` is the larger eigenvalue of ``m^H m``, a sum of
    nonnegative terms, and ``sigma_2 = det / sigma_1``.  ``v_1`` is that
    eigenvalue's eigenvector from the row without cancellation (``e_1`` where
    ``m^H m`` is a multiple of the identity), and ``u_1 = m v_1 / |m v_1|``;
    ``v_2`` and ``u_2`` complete them to unit-determinant unitaries, so ``U^H
    m V`` is ``diag(sigma)`` with no phase left over.
    """
    sq = m.real**2 + m.imag**2
    p, q = sq[..., 0, 0] + sq[..., 1, 0], sq[..., 0, 1] + sq[..., 1, 1]
    r = m[..., 0, 0].conj() * m[..., 0, 1] + m[..., 1, 0].conj() * m[..., 1, 1]
    half = (p - q) / 2
    h = np.hypot(half, np.abs(r))
    sigma = np.sqrt((p + q) / 2 + h)
    # |v_1|^2 is 2 h (h + |half|) on either row.
    first = half >= 0
    norm = np.sqrt(2 * h * (h + np.abs(half)))
    flat = h == 0
    norm[flat] = 1.0
    v = np.stack([np.where(first, h + half, r), np.where(first, r.conj(), h - half)], axis=-1)
    v[flat] = 1.0, 0.0
    v /= norm[..., None]
    u = m[..., 0] * v[..., :1] + m[..., 1] * v[..., 1:]
    sq = u.real**2 + u.imag**2
    u /= np.sqrt(sq[..., :1] + sq[..., 1:])

    def unitary(col: Array) -> Array:
        return np.stack([col, col[..., ::-1].conj() * [-1.0, 1.0]], axis=-1)

    return unitary(u), np.stack([sigma, det / sigma], axis=-1), _t(unitary(v))


def _nt_scaling_batch(x_mats: Array, s_mats: Array) -> _Scaling:
    """The :class:`_Scaling` of a stack of iterates; ``np.linalg.LinAlgError``
    when a Cholesky factorization finds one not positive definite.

    Both factors come from LAPACK at every side.  The SVD of ``L_s^H L_x``
    is the closed form :func:`_svd_side2` at side 2, whose determinant is
    the product of the four real Cholesky diagonals, and LAPACK's otherwise.
    """
    lx = np.linalg.cholesky(x_mats)
    ls = np.linalg.cholesky(s_mats)
    m = _mul(_t(ls), lx)
    if x_mats.shape[-1] == 2:
        det = (lx[..., 0, 0] * lx[..., 1, 1] * ls[..., 0, 0] * ls[..., 1, 1]).real
        u, lam, vh = _svd_side2(m, det)
    else:
        u, lam, vh = np.linalg.svd(m)
    root_inv = 1.0 / np.sqrt(lam)
    g = _mul(lx, _t(vh)) * root_inv[..., None, :]
    g_inv = root_inv[..., :, None] * _t(_mul(ls, u))
    return _Scaling(hermitian_part(_mul(g, _t(g))), g, g_inv, lam)


def _scalings(groups: list[_SideGroup], x: Array, s: Array) -> list[_Scaling] | None:
    """The :class:`_Scaling` of each side group of ``(x, s)``, or ``None`` when
    a block of either is not positive definite."""
    try:
        return [_nt_scaling_batch(group.unpack(x), group.unpack(s)) for group in groups]
    except np.linalg.LinAlgError:
        return None


def _scalar_step(value: float, delta: float) -> float:
    return -value / delta if delta < -1e-300 else np.inf


@dataclass(frozen=True)
class _EntryGroup:
    """The rows of one touch class entry by entry, as the Schur complement reads them.

    A touch class holds the ``blocks`` of side group ``side_group`` (their
    places in its ``(K, n, n)`` stack) that exactly ``width`` rows touch.
    Row ``i`` touches block ``k`` where it has a nonzero coordinate there,
    and its block is ``A = L + L^H``, with ``L`` the lower triangle and half
    the diagonal.  The rows touching block ``k`` take ranks ``0, 1, ...`` by
    decreasing entry count.  Each iteration writes ``W_k L W_k`` for the row
    at rank ``r`` of the class's ``k``-th block to ``[:, :, k, r]`` of an
    ``(n, n, K, width)`` buffer, a piece of ranks at a time, so that each
    block's partner rows come last; every block has a row at every rank.

    ``ranges`` splits the ranks into runs ``(lo, hi, columns, rows, coef)``
    whose rows have at most ``E`` entries.  ``coef`` holds each row's
    entries ``L[p, q]`` (zero past its last), and ``columns`` and ``rows``
    index ``W[:, p]`` and ``W[q, :]`` in the flattened side-group stack:
    shaped ``(n, K, G)`` when ``E`` is one, and ``(K, G, n, E)`` and ``(K, G,
    E, n)`` otherwise.  ``pairing`` has one row per (row, block) touch and
    one column per buffer entry of ``(n, n, K)``: ``2 A[a, b]`` at ``(b, a,
    k)`` for each nonzero ``A[a, b]``, so that its product with the buffer
    is ``2 Re tr(A_jk W_k L_ik W_k) = <A_jk, W_k A_ik W_k>`` for every rank.
    """

    side_group: int
    blocks: Array
    width: int
    ranges: list[tuple[int, int, Array, Array, Array]]
    pairing: sparse.csr_matrix

    @classmethod
    def of(
        cls, side_group: int, blocks: Array, n: int, touches: tuple[Array, ...],
        entries: tuple[Array, ...], pairing: sparse.csr_matrix,
    ) -> _EntryGroup:
        """The class of side-``n`` ``blocks`` from its slice of :meth:`_Schur.of`'s
        sorted tables and its ``pairing``.

        ``touches`` holds each touch's block (its place in ``blocks``), rank
        and entry count, ordered by block and row.  ``entries`` holds each
        entry's touch, its place among its touch's entries, its indices
        ``left >= right`` and its value ``A[left, right]``, ordered by touch.
        """
        touch_block, rank, sizes = touches
        touch, slot, left, right, entry = entries
        count, width = len(blocks), int(rank.max()) + 1
        # Ranks go by decreasing entry count, so the most entries at any rank
        # is at rank 0: one scatter lays out every run.
        most = np.zeros(width, dtype=int)
        np.maximum.at(most, rank, sizes)
        where = (touch_block[touch], rank[touch], slot)
        p, q = np.zeros((2, count, width, most[0]), dtype=int)
        coef = np.zeros((count, width, most[0]), dtype=complex)
        p[where], q[where], coef[where] = left, right, np.where(left == right, 0.5, 1.0) * entry
        stack, side = blocks[:, None, None] * n * n, np.arange(n)
        ranges = []
        starts = np.flatnonzero(np.diff(most, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [width]):
            run = (slice(None), slice(lo, hi), slice(most[lo]))
            if most[lo] == 1:
                columns = (stack + p[run])[..., 0] + n * side[:, None, None]
                rows = (stack + n * q[run])[..., 0] + side[:, None, None]
                ranges.append((lo, hi, columns, rows, coef[run][..., 0]))
            else:
                columns = (stack + p[run])[:, :, None, :] + n * side[:, None]
                rows = (stack + n * q[run])[..., None] + side
                ranges.append((lo, hi, columns, rows, coef[run][:, :, None, :]))
        return cls(side_group, blocks, width, ranges, pairing)

    def pair(self, w: Array, out: Array) -> None:
        """Per touch and rank, ``<A_jk, W_k A_ik W_k>`` into ``out``, for the
        side group's stack ``w``.

        The buffer holds about ``_SLICE_ENTRIES`` entries, as many ranks as
        fit and at least one; each piece of ranks is filled and paired in
        turn.  A run is one stacked product ``sum_e coef_e W[:, p_e] W[q_e,
        :]`` (an outer product when its rows have one entry, and a sum of
        broadcast ones at side 2, as :func:`_mul` forms them), written
        straight into the buffer; one sparse product pairs it with the rows.
        """
        count, n = len(self.blocks), w.shape[-1]
        step = max(1, _SLICE_ENTRIES // (n * n * count))
        flat = w.ravel()
        for start in range(0, self.width, step):
            stop = min(start + step, self.width)
            congruence = np.empty((n, n, count, stop - start), dtype=complex)
            for lo, hi, columns, rows, coef in self.ranges:
                first, last = max(lo, start), min(hi, stop)
                if first >= last:
                    continue
                ranks, into = slice(first - lo, last - lo), slice(first - start, last - start)
                if coef.ndim == 2:
                    picked = flat[columns[..., ranks]] * coef[:, ranks]
                    np.multiply(
                        picked[:, None], flat[rows[..., ranks]][None], out=congruence[..., into]
                    )
                else:
                    picked = flat[columns[:, ranks]] * coef[:, ranks]
                    _mul(
                        picked, flat[rows[:, ranks]], out=congruence.transpose(2, 3, 0, 1)[:, into]
                    )
            out[:, start:stop] = (self.pairing @ congruence.reshape(n * n * count, -1)).real
            # Nothing of this piece outlives it, so the next one takes its place.
            del congruence, picked


@dataclass(frozen=True)
class _Schur:
    """The equality rows entry by entry, one :class:`_EntryGroup` per touch class.

    Each side group's touched blocks split into classes by how many rows
    touch them, so no block is padded to another block's rank count.
    ``pairs`` places every entry of every class's pairing product in the
    flattened ``m x m`` matrix.

    ``diagonal`` holds the rows that are each the first row to touch every
    block they touch, so no two of them share a block and their block of the
    Schur complement is diagonal; ``rest`` holds the others.  In a
    hidden-state phase one they are the trace ties, which the builder emits
    first.  Fewer than two such rows leave ``diagonal`` empty, so a one-block
    program's Schur complement is factored whole.
    """

    groups: list[_EntryGroup]
    pairs: Array
    m: int
    diagonal: Array
    rest: Array

    @classmethod
    def of(cls, a_mat: sparse.csr_array, groups: list[_SideGroup]) -> _Schur:
        """The touch classes of the CSR rows ``a_mat``, whose indices are sorted
        as :class:`SdpProblem` stores them, from one sort of their nonzeros."""
        from scipy import sparse
        m, cols = a_mat.shape[0], a_mat.indices
        rows = np.repeat(np.arange(m), np.diff(a_mat.indptr))
        counts = [len(group.blocks) for group in groups]
        group_start = np.cumsum([0] + counts)
        # Each column's block, numbered over the side groups in turn, the cell
        # left * n + right of the A[left, right] on or below the diagonal whose
        # real or imaginary part it holds, and what turns its value into that part.
        block_of, cell = np.empty((2, a_mat.shape[1]), dtype=int)
        weight, phase = np.empty(a_mat.shape[1]), np.empty(a_mat.shape[1], dtype=complex)
        for group, start in zip(groups, group_start):
            lower, _, weights, _ = _layout(group.side)
            block_of[group.gather] = start + np.arange(len(group.blocks))[:, None]
            cell[group.gather] = lower // 2
            weight[group.gather] = weights
            phase[group.gather] = np.where(lower % 2, 1j, 1.0)
        block = block_of[cols]
        # A row's nonzeros in one block are adjacent, so a touch starts wherever
        # the row or the block changes.
        starts = np.ones(len(cols), dtype=bool)
        starts[1:] = (block[1:] != block[:-1]) | (rows[1:] != rows[:-1])
        diagonal = _diagonal_rows(rows[starts], block[starts], m, group_start[-1])
        # Blocks in class order: by side group, then by the rows touching them.
        width = np.bincount(block[starts], minlength=group_start[-1])
        group_of = np.repeat(np.arange(len(groups)), counts)
        order = np.lexsort((width, group_of))
        place = np.empty_like(order)
        place[order] = np.arange(len(order))
        new_class = np.diff(group_of[order], prepend=-1) | np.diff(width[order], prepend=-1)
        bounds = np.flatnonzero(new_class).tolist() + [len(order)]
        sides = np.repeat([group.side for group in groups], counts)[order]
        # The one sort, of the nonzeros by class, block, row and cell, in two
        # stable passes: numpy's radix sort of 16-bit block places keeps each
        # block's nonzeros in row order, so the second pass only orders each
        # touch's cells, and the real and imaginary parts of an entry meet.
        cells = max(group.side for group in groups) ** 2
        at = place[block]
        by_place = np.argsort(at.astype(np.uint16) if len(order) <= 1 << 16 else at, kind="stable")
        key = ((at * m + rows) * cells + cell[cols])[by_place]
        within = np.argsort(key, kind="stable")
        sort, key = by_place[within], key[within]
        merged = np.concatenate([[0], np.cumsum(key[1:] != key[:-1])])
        keys, sorted_cols = key[np.diff(merged, prepend=-1) > 0], cols[sort]
        part = a_mat.data[sort] / weight[sorted_cols] * phase[sorted_cols]
        entry = np.bincount(merged, part.real) + 1j * np.bincount(merged, part.imag)
        del rows, block, at, by_place, key, within, sort, merged, sorted_cols, part
        # The touches, in class order, by their first entries.  They come
        # sorted by block and row, so a stable sort by block and decreasing
        # entry count ranks them.
        touch_key = keys // cells
        first = np.flatnonzero(np.diff(touch_key, prepend=-1))
        sizes = np.diff(first, append=len(keys))
        touch = np.repeat(np.arange(len(first)), sizes)
        touch_place, touch_row = np.divmod(touch_key[first], m)
        ranking = np.argsort(touch_place * (sizes.max() + 1) - sizes, kind="stable")
        block_first = np.flatnonzero(np.diff(touch_place, prepend=-1))
        rank = np.empty_like(ranking)
        rank[ranking] = np.arange(len(ranking)) - np.repeat(
            block_first, np.diff(block_first, append=len(ranking))
        )
        slot = np.arange(len(keys)) - first[touch]
        n = sides[touch_place[touch]]
        left, right = np.divmod(keys % cells, n)
        # Every class's pairing entries, ordered by touch and then by position
        # (b, a), as CSR rows are: 2 A[a, b] at (b, a) for each entry, and at
        # (a, b) for its mirror.
        mirror = left != right
        position = np.concatenate([right * n + left, (left * n + right)[mirror]])
        owner = np.concatenate([touch, touch[mirror]])
        sort = np.argsort(owner * cells + position, kind="stable")  # two runs, at side 2
        position, owner_place = position[sort], touch_place[owner[sort]]
        value = 2 * np.concatenate([entry, entry[mirror].conj()])[sort]
        # int32 indices, which scipy would otherwise check and convert per class.
        indptr = np.zeros(len(first) + 1, dtype=np.int32)
        np.cumsum(np.bincount(owner, minlength=len(first)), out=indptr[1:])
        first = np.append(first, len(keys))
        del keys, touch_key, ranking, block_first, n, mirror, owner, sort
        # Each touch pairs with every row touching its block.
        pairs, done = np.empty(int(width[order][touch_place].sum()), dtype=int), 0
        entries = []
        for lo, hi in zip(bounds, bounds[1:]):
            if width[order[lo]] == 0:
                continue
            t0, t1 = np.searchsorted(touch_place, (lo, hi)).tolist()
            local = touch_place[t0:t1] - lo
            partner = np.zeros((hi - lo, width[order[lo]]), dtype=int)
            partner[local, rank[t0:t1]] = touch_row[t0:t1]
            out = pairs[done : done + partner.shape[1] * (t1 - t0)].reshape(t1 - t0, -1)
            np.add(touch_row[t0:t1, None] * m, partner[local], out=out)
            done += out.size
            e0, e1, p0, p1 = first[t0], first[t1], indptr[t0], indptr[t1]
            index, side = group_of[order[lo]], int(sides[lo])
            column = position[p0:p1] * (hi - lo) + owner_place[p0:p1] - lo
            pairing = sparse.csr_matrix(
                (value[p0:p1], column.astype(np.int32), indptr[t0 : t1 + 1] - p0),
                shape=(t1 - t0, side * side * (hi - lo)),
            )
            entries.append(
                _EntryGroup.of(
                    index, order[lo:hi] - group_start[index], side,
                    (local, rank[t0:t1], sizes[t0:t1]),
                    (touch[e0:e1] - t0, slot[e0:e1], left[e0:e1], right[e0:e1], entry[e0:e1]),
                    pairing,
                )
            )
        return cls(entries, pairs, m, diagonal, np.setdiff1d(np.arange(m), diagonal))

    def factor(self, schur: Array, jitter: float, potrs: Callable) -> Callable[[Array], Array]:
        """A solver of ``(S + jitter I) v = r`` for the assembled ``schur``, or
        ``np.linalg.LinAlgError`` when that matrix is not positive definite.

        Without diagonal rows, numpy's LAPACK factors the whole matrix.
        Otherwise the diagonal rows go first: their block is ``diag(d)``, whose
        factor is ``sqrt(d)``, so eliminating them is exact, and LAPACK
        factors only the rest's block ``C - B^T diag(d)^-1 B``, ``B`` the
        diagonal rows' coupling to the rest.  The factors' transposes are
        upper factors in Fortran order, which scipy's ``potrs`` reads without
        a copy.
        """

        def triangular(upper: Array, rhs: Array) -> Array:
            out, info = potrs(upper, rhs)
            if info:
                raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
            return out

        if not len(self.diagonal):
            shifted = schur + jitter * np.eye(self.m) if jitter else schur
            upper = np.linalg.cholesky(shifted).T
            return lambda rhs: triangular(upper, rhs)
        pivots = schur[self.diagonal, self.diagonal] + jitter
        if not np.all(pivots > 0):
            raise np.linalg.LinAlgError("a diagonal row's pivot is not positive")
        coupling = schur[np.ix_(self.diagonal, self.rest)]
        scaled = coupling / np.sqrt(pivots)[:, None]
        trailing = schur[np.ix_(self.rest, self.rest)] - scaled.T @ scaled
        trailing[np.diag_indices(len(self.rest))] += jitter
        upper = np.linalg.cholesky(trailing).T

        def split(rhs: Array) -> Array:
            top = rhs[self.diagonal] / pivots
            out = np.empty_like(rhs)
            out[self.rest] = triangular(upper, rhs[self.rest] - coupling.T @ top)
            out[self.diagonal] = top - coupling @ out[self.rest] / pivots
            return out

        return split

    def assemble(self, ws: list[Array]) -> Array:
        """``S_ij = sum_k <A_jk, W_k A_ik W_k>`` for the NT scaling matrices ``W_k``,
        one stack per side group in ``ws``.

        This is SDPA's formula for sparse rows (Fujisawa, Kojima & Nakata,
        *Math. Program.* 79 (1997)): no row is scaled densely and there is no
        Gram product.  ``np.bincount`` sums the pairs in a fixed order, so the
        result repeats bit for bit, and ``(S + S^T) / 2``, formed in place, is
        exactly symmetric.  It is formed a pair of ``_SYMMETRIZE_SIDE`` blocks
        at a time, with no transposed copy of the whole matrix: at ``m_a =
        10`` that copy's fresh pages made the assembly fault nine times as
        often.
        """
        paired, start = np.empty(len(self.pairs)), 0
        for group in self.groups:
            shape = (group.pairing.shape[0], group.width)
            size = shape[0] * shape[1]
            group.pair(ws[group.side_group], paired[start : start + size].reshape(shape))
            start += size
        schur = np.bincount(self.pairs, paired, minlength=self.m * self.m).reshape(self.m, self.m)
        del paired
        edges = list(range(0, self.m, _SYMMETRIZE_SIDE)) + [self.m]
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            for left, right in zip(edges[i:], edges[i + 1 :]):
                mean = schur[lo:hi, left:right] + schur[left:right, lo:hi].T
                mean *= 0.5
                schur[lo:hi, left:right] = mean
                schur[left:right, lo:hi] = mean.T
        return schur


def _diagonal_rows(touch_row: Array, touch_block: Array, m: int, blocks: int) -> Array:
    """The rows, of ``m``, that are each the first row to touch every block
    they touch, from each (row, block) touch in row order.

    No two of them share a block.  Fewer than two are none, and one row at
    least is left out, since LAPACK solves no empty system.
    """
    first = np.full(blocks, m)
    np.minimum.at(first, touch_block, touch_row)
    later = np.bincount(touch_row[first[touch_block] != touch_row], minlength=m) > 0
    diagonal = np.flatnonzero(~later)[: m - 1]
    return diagonal if len(diagonal) >= 2 else diagonal[:0]


def _lap(seconds: dict[str, float], phase: str, since: float) -> float:
    """Add the time since ``since`` to ``seconds[phase]``, and return the time now."""
    now = time.perf_counter()
    seconds[phase] += now - since
    return now


def _require_independent(a: sparse.csr_array) -> None:
    """Raise ``ValueError`` unless the CSR rows ``a`` are provably independent.

    For ``m`` rows of ``n`` columns, with ``rho`` the largest row norm, the
    proof is that Cholesky succeeds on ``a a^T - delta I``, ``delta =
    (PRESOLVE_RANK_TOL rho)^2 + 2 (m + n) eps tr(a a^T)``.  The second term
    exceeds the rounding error of the sparse Gram product (``gamma_n tr``, as
    each dot product sums a subset of the dense one's terms) plus that of a
    Cholesky factorization that succeeds (``gamma_(m+1) tr / (1 -
    gamma_(m+1))``; Rump, *BIT* 46 (2006)), so success proves ``sigma_min(a)
    > PRESOLVE_RANK_TOL rho``.  That second term is the floor that binds:
    rows with ``sigma_min(a)**2 <= 2 (m + n) eps tr(a a^T)``, at most ``2 (m
    + n) m eps rho**2``, are refused even when ``sigma_min(a)`` is far above
    ``PRESOLVE_RANK_TOL rho``: up to ``2.5e-5 rho`` for the 613 rows and
    1,600 columns of a (4,3,2) relaxation bound, and ``1.3e-5 rho`` for the
    functional ``cli._random_psd_functional`` draws with seed 3.
    """
    m, n = a.shape
    gram = (a @ a.T).toarray()
    rounding = 2 * (m + n) * np.finfo(float).eps * np.trace(gram)
    delta = PRESOLVE_RANK_TOL**2 * gram.diagonal().max(initial=0.0) + rounding
    gram[np.diag_indices(m)] -= delta
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"the {m} equality rows are dependent, or not provably independent: their "
            f"smallest singular value is not above {PRESOLVE_RANK_TOL:.0e} times their "
            "largest norm by the rounding margin"
        ) from None


def solve(problem: SdpProblem, *, tol: float = 1e-8, max_iter: int = 200) -> SdpSolution:
    """Solve a block semidefinite program.

    ``tol`` bounds the scaled primal and dual residuals and the relative
    duality gap of an ``optimal`` point, and the residual of a ray.  The
    equality rows must be independent (``ValueError`` otherwise; the check is
    the only presolve).  A problem whose iterates reveal an improving dual ray
    is reported ``infeasible`` together with the certificate.  Every other
    exit reports the last iterate checked; one that still misses ``tol``
    after ``max_iter`` steps ends ``max_iterations``.
    """
    import scipy.linalg as sla  # the first solve loads it, outside every phase's clock
    potrs = sla.get_lapack_funcs("potrs", dtype=float)
    dims = list(problem.block_dims)
    c = problem.c
    groups = _side_groups(dims)
    _require_independent(problem.a)
    phase_seconds = dict.fromkeys(PHASES, 0.0)

    m = problem.num_rows
    if m == 0:
        # No constraints: the optimum is zero at X = 0 when the objective is
        # blockwise positive semidefinite, otherwise the problem is unbounded.
        min_obj_eig = min(
            (float(np.linalg.eigvalsh(group.unpack(c)).min()) for group in groups),
            default=0.0,
        )
        if min_obj_eig < -1e-12:
            note = "objective unbounded below on the cone"
            return SdpSolution(
                NUMERICAL_TROUBLE, np.nan, np.nan, None, None, {}, 0, note, phase_seconds
            )
        blocks = [np.zeros((n, n), dtype=complex) for n in dims]
        zero = {"primal": 0.0, "dual": 0.0, "gap": 0.0}
        return SdpSolution(OPTIMAL, 0.0, 0.0, blocks, np.zeros(0), zero, 0, "", phase_seconds)

    # Independent rows have nonzero norms; ``a_t`` spares ``a_mat.T``'s per-call rebuild.
    row_of_entry = np.repeat(np.arange(m), np.diff(problem.a.indptr))
    row_norms = np.sqrt(np.bincount(row_of_entry, problem.a.data**2, minlength=m))
    a_mat = problem.a.copy()
    a_mat.data /= row_norms[row_of_entry]
    a_t = a_mat.T.tocsr()
    b = problem.b / row_norms

    nu = float(sum(dims))
    schur_rows = _Schur.of(a_mat, groups)

    b_norm = 1.0 + float(np.linalg.norm(b))
    c_norm = 1.0 + float(np.linalg.norm(c))

    x = _svec_identity(dims)
    s = x.copy()
    y = np.zeros(m)
    tau = 1.0
    kappa = 1.0
    status, note = MAX_ITERATIONS, ""
    clock = time.perf_counter()
    scal = _scalings(groups, x, s)
    _lap(phase_seconds, "scaling", clock)

    for iterations in range(max_iter + 1):
        # Convergence metrics for the de-homogenized iterate.
        x_hat = x / tau
        y_hat = y / tau
        s_hat = s / tau
        pres = float(np.linalg.norm(a_mat @ x_hat - b)) / b_norm
        dres = float(np.linalg.norm(a_t @ y_hat + s_hat - c)) / c_norm
        obj_p = float(c @ x_hat)
        obj_d = float(b @ y_hat)
        gap_rel = abs(obj_p - obj_d) / (1.0 + abs(obj_p) + abs(obj_d))
        if pres <= tol and dres <= tol and gap_rel <= tol:
            status = OPTIMAL
            break
        if iterations == max_iter:
            break

        # Infeasibility certificates from the homogeneous ray.
        b_dot_y = float(b @ y)
        if b_dot_y > 1e-10:
            ray_res = float(np.linalg.norm(a_t @ (y / b_dot_y) + s / b_dot_y))
            if ray_res <= tol:
                status, note = INFEASIBLE, "improving dual ray"
                break
        c_dot_x = float(c @ x)
        if c_dot_x < -1e-10:
            ray_res = float(np.linalg.norm(a_mat @ (x / -c_dot_x)))
            if ray_res <= tol and tau <= 1e-6:
                status, note = NUMERICAL_TROUBLE, "objective unbounded below (improving primal ray)"
                break

        mu = (float(x @ s) + tau * kappa) / (nu + 1.0)
        if mu < 1e-16 or not np.isfinite(mu):
            status, note = NUMERICAL_TROUBLE, "central parameter vanished without a verdict"
            break
        # Every accepted step factors its iterate, so only the initial point
        # can arrive without a scaling.
        if scal is None:
            status, note = NUMERICAL_TROUBLE, "an iterate lost positive definiteness"
            break

        def _apply_d(vec: Array) -> Array:
            out = np.empty_like(vec)
            for group, sc in zip(groups, scal):
                out[group.gather] = svec(_mul(_mul(sc.w, group.unpack(vec)), sc.w))
            return out

        clock = time.perf_counter()
        # The last iteration's factor goes before this one's Schur complement comes.
        _solve_schur = None
        schur = schur_rows.assemble([sc.w for sc in scal])
        clock = _lap(phase_seconds, "schur", clock)

        jitter = 0.0
        base = float(np.trace(schur)) / max(m, 1)
        for attempt in range(6):
            try:
                _solve_schur = schur_rows.factor(schur, jitter, potrs)
                break
            except np.linalg.LinAlgError:
                jitter = max(base * 1e-14, 1e-14) * (100.0 ** attempt)
        del schur
        clock = _lap(phase_seconds, "cholesky", clock)
        if _solve_schur is None:
            status, note = NUMERICAL_TROUBLE, "Schur complement lost positive definiteness"
            break

        rp = a_mat @ x - b * tau
        rd = a_t @ y + s - c * tau
        rg = float(c @ x) - float(b @ y) + kappa

        d_c = _apply_d(c)
        d_rd = _apply_d(rd)

        dy1 = _solve_schur(b + a_mat @ d_c)
        dx1 = _apply_d(a_t @ dy1) - d_c
        denom_1 = float(b @ dy1) - float(c @ dx1)

        def _newton(rc: Array, rck: float) -> tuple[Array, Array, Array, float, float] | None:
            rc_d = rc + d_rd
            dy2 = _solve_schur(-rp - a_mat @ rc_d)
            dx2 = rc_d + _apply_d(a_t @ dy2)
            denom = kappa + tau * denom_1
            if abs(denom) < 1e-300:
                return None
            dtau = (rck + tau * (rg + float(c @ dx2) - float(b @ dy2))) / denom
            dy = dy2 + dtau * dy1
            dx = dx2 + dtau * dx1
            ds = -rd - a_t @ dy + c * dtau
            dkappa = -rg - float(c @ dx) + float(b @ dy)
            return dx, dy, ds, dtau, dkappa

        def _step_to_boundary(
            dx: Array, ds: Array, dtau: float, dkappa: float
        ) -> tuple[float, list[Array], list[Array]]:
            """The largest step keeping ``x``, ``s``, ``tau`` and ``kappa`` in their
            cones, and ``dx`` and ``ds`` in each group's scaled frame."""
            dx_t = [sc.primal(group.unpack(dx)) for group, sc in zip(groups, scal)]
            ds_t = [sc.dual(group.unpack(ds)) for group, sc in zip(groups, scal)]
            alpha = min(
                min(sc.max_step(d) for sc, d in zip(scal, dx_t)),
                min(sc.max_step(d) for sc, d in zip(scal, ds_t)),
                _scalar_step(tau, dtau),
                _scalar_step(kappa, dkappa),
            )
            return alpha, dx_t, ds_t

        affine = _newton(-x, -tau * kappa)
        if affine is None:
            status, note = NUMERICAL_TROUBLE, "singular step equation"
            break
        dx_a, dy_a, ds_a, dtau_a, dkappa_a = affine

        alpha_aff, dx_a_t, ds_a_t = _step_to_boundary(dx_a, ds_a, dtau_a, dkappa_a)
        alpha_aff = min(alpha_aff, 1.0)
        gap_now = float(x @ s) + tau * kappa
        gap_aff = float((x + alpha_aff * dx_a) @ (s + alpha_aff * ds_a)) + (
            tau + alpha_aff * dtau_a
        ) * (kappa + alpha_aff * dkappa_a)
        sigma = float(np.clip((max(gap_aff, 0.0) / gap_now) ** 3, 1e-9, 0.99999))

        # Corrector g r g^H: r solves (lam r + r lam) / 2 = sigma mu I - lam^2
        # - cross, elementwise in the scaled frame.  Its -lam part maps to -x,
        # taken as is like the predictor's: formed through g, its rounding
        # swamps x's smallest eigenvalues near the optimum and the steps collapse.
        rc = -x
        for group, sc, dxa_t, dsa_t in zip(groups, scal, dx_a_t, ds_a_t):
            cross = hermitian_part(_mul(dxa_t, dsa_t))
            lyapunov = 2.0 / (sc.lam[..., :, None] + sc.lam[..., None, :])
            r_c = np.eye(group.side) * (sigma * mu / sc.lam)[..., None] - cross * lyapunov
            rc[group.gather] += svec(_mul(_mul(sc.g, r_c), _t(sc.g)))
        rck = sigma * mu - tau * kappa - dtau_a * dkappa_a

        corrected = _newton(rc, rck)
        if corrected is None:
            status, note = NUMERICAL_TROUBLE, "singular step equation"
            break
        dx, dy, ds, dtau, dkappa = corrected
        alpha_max, _, _ = _step_to_boundary(dx, ds, dtau, dkappa)
        alpha = min(1.0, 0.98 * alpha_max)
        clock = _lap(phase_seconds, "step", clock)

        # The step is halved until the new iterate factors, and its scaling
        # serves the next iteration (SDPT3's safeguard; Toh, Todd & Tutuncu 1999).
        scal = None
        while np.isfinite(alpha) and alpha > 1e-12:
            x_next, s_next = x + alpha * dx, s + alpha * ds
            scal = _scalings(groups, x_next, s_next)
            if scal is not None:
                break
            alpha /= 2
        _lap(phase_seconds, "scaling", clock)
        if scal is None:
            status, note = NUMERICAL_TROUBLE, "step length collapsed"
            break
        x, s = x_next, s_next
        y = y + alpha * dy
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkappa

    if status == INFEASIBLE:
        y_out = y / row_norms / b_dot_y
        blocks, primal_value, dual_value = None, np.nan, np.nan
        residuals = {
            "farkas_ray": float(np.linalg.norm(problem.a.T @ y_out)),
            "b_dot_y": float(problem.b @ y_out),
        }
    else:
        y_out = y_hat / row_norms
        blocks, primal_value, dual_value = _unpack_blocks(x_hat, groups), obj_p, obj_d
        residuals = {"primal": pres, "dual": dres, "gap": gap_rel, "tau": tau, "kappa": kappa}
    return SdpSolution(
        status, primal_value, dual_value, blocks, y_out, residuals, iterations, note, phase_seconds
    )


# ---------------------------------------------------------------------------
# Membership with a margin (phase-one formulation)
# ---------------------------------------------------------------------------

INSIDE = "inside"
OUTSIDE = "outside"
UNDECIDED = "undecided"

#: A margin must fall this far below zero (or below ``-tol``, if that is
#: lower) before a membership counts as decided outside; margins between that
#: and ``-tol`` are within solver accuracy of the boundary.
DECISIVE_MARGIN = 1e-6


@dataclass
class MembershipReport:
    """Outcome of a set-membership test decided by a semidefinite program.

    ``margin`` is positive when the instance sits strictly inside the set and
    negative when no point of the set matches; it is ``-inf`` when the data
    alone rule the instance out (:func:`ruled_out_report`, for the residuals
    :func:`steercert.steering.ruled_out` finds above the validators'
    ``VALIDATION_TOL``), and NaN when the solve did not finish.
    ``verdict`` is the only rule that turns a margin into an answer:
    ``inside`` when ``margin >= -tol``, ``outside`` when ``margin <
    -max(DECISIVE_MARGIN, tol)``, and ``undecided`` otherwise, that is, for a
    NaN margin or one in the band between.  ``tol`` is the feasibility
    tolerance the solve ran with.  ``witness`` carries the found element
    (when inside) and ``certificate_y`` a separating functional on the
    problem's equality rows (when a finished solve or contradicted rows found
    it not inside; ``None`` for the relaxation, whose separating functional
    is the dual block of its LMI ``problem``).  ``iterations`` counts the
    solver's iterations; it is ``None`` when the verdict needed no solve.
    ``phase_seconds`` is the solve's :attr:`SdpSolution.phase_seconds`, empty
    when there was no solve.
    """

    margin: float
    status: str
    residuals: dict[str, float]
    problem: SdpProblem
    witness: object | None = None
    certificate_y: Array | None = None
    iterations: int | None = None
    tol: float = 1e-8
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_solve(
        cls, solution: SdpSolution, problem: SdpProblem, tol: float, margin: float = np.nan
    ) -> MembershipReport:
        """The report of a solve that decides ``problem``, at ``margin``."""
        return cls(
            margin, solution.status, dict(solution.residuals), problem,
            iterations=solution.iterations, tol=tol, phase_seconds=solution.phase_seconds,
        )

    @property
    def verdict(self) -> str:
        if self.margin >= -self.tol:
            return INSIDE
        if self.margin < -max(DECISIVE_MARGIN, self.tol):
            return OUTSIDE
        return UNDECIDED

    @property
    def feasible(self) -> bool:
        return self.verdict == INSIDE


def feasibility_phase1(
    problem: SdpProblem, *, tol: float = 1e-8, max_iter: int = 200
) -> MembershipReport:
    """Decide whether the equality rows of ``problem`` meet the cone.

    The probe minimizes a uniform shift ``t`` with every block constrained to
    ``X_k + t I`` inside the cone, which always has an interior, so boundary
    instances are classified by the sign of the optimal shift instead of by a
    failed solve.  The margin is ``-t``, and ``tol``, the solve's tolerance,
    is the report's.  When inside, the witness is the list of block values; the
    report's ``problem`` is ``problem`` itself.  The objective of ``problem``
    is ignored.  Independent rows always meet the shifted cone, so every
    status but ``optimal`` leaves the margin NaN.
    """
    from scipy import sparse
    # The solver's blocks are Z = X + t I, so row i reads <A_i, Z> - t tr(A_i) =
    # b_i, and t = t+ - t- is the diagonal of one last 2 x 2 block diag(t+, t-),
    # which joins the side-2 group.  No row or cost reads its off-diagonal
    # coordinates (svec order (0,0), (1,0), (1,1), Im (1,0)), which stay zero.
    trace = problem.a @ _svec_identity(problem.block_dims)
    columns = np.stack([-trace, np.zeros_like(trace), trace, np.zeros_like(trace)], axis=1)
    phase1 = SdpProblem(
        block_dims=problem.block_dims + (2,),
        c=np.concatenate([np.zeros_like(problem.c), [1.0, 0.0, -1.0, 0.0]]),
        a=sparse.hstack([problem.a, sparse.csr_array(columns)]),
        b=problem.b,
    )
    solution = solve(phase1, tol=tol, max_iter=max_iter)
    report = MembershipReport.from_solve(solution, problem, tol)
    if solution.status != OPTIMAL:
        return report

    assert solution.block_values is not None
    shift = float(solution.block_values[-1][0, 0].real - solution.block_values[-1][1, 1].real)
    shifts = {n: shift * np.eye(n) for n in set(problem.block_dims)}
    recovered = [value - shifts[n] for value, n in zip(solution.block_values, problem.block_dims)]
    eq_res = equality_residuals(problem, recovered)
    report.residuals["equality_max"] = float(np.max(np.abs(eq_res))) if eq_res.size else 0.0
    report.margin = -shift
    if report.feasible:
        report.witness = recovered
    else:
        report.certificate_y = solution.y
    return report


def ruled_out_report(
    problem: SdpProblem, independent: int, residuals: dict[str, float], tol: float
) -> MembershipReport:
    """Outside, with margin ``-inf`` and no solve: the data alone rule the instance out.

    The rows of ``problem`` after the first ``independent`` are combinations
    of those, ``a_d = coeffs^T a_r``.  Where their right-hand sides do not
    combine the same way, ``certificate_y`` combines every row into ``sum_i
    y_i A_i = 0`` with ``b . y = 1``.  It is kept only if :func:`farkas_terms`
    confirms both to ``tol``: a mismatch at rounding level, as when only
    anti-Hermitian parts, which the rows do not read, fail the data, gives
    none.
    """
    r, a, b = independent, problem.a, problem.b
    y = None
    if r < len(b):
        coeffs = np.linalg.solve((a[:r] @ a[:r].T).toarray(), (a[:r] @ a[r:].T).toarray())
        mismatch = b[r:] - coeffs.T @ b[:r]
        if mismatch.any():
            y = np.concatenate([-coeffs @ mismatch, mismatch]) / (mismatch @ mismatch)
            b_dot_y, max_eig = farkas_terms(problem, y)
            y = y if abs(b_dot_y - 1.0) <= tol and max_eig <= tol else None
    return MembershipReport(-np.inf, INFEASIBLE, residuals, problem, certificate_y=y, tol=tol)


# ---------------------------------------------------------------------------
# Hermitian layer
# ---------------------------------------------------------------------------


class HermitianBlockBuilder:
    """Assemble a problem over complex Hermitian blocks, one real row per constraint.

    ``add_block`` returns each block's index.  Every constraint is a real row
    in svec coordinates, as in SDPA's data format (Fujisawa, Kojima & Nakata,
    *Math. Program.* 79 (1997)): ``add_equality`` adds one, and
    ``add_matrix_equality`` one per coordinate of its side.  ``build`` packs
    each side's trace coefficients in one batched :func:`svec` and builds the
    CSR rows ``a`` from every entry's ``(row, column, value)`` at once.
    """

    def __init__(self) -> None:
        self._dims: list[int] = []
        self._offsets: list[int] = [0]
        self._rhs: list[float] = []
        # Each coefficient E of a row Re tr(E H) as (row, block, E), and each
        # matrix equality's scalar entries as (rows, columns, values).
        self._terms: list[tuple[int, int, Array]] = []
        self._entries: list[tuple[Array, Array, Array]] = []
        self._objective: list[tuple[int, Array]] = []

    def add_block(self, dim: int) -> int:
        """Declare a complex Hermitian variable block and return its index."""
        if dim < 1:
            raise ValueError(f"block {len(self._dims)} has non-positive dimension {dim}")
        self._dims.append(dim)
        self._offsets.append(self._offsets[-1] + svec_dim(dim))
        return len(self._dims) - 1

    def _check(self, block: int, shape: tuple[int, ...], what: str) -> None:
        if shape != (self._dims[block],) * 2:
            raise ValueError(
                f"{what} for block {block} has shape {shape}, expected side {self._dims[block]}"
            )

    def add_equality(self, terms: Sequence[tuple[int, Array]], rhs: float = 0.0) -> None:
        """Require ``Re sum_k tr(E_k H_k) = rhs`` over the indexed blocks."""
        for block, coeff in terms:
            coeff = np.asarray(coeff, dtype=complex)
            self._check(block, coeff.shape, "coefficient")
            self._terms.append((len(self._rhs), block, coeff))
        self._rhs.append(float(rhs))

    def add_matrix_equality(self, terms: Sequence[tuple[int, float]], target: Array) -> None:
        """Require ``sum_k c_k H_k = hermitian_part(target)``, one row per svec coordinate.

        ``terms`` pairs each block index with its real scalar ``c_k``.
        """
        target = np.asarray(target, dtype=complex)
        for block, _ in terms:
            self._check(block, target.shape, "target")
        coords = np.arange(target.size)
        columns = np.array([self._offsets[block] for block, _ in terms], dtype=int)
        scalars = np.array([float(scalar) for _, scalar in terms])
        self._entries.append(
            (
                np.tile(len(self._rhs) + coords, len(terms)),
                (columns[:, None] + coords).ravel(),
                np.repeat(scalars, target.size),
            )
        )
        self._rhs += svec(hermitian_part(target)).tolist()

    def add_objective_term(self, block: int, coeff: Array) -> None:
        """Accumulate ``Re tr(F H)`` into the objective."""
        coeff = np.asarray(coeff, dtype=complex)
        self._check(block, coeff.shape, "objective coefficient")
        self._objective.append((block, coeff))

    def build(self) -> SdpProblem:
        """The problem minimizing the objective subject to every row.

        A trace term ``Re tr(E H)`` takes ``svec`` of the Hermitian part of
        ``E``; the objective is one more such row.
        """
        from scipy import sparse
        count = len(self._rhs)
        terms = self._terms + [(count, block, coeff) for block, coeff in self._objective]
        offsets = np.array(self._offsets)
        parts = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)), *self._entries]
        for side in sorted({coeff.shape[-1] for _, _, coeff in terms}):
            rows, blocks, coeffs = zip(*(term for term in terms if term[2].shape[-1] == side))
            coords = np.arange(svec_dim(side))
            parts.append(
                (
                    np.repeat(rows, len(coords)),
                    (offsets[list(blocks)][:, None] + coords).ravel(),
                    svec(hermitian_part(np.stack(coeffs))).ravel(),
                )
            )
        rows, columns, values = (np.concatenate(column) for column in zip(*parts))
        total, objective, kept = int(offsets[-1]), rows == count, rows < count
        c = np.bincount(columns[objective], values[objective], minlength=total)
        a = sparse.coo_array((values[kept], (rows[kept], columns[kept])), shape=(count, total))
        return SdpProblem(tuple(self._dims), c=c, a=a, b=self._rhs)
