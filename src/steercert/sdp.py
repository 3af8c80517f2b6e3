"""Small dense semidefinite programming solver.

Problems are stated over a product of complex Hermitian blocks:

    minimize    Re tr(C X)
    subject to  Re tr(A_i X) = b_i      for each equality row i,
                X block-wise positive semidefinite.

A problem is its data in svec coordinates (:class:`SdpProblem`): ``c``, a
dense ``a`` with one row per equality and one column per packed coordinate,
and ``b``.  There is no other format; every producer writes these arrays and
every consumer (the solver, the phase-one probe, the audits, the dump) is an
array operation on them.  A side-``n`` block has ``n**2`` coordinates: the
real symmetric svec of its real part (the diagonal, then ``sqrt(2)`` times
the strict lower triangle), then ``sqrt(2)`` times the imaginary part of the
strict lower triangle, so ``svec(A) . svec(B) = Re tr(A B)``.  Real data
give zero imaginary coordinates and real iterates.

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
factored form (:class:`_Scaling`); an iterate it cannot factor ends the
solve ``numerical_trouble``.

Named blocks tied by equality rows (:class:`HermitianBlockBuilder`), a
complex equality split into a real and an imaginary row, and linear matrix
inequalities solved through the dual (:func:`hermitian_lmi`) are packed a
whole coefficient stack at a time, straight into ``a``.

Every membership test, :func:`feasibility_phase1` among them, returns a
:class:`MembershipReport`, whose ``verdict`` is the program's one rule from a
margin to inside, outside or undecided.

The iteration never loops over single blocks.  Blocks of equal side are
gathered once per solve into ``(K, n, n)`` stacks, and the scaling, the
corrector, the step lengths and the congruences run as batched LAPACK calls
and stacked products over each stack.  The Schur complement is formed from
the rows' entries, ``S_ij = sum_k <A_jk, W_k A_ik W_k>`` with ``W_k`` the NT
scaling matrix (SDPA's formula for sparse rows; Fujisawa, Kojima & Nakata,
*Math. Program.* 79 (1997)).  Each solve reads the nonzeros of its rows
once; each iteration builds ``W A W`` for every row on the blocks it
touches, as a sum of one outer product of a column and a row of ``W`` per
entry, and pairs it with the other rows' entries in one sparse product per
side group.  No row is scaled densely, and there is no Gram product.  The
Schur complement is factored by numpy's LAPACK, like the batched calls, so
the iteration's matrix-matrix work runs in one BLAS thread pool (numpy and
scipy may each load their own); only the one-vector triangular solves
against that factor go through scipy.

Problems are dense and small-scale, and the solver is deterministic:
re-solving the same problem reproduces the same iterates bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.linalg as sla

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

#: Relative residual above which a membership's data contradict the rows it
#: omits as implied, so that it is ruled out before any solve.
PRESOLVE_CONSISTENCY_TOL = 1e-9

#: Complex entries per piece of the Schur complement's ``W A W`` buffer, which
#: is filled and paired a run of ranks at a time (4 MiB).
_SLICE_ENTRIES = 1 << 18


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
    return np.concatenate([svec(np.eye(n)) for n in dims])


def svec(mats: Array) -> Array:
    """Pack Hermitian matrices (the last two axes) so that dot products are ``Re tr(A B)``.

    Only the lower triangle is read.
    """
    mats = np.ascontiguousarray(mats, dtype=complex)
    n = mats.shape[-1]
    lower, _, weights, _ = _layout(n)
    return mats.view(float).reshape(mats.shape[:-2] + (2 * n * n,))[..., lower] * weights


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


# ---------------------------------------------------------------------------
# Problem containers
# ---------------------------------------------------------------------------


@dataclass
class SdpProblem:
    """A block semidefinite program over complex Hermitian variables, in svec coordinates.

    ``c`` and every row of ``a`` concatenate one :func:`svec` per block of
    ``block_dims``: the program optimizes ``c . x`` in ``sense`` subject to
    ``a x = b``, with every block of ``x`` positive semidefinite.  Block ``k``
    of side ``n`` owns ``n**2`` coordinates; with real data, the imaginary
    ones are zero.
    """

    block_dims: tuple[int, ...]
    c: Array
    a: Array
    b: Array
    sense: str = "min"

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.block_dims = tuple(int(n) for n in self.block_dims)
        for k, dim in enumerate(self.block_dims):
            if dim < 1:
                raise ValueError(f"block {k} has non-positive dimension {dim}")
        total = int(_block_offsets(self.block_dims)[-1])
        self.c, self.a, self.b = (np.asarray(v, dtype=float) for v in (self.c, self.a, self.b))
        if self.c.shape != (total,) or self.b.ndim != 1 or self.a.shape != (len(self.b), total):
            raise ValueError(
                f"c, a, b have shapes {self.c.shape}, {self.a.shape}, {self.b.shape}; "
                f"these blocks need ({total},), (m, {total}), (m,)"
            )

    @property
    def num_rows(self) -> int:
        return len(self.b)

    def dump(self) -> str:
        """Plain text: block sides, then (block, row, col, value) per nonzero lower entry.

        A real part is written as a float; an imaginary part as a float
        followed by ``j``.
        """
        dims = self.block_dims
        coords = []
        for k, n in enumerate(dims):
            lower, _, weights, _ = _layout(n)
            rows, cols = np.divmod(lower // 2, n)
            parts = zip(rows, cols, weights, lower % 2)
            coords += [(k, i, j, w, "j" * imag) for i, j, w, imag in parts]
        lines = [f"sense {self.sense}", "blocks " + " ".join(str(d) for d in dims)]
        heads = ["objective"] + [f"equality {r} rhs {float(v)!r}" for r, v in enumerate(self.b)]
        for head, vector in zip(heads, [self.c, *self.a]):
            lines.append(head)
            for p in np.flatnonzero(vector):
                k, i, j, w, imag = coords[p]
                lines.append(f"  {k} {i} {j} {float(vector[p] / w)!r}{imag}")
        return "\n".join(lines) + "\n"


@dataclass
class SdpSolution:
    """Outcome of a solve: a status, values, block matrices, and audit residuals.

    For ``infeasible`` runs ``y`` holds the Farkas certificate (normalized so
    that ``b . y = 1``) and the block values are absent.  ``phase_seconds``
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
    return problem.a @ np.concatenate([svec(value) for value in block_values]) - problem.b


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
    :meth:`dual`.
    """

    w: Array
    g: Array
    g_inv: Array
    lam: Array

    def primal(self, dmats: Array) -> Array:
        """A primal direction in the scaled frame, ``g_inv d g_inv^H``."""
        return self.g_inv @ dmats @ _t(self.g_inv)

    def dual(self, dmats: Array) -> Array:
        """A dual direction in the scaled frame, ``g^H d g``."""
        return _t(self.g) @ dmats @ self.g

    def max_step(self, scaled: Array) -> float:
        """Largest alpha keeping ``diag(lam) + alpha scaled`` positive semidefinite.

        It is ``-1 / lambda_min(diag(lam)^-1/2 scaled diag(lam)^-1/2)`` over the stack.
        """
        root_inv = 1.0 / np.sqrt(self.lam)
        balanced = scaled * (root_inv[..., :, None] * root_inv[..., None, :])
        min_eig = float(np.linalg.eigvalsh(balanced).min())
        return -1.0 / min_eig if min_eig < -1e-14 else np.inf


def _nt_scaling_batch(x_mats: Array, s_mats: Array) -> _Scaling:
    """The :class:`_Scaling` of a stack of iterates; ``np.linalg.LinAlgError``
    when a Cholesky factorization finds one not positive definite."""
    lx = np.linalg.cholesky(x_mats)
    ls = np.linalg.cholesky(s_mats)
    u, lam, vh = np.linalg.svd(_t(ls) @ lx)
    root_inv = 1.0 / np.sqrt(lam)
    g = lx @ _t(vh) * root_inv[..., None, :]
    g_inv = root_inv[..., :, None] * _t(ls @ u)
    return _Scaling(hermitian_part(g @ _t(g)), g, g_inv, lam)


def _scalar_step(value: float, delta: float) -> float:
    return -value / delta if delta < -1e-300 else np.inf


@dataclass(frozen=True)
class _EntryGroup:
    """The rows of one side group entry by entry, as the Schur complement reads them.

    Row ``i`` touches block ``k`` where it has a nonzero coordinate there,
    and its block is ``A = L + L^H``, with ``L`` the lower triangle and half
    the diagonal.  The rows touching block ``k`` take ranks ``0, 1, ...`` by
    decreasing entry count; ``width`` is the most rows touching one block.
    Each iteration writes ``W_k L W_k`` for the row at rank ``r`` of block
    ``k`` to ``[:, :, k, r]`` of an ``(n, n, K, width)`` buffer, a piece of
    ranks at a time, so that each block's partner rows come last; ranks a
    block has no row at stay zero.

    ``ranges`` splits the ranks into runs ``(lo, hi, columns, rows, coef)``
    whose rows have at most ``E`` entries.  ``coef`` holds each row's
    entries ``L[p, q]`` (zero past its last), and ``columns`` and ``rows``
    index ``W[:, p]`` and ``W[q, :]`` in the flattened ``(K, n, n)`` stack:
    shaped ``(n, K, G)`` when ``E`` is one, and ``(K, G, n, E)`` and ``(K, G,
    E, n)`` otherwise.  ``pairing`` has one row per (row, block) touch and
    one column per buffer entry of ``(n, n, K)``: ``2 A[a, b]`` at ``(b, a,
    k)`` for each nonzero ``A[a, b]``, so that its product with the buffer
    is ``2 Re tr(A_jk W_k L_ik W_k) = <A_jk, W_k A_ik W_k>`` for every rank.
    """

    width: int
    ranges: list[tuple[int, int, Array, Array, Array]]
    pairing: sparse.csr_matrix

    @classmethod
    def of(
        cls, row: Array, block: Array, coord: Array, value: Array, n: int, count: int, m: int
    ) -> tuple[_EntryGroup, Array]:
        """The group of ``count`` side-``n`` blocks from its nonzeros in ``a``, and the
        flat ``m x m`` index of each entry of its pairing product.

        ``row``, ``block`` and ``coord`` place each nonzero ``value``: its
        row, its block within the group, and its svec coordinate there.
        """
        # scipy.sparse takes about 20 ms to import: the first solve loads it, not
        # the program's start.
        from scipy import sparse

        lower, _, weights, _ = _layout(n)
        left, right = np.divmod(lower[coord] // 2, n)
        # Each nonzero is the real or the imaginary part of A[left, right], on or
        # below the diagonal; A[right, left] is its conjugate.
        part = value / weights[coord] * np.where(lower[coord] % 2, 1j, 1.0)
        keys, merged = np.unique(((block * m + row) * n + left) * n + right, return_inverse=True)
        entry = np.bincount(merged, part.real) + 1j * np.bincount(merged, part.imag)
        left, right = keys // n % n, keys % n
        touches, touch, sizes = np.unique(keys // (n * n), return_inverse=True, return_counts=True)
        touch_block, touch_row = np.divmod(touches, m)
        block = touch_block[touch]
        order = np.lexsort((touch_row, -sizes, touch_block))
        rank = np.empty_like(order)
        ordered = touch_block[order]
        rank[order] = np.arange(len(order)) - np.searchsorted(ordered, ordered)
        # The entries come sorted by touch; each one's place among its touch's.
        slot = np.arange(len(touch)) - np.searchsorted(touch, touch)
        width = int(rank.max(initial=-1)) + 1
        most = np.zeros(width, dtype=int)
        np.maximum.at(most, rank, sizes)
        half = np.where(left == right, 0.5, 1.0) * entry
        stack, side = np.arange(count)[:, None, None] * n * n, np.arange(n)
        ranges = []
        starts = np.flatnonzero(np.diff(most, prepend=-1)).tolist()
        entry_rank = rank[touch]
        for lo, hi in zip(starts, starts[1:] + [width]):
            at = np.flatnonzero((entry_rank >= lo) & (entry_rank < hi))
            where = (block[at], entry_rank[at] - lo, slot[at])
            p, q = np.zeros((2, count, hi - lo, most[lo]), dtype=int)
            coef = np.zeros((count, hi - lo, most[lo]), dtype=complex)
            p[where], q[where], coef[where] = left[at], right[at], half[at]
            if most[lo] == 1:
                columns = (stack + p)[..., 0] + n * side[:, None, None]
                rows = (stack + n * q)[..., 0] + side[:, None, None]
                ranges.append((lo, hi, columns, rows, coef[..., 0]))
            else:
                columns = (stack + p)[:, :, None, :] + n * side[:, None]
                rows = (stack + n * q)[..., None] + side
                ranges.append((lo, hi, columns, rows, coef[:, :, None, :]))
        mirror = left != right
        position = np.concatenate([right * n + left, (left * n + right)[mirror]])
        column = position * count + np.concatenate([block, block[mirror]])
        pairing = sparse.csr_matrix(
            (
                2 * np.concatenate([entry, entry[mirror].conj()]),
                (np.concatenate([touch, touch[mirror]]), column),
            ),
            shape=(len(touches), n * n * count),
        )
        # The buffer is zero at ranks no row holds, so those may pair with any row.
        partner = np.zeros((count, width), dtype=int)
        partner[touch_block, rank] = touch_row
        return cls(width, ranges, pairing), (touch_row[:, None] * m + partner[touch_block]).ravel()

    def pair(self, w: Array, out: Array) -> None:
        """Per touch and rank, ``<A_jk, W_k A_ik W_k>`` into ``out``, for the stack ``w``.

        The buffer holds about ``_SLICE_ENTRIES`` entries, as many ranks as
        fit and at least one; each piece of ranks is filled and paired in
        turn.  A run is one stacked product ``sum_e coef_e W[:, p_e] W[q_e,
        :]`` (an outer product when its rows have one entry), written
        straight into the buffer; one sparse product pairs it with the rows.
        """
        count, n = w.shape[:2]
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
                    by_entry = congruence[..., into]
                    picked = flat[columns[..., ranks]] * coef[:, ranks]
                    np.multiply(picked[:, None], flat[rows[..., ranks]][None], out=by_entry)
                else:
                    by_rank = congruence.transpose(2, 3, 0, 1)[:, into]
                    picked = flat[columns[:, ranks]] * coef[:, ranks]
                    np.matmul(picked, flat[rows[:, ranks]], out=by_rank)
            product = self.pairing @ congruence.reshape(n * n * count, -1)
            out[:, start:stop] = product.real


@dataclass(frozen=True)
class _Schur:
    """The equality rows entry by entry, one :class:`_EntryGroup` per side group.

    ``pairs`` places every entry of every group's pairing product in the
    flattened ``m x m`` matrix.
    """

    groups: list[_EntryGroup]
    pairs: Array
    m: int

    @classmethod
    def of(cls, a_mat: Array, groups: list[_SideGroup]) -> _Schur:
        m = len(a_mat)
        rows, cols = np.nonzero(a_mat)
        values = a_mat[rows, cols]
        # Each column's side group, block within the group, and svec coordinate.
        owner = np.empty((3, a_mat.shape[1]), dtype=int)
        for index, group in enumerate(groups):
            owner[0, group.gather] = index
            owner[1, group.gather] = np.arange(len(group.blocks))[:, None]
            owner[2, group.gather] = np.arange(svec_dim(group.side))
        entries, pairs = [], []
        for index, group in enumerate(groups):
            mine = owner[0, cols] == index
            entry_group, group_pairs = _EntryGroup.of(
                rows[mine], owner[1, cols[mine]], owner[2, cols[mine]], values[mine],
                group.side, len(group.blocks), m,
            )
            entries.append(entry_group)
            pairs.append(group_pairs)
        return cls(entries, np.concatenate(pairs), m)

    def assemble(self, ws: list[Array]) -> Array:
        """``S_ij = sum_k <A_jk, W_k A_ik W_k>`` for the NT scaling matrices ``W_k``.

        This is SDPA's formula for sparse rows (Fujisawa, Kojima & Nakata,
        *Math. Program.* 79 (1997)): no row is scaled densely and there is no
        Gram product.  ``np.bincount`` sums the pairs in a fixed order, so the
        result repeats bit for bit, and ``(S + S^T) / 2`` is exactly symmetric.
        """
        paired, start = np.empty(len(self.pairs)), 0
        for group, w in zip(self.groups, ws):
            shape = (group.pairing.shape[0], group.width)
            size = shape[0] * shape[1]
            group.pair(w, paired[start : start + size].reshape(shape))
            start += size
        flat = np.bincount(self.pairs, paired, minlength=self.m * self.m)
        schur = flat.reshape(self.m, self.m)
        return (schur + schur.T) / 2


@dataclass
class _Candidate:
    score: float = np.inf
    primal: float = np.nan
    dual: float = np.nan
    pres: float = np.inf
    dres: float = np.inf
    gap: float = np.inf
    x: Array | None = None
    y: Array | None = None
    tau: float = 1.0


def _lap(seconds: dict[str, float], phase: str, since: float) -> float:
    """Add the time since ``since`` to ``seconds[phase]``, and return the time now."""
    now = time.perf_counter()
    seconds[phase] += now - since
    return now


def _require_independent(a: Array) -> None:
    """Raise ``ValueError`` unless the rows of ``a`` are provably independent.

    For ``m`` rows of ``n`` columns, with ``rho`` the largest row norm, the
    proof is that Cholesky succeeds on ``a a^T - delta I``, ``delta =
    (PRESOLVE_RANK_TOL rho)^2 + 2 (m + n) eps tr(a a^T)``.  The second term
    exceeds the rounding error of the Gram product (``gamma_n tr``) plus that
    of a Cholesky factorization that succeeds (``gamma_(m+1) tr / (1 -
    gamma_(m+1))``; Rump, *BIT* 46 (2006)), so success proves ``sigma_min(a) >
    PRESOLVE_RANK_TOL rho``.  That second term is the floor that binds: rows
    with ``sigma_min(a)**2 <= 2 (m + n) eps tr(a a^T)``, at most ``2 (m + n) m
    eps rho**2``, are refused even when ``sigma_min(a)`` is far above
    ``PRESOLVE_RANK_TOL rho``: for the 613 rows and 1,600 columns of a
    (4,3,2) relaxation bound that floor is up to ``2.5e-5 rho``, and
    ``1.3e-5 rho`` for the functional ``cli._random_psd_functional`` draws
    with seed 3.
    """
    m, n = a.shape
    gram = a @ a.T
    rounding = 2 * (m + n) * np.finfo(float).eps * np.trace(gram)
    delta = PRESOLVE_RANK_TOL**2 * gram.diagonal().max(initial=0.0) + rounding
    try:
        np.linalg.cholesky(gram - delta * np.eye(m))
    except np.linalg.LinAlgError:
        raise ValueError(
            f"the {m} equality rows are dependent, or not provably independent: their "
            f"smallest singular value is not above {PRESOLVE_RANK_TOL:.0e} times their "
            "largest norm by the rounding margin"
        ) from None


def solve(
    problem: SdpProblem,
    *,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> SdpSolution:
    """Solve a block semidefinite program.

    ``feas_tol`` bounds the scaled primal and dual residuals of the returned
    point, ``gap_tol`` the relative duality gap.  The equality rows must be
    independent (``ValueError`` otherwise; the check is the only presolve).  A
    problem whose iterates reveal an improving dual ray is reported
    ``infeasible`` together with the certificate.
    """
    dims = list(problem.block_dims)
    c = -problem.c if problem.sense == "max" else problem.c
    groups = _side_groups(dims)
    sign = -1.0 if problem.sense == "max" else 1.0
    _require_independent(problem.a)
    phase_seconds = dict.fromkeys(PHASES, 0.0)

    m = problem.num_rows
    if m == 0:
        # No constraints: the optimum is zero at X = 0 when the (sense-adjusted)
        # objective is blockwise positive semidefinite, otherwise the problem
        # is unbounded.
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

    # Independent rows have nonzero norms.
    row_norms = np.linalg.norm(problem.a, axis=1)
    a_mat = problem.a / row_norms[:, None]
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

    best = _Candidate()
    iterations = 0
    note = ""
    status = MAX_ITERATIONS

    for iteration in range(max_iter):
        iterations = iteration
        # Convergence metrics for the de-homogenized candidate.
        x_hat = x / tau
        y_hat = y / tau
        s_hat = s / tau
        pres = float(np.linalg.norm(a_mat @ x_hat - b)) / b_norm
        dres = float(np.linalg.norm(a_mat.T @ y_hat + s_hat - c)) / c_norm
        obj_p = float(c @ x_hat)
        obj_d = float(b @ y_hat)
        gap_rel = abs(obj_p - obj_d) / (1.0 + abs(obj_p) + abs(obj_d))
        score = max(pres, dres, gap_rel)
        if score < best.score:
            best = _Candidate(score, obj_p, obj_d, pres, dres, gap_rel, x_hat.copy(), y_hat.copy(), tau)

        if pres <= feas_tol and dres <= feas_tol and gap_rel <= gap_tol:
            status = OPTIMAL
            best = _Candidate(score, obj_p, obj_d, pres, dres, gap_rel, x_hat.copy(), y_hat.copy(), tau)
            break

        # Infeasibility certificates from the homogeneous ray.
        b_dot_y = float(b @ y)
        if b_dot_y > 1e-10:
            ray_res = float(np.linalg.norm(a_mat.T @ (y / b_dot_y) + s / b_dot_y))
            if ray_res <= feas_tol:
                farkas = y / row_norms / b_dot_y
                residuals = {
                    "farkas_ray": float(np.linalg.norm(problem.a.T @ farkas)),
                    "b_dot_y": float(problem.b @ farkas),
                }
                note = "improving dual ray"
                return SdpSolution(
                    INFEASIBLE, np.nan, np.nan, None, farkas, residuals, iteration, note,
                    phase_seconds,
                )
        c_dot_x = float(c @ x)
        if c_dot_x < -1e-10:
            ray_res = float(np.linalg.norm(a_mat @ (x / -c_dot_x)))
            if ray_res <= feas_tol and tau <= 1e-6:
                status = NUMERICAL_TROUBLE
                note = "objective unbounded below (improving primal ray)"
                break

        mu = (float(x @ s) + tau * kappa) / (nu + 1.0)
        if mu < 1e-16 or not np.isfinite(mu):
            status = NUMERICAL_TROUBLE
            note = "central parameter vanished without a verdict"
            break

        # Nesterov-Todd scaling per group of same-side blocks.
        clock = time.perf_counter()
        try:
            scal = [_nt_scaling_batch(group.unpack(x), group.unpack(s)) for group in groups]
        except np.linalg.LinAlgError:
            status = NUMERICAL_TROUBLE
            note = "an iterate lost positive definiteness"
            break
        clock = _lap(phase_seconds, "scaling", clock)

        def _apply_d(vec: Array) -> Array:
            out = np.empty_like(vec)
            for group, sc in zip(groups, scal):
                out[group.gather] = svec(sc.w @ group.unpack(vec) @ sc.w)
            return out

        schur = schur_rows.assemble([sc.w for sc in scal])
        clock = _lap(phase_seconds, "schur", clock)

        chol_fac = None
        jitter = 0.0
        base = float(np.trace(schur)) / max(m, 1)
        for attempt in range(6):
            try:
                # The transposed lower factor is the upper factor in Fortran
                # order, which scipy's triangular solves read without a copy.
                chol_fac = (np.linalg.cholesky(schur + jitter * np.eye(m)).T, False)
                break
            except np.linalg.LinAlgError:
                jitter = max(base * 1e-14, 1e-14) * (100.0 ** attempt)
        clock = _lap(phase_seconds, "cholesky", clock)
        if chol_fac is None:
            status = NUMERICAL_TROUBLE
            note = "Schur complement lost positive definiteness"
            break

        rp = a_mat @ x - b * tau
        rd = a_mat.T @ y + s - c * tau
        rg = float(c @ x) - float(b @ y) + kappa

        d_c = _apply_d(c)
        d_rd = _apply_d(rd)
        dy1 = sla.cho_solve(chol_fac, b + a_mat @ d_c, check_finite=False)
        dx1 = _apply_d(a_mat.T @ dy1) - d_c
        denom_1 = float(b @ dy1) - float(c @ dx1)

        def _newton(rc: Array, rck: float) -> tuple[Array, Array, Array, float, float] | None:
            rc_d = rc + d_rd
            dy2 = sla.cho_solve(chol_fac, -rp - a_mat @ rc_d, check_finite=False)
            dx2 = rc_d + _apply_d(a_mat.T @ dy2)
            denom = kappa + tau * denom_1
            if abs(denom) < 1e-300:
                return None
            dtau = (rck + tau * (rg + float(c @ dx2) - float(b @ dy2))) / denom
            dy = dy2 + dtau * dy1
            dx = dx2 + dtau * dx1
            ds = -rd - a_mat.T @ dy + c * dtau
            dkappa = -rg - float(c @ dx) + float(b @ dy)
            return dx, dy, ds, dtau, dkappa

        affine = _newton(-x, -tau * kappa)
        if affine is None:
            status = NUMERICAL_TROUBLE
            note = "singular step equation"
            break
        dx_a, dy_a, ds_a, dtau_a, dkappa_a = affine

        # The affine directions in each group's scaled frame.
        dx_a_t = [sc.primal(group.unpack(dx_a)) for group, sc in zip(groups, scal)]
        ds_a_t = [sc.dual(group.unpack(ds_a)) for group, sc in zip(groups, scal)]
        alpha_aff = min(
            min(sc.max_step(d) for sc, d in zip(scal, dx_a_t)),
            min(sc.max_step(d) for sc, d in zip(scal, ds_a_t)),
            _scalar_step(tau, dtau_a),
            _scalar_step(kappa, dkappa_a),
            1.0,
        )
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
            cross = hermitian_part(dxa_t @ dsa_t)
            lyapunov = 2.0 / (sc.lam[..., :, None] + sc.lam[..., None, :])
            r_c = np.eye(group.side) * (sigma * mu / sc.lam)[..., None] - cross * lyapunov
            rc[group.gather] += svec(sc.g @ r_c @ _t(sc.g))
        rck = sigma * mu - tau * kappa - dtau_a * dkappa_a

        corrected = _newton(rc, rck)
        if corrected is None:
            status = NUMERICAL_TROUBLE
            note = "singular step equation"
            break
        dx, dy, ds, dtau, dkappa = corrected

        alpha_max = min(
            min(sc.max_step(sc.primal(group.unpack(dx))) for group, sc in zip(groups, scal)),
            min(sc.max_step(sc.dual(group.unpack(ds))) for group, sc in zip(groups, scal)),
            _scalar_step(tau, dtau),
            _scalar_step(kappa, dkappa),
        )
        alpha = min(1.0, 0.98 * alpha_max)
        if not np.isfinite(alpha) or alpha <= 1e-12:
            status = NUMERICAL_TROUBLE
            note = "step length collapsed"
            break

        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkappa
        _lap(phase_seconds, "step", clock)
    else:
        iterations = max_iter

    return SdpSolution(
        status=status,
        primal_value=sign * best.primal,
        dual_value=sign * best.dual,
        block_values=None if best.x is None else _unpack_blocks(best.x, groups),
        y=None if best.y is None else best.y / row_norms,
        residuals={
            "primal": best.pres,
            "dual": best.dres,
            "gap": best.gap,
            "tau": tau,
            "kappa": kappa,
        },
        iterations=iterations,
        note=note,
        phase_seconds=phase_seconds,
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
    alone rule the instance out, and NaN when the solve did not finish.
    ``verdict`` is the only rule that turns a margin into an answer:
    ``inside`` when ``margin >= -tol``, ``outside`` when ``margin <
    -max(DECISIVE_MARGIN, tol)``, and ``undecided`` otherwise, that is, for a
    NaN margin or one in the band between.  ``tol`` is the feasibility
    tolerance the solve ran with.  ``witness`` carries the found element
    (when inside) and ``certificate_y`` a separating functional on the
    problem's equality rows (when a finished solve found it not inside;
    ``None`` for the relaxation, whose separating functional is the dual
    block of its LMI ``problem``).  ``iterations`` counts the solver's
    iterations; it is ``None`` when the verdict needed no solve.
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
    problem: SdpProblem,
    *,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> MembershipReport:
    """Decide whether the equality rows of ``problem`` meet the cone.

    The probe minimizes a uniform shift ``t`` with every block constrained to
    ``X_k + t I`` inside the cone, which always has an interior, so boundary
    instances are classified by the sign of the optimal shift instead of by a
    failed solve.  The margin is ``-t``, and ``feas_tol`` is the report's
    ``tol``.  When inside, the witness is the list of block values; the
    report's ``problem`` is ``problem`` itself.  The objective of ``problem``
    is ignored.  Independent rows always meet the shifted cone, so every
    status but ``optimal`` leaves the margin NaN.
    """
    # The solver's blocks are Z = X + t I with t = t+ - t- (the two last,
    # one-by-one blocks), so row i reads <A_i, Z> - t tr(A_i) = b_i.
    trace = problem.a @ _svec_identity(problem.block_dims)
    phase1 = SdpProblem(
        block_dims=problem.block_dims + (1, 1),
        c=np.concatenate([np.zeros_like(problem.c), [1.0, -1.0]]),
        a=np.column_stack([problem.a, -trace, trace]),
        b=problem.b,
        sense="min",
    )
    solution = solve(phase1, feas_tol=feas_tol, gap_tol=gap_tol, max_iter=max_iter)
    report = MembershipReport(
        margin=np.nan,
        status=solution.status,
        residuals=dict(solution.residuals),
        problem=problem,
        iterations=solution.iterations,
        tol=feas_tol,
        phase_seconds=solution.phase_seconds,
    )
    if solution.status != OPTIMAL:
        return report

    assert solution.block_values is not None
    shift = float(solution.block_values[-2][0, 0].real - solution.block_values[-1][0, 0].real)
    recovered = [
        solution.block_values[k] - shift * np.eye(n)
        for k, n in enumerate(problem.block_dims)
    ]
    eq_res = equality_residuals(problem, recovered)
    report.residuals["equality_max"] = float(np.max(np.abs(eq_res))) if eq_res.size else 0.0
    report.margin = -shift
    if report.feasible:
        report.witness = recovered
    else:
        report.certificate_y = solution.y
    return report


def contradiction_report(
    problem: SdpProblem, independent: int, residuals: dict[str, float], tol: float
) -> MembershipReport:
    """Outside, with margin ``-inf`` and no solve: the data contradict implied rows.

    The rows of ``problem`` after the first ``independent`` are combinations
    of those, ``a_d = coeffs^T a_r``, whose right-hand sides do not combine
    the same way.  ``certificate_y`` combines every row into ``sum_i y_i A_i
    = 0`` with ``b . y = 1``.
    """
    r, a, b = independent, problem.a, problem.b
    coeffs = np.linalg.solve(a[:r] @ a[:r].T, a[:r] @ a[r:].T)
    mismatch = b[r:] - coeffs.T @ b[:r]
    y = np.concatenate([-coeffs @ mismatch, mismatch]) / (mismatch @ mismatch)
    return MembershipReport(-np.inf, INFEASIBLE, residuals, problem, certificate_y=y, tol=tol)


# ---------------------------------------------------------------------------
# Hermitian layer
# ---------------------------------------------------------------------------


def hermitian_lmi(
    constant: Sequence[Array], coefficients: Sequence[Array], objective: Array
) -> SdpProblem:
    """``max b.p`` subject to ``F0_j + sum_k p_k F_kj >= 0`` per block ``j``, as a dual.

    ``constant[j]`` is ``F0_j`` and ``coefficients[j]`` the stack of the
    ``F_kj``.  Block ``j`` gets ``C_j = F0_j`` and row ``k`` gets
    ``A_kj = -F_kj`` (their Hermitian parts), so the dual slack is
    ``F0 + sum_k p_k F_k``: ``solve`` returns the maximizer as ``y`` and the
    maximum as ``dual_value``.
    """
    dims = tuple(len(f0) for f0 in constant)
    offsets = _block_offsets(dims)
    # Row 0 is c, the rows after it are -a.
    table = np.empty((1 + len(objective), offsets[-1]))
    for j, (f0, stack) in enumerate(zip(constant, coefficients)):
        cols = slice(offsets[j], offsets[j + 1])
        table[0, cols] = svec(hermitian_part(np.asarray(f0)))
        table[1:, cols] = svec(hermitian_part(stack))
    np.negative(table[1:], out=table[1:])
    return SdpProblem(block_dims=dims, c=table[0], a=table[1:], b=objective)


class HermitianBlockBuilder:
    """Assemble a problem over complex Hermitian blocks.

    Each block is a solver block of its own side; a complex equality splits
    into a real row and an imaginary row.  ``extract`` reads a solved block
    by name.

    Terms are kept as stacks ``(rows, blocks, coefficients)`` of one block
    side each, and ``build`` packs each side's stack in one batched call.
    """

    _NEGLIGIBLE = 1e-14

    def __init__(self, sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self._dims: list[int] = []
        self._names: dict[str, int] = {}
        self._rhs: list[complex] = []
        self._terms: list[tuple[Array, Array, Array]] = []
        self._objective: dict[int, Array] = {}

    def add_block(self, name: str, dim: int) -> int:
        """Declare a complex Hermitian variable block and return its index."""
        if name in self._names:
            raise ValueError(f"duplicate block name {name!r}")
        if dim < 1:
            raise ValueError(f"block {name!r} has non-positive dimension {dim}")
        index = len(self._dims)
        self._names[name] = index
        self._dims.append(dim)
        return index

    def _block(self, name: str, shape: tuple[int, ...], what: str) -> int:
        index = self._names[name]
        if shape != (self._dims[index],) * 2:
            raise ValueError(
                f"{what} for block {name!r} has shape {shape}, expected side {self._dims[index]}"
            )
        return index

    def add_equality(
        self, terms: Sequence[tuple[str, Array]], rhs: complex = 0.0
    ) -> None:
        """Require ``sum_k tr(E_k H_k) = rhs`` over the named blocks."""
        coeffs = [np.asarray(coeff, dtype=complex) for _, coeff in terms]
        blocks = [self._block(name, c.shape, "coefficient") for (name, _), c in zip(terms, coeffs)]
        row = np.array([len(self._rhs)])
        self._terms += [(row, np.array([k]), c[None]) for k, c in zip(blocks, coeffs)]
        self._rhs.append(complex(rhs))

    def add_matrix_equality(
        self, terms: Sequence[tuple[str, complex]], target: Array
    ) -> None:
        """Require ``sum_k c_k H_k = target`` over named blocks of ``target``'s side.

        ``terms`` pairs each block name with its scalar ``c_k``.  One row pins
        entry ``(i, j)`` for each ``i <= j`` in row-major order, which fixes a
        Hermitian sum entirely.
        """
        target = np.asarray(target, dtype=complex)
        upper_i, upper_j = np.triu_indices(len(target))
        count = len(upper_i)
        # Row p reads tr(U_p H) = H[i, j] with U_p the unit matrix at (j, i).
        units = np.zeros((count,) + target.shape, dtype=complex)
        units[np.arange(count), upper_j, upper_i] = 1.0
        blocks = [self._block(name, target.shape, "coefficient") for name, _ in terms]
        scalars = np.array([scalar for _, scalar in terms], dtype=complex)
        # One stack for all terms, term after term.
        rows = np.tile(len(self._rhs) + np.arange(count), len(blocks))
        coeffs = (scalars[:, None, None, None] * units).reshape((-1,) + target.shape)
        self._terms.append((rows, np.repeat(np.array(blocks, dtype=int), count), coeffs))
        self._rhs += target[upper_i, upper_j].tolist()

    def add_objective_term(self, name: str, coeff: Array) -> None:
        """Accumulate ``Re tr(F H)`` into the objective."""
        coeff = np.asarray(coeff, dtype=complex)
        index = self._block(name, coeff.shape, "objective coefficient")
        self._objective[index] = self._objective.get(index, 0.0) + coeff

    def build(self) -> SdpProblem:
        """Pack each side's terms at once: the real (imaginary) row of ``sum_k
        tr(E_k H_k) = rhs`` takes ``svec(H)`` for the Hermitian part ``H`` of
        ``E_k`` (of ``-i E_k``), unless its terms are negligible.

        Which rows are kept depends on the coefficients alone.  A dropped row
        reads ``0 = rhs``, so a right-hand side above ``_NEGLIGIBLE`` there
        raises ``ValueError``.
        """
        dims = tuple(self._dims)
        offsets = _block_offsets(dims)
        count = len(self._rhs)
        # The objective Re tr(F H) is the real part of one more row.
        terms = self._terms + [
            (np.array([count]), np.array([k]), coeff[None])
            for k, coeff in sorted(self._objective.items())
        ]
        # Per row, the summed norms of its real and of its imaginary terms.
        norms = np.zeros((count + 1, 2))
        stacks = []
        for side in sorted({coeffs.shape[-1] for _, _, coeffs in terms}):
            rows, blocks, coeffs = (
                np.concatenate(column)
                for column in zip(*(term for term in terms if term[2].shape[-1] == side))
            )
            parts = np.stack([hermitian_part(coeffs), hermitian_part(-1j * coeffs)])
            for part, part_norms in enumerate(np.linalg.norm(parts, axis=(-2, -1))):
                norms[:, part] += np.bincount(rows, weights=part_norms, minlength=count + 1)
            stacks.append((rows, blocks, svec(parts)))
        rhs = np.array(self._rhs + [0.0], dtype=complex).view(float).reshape(-1, 2)
        keep = norms > self._NEGLIGIBLE
        keep[count] = (True, False)
        unmet = np.argwhere(~keep & (np.abs(rhs) > self._NEGLIGIBLE))
        if len(unmet):
            row, part = unmet[0]
            side = ("real", "imaginary")[part]
            raise ValueError(f"equality {row} reads 0 = {rhs[row, part]:.3e} in its {side} part")
        # Kept parts in order: each row's real part, then its imaginary part.
        position = np.cumsum(keep).reshape(keep.shape) - 1
        table = np.zeros((int(keep.sum()), offsets[-1]))
        for rows, blocks, packed in stacks:
            cols = offsets[blocks][:, None] + np.arange(packed.shape[-1])
            for part in (0, 1):
                kept = keep[rows, part]
                np.add.at(
                    table, (position[rows[kept], part][:, None], cols[kept]), packed[part, kept]
                )
        return SdpProblem(dims, c=table[-1], a=table[:-1], b=rhs[keep][:-1], sense=self.sense)

    def extract(self, block_values: Sequence[Array], name: str) -> Array:
        """Value of the named block among the solved blocks."""
        return block_values[self._names[name]]
