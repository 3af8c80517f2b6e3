"""Small dense semidefinite programming solver.

Problems are stated over a product of real symmetric blocks:

    minimize    <C, X>
    subject to  <A_i, X> = b_i      for each equality row i,
                X block-wise positive semidefinite.

The solver runs a homogeneous self-dual interior-point method with
Nesterov-Todd scaling and Mehrotra predictor-corrector steps, so a run ends
either near an optimal primal-dual pair or on an explicit Farkas certificate
of infeasibility.  Equality rows are rank-reduced by a pivoted QR factorization
before iterating; inconsistent rows already yield a certificate there.

A thin Hermitian layer states problems over complex Hermitian blocks in the
real symmetric form through the standard doubling embedding: with variable
blocks tied by equality rows (:class:`HermitianBlockBuilder`), or as a linear
matrix inequality solved through the dual (:func:`hermitian_lmi`).

Everything is dense, small-scale, and deterministic: re-solving the same
problem reproduces the same iterates bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.linalg as sla

Array = np.ndarray

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_TROUBLE = "numerical_trouble"

#: Relative pivot threshold for the equality-row rank reduction.
PRESOLVE_RANK_TOL = 1e-10

#: Relative threshold above which dropped equality rows count as inconsistent.
PRESOLVE_CONSISTENCY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Symmetric vectorization and the Hermitian embedding
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tril_cache(n: int) -> tuple[Array, Array, Array]:
    rows, cols = np.tril_indices(n)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    return rows, cols, weights


def svec_dim(n: int) -> int:
    """Length of the packed vector for a symmetric ``n x n`` matrix."""
    return n * (n + 1) // 2


def svec(matrix: Array) -> Array:
    """Pack a real symmetric matrix so that dot products match trace inner products."""
    matrix = np.asarray(matrix, dtype=float)
    rows, cols, weights = _tril_cache(matrix.shape[0])
    return matrix[rows, cols] * weights


def smat(vector: Array) -> Array:
    """Inverse of :func:`svec`."""
    vector = np.asarray(vector, dtype=float)
    n = int(round((np.sqrt(8.0 * len(vector) + 1.0) - 1.0) / 2.0))
    if svec_dim(n) != len(vector):
        raise ValueError(f"vector of length {len(vector)} is not a packed symmetric matrix")
    rows, cols, weights = _tril_cache(n)
    out = np.zeros((n, n))
    out[rows, cols] = vector / weights
    out[cols, rows] = out[rows, cols]
    return out


def _svec_batch(mats: Array) -> Array:
    rows, cols, weights = _tril_cache(mats.shape[1])
    return mats[:, rows, cols] * weights


def _smat_batch(vecs: Array, n: int) -> Array:
    rows, cols, weights = _tril_cache(n)
    out = np.zeros((vecs.shape[0], n, n))
    out[:, rows, cols] = vecs / weights
    out[:, cols, rows] = out[:, rows, cols]
    return out


def embed_hermitian(matrix: Array) -> Array:
    """Real symmetric image of a complex Hermitian matrix.

    The embedding doubles the side and duplicates the spectrum, so positive
    semidefiniteness is preserved in both directions.
    """
    matrix = np.asarray(matrix, dtype=complex)
    re, im = matrix.real, matrix.imag
    top = np.hstack([re, -im])
    bottom = np.hstack([im, re])
    return np.vstack([top, bottom])


def extract_hermitian(matrix: Array) -> Array:
    """Project a real symmetric matrix of even side back to a complex Hermitian one.

    This inverts :func:`embed_hermitian` and, for matrices that are merely
    close to an embedded image, averages over the embedding symmetry so the
    result is exactly Hermitian.
    """
    matrix = np.asarray(matrix, dtype=float)
    side = matrix.shape[0]
    if side % 2:
        raise ValueError(f"embedded matrix must have even side, got {side}")
    n = side // 2
    a = matrix[:n, :n]
    b = matrix[:n, n:]
    c = matrix[n:, :n]
    d = matrix[n:, n:]
    return 0.5 * (a + d) + 0.5j * (c - b)


# ---------------------------------------------------------------------------
# Problem containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualityRow:
    """One linear equality: sum over terms of <coeff, X_block> equals rhs."""

    terms: tuple[tuple[int, Array], ...]
    rhs: float


@dataclass
class SdpProblem:
    """A block semidefinite program over real symmetric variables."""

    block_dims: tuple[int, ...]
    objective: tuple[tuple[int, Array], ...]
    equalities: list[EqualityRow]
    sense: str = "min"

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        for k, dim in enumerate(self.block_dims):
            if dim < 1:
                raise ValueError(f"block {k} has non-positive dimension {dim}")

    @property
    def num_rows(self) -> int:
        return len(self.equalities)

    def dump(self) -> str:
        """Plain-text rendering: block sides, then (block, row, col, value) triplets."""
        lines = [f"sense {self.sense}", "blocks " + " ".join(str(d) for d in self.block_dims)]
        lines.append("objective")
        for block, mat in self.objective:
            for i, j in zip(*np.nonzero(np.abs(mat) > 0.0)):
                lines.append(f"  {block} {i} {j} {float(mat[i, j])!r}")
        for row_index, row in enumerate(self.equalities):
            lines.append(f"equality {row_index} rhs {float(row.rhs)!r}")
            for block, mat in row.terms:
                for i, j in zip(*np.nonzero(np.abs(mat) > 0.0)):
                    lines.append(f"  {block} {i} {j} {float(mat[i, j])!r}")
        return "\n".join(lines) + "\n"


@dataclass
class SdpSolution:
    """Outcome of a solve: a status, values, block matrices, and audit residuals.

    For ``infeasible`` runs ``y`` holds the Farkas certificate (normalized so
    that ``b . y = 1``) and the block values are absent.
    """

    status: str
    primal_value: float
    dual_value: float
    block_values: list[Array] | None
    y: Array | None
    residuals: dict[str, float]
    iterations: int
    note: str = ""


def _symmetrized(mat: Array) -> Array:
    mat = np.asarray(mat, dtype=float)
    return 0.5 * (mat + mat.T)


def _compile(problem: SdpProblem) -> tuple[list[int], Array, Array, Array]:
    """Dense data (svec coordinates): block dims, c, A, b."""
    dims = list(problem.block_dims)
    offsets = np.concatenate([[0], np.cumsum([svec_dim(n) for n in dims])])
    total = int(offsets[-1])
    m = len(problem.equalities)

    c = np.zeros(total)
    for block, mat in problem.objective:
        sym = _symmetrized(mat)
        if sym.shape != (dims[block], dims[block]):
            raise ValueError(
                f"objective term on block {block} has shape {sym.shape}, "
                f"expected {(dims[block], dims[block])}"
            )
        c[offsets[block] : offsets[block + 1]] += svec(sym)
    if problem.sense == "max":
        c = -c

    a_dense = np.zeros((m, total))
    b = np.zeros(m)
    for r, row in enumerate(problem.equalities):
        b[r] = float(row.rhs)
        for block, mat in row.terms:
            sym = _symmetrized(mat)
            if sym.shape != (dims[block], dims[block]):
                raise ValueError(
                    f"equality {r} term on block {block} has shape {sym.shape}, "
                    f"expected {(dims[block], dims[block])}"
                )
            a_dense[r, offsets[block] : offsets[block + 1]] += svec(sym)
    return dims, c, a_dense, b


def equality_residuals(problem: SdpProblem, block_values: Sequence[Array]) -> Array:
    """Signed residual of every equality row at the given block values."""
    residuals = np.zeros(problem.num_rows)
    for r, row in enumerate(problem.equalities):
        total = 0.0
        for block, mat in row.terms:
            total += float(np.sum(_symmetrized(mat) * block_values[block]))
        residuals[r] = total - row.rhs
    return residuals


def farkas_terms(problem: SdpProblem, y: Array) -> tuple[float, float]:
    """Quality of an infeasibility certificate ``y``.

    Returns ``b . y`` together with the largest eigenvalue over blocks of
    ``sum_i y_i A_i``; a valid certificate has the first positive and the
    second at most zero (up to roundoff).
    """
    b_dot_y = float(sum(row.rhs * y[r] for r, row in enumerate(problem.equalities)))
    combos = [np.zeros((n, n)) for n in problem.block_dims]
    for r, row in enumerate(problem.equalities):
        for block, mat in row.terms:
            combos[block] += y[r] * _symmetrized(mat)
    max_eig = max(float(np.linalg.eigvalsh(combo).max()) for combo in combos)
    return b_dot_y, max_eig


# ---------------------------------------------------------------------------
# The interior-point engine
# ---------------------------------------------------------------------------


def _block_views(dims: list[int]) -> list[tuple[int, int, int]]:
    """Per block: (offset into svec coordinates, packed length, side)."""
    views = []
    offset = 0
    for n in dims:
        length = svec_dim(n)
        views.append((offset, length, n))
        offset += length
    return views


def _unpack(vector: Array, views: list[tuple[int, int, int]]) -> list[Array]:
    return [smat(vector[off : off + length]) for off, length, _ in views]


def _psd_floor_eigh(matrix: Array) -> tuple[Array, Array]:
    values, vectors = np.linalg.eigh(matrix)
    floor = max(values.max() * 1e-15, 1e-50)
    return np.maximum(values, floor), vectors


def _nt_scaling(x_mat: Array, s_mat: Array) -> tuple[Array, Array, Array, Array, Array]:
    """Nesterov-Todd scaling data for one block.

    Returns ``w`` (the scaling matrix), ``g`` and ``g_inv`` (its symmetric
    square root and inverse root), and the eigensystem of the scaled point
    ``v = g s g = g_inv x g_inv``.
    """
    s_vals, s_vecs = _psd_floor_eigh(s_mat)
    s_half = (s_vecs * np.sqrt(s_vals)) @ s_vecs.T
    s_half_inv = (s_vecs / np.sqrt(s_vals)) @ s_vecs.T
    inner = s_half @ x_mat @ s_half
    in_vals, in_vecs = _psd_floor_eigh(0.5 * (inner + inner.T))
    inner_half = (in_vecs * np.sqrt(in_vals)) @ in_vecs.T
    w = s_half_inv @ inner_half @ s_half_inv
    w = 0.5 * (w + w.T)
    w_vals, w_vecs = _psd_floor_eigh(w)
    g = (w_vecs * np.sqrt(w_vals)) @ w_vecs.T
    g_inv = (w_vecs / np.sqrt(w_vals)) @ w_vecs.T
    v = g @ s_mat @ g
    v = 0.5 * (v + v.T)
    v_vals, v_vecs = _psd_floor_eigh(v)
    return w, g, g_inv, v_vals, v_vecs


def _congruence_rows(mats: Array, w: Array) -> Array:
    """Apply ``w @ m @ w`` to a stack of symmetric matrices with two large GEMMs."""
    m, n, _ = mats.shape
    right = (mats.reshape(m * n, n) @ w).reshape(m, n, n)
    left = (right.transpose(0, 2, 1).reshape(m * n, n) @ w).reshape(m, n, n)
    return left.transpose(0, 2, 1)


def _max_step(mats: list[Array], dmats: list[Array]) -> float:
    """Largest alpha keeping every block of ``x + alpha dx`` positive semidefinite."""
    alpha = np.inf
    for x_mat, d_mat in zip(mats, dmats):
        try:
            chol = sla.cholesky(x_mat, lower=True, check_finite=False)
        except sla.LinAlgError:
            vals, vecs = _psd_floor_eigh(x_mat)
            chol = (vecs * np.sqrt(vals)) @ vecs.T
        inner = sla.solve_triangular(chol, d_mat, lower=True, check_finite=False)
        inner = sla.solve_triangular(chol, inner.T, lower=True, check_finite=False)
        min_eig = float(np.linalg.eigvalsh(0.5 * (inner + inner.T)).min())
        if min_eig < -1e-14:
            alpha = min(alpha, -1.0 / min_eig)
    return alpha


def _scalar_step(value: float, delta: float) -> float:
    return -value / delta if delta < -1e-300 else np.inf


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


def solve(
    problem: SdpProblem,
    *,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> SdpSolution:
    """Solve a block semidefinite program.

    ``feas_tol`` bounds the scaled primal and dual residuals of the returned
    point, ``gap_tol`` the relative duality gap.  A problem whose equality
    rows are inconsistent, or whose iterates reveal an improving dual ray, is
    reported ``infeasible`` together with the certificate.
    """
    dims, c, a_full, b_full = _compile(problem)
    sign = -1.0 if problem.sense == "max" else 1.0
    m_full = a_full.shape[0]

    def _finish_infeasible(y_full: Array, note: str, iterations: int) -> SdpSolution:
        b_dot_y = float(b_full @ y_full)
        if b_dot_y > 0.0:
            y_full = y_full / b_dot_y
        dual_gap = float(np.linalg.norm(a_full.T @ y_full))
        return SdpSolution(
            status=INFEASIBLE,
            primal_value=np.nan,
            dual_value=np.nan,
            block_values=None,
            y=y_full,
            residuals={"farkas_ray": dual_gap, "b_dot_y": float(b_full @ y_full)},
            iterations=iterations,
            note=note,
        )

    # Rank-reduce the equality rows; detect inconsistency.
    if m_full == 0:
        keep = np.array([], dtype=int)
        a_red = np.zeros((0, a_full.shape[1]))
        b_red = np.zeros(0)
    else:
        q, r_fac, piv = sla.qr(a_full.T, mode="economic", pivoting=True, check_finite=False)
        diag = np.abs(np.diag(r_fac))
        pivot_scale = diag[0] if diag.size and diag[0] > 0.0 else 0.0
        rank = int(np.sum(diag > PRESOLVE_RANK_TOL * max(pivot_scale, 1e-300)))
        keep = np.sort(piv[:rank])
        dropped = np.sort(piv[rank:])
        if dropped.size:
            r11 = r_fac[:rank, :rank]
            coeffs = sla.solve_triangular(
                r11, r_fac[:rank, rank:], lower=False, check_finite=False
            )
            # Columns of coeffs express dropped rows in terms of kept rows
            # (both in pivot order).
            b_kept_piv = b_full[piv[:rank]]
            b_drop_piv = b_full[piv[rank:]]
            mismatch = b_drop_piv - coeffs.T @ b_kept_piv
            tol_b = PRESOLVE_CONSISTENCY_TOL * (1.0 + float(np.linalg.norm(b_full)))
            if float(np.linalg.norm(mismatch)) > tol_b:
                y_full = np.zeros(m_full)
                y_full[piv[rank:]] = mismatch
                y_full[piv[:rank]] = -coeffs @ mismatch
                return _finish_infeasible(y_full, "inconsistent equality rows", 0)
        a_red = a_full[keep]
        b_red = b_full[keep]

    m = a_red.shape[0]
    if m == 0:
        # No effective constraints: the optimum is zero at X = 0 when the
        # (sense-adjusted) objective is blockwise positive semidefinite,
        # otherwise the problem is unbounded.
        views0 = _block_views(dims)
        min_obj_eig = min(
            (
                float(np.linalg.eigvalsh(smat(c[off : off + length])).min())
                for off, length, _ in views0
            ),
            default=0.0,
        )
        if min_obj_eig < -1e-12:
            return SdpSolution(
                status=NUMERICAL_TROUBLE,
                primal_value=np.nan,
                dual_value=np.nan,
                block_values=None,
                y=None,
                residuals={},
                iterations=0,
                note="objective unbounded below on the cone",
            )
        blocks = [np.zeros((n, n)) for n in dims]
        return SdpSolution(
            status=OPTIMAL,
            primal_value=0.0,
            dual_value=0.0,
            block_values=blocks,
            y=np.zeros(m_full),
            residuals={"primal": 0.0, "dual": 0.0, "gap": 0.0},
            iterations=0,
        )

    row_norms = np.linalg.norm(a_red, axis=1)
    row_norms[row_norms == 0.0] = 1.0
    a_mat = a_red / row_norms[:, None]
    b = b_red / row_norms

    views = _block_views(dims)
    total = a_mat.shape[1]
    nu = float(sum(dims))
    a_stacks = [
        np.ascontiguousarray(_smat_batch(a_mat[:, off : off + length], n))
        for off, length, n in views
    ]

    b_norm = 1.0 + float(np.linalg.norm(b))
    c_norm = 1.0 + float(np.linalg.norm(c))

    x = np.concatenate([svec(np.eye(n)) for n in dims])
    s = x.copy()
    y = np.zeros(m)
    tau = 1.0
    kappa = 1.0

    best = _Candidate()
    iterations = 0
    note = ""
    status = MAX_ITERATIONS

    def _restore_y(y_vec: Array) -> Array:
        y_full = np.zeros(m_full)
        y_full[keep] = y_vec / row_norms
        return y_full

    for iteration in range(max_iter):
        iterations = iteration
        x_mats = _unpack(x, views)
        s_mats = _unpack(s, views)

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
                return _finish_infeasible(_restore_y(y), "improving dual ray", iteration)
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

        # Nesterov-Todd scaling per block.
        scal = [_nt_scaling(xm, sm) for xm, sm in zip(x_mats, s_mats)]

        def _apply_d(vec: Array) -> Array:
            out = np.empty_like(vec)
            for (off, length, n), (w, _, _, _, _) in zip(views, scal):
                block = smat(vec[off : off + length])
                out[off : off + length] = svec(w @ block @ w)
            return out

        b_rows = np.empty_like(a_mat)
        for (off, length, n), stack, (w, _, _, _, _) in zip(views, a_stacks, scal):
            b_rows[:, off : off + length] = _svec_batch(_congruence_rows(stack, w))
        schur = a_mat @ b_rows.T
        schur = 0.5 * (schur + schur.T)

        chol_fac = None
        jitter = 0.0
        base = float(np.trace(schur)) / max(m, 1)
        for attempt in range(6):
            try:
                chol_fac = sla.cho_factor(
                    schur + jitter * np.eye(m), lower=True, check_finite=False
                )
                break
            except sla.LinAlgError:
                jitter = max(base * 1e-14, 1e-14) * (100.0 ** attempt)
        if chol_fac is None:
            status = NUMERICAL_TROUBLE
            note = "Schur complement lost positive definiteness"
            break

        rp = a_mat @ x - b * tau
        rd = a_mat.T @ y + s - c * tau
        rg = float(c @ x) - float(b @ y) + kappa

        d_c = _apply_d(c)
        dy1 = sla.cho_solve(chol_fac, b + a_mat @ d_c, check_finite=False)
        dx1 = _apply_d(a_mat.T @ dy1) - d_c
        denom_1 = float(b @ dy1) - float(c @ dx1)

        def _newton(rc: Array, rck: float) -> tuple[Array, Array, Array, float, float] | None:
            rhs2 = -rp - a_mat @ (rc + _apply_d(rd))
            dy2 = sla.cho_solve(chol_fac, rhs2, check_finite=False)
            dx2 = rc + _apply_d(rd) + _apply_d(a_mat.T @ dy2)
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

        dx_a_mats = _unpack(dx_a, views)
        ds_a_mats = _unpack(ds_a, views)
        alpha_aff = min(
            _max_step(x_mats, dx_a_mats),
            _max_step(s_mats, ds_a_mats),
            _scalar_step(tau, dtau_a),
            _scalar_step(kappa, dkappa_a),
            1.0,
        )
        gap_now = float(x @ s) + tau * kappa
        gap_aff = float((x + alpha_aff * dx_a) @ (s + alpha_aff * ds_a)) + (
            tau + alpha_aff * dtau_a
        ) * (kappa + alpha_aff * dkappa_a)
        sigma = float(np.clip((max(gap_aff, 0.0) / gap_now) ** 3, 1e-9, 0.99999))

        # Corrector right-hand side, block by block in the scaled space.
        rc = np.empty_like(x)
        for idx, ((off, length, n), (w, g, g_inv, v_vals, v_vecs)) in enumerate(
            zip(views, scal)
        ):
            dxa_t = g_inv @ dx_a_mats[idx] @ g_inv
            dsa_t = g @ ds_a_mats[idx] @ g
            cross = 0.5 * (dxa_t @ dsa_t + dsa_t @ dxa_t)
            v_sq = (v_vecs * v_vals**2) @ v_vecs.T
            target = sigma * mu * np.eye(n) - v_sq - cross
            in_basis = v_vecs.T @ target @ v_vecs
            in_basis *= 2.0 / np.add.outer(v_vals, v_vals)
            r_c = v_vecs @ in_basis @ v_vecs.T
            mat = g @ (0.5 * (r_c + r_c.T)) @ g
            rc[off : off + length] = svec(mat)
        rck = sigma * mu - tau * kappa - dtau_a * dkappa_a

        corrected = _newton(rc, rck)
        if corrected is None:
            status = NUMERICAL_TROUBLE
            note = "singular step equation"
            break
        dx, dy, ds, dtau, dkappa = corrected

        alpha_max = min(
            _max_step(x_mats, _unpack(dx, views)),
            _max_step(s_mats, _unpack(ds, views)),
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
    else:
        iterations = max_iter

    if status == OPTIMAL:
        x_hat, y_hat = best.x, best.y
        block_values = _unpack(x_hat, views)
        y_full = _restore_y(y_hat)
        primal = sign * best.primal
        dual = sign * best.dual
        return SdpSolution(
            status=OPTIMAL,
            primal_value=primal,
            dual_value=dual,
            block_values=block_values,
            y=y_full,
            residuals={
                "primal": best.pres,
                "dual": best.dres,
                "gap": best.gap,
                "tau": tau,
                "kappa": kappa,
            },
            iterations=iterations,
        )

    if status in (MAX_ITERATIONS, NUMERICAL_TROUBLE):
        block_values = _unpack(best.x, views) if best.x is not None else None
        y_full = _restore_y(best.y) if best.y is not None else None
        return SdpSolution(
            status=status,
            primal_value=sign * best.primal,
            dual_value=sign * best.dual,
            block_values=block_values,
            y=y_full,
            residuals={
                "primal": best.pres,
                "dual": best.dres,
                "gap": best.gap,
                "tau": tau,
                "kappa": kappa,
            },
            iterations=iterations,
            note=note,
        )

    raise AssertionError(f"unhandled solver status {status!r}")


# ---------------------------------------------------------------------------
# Feasibility with a margin (phase-one formulation)
# ---------------------------------------------------------------------------


@dataclass
class FeasibilityResult:
    """Outcome of a feasibility probe.

    ``margin`` is the largest ``t`` such that the equality rows admit a
    solution with every block at least ``t`` times the identity (negative when
    only infeasible shifts exist).  ``feasible`` answers against the tolerance;
    ``certificate_y`` carries the separating functional when infeasible.
    """

    feasible: bool
    margin: float
    status: str
    block_values: list[Array] | None
    certificate_y: Array | None
    residuals: dict[str, float]


def feasibility_phase1(
    problem: SdpProblem,
    *,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> FeasibilityResult:
    """Decide whether the equality rows of ``problem`` meet the cone.

    The probe minimizes a uniform shift ``t`` with every block constrained to
    ``X_k + t I`` inside the cone, which always has an interior, so boundary
    instances are classified by the sign of the optimal shift instead of by a
    failed solve.  The objective of ``problem`` is ignored.
    """
    n_blocks = len(problem.block_dims)
    shift_plus = n_blocks
    shift_minus = n_blocks + 1
    dims = tuple(problem.block_dims) + (1, 1)
    one = np.array([[1.0]])
    rows = []
    for row in problem.equalities:
        trace_total = float(sum(np.trace(_symmetrized(mat)) for _, mat in row.terms))
        terms = tuple(row.terms) + (
            (shift_plus, -trace_total * one),
            (shift_minus, trace_total * one),
        )
        rows.append(EqualityRow(terms, row.rhs))
    phase1 = SdpProblem(
        block_dims=dims,
        objective=((shift_plus, one.copy()), (shift_minus, -one.copy())),
        equalities=rows,
        sense="min",
    )
    solution = solve(phase1, feas_tol=feas_tol, gap_tol=gap_tol, max_iter=max_iter)

    if solution.status == INFEASIBLE:
        return FeasibilityResult(
            feasible=False,
            margin=-np.inf,
            status=solution.status,
            block_values=None,
            certificate_y=solution.y,
            residuals=solution.residuals,
        )
    if solution.status != OPTIMAL:
        return FeasibilityResult(
            feasible=False,
            margin=np.nan,
            status=solution.status,
            block_values=None,
            certificate_y=None,
            residuals=solution.residuals,
        )

    assert solution.block_values is not None
    shift = float(
        solution.block_values[shift_plus][0, 0] - solution.block_values[shift_minus][0, 0]
    )
    recovered = [
        solution.block_values[k] - shift * np.eye(n)
        for k, n in enumerate(problem.block_dims)
    ]
    eq_res = equality_residuals(problem, recovered)
    residuals = dict(solution.residuals)
    residuals["equality_max"] = float(np.max(np.abs(eq_res))) if eq_res.size else 0.0
    feasible = shift <= feas_tol
    return FeasibilityResult(
        feasible=feasible,
        margin=-shift,
        status=solution.status,
        block_values=recovered if feasible else None,
        certificate_y=None if feasible else solution.y,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# Hermitian layer
# ---------------------------------------------------------------------------


def _hermitian_part(matrix: Array) -> Array:
    return 0.5 * (matrix + matrix.conj().T)


def hermitian_lmi(
    constant: Sequence[Array], coefficients: Sequence[Array], objective: Array
) -> SdpProblem:
    """``max b.p`` subject to ``F0_j + sum_k p_k F_kj >= 0`` per block ``j``, as a dual.

    ``constant[j]`` is ``F0_j`` and ``coefficients[j][k]`` is ``F_kj``.  Block
    ``j`` gets ``C_j = embed(F0_j)`` and row ``k`` gets ``A_kj = -embed(F_kj)``,
    so the dual slack is the embedded ``F0 + sum_k p_k F_k``: ``solve`` returns
    the maximizer as ``y`` and the maximum as ``dual_value``.
    """
    rows = [
        EqualityRow(
            tuple((j, -embed_hermitian(f[k])) for j, f in enumerate(coefficients) if np.any(f[k])),
            float(rhs),
        )
        for k, rhs in enumerate(objective)
    ]
    return SdpProblem(
        block_dims=tuple(2 * len(f0) for f0 in constant),
        objective=tuple((j, embed_hermitian(f0)) for j, f0 in enumerate(constant)),
        equalities=rows,
    )


class HermitianBlockBuilder:
    """Assemble a problem over complex Hermitian blocks.

    Every block is embedded as a real symmetric matrix of twice the side; a
    complex equality splits into real and imaginary rows.  ``extract`` maps a
    solved block back to the complex side.
    """

    _NEGLIGIBLE = 1e-14

    def __init__(self, sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self._dims: list[int] = []
        self._names: dict[str, int] = {}
        self._rows: list[tuple[tuple[tuple[int, Array], ...], complex]] = []
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

    def block_index(self, name: str) -> int:
        return self._names[name]

    def block_dim(self, name: str) -> int:
        return self._dims[self._names[name]]

    def add_equality(
        self, terms: Sequence[tuple[str, Array]], rhs: complex = 0.0
    ) -> None:
        """Require ``sum_k tr(E_k H_k) = rhs`` over the named blocks."""
        compiled = []
        for name, coeff in terms:
            index = self._names[name]
            coeff = np.asarray(coeff, dtype=complex)
            if coeff.shape != (self._dims[index], self._dims[index]):
                raise ValueError(
                    f"coefficient for block {name!r} has shape {coeff.shape}, "
                    f"expected side {self._dims[index]}"
                )
            compiled.append((index, coeff))
        self._rows.append((tuple(compiled), complex(rhs)))

    def add_objective_term(self, name: str, coeff: Array) -> None:
        """Accumulate ``Re tr(F H)`` into the objective."""
        index = self._names[name]
        coeff = np.asarray(coeff, dtype=complex)
        if coeff.shape != (self._dims[index], self._dims[index]):
            raise ValueError(
                f"objective coefficient for block {name!r} has shape {coeff.shape}, "
                f"expected side {self._dims[index]}"
            )
        if index in self._objective:
            self._objective[index] = self._objective[index] + coeff
        else:
            self._objective[index] = coeff

    def build(self) -> SdpProblem:
        dims = tuple(2 * d for d in self._dims)
        objective = tuple(
            (index, 0.5 * embed_hermitian(_hermitian_part(coeff)))
            for index, coeff in sorted(self._objective.items())
        )
        equalities: list[EqualityRow] = []
        for terms, rhs in self._rows:
            real_terms = []
            imag_terms = []
            real_norm = 0.0
            imag_norm = 0.0
            for index, coeff in terms:
                herm = _hermitian_part(coeff)
                anti = _hermitian_part(-1j * coeff)
                real_norm += float(np.linalg.norm(herm))
                imag_norm += float(np.linalg.norm(anti))
                real_terms.append((index, 0.5 * embed_hermitian(herm)))
                imag_terms.append((index, 0.5 * embed_hermitian(anti)))
            if real_norm > self._NEGLIGIBLE or abs(rhs.real) > self._NEGLIGIBLE:
                equalities.append(EqualityRow(tuple(real_terms), rhs.real))
            if imag_norm > self._NEGLIGIBLE or abs(rhs.imag) > self._NEGLIGIBLE:
                equalities.append(EqualityRow(tuple(imag_terms), rhs.imag))
        return SdpProblem(
            block_dims=dims,
            objective=objective,
            equalities=equalities,
            sense=self.sense,
        )

    def extract(self, block_values: Sequence[Array], name: str) -> Array:
        """Complex Hermitian value of the named block from solved real blocks."""
        return extract_hermitian(block_values[self._names[name]])
