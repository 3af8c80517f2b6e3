"""Tests for the dense semidefinite solver and its Hermitian layer."""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from steercert import sdp
from steercert.assemblages import (
    ScenarioShape,
    instrumental_membership,
    instrumental_pauli_assemblage,
    random_quantum_bwi,
)
from steercert.sdp import HermitianBlockBuilder, SdpProblem, svec
from steercert.steering import (
    build_qtilde_problem,
    canonical_functional,
    lhs_membership,
    qtilde_solution,
)


def random_symmetric(rng, n):
    mat = rng.normal(size=(n, n))
    return 0.5 * (mat + mat.T)


def random_hermitian(rng, n):
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (mat + mat.conj().T)


def unit(n, i, j):
    out = np.zeros((n, n))
    out[i, j] = 1.0
    return out


def assert_real_blocks(solution):
    """A problem with real data is solved with real iterates: no imaginary part at all."""
    assert solution.block_values is not None
    assert all(np.all(block.imag == 0.0) for block in solution.block_values)


def packed(*blocks):
    """One row of problem data, or a point: the svec of each block, concatenated."""
    return np.concatenate([svec(block) for block in blocks])


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


def test_svec_dim_matches_triangle_count():
    # The lower triangle's real parts, then the strict lower triangle's imaginary parts.
    triangles = [n * (n + 1) // 2 + n * (n - 1) // 2 for n in range(1, 6)]
    assert [sdp.svec_dim(n) for n in range(1, 6)] == triangles == [1, 4, 9, 16, 25]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_svec_smat_roundtrip_and_inner_product(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, dim)
    b = random_symmetric(rng, dim)
    assert np.allclose(sdp.smat(sdp.svec(a)), a, atol=1e-13)
    assert np.isclose(sdp.svec(a) @ sdp.svec(b), np.sum(a * b), atol=1e-10)


def test_smat_rejects_non_triangular_length():
    with pytest.raises(ValueError):
        sdp.smat(np.zeros(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
def test_hermitian_svec_roundtrip_and_inner_product(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    b = random_hermitian(rng, dim)
    assert sdp.svec_dim(dim) == dim**2 == len(sdp.svec(a))
    assert np.allclose(sdp.smat(sdp.svec(a)), a, atol=1e-13)
    assert np.isclose(sdp.svec(a) @ sdp.svec(b), np.trace(a @ b).real, atol=1e-10)
    # A real symmetric matrix packs to its real svec (the lower triangle row by
    # row, sqrt(2) off the diagonal), then zero imaginary coordinates.
    rows, cols = np.tril_indices(dim)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    real = sdp.svec(a.real)
    assert np.array_equal(real[: len(rows)], a.real[rows, cols] * weights)
    assert np.array_equal(real[len(rows) :], np.zeros(dim * (dim - 1) // 2))


def test_smat_rejects_a_length_that_is_not_a_square():
    # A real symmetric svec (a triangular length) is not a Hermitian one.
    for length in (3, 6, 10):
        with pytest.raises(ValueError):
            sdp.smat(np.zeros(length))


# ---------------------------------------------------------------------------
# Analytic instances
# ---------------------------------------------------------------------------


def test_minimize_trace_with_pinned_corner():
    problem = SdpProblem(
        block_dims=(2,),
        c=svec(np.eye(2)),
        a=[svec(unit(2, 0, 0))],
        b=[1.0],
    )
    solution = sdp.solve(problem)
    assert solution.status == sdp.OPTIMAL
    assert solution.primal_value == pytest.approx(1.0, abs=1e-7)
    assert solution.block_values[0][0, 0] == pytest.approx(1.0, abs=1e-7)
    assert solution.block_values[0][1, 1] == pytest.approx(0.0, abs=1e-6)


def test_maximize_pauli_z_on_unit_trace():
    pauli_z = np.diag([1.0, -1.0])
    problem = SdpProblem(
        block_dims=(2,),
        c=svec(pauli_z),
        a=[svec(np.eye(2))],
        b=[1.0],
        sense="max",
    )
    solution = sdp.solve(problem)
    assert solution.status == sdp.OPTIMAL
    assert solution.primal_value == pytest.approx(1.0, abs=1e-7)
    assert solution.dual_value == pytest.approx(1.0, abs=1e-7)
    assert_real_blocks(solution)


def test_two_block_coupling():
    # Minimize tr X + tr Y with X00 + Y00 = 1 splits the weight freely; the
    # optimum is 1 regardless of the split.
    problem = SdpProblem(
        block_dims=(2, 3),
        c=packed(np.eye(2), np.eye(3)),
        a=[packed(unit(2, 0, 0), unit(3, 0, 0))],
        b=[1.0],
    )
    solution = sdp.solve(problem)
    assert solution.status == sdp.OPTIMAL
    assert solution.primal_value == pytest.approx(1.0, abs=1e-7)


def test_unconstrained_psd_objective_is_zero():
    problem = SdpProblem(block_dims=(3,), c=svec(np.eye(3)), a=np.zeros((0, 9)), b=[])
    solution = sdp.solve(problem)
    assert solution.status == sdp.OPTIMAL
    assert solution.primal_value == 0.0


def test_unconstrained_indefinite_objective_is_unbounded():
    problem = SdpProblem(
        block_dims=(2,), c=svec(np.diag([1.0, -1.0])), a=np.zeros((0, 4)), b=[]
    )
    solution = sdp.solve(problem)
    assert solution.status == sdp.NUMERICAL_TROUBLE
    assert "unbounded" in solution.note


# ---------------------------------------------------------------------------
# Constructed optima: strong duality with known values
# ---------------------------------------------------------------------------


def constructed_instance(seed, n=5, m=6, rank=2):
    """A problem with a known optimum from a complementary primal-dual pair."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
    x_star = (basis[:, :rank] * rng.uniform(0.5, 2.0, size=rank)) @ basis[:, :rank].T
    s_star = (basis[:, rank:] * rng.uniform(0.5, 2.0, size=n - rank)) @ basis[:, rank:].T
    y_star = rng.normal(size=m)
    a_mats = [random_symmetric(rng, n) for _ in range(m)]
    b = np.array([np.sum(a * x_star) for a in a_mats])
    c_mat = sum(y * a for y, a in zip(y_star, a_mats)) + s_star
    problem = SdpProblem(
        block_dims=(n,),
        c=svec(c_mat),
        a=[svec(a) for a in a_mats],
        b=b,
    )
    return problem, float(np.sum(c_mat * x_star))


@pytest.mark.parametrize("seed", range(8))
def test_constructed_optimum_is_reached(seed):
    problem, value = constructed_instance(seed)
    solution = sdp.solve(problem)
    assert solution.status == sdp.OPTIMAL
    assert solution.primal_value == pytest.approx(value, abs=2e-6)
    assert solution.dual_value == pytest.approx(value, abs=2e-6)
    assert np.max(np.abs(sdp.equality_residuals(problem, solution.block_values))) < 1e-6
    assert np.linalg.eigvalsh(solution.block_values[0]).min() > -1e-8
    assert_real_blocks(solution)


MIXED_SIDES = (2, 1, 3, 2, 1, 3)
MIXED_RANKS = (1, 1, 1, 1, 0, 2)


def mixed_side_instance(seed, order=tuple(range(6)), m=9):
    """A constructed optimum over blocks of interleaved sides, stated in ``order``.

    Block ``j`` of the problem is block ``order[j]`` of the construction.
    Returns the problem, the optimal value and the optimal blocks in
    construction order.
    """
    rng = np.random.default_rng(seed)
    x_star, s_star = [], []
    for n, rank in zip(MIXED_SIDES, MIXED_RANKS):
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
        x_star.append((basis[:, :rank] * rng.uniform(0.5, 2.0, size=rank)) @ basis[:, :rank].T)
        s_star.append((basis[:, rank:] * rng.uniform(0.5, 2.0, size=n - rank)) @ basis[:, rank:].T)
    y_star = rng.normal(size=m)
    a_mats = [[random_symmetric(rng, n) for n in MIXED_SIDES] for _ in range(m)]
    b = [sum(np.sum(a * x) for a, x in zip(row, x_star)) for row in a_mats]
    c_mats = [
        sum(y * row[k] for y, row in zip(y_star, a_mats)) + s_star[k]
        for k in range(len(MIXED_SIDES))
    ]
    position = {block: j for j, block in enumerate(order)}
    problem = SdpProblem(
        block_dims=tuple(MIXED_SIDES[k] for k in order),
        c=packed(*(c_mats[k] for k in order)),
        a=[packed(*(row[k] for k in order)) for row in a_mats],
        b=b,
    )
    value = float(sum(np.sum(c * x) for c, x in zip(c_mats, x_star)))
    return problem, value, x_star


@pytest.mark.parametrize("seed", range(3))
def test_block_order_does_not_change_the_optimum(seed):
    # Blocks of one side are not contiguous in either order, so each side's
    # stack gathers scattered blocks.  The solves are tightened to 1e-10 so
    # that both values sit well within 1e-9 of the optimum; the blocks are
    # determined only to about the square root of that.
    order = (3, 5, 0, 4, 2, 1)
    problem, value, x_star = mixed_side_instance(seed)
    permuted, _, _ = mixed_side_instance(seed, order)
    base = sdp.solve(problem, feas_tol=1e-10, gap_tol=1e-10)
    moved = sdp.solve(permuted, feas_tol=1e-10, gap_tol=1e-10)
    assert base.status == moved.status == sdp.OPTIMAL
    assert moved.primal_value == pytest.approx(base.primal_value, abs=1e-9)
    assert base.primal_value == pytest.approx(value, abs=1e-8)
    for j, k in enumerate(order):
        assert moved.block_values[j].shape == (MIXED_SIDES[k],) * 2
        assert np.allclose(moved.block_values[j], base.block_values[k], atol=1e-4)
        assert np.allclose(base.block_values[k], x_star[k], atol=1e-4)


# ---------------------------------------------------------------------------
# Diagonal blocks reduce to linear programs with an enumerable oracle
# ---------------------------------------------------------------------------


def lp_instance(seed, n=4, m=2):
    """min c.x, A x = b, x >= 0 stated with diagonal one-by-one blocks."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.5, 1.5, size=n)
    b = a @ x_feas
    c = rng.normal(size=n)
    problem = SdpProblem(
        block_dims=(1,) * n,
        c=c,
        a=a,
        b=b,
    )
    return problem, a, b, c


def lp_vertex_optimum(a, b, c):
    """Brute-force the optimum over basic feasible points and extreme rays.

    Returns ``-inf`` when a feasible ray with negative cost exists, the best
    vertex value otherwise.
    """
    m, n = a.shape
    best = np.inf
    for cols in itertools.combinations(range(n), m):
        cols = list(cols)
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        xb = np.linalg.solve(sub, b)
        if xb.min() >= -1e-9:
            best = min(best, float(c[cols] @ xb))
        for j in range(n):
            if j in cols:
                continue
            direction = np.zeros(n)
            direction[j] = 1.0
            direction[cols] = -np.linalg.solve(sub, a[:, j])
            if direction.min() >= -1e-9 and c @ direction < -1e-9:
                return -np.inf
    return best


@pytest.mark.parametrize("seed", range(12))
def test_linear_programs_match_vertex_enumeration(seed):
    problem, a, b, c = lp_instance(seed)
    oracle = lp_vertex_optimum(a, b, c)
    solution = sdp.solve(problem)
    assert_real_blocks(solution)
    if oracle == -np.inf:
        assert solution.status != sdp.OPTIMAL
        assert "unbounded" in solution.note
        return
    assert solution.status == sdp.OPTIMAL
    assert solution.primal_value == pytest.approx(oracle, abs=1e-6)


# ---------------------------------------------------------------------------
# Infeasibility certificates
# ---------------------------------------------------------------------------


def test_negative_trace_is_infeasible_with_certificate():
    problem = SdpProblem(
        block_dims=(2,),
        c=svec(np.eye(2)),
        a=[svec(np.eye(2))],
        b=[-1.0],
    )
    solution = sdp.solve(problem)
    assert solution.status == sdp.INFEASIBLE
    b_dot_y, max_eig = sdp.farkas_terms(problem, solution.y)
    assert b_dot_y == pytest.approx(1.0, abs=1e-9)
    assert max_eig <= 1e-7


def test_contradictory_rows_detected_in_presolve():
    # A row copied with another right-hand side: the presolve refuses the
    # rows before any iteration, and contradiction_report, which the
    # memberships return for data that contradict their implied rows,
    # certifies that no point meets them.
    problem = SdpProblem(
        block_dims=(2,),
        c=svec(np.eye(2)),
        a=[svec(unit(2, 0, 0))] * 2,
        b=[1.0, 2.0],
    )
    with pytest.raises(ValueError, match="not provably independent"):
        sdp.solve(problem)
    report = sdp.contradiction_report(problem, 1, {}, tol=1e-8)
    assert report.verdict == sdp.OUTSIDE
    assert report.margin == -np.inf
    assert report.iterations is None
    b_dot_y, max_eig = sdp.farkas_terms(problem, report.certificate_y)
    assert b_dot_y == pytest.approx(1.0, abs=1e-9)
    assert max_eig <= 1e-9


# ---------------------------------------------------------------------------
# Presolve
# ---------------------------------------------------------------------------


def private_column_rows(seed, rows, shared):
    """Rows ``[D | B]`` with shuffled columns, and a right-hand side.

    Row ``i`` alone touches column ``i`` of ``D``, with an entry of size 1 to
    2 and random sign; every row fills the ``shared`` columns of ``B``.
    """
    rng = np.random.default_rng(seed)
    private = np.diag(rng.choice([-1.0, 1.0], size=rows) * rng.uniform(1.0, 2.0, size=rows))
    a = np.hstack([private, rng.normal(size=(rows, shared))])
    return a[:, rng.permutation(a.shape[1])], rng.normal(size=rows)


def reference_keep(a):
    """The rows a pivoted QR of ``a^T`` keeps, by the presolve's threshold."""
    r_fac, piv = scipy.linalg.qr(a.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r_fac[: len(a)]))
    return np.sort(piv[: int(np.sum(diag > sdp.PRESOLVE_RANK_TOL * diag[0]))])


def lp_over_rows(a, rng):
    """Minimize the sum of ``x >= 0`` subject to ``a x = a x0`` for a positive ``x0``."""
    cols = a.shape[1]
    return SdpProblem((1,) * cols, c=np.ones(cols), a=a, b=a @ rng.uniform(0.5, 1.5, size=cols))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=9),
)
def test_rows_with_dominant_private_columns_skip_the_qr(seed, rows, shared):
    # Rows that each own a column are independent, as the reference QR
    # confirms; the presolve proves it with one Cholesky factorization.
    a, _ = private_column_rows(seed, rows, shared)
    assert np.array_equal(reference_keep(a), np.arange(rows))
    assert np.linalg.matrix_rank(a) == rows
    sdp._require_independent(a)
    assert sdp.solve(lp_over_rows(a, np.random.default_rng(seed))).status == sdp.OPTIMAL

    # A private entry below the rank threshold: the shared columns still make
    # the rows independent, and the Gram test still proves it.
    if rows > 1 and shared > 0:
        tiny = a.copy()
        column = np.flatnonzero(np.count_nonzero(a, axis=0) == 1)[0]
        owner = np.flatnonzero(a[:, column])[0]
        tiny[owner, column] = 1e-3 * sdp.PRESOLVE_RANK_TOL * np.linalg.norm(a, axis=1).max()
        assert np.array_equal(reference_keep(tiny), np.arange(rows))
        sdp._require_independent(tiny)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=9),
)
def test_dependent_rows_are_refused(seed, rows, shared):
    # A copied row, with its own right-hand side (redundant) or another one
    # (contradictory), and a copy perturbed by about 1e-9 of its norm, which
    # the Gram test cannot prove independent: the solver and the phase-one
    # probe refuse all three, before any iteration.
    a, b = private_column_rows(seed, rows, shared)
    copied = seed % rows
    noise = np.random.default_rng(seed).normal(size=a.shape[1])
    near = a[copied] + 1e-9 * np.linalg.norm(a[copied]) * noise / np.linalg.norm(noise)
    blocks = (1,) * a.shape[1]
    for extra, rhs in [(a[copied], b[copied]), (a[copied], b[copied] + 1.0), (near, b[copied])]:
        problem = SdpProblem(blocks, c=np.ones(len(blocks)), a=np.vstack([a, extra]), b=np.append(b, rhs))
        with pytest.raises(ValueError, match="not provably independent"):
            sdp.solve(problem)
        with pytest.raises(ValueError, match="not provably independent"):
            sdp.feasibility_phase1(problem)


def documented_floor(a):
    """The ``delta`` of ``_require_independent``'s docstring."""
    gram = a @ a.T
    rounding = 2 * sum(a.shape) * np.finfo(float).eps * np.trace(gram)
    return (sdp.PRESOLVE_RANK_TOL**2) * gram.diagonal().max() + rounding


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("ratio, raises", [(1.02, False), (0.98, True)])
def test_gram_proof_skips_the_qr_exactly_above_its_floor(seed, ratio, raises):
    # Rows with singular values 1, ..., 1, s: the Cholesky factorization of
    # a a^T - delta I succeeds, and the problem is solved, when s^2 is just
    # above delta; just below, the rows are refused.  The reference QR keeps
    # every row either way.
    rng = np.random.default_rng(seed)
    rows, cols = 20, 200
    left = np.linalg.qr(rng.normal(size=(rows, rows)))[0]
    right = np.linalg.qr(rng.normal(size=(cols, rows)))[0]
    values = np.ones(rows)
    values[-1] = 0.0
    values[-1] = np.sqrt(ratio * documented_floor((left * values) @ right.T))
    a = (left * values) @ right.T
    assert (values[-1] ** 2 > documented_floor(a)) == (ratio > 1.0)
    assert np.array_equal(reference_keep(a), np.arange(rows))
    problem = lp_over_rows(a, rng)
    if raises:
        with pytest.raises(ValueError, match="not provably independent"):
            sdp.solve(problem)
    else:
        assert sdp.solve(problem).status == sdp.OPTIMAL


# ---------------------------------------------------------------------------
# Nesterov-Todd scaling and the step length in its frame
# ---------------------------------------------------------------------------


def reference_nt_matrix(x_mat, s_mat):
    """``s^-1/2 (s^1/2 x s^1/2)^1/2 s^-1/2``, from eigensystems."""

    def power(mat, exponent):
        values, vectors = np.linalg.eigh(mat)
        return (vectors * values**exponent) @ vectors.conj().T

    s_half = power(s_mat, 0.5)
    s_half_inv = power(s_mat, -0.5)
    return s_half_inv @ power(s_half @ x_mat @ s_half, 0.5) @ s_half_inv


def random_positive_stack(rng, count, n):
    factors = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return factors @ factors.conj().swapaxes(1, 2) / n + 0.1 * np.eye(n)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 2, 3, 8, 24]))
def test_nt_scaling_factors_the_nt_matrix_with_a_diagonal_scaled_point(seed, n):
    rng = np.random.default_rng(seed)
    x_mats, s_mats = random_positive_stack(rng, 3, n), random_positive_stack(rng, 3, n)
    scaling = sdp._nt_scaling_batch(x_mats, s_mats)
    w, g, g_inv = scaling.w, scaling.g, scaling.g_inv

    def close(mats, expected, tol=1e-10):
        return np.linalg.norm(mats - expected) <= tol * np.linalg.norm(expected)

    assert close(w @ s_mats @ w, x_mats)
    assert close(g_inv @ g, np.broadcast_to(np.eye(n), g.shape))
    point = np.eye(n) * scaling.lam[:, None, :]
    assert np.all(scaling.lam > 0.0)
    assert close(scaling.primal(x_mats), point)
    assert close(scaling.dual(s_mats), point)
    reference = np.stack([reference_nt_matrix(xm, sm) for xm, sm in zip(x_mats, s_mats)])
    assert close(w, reference)


def reference_max_step(mats, dmats):
    """Matrix by matrix: ``-1 / lambda_min(X^-1/2 D X^-1/2)``, eigenvalues floored."""
    alpha = np.inf
    for x_mat, d_mat in zip(mats, dmats):
        values, vectors = np.linalg.eigh(x_mat)
        values = np.maximum(values, max(values.max() * 1e-15, 1e-50))
        root_inv = (vectors / np.sqrt(values)) @ vectors.T
        min_eig = float(np.linalg.eigvalsh(root_inv @ d_mat @ root_inv).min())
        if min_eig < -1e-14:
            alpha = min(alpha, -1.0 / min_eig)
    return alpha


def step_stack(seed, count=6, n=3):
    rng = np.random.default_rng(seed)
    factors = rng.normal(size=(count, n, n))
    mats = factors @ factors.swapaxes(1, 2) + np.eye(n)
    dmats = np.stack([0.3 * random_symmetric(rng, n) for _ in range(count)])
    return mats, dmats


@pytest.mark.parametrize("seed", range(3))
def test_batched_step_length_matches_per_matrix_reference(seed):
    # The step is taken in the scaled frame of a primal-dual pair, on both sides.
    mats, dmats = step_stack(seed)
    duals, _ = step_stack(seed + 3)
    scaling = sdp._nt_scaling_batch(mats, duals)
    alpha = scaling.max_step(scaling.primal(dmats))
    assert np.isfinite(alpha)
    assert alpha == pytest.approx(reference_max_step(mats, dmats), rel=1e-12)
    dual_alpha = scaling.max_step(scaling.dual(dmats))
    assert dual_alpha == pytest.approx(reference_max_step(duals, dmats), rel=1e-12)
    # Along a positive semidefinite direction the step is unbounded.
    assert scaling.max_step(scaling.primal(np.broadcast_to(np.eye(3), mats.shape))) == np.inf


@pytest.mark.parametrize("seed", range(3))
def test_singular_iterate_ends_the_solve_undecided(seed, monkeypatch):
    mats, _ = step_stack(seed)
    mats[2] = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    identity = np.broadcast_to(np.eye(3), mats.shape)
    for x_mats, s_mats in ((mats, identity), (identity, mats)):
        with pytest.raises(np.linalg.LinAlgError):
            sdp._nt_scaling_batch(x_mats, s_mats)

    # Every primal iterate loses its last row and column: the solve stops
    # with a status, and the membership it decides is undecided.
    scaling = sdp._nt_scaling_batch

    def singular_primal(x_mats, s_mats):
        x_mats = x_mats.copy()
        x_mats[..., -1, :] = x_mats[..., :, -1] = 0.0
        return scaling(x_mats, s_mats)

    monkeypatch.setattr(sdp, "_nt_scaling_batch", singular_primal)
    problem, _ = constructed_instance(seed)
    solution = sdp.solve(problem)
    assert solution.status == sdp.NUMERICAL_TROUBLE
    assert solution.note == "an iterate lost positive definiteness"
    report = sdp.feasibility_phase1(problem)
    assert report.status == sdp.NUMERICAL_TROUBLE
    assert report.verdict == sdp.UNDECIDED


# ---------------------------------------------------------------------------
# Entry-wise Schur complement
# ---------------------------------------------------------------------------

# Which blocks each row touches.  Sides 2 and 3 are interleaved; block 5 and
# the one-by-one block 3 are touched by no row; row 0 touches no block of side
# 2; the side-2 blocks are touched by 3, 4 and 0 rows, so ranks are padded.
SCHUR_SIDES = (2, 3, 2, 1, 3, 2)
SCHUR_TOUCH = np.array(
    [
        [0, 1, 0, 0, 1, 0],
        [1, 0, 1, 0, 0, 0],
        [1, 1, 1, 0, 0, 0],
        [0, 0, 1, 0, 1, 0],
        [1, 0, 1, 0, 1, 0],
    ],
    dtype=bool,
)

# The moment-block pattern: one side-8 block whose rows carry 1, 2, 6 and 30
# complex entries on or below the diagonal, next to a side-2 group no row
# touches.
MOMENT_SIDES = (8, 2, 2)
MOMENT_ENTRIES = (1, 2, 6, 30)


def dense_schur(a_mat, sides, roots):
    """``B B^T`` over the rows ``B_i``, each the svec of ``g_k A_ik g_k`` for every block ``k``."""
    offsets = sdp._block_offsets(sides)
    rows = [
        np.concatenate(
            [
                svec(g @ sdp.smat(row[offsets[k] : offsets[k + 1]]) @ g)
                for k, g in enumerate(roots)
            ]
        )
        for row in a_mat
    ]
    return np.array(rows) @ np.array(rows).T


def sparse_hermitian(rng, n, count):
    """A Hermitian matrix with ``count`` random complex entries on or below the diagonal."""
    rows, cols = np.tril_indices(n)
    mat = np.zeros((n, n), dtype=complex)
    for at in rng.choice(len(rows), size=count, replace=False):
        i, j = rows[at], cols[at]
        mat[i, j] = rng.normal() + 1j * rng.normal() * (i != j)
    return mat + np.tril(mat, -1).conj().T


def schur_rows(rng, pattern):
    if pattern == "sides":
        return SCHUR_SIDES, np.array(
            [
                packed(*(random_symmetric(rng, n) * hit for n, hit in zip(SCHUR_SIDES, row)))
                for row in SCHUR_TOUCH
            ]
        )
    untouched = [np.zeros((n, n)) for n in MOMENT_SIDES[1:]]
    return MOMENT_SIDES, np.array(
        [
            packed(sparse_hermitian(rng, MOMENT_SIDES[0], count), *untouched)
            for count in MOMENT_ENTRIES
        ]
    )


# Per side group: its width (the most rows touching one block), the shape of
# its pairing (touches x entries of the group's blocks), and the rank runs
# (lo, hi, entries).
SCHUR_STRUCTURE = {
    "sides": [(0, (0, 1), []), (4, (7, 12), [(0, 4, 3)]), (3, (5, 18), [(0, 3, 6)])],
    "moment": [(0, (0, 8), []), (4, (4, 64), [(0, 1, 30), (1, 2, 6), (2, 3, 2), (3, 4, 1)])],
}


@pytest.mark.parametrize("slice_entries", [sdp._SLICE_ENTRIES, 8])
@pytest.mark.parametrize("seed", range(3))
def test_block_sparse_schur_matches_dense_rows(monkeypatch, seed, slice_entries):
    # With 8 entries per slice, the buffer holds one rank at a time.
    monkeypatch.setattr(sdp, "_SLICE_ENTRIES", slice_entries)
    rng = np.random.default_rng(seed)
    for pattern in SCHUR_STRUCTURE:
        sides, a_mat = schur_rows(rng, pattern)
        roots = []
        for n in sides:
            factor = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            roots.append(factor @ factor.conj().T + np.eye(n))
        groups = sdp._side_groups(sides)
        schur = sdp._Schur.of(a_mat, groups)
        structure = [
            (
                group.width,
                group.pairing.shape,
                [(lo, hi, 1 if coef.ndim == 2 else coef.shape[-1]) for lo, hi, *_, coef in group.ranges],
            )
            for group in schur.groups
        ]
        assert structure == SCHUR_STRUCTURE[pattern]
        ws = [np.stack([roots[k] @ roots[k] for k in group.blocks]) for group in groups]
        assembled = schur.assemble(ws)
        reference = dense_schur(a_mat, sides, roots)
        assert np.max(np.abs(assembled - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert np.array_equal(assembled, assembled.T)
        assert np.array_equal(assembled, schur.assemble(ws))


# ---------------------------------------------------------------------------
# Phase-one feasibility probe
# ---------------------------------------------------------------------------


def test_phase1_reports_interior_margin():
    problem = SdpProblem(
        block_dims=(2,),
        c=np.zeros(4),
        a=[svec(np.eye(2))],
        b=[1.0],
    )
    result = sdp.feasibility_phase1(problem)
    assert result.feasible
    # The most interior unit-trace point is I/2.
    assert result.margin == pytest.approx(0.5, abs=1e-6)
    assert np.max(np.abs(sdp.equality_residuals(problem, result.witness))) < 1e-7


def test_phase1_detects_forced_negative_eigenvalue():
    problem = SdpProblem(
        block_dims=(2,),
        c=np.zeros(4),
        a=[svec(unit(2, 0, 0)), svec(unit(2, 1, 1))],
        b=[1.0, -0.5],
    )
    result = sdp.feasibility_phase1(problem)
    assert not result.feasible
    assert result.margin == pytest.approx(-0.5, abs=1e-6)
    assert result.witness is None


def test_phase1_passes_through_presolve_infeasibility():
    # The probe runs the solver's presolve on the original rows: contradictory
    # rows are refused, not shifted into a finite margin, and the report that
    # stands for them is contradiction_report's.
    problem = SdpProblem(
        block_dims=(1,),
        c=np.zeros(1),
        a=[[1.0], [1.0]],
        b=[1.0, 2.0],
    )
    with pytest.raises(ValueError, match="not provably independent"):
        sdp.feasibility_phase1(problem)
    result = sdp.contradiction_report(problem, 1, {}, tol=1e-8)
    assert not result.feasible
    assert result.margin == -np.inf
    assert result.certificate_y is not None


@pytest.mark.parametrize(
    "tol, margin, verdict",
    [
        # tol = 1e-8: the band [-1e-6, -tol) between inside and outside is non-empty.
        (1e-8, 0.1, sdp.INSIDE),
        (1e-8, 0.0, sdp.INSIDE),
        (1e-8, -0.5e-8, sdp.INSIDE),
        (1e-8, -2e-8, sdp.UNDECIDED),
        (1e-8, -2e-6, sdp.OUTSIDE),
        (1e-8, -np.inf, sdp.OUTSIDE),
        (1e-8, np.nan, sdp.UNDECIDED),
        # tol = 1e-5 exceeds DECISIVE_MARGIN: the band is empty.
        (1e-5, 0.1, sdp.INSIDE),
        (1e-5, 0.0, sdp.INSIDE),
        (1e-5, -0.5e-5, sdp.INSIDE),
        (1e-5, -2e-5, sdp.OUTSIDE),
        (1e-5, -2e-6, sdp.INSIDE),
        (1e-5, -np.inf, sdp.OUTSIDE),
        (1e-5, np.nan, sdp.UNDECIDED),
    ],
)
def test_membership_verdict_rule(tol, margin, verdict):
    report = sdp.MembershipReport(margin, sdp.OPTIMAL, {}, None, tol=tol)
    assert report.verdict == verdict
    assert report.feasible == (verdict == sdp.INSIDE)


# ---------------------------------------------------------------------------
# Determinism and the text dump
# ---------------------------------------------------------------------------


def test_repeated_solves_are_bitwise_identical():
    problem, _ = constructed_instance(3)
    first = sdp.solve(problem)
    second = sdp.solve(problem)
    assert first.primal_value == second.primal_value
    assert first.iterations == second.iterations
    assert all(
        np.array_equal(a, b) for a, b in zip(first.block_values, second.block_values)
    )
    assert np.array_equal(first.y, second.y)


def test_many_block_solves_are_bitwise_identical(monkeypatch):
    # A hidden-state membership at m_a = 5: 32 strategies times 2 trusted
    # inputs give 64 blocks of side 4, one stack, plus the two shift blocks.
    solutions = []
    solve = sdp.solve

    def recording_solve(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(sdp, "solve", recording_solve)
    asm = random_quantum_bwi(ScenarioShape(2, 5, 2, 2), seed=3)
    first = lhs_membership(asm)
    second = lhs_membership(asm)
    assert len(solutions) == 2
    one, two = solutions
    assert one.status == sdp.OPTIMAL
    assert len(one.block_values) == 66
    assert first.margin == second.margin
    assert one.iterations == two.iterations
    assert all(np.array_equal(a, b) for a, b in zip(one.block_values, two.block_values))
    assert np.array_equal(one.y, two.y)


def test_relaxation_solves_are_bitwise_identical(monkeypatch):
    # The canonical (3,2,2) relaxation bound: one row per free moment.
    calls = []
    solve = sdp.solve

    def recording_solve(problem, **kwargs):
        calls.append((problem, solve(problem, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(sdp, "solve", recording_solve)
    functional = canonical_functional()
    first, _ = qtilde_solution(functional)
    second, _ = qtilde_solution(functional)
    assert len(calls) == 2
    (problem, one), (_, two) = calls
    assert one.status == sdp.OPTIMAL
    assert first == second
    assert one.iterations == two.iterations
    assert np.array_equal(one.y, two.y)
    assert one.y.shape == (problem.num_rows,)


def test_phase_seconds_cover_each_phase_within_the_wall_time():
    problem = build_qtilde_problem(canonical_functional())
    start = time.perf_counter()
    solution = sdp.solve(problem)
    wall = time.perf_counter() - start
    assert solution.status == sdp.OPTIMAL
    assert set(solution.phase_seconds) == {"scaling", "schur", "cholesky", "step"}
    assert set(sdp.PHASES) == set(solution.phase_seconds)
    assert all(seconds > 0.0 for seconds in solution.phase_seconds.values())
    assert sum(solution.phase_seconds.values()) <= wall


def test_lost_definiteness_of_the_schur_complement_is_reported(monkeypatch):
    # Every jittered retry of the factorization fails on -I; the solve ends
    # with a status instead of an exception.
    monkeypatch.setattr(sdp._Schur, "assemble", lambda self, roots: -np.eye(self.m))
    problem, _ = constructed_instance(0)
    solution = sdp.solve(problem)
    assert solution.status == sdp.NUMERICAL_TROUBLE
    assert solution.note == "Schur complement lost positive definiteness"


def test_presolve_reports_the_rank_of_the_rows_it_keeps(monkeypatch):
    # The wired membership pins members that the no-signalling rows already
    # tie together, so it omits the rows that the pins imply: the problem
    # it hands to the phase-1 probe has as many rows as rank, and the
    # presolve keeps them all.
    results = []
    phase1 = sdp.feasibility_phase1

    def recording_phase1(problem, **kwargs):
        results.append((problem, phase1(problem, **kwargs)))
        return results[-1][1]

    monkeypatch.setattr(sdp, "feasibility_phase1", recording_phase1)
    instrumental_membership(instrumental_pauli_assemblage())
    (problem, result), = results
    assert result.feasible
    assert problem.num_rows == np.linalg.matrix_rank(problem.a) == 42


def test_dump_lists_blocks_objective_and_rows():
    problem = SdpProblem(
        block_dims=(2, 1),
        c=packed(np.array([[1.0, -0.5j], [0.5j, 0.0]]), np.zeros((1, 1))),
        a=[packed(np.zeros((2, 2)), np.array([[2.0]]))],
        b=[3.0],
    )
    text = problem.dump()
    lines = text.splitlines()
    assert lines[0] == "sense min"
    assert lines[1] == "blocks 2 1"
    assert "objective" in lines
    assert "  0 0 0 1.0" in lines
    assert "  0 1 0 0.5j" in lines
    assert "equality 0 rhs 3.0" in lines
    assert "  1 0 0 2.0" in lines


def test_problem_rejects_bad_sense_and_dims():
    with pytest.raises(ValueError):
        SdpProblem(block_dims=(2,), c=np.zeros(3), a=np.zeros((0, 3)), b=[], sense="maximize")
    with pytest.raises(ValueError):
        SdpProblem(block_dims=(0,), c=np.zeros(0), a=np.zeros((0, 0)), b=[])


def test_problem_rejects_data_that_does_not_match_the_blocks():
    with pytest.raises(ValueError):
        SdpProblem(block_dims=(2,), c=np.zeros(4), a=np.zeros((0, 3)), b=[])
    with pytest.raises(ValueError):
        SdpProblem(block_dims=(2,), c=np.zeros(3), a=np.zeros((1, 4)), b=[1.0])
    with pytest.raises(ValueError):
        SdpProblem(block_dims=(2,), c=np.zeros(3), a=np.zeros(3), b=[1.0])
    with pytest.raises(ValueError):
        SdpProblem(block_dims=(2,), c=np.zeros(3), a=np.zeros((1, 3)), b=[1.0, 2.0])


# ---------------------------------------------------------------------------
# Hermitian layer
# ---------------------------------------------------------------------------


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


@pytest.mark.parametrize("seed", range(3))
def test_builder_rows_read_the_complex_equalities(seed):
    rng = np.random.default_rng(seed)
    sides = {"h": 2, "k": 3}
    values = {name: random_hermitian(rng, n) for name, n in sides.items()}
    builder = HermitianBlockBuilder()
    expected = []
    for name, n in sides.items():
        builder.add_block(name, n)
    for _ in range(3):
        terms = [(name, random_complex(rng, n)) for name, n in sides.items()]
        builder.add_equality(terms, complex(*rng.normal(size=2)))
        total = sum(np.trace(coeff @ values[name]) for name, coeff in terms)
        expected += [total.real, total.imag]
    # Real coefficients on Hermitian blocks: the imaginary row is dropped.
    builder.add_equality([("k", np.eye(3))], 1.0)
    expected.append(np.trace(values["k"]).real)
    objective = {name: random_complex(rng, n) for name, n in sides.items()}
    for name, coeff in objective.items():
        builder.add_objective_term(name, coeff)
    problem = builder.build()
    x = packed(values["h"], values["k"])
    assert problem.num_rows == len(expected)
    assert np.allclose(problem.a @ x, expected, atol=1e-12)
    value = sum(np.trace(coeff @ values[name]) for name, coeff in objective.items()).real
    assert problem.c @ x == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("scalars", [(0.5 - 2j, 1.5 + 1j), (1.0, -1.0)])
def test_matrix_equality_rows_pin_every_upper_entry(scalars):
    rng = np.random.default_rng(5)
    values = [random_hermitian(rng, 3) for _ in scalars]
    target = random_hermitian(rng, 3)
    builder = HermitianBlockBuilder()
    builder.add_block("p", 3)
    builder.add_block("q", 3)
    builder.add_matrix_equality(list(zip("pq", scalars)), target)
    problem = builder.build()
    total = sum(s * v for s, v in zip(scalars, values))
    # Entries (i, j), i <= j, in row-major order, each as its real then its
    # imaginary row.  With real scalars and a Hermitian target the diagonal's
    # imaginary rows read 0 = 0 and are dropped.
    complex_scalars = any(np.iscomplex(s) for s in scalars)
    expected, rhs = [], []
    for i, j in zip(*np.triu_indices(3)):
        parts = [np.real] + ([np.imag] if complex_scalars or i != j else [])
        expected += [part(total[i, j]) for part in parts]
        rhs += [part(target[i, j]) for part in parts]
    assert np.allclose(problem.a @ packed(*values), expected, atol=1e-12)
    assert np.array_equal(problem.b, rhs)


def test_hermitian_lmi_slack_is_the_embedded_pencil():
    rng = np.random.default_rng(8)
    sides, count = (2, 3), 4
    constant = [random_hermitian(rng, n) for n in sides]
    coefficients = [np.stack([random_hermitian(rng, n) for _ in range(count)]) for n in sides]
    objective = rng.normal(size=count)
    problem = sdp.hermitian_lmi(constant, coefficients, objective)
    assert problem.block_dims == sides
    assert np.array_equal(problem.b, objective)
    p = rng.normal(size=count)
    pencil = [f0 + np.tensordot(p, f, axes=1) for f0, f in zip(constant, coefficients)]
    assert np.allclose(problem.c - problem.a.T @ p, packed(*pencil), atol=1e-12)


def test_hermitian_builder_maximizes_pauli_y():
    pauli_y = np.array([[0.0, -1j], [1j, 0.0]])
    builder = HermitianBlockBuilder(sense="max")
    builder.add_block("rho", 2)
    builder.add_equality([("rho", np.eye(2))], 1.0)
    builder.add_objective_term("rho", pauli_y)
    problem = builder.build()
    assert problem.block_dims == (2,)
    solution = sdp.solve(problem)
    assert solution.status == sdp.OPTIMAL
    assert solution.primal_value == pytest.approx(1.0, abs=1e-7)
    rho = builder.extract(solution.block_values, "rho")
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-7)
    assert np.trace(pauli_y @ rho).real == pytest.approx(1.0, abs=1e-6)


def test_hermitian_builder_imaginary_rows_bind():
    # Pin a genuinely complex entry and read it back.
    builder = HermitianBlockBuilder()
    builder.add_block("h", 2)
    target = np.zeros((2, 2), dtype=complex)
    target[1, 0] = 1.0
    builder.add_equality([("h", target)], 0.25 + 0.125j)
    builder.add_equality([("h", np.eye(2))], 1.0)
    builder.add_objective_term("h", np.eye(2))
    solution = sdp.solve(builder.build())
    assert solution.status == sdp.OPTIMAL
    value = builder.extract(solution.block_values, "h")
    assert value[0, 1] == pytest.approx(0.25 + 0.125j, abs=1e-7)


def test_builder_rows_depend_only_on_the_coefficients():
    # Real coefficients on a Hermitian block give no imaginary row, whatever
    # the right-hand side: a negligible imaginary part is dropped with the
    # row, and a larger one would read 0 = rhs, which is refused.
    for rhs in (1.0, 1.0 + 1e-15j):
        builder = HermitianBlockBuilder()
        builder.add_block("h", 2)
        builder.add_equality([("h", np.eye(2))], rhs)
        assert builder.build().num_rows == 1
    builder.add_equality([("h", np.eye(2))], 1.0 + 1e-12j)
    with pytest.raises(ValueError, match="equality 1 reads 0 = 1.000e-12 in its imaginary part"):
        builder.build()
    # A pinned matrix with an imaginary diagonal is not Hermitian: refused too.
    builder = HermitianBlockBuilder()
    builder.add_block("h", 2)
    builder.add_matrix_equality([("h", 1.0)], np.eye(2) + 1e-12j * np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="imaginary part"):
        builder.build()


def test_hermitian_builder_rejects_duplicates_and_bad_shapes():
    builder = HermitianBlockBuilder()
    builder.add_block("h", 2)
    with pytest.raises(ValueError):
        builder.add_block("h", 3)
    with pytest.raises(ValueError):
        builder.add_equality([("h", np.eye(3))], 1.0)
    with pytest.raises(ValueError):
        builder.add_objective_term("h", np.eye(3))
    with pytest.raises(ValueError):
        HermitianBlockBuilder(sense="other")


def test_hermitian_lmi_solves_through_the_dual():
    # Minimize p subject to [[p, i], [-i, p]] >= 0: the eigenvalues are p +- 1,
    # so the optimum is p = 1.
    problem = sdp.hermitian_lmi(
        [np.array([[0.0, 1j], [-1j, 0.0]])], [np.eye(2)[None]], np.array([-1.0])
    )
    assert problem.block_dims == (2,)
    assert problem.num_rows == 1
    solution = sdp.solve(problem)
    assert solution.status == sdp.OPTIMAL
    assert solution.y[0] == pytest.approx(1.0, abs=1e-7)
    assert solution.dual_value == pytest.approx(-1.0, abs=1e-7)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hermitian_ground_energy_matches_eigenvalue(seed):
    rng = np.random.default_rng(seed)
    ham = random_hermitian(rng, 3)
    builder = HermitianBlockBuilder()
    builder.add_block("rho", 3)
    builder.add_equality([("rho", np.eye(3))], 1.0)
    builder.add_objective_term("rho", ham)
    solution = sdp.solve(builder.build())
    assert solution.status == sdp.OPTIMAL
    assert solution.primal_value == pytest.approx(
        float(np.linalg.eigvalsh(ham).min()), abs=1e-6
    )


def test_cross_check_against_cvxpy_when_available():
    cp = pytest.importorskip("cvxpy")
    problem, _ = constructed_instance(11, n=4, m=5, rank=2)
    solution = sdp.solve(problem)
    x = cp.Variable((4, 4), symmetric=True)
    constraints = [x >> 0]
    for row, rhs in zip(problem.a, problem.b):
        constraints.append(cp.sum(cp.multiply(sdp.smat(row), x)) == rhs)
    objective = cp.Minimize(cp.sum(cp.multiply(sdp.smat(problem.c), x)))
    reference = cp.Problem(objective, constraints)
    reference.solve()
    assert solution.primal_value == pytest.approx(reference.value, abs=1e-5)
