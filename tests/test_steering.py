"""Tests for steering functionals, bounds, and membership tests."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from steercert import assemblages, cli, sdp, serialize, steering
from steercert.assemblages import (
    BWI,
    INSTRUMENTAL,
    TRADITIONAL,
    ScenarioShape,
    pauli_transpose_assemblage,
    pr_box_assemblage,
    random_quantum_bwi,
    validate_ns_bwi,
)
from steercert.matcore import PAULIS
from steercert.steering import (
    BinaryOutcomesRequired,
    InstrumentalFunctional,
    LhsModel,
    MomentMatrix,
    SteeringFunctional,
    TooManyStrategies,
    build_qtilde_problem,
    canonical_functional,
    canonical_instrumental_functional,
    deterministic_strategies,
    evaluate,
    instrumental_membership,
    lhs_bound,
    lhs_membership,
    moment_words,
    ns_bound,
    qtilde_bound,
    qtilde_membership,
    qtilde_solution,
)

HIDDEN_STATE_OPTIMUM = 3.0 - np.sqrt(3.0)
RELAXATION_OPTIMUM = 0.413493597568

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def random_psd_functional(seed, shape):
    return cli._random_psd_functional(shape, seed)


# ---------------------------------------------------------------------------
# Functionals and evaluation
# ---------------------------------------------------------------------------


def test_canonical_coefficients_are_the_pauli_projectors():
    functional = canonical_functional()
    assert functional.shape == ScenarioShape(2, 3, 2, 2, kind=BWI)
    for a in range(2):
        for x in range(3):
            base = 0.5 * (np.eye(2) - (-1.0) ** a * PAULIS[x])
            assert np.allclose(functional.term(a, x, 0), base, atol=1e-15)
            assert np.allclose(functional.term(a, x, 1), base.T, atol=1e-15)


def test_canonical_vanishes_on_the_transpose_example():
    value = evaluate(canonical_functional(), pauli_transpose_assemblage())
    assert abs(value) <= 1e-10


def test_functional_rejects_mismatched_keys():
    shape = ScenarioShape(2, 1, 1, 2)
    with pytest.raises(ValueError):
        SteeringFunctional(shape=shape, coeffs={(0, 0, 0): np.eye(2)})


def test_functionals_refuse_the_other_kind_of_shape():
    wired = ScenarioShape(2, 1, 2, 1, INSTRUMENTAL)
    with pytest.raises(ValueError, match="InstrumentalFunctional"):
        SteeringFunctional(shape=wired, coeffs={(a, 0): np.eye(1) for a in range(2)})
    with pytest.raises(ValueError, match="instrumental"):
        InstrumentalFunctional(
            shape=ScenarioShape(2, 1, 2, 1), coeffs={(a, 0): np.eye(1) for a in range(2)}
        )


def test_evaluate_rejects_type_mixups():
    with pytest.raises(TypeError):
        evaluate(canonical_functional(), assemblages.instrumental_pauli_assemblage())
    with pytest.raises(TypeError):
        evaluate(canonical_instrumental_functional(), pauli_transpose_assemblage())


def test_evaluate_refuses_a_shape_mismatch():
    larger = random_quantum_bwi(ScenarioShape(2, 4, 3, 2), 0)
    smaller = random_quantum_bwi(ScenarioShape(2, 2, 2, 2), 0)
    for asm in (larger, smaller):
        with pytest.raises(ValueError, match=r"ScenarioShape\(n_a=2, m_a=3, m_b=2.*m_b=[23]"):
            evaluate(canonical_functional(), asm)


def test_evaluate_compares_ranges_not_kinds():
    functional = random_psd_functional(1, ScenarioShape(2, 3, 1, 2, kind=TRADITIONAL))
    asm = random_quantum_bwi(ScenarioShape(2, 3, 1, 2), 2)
    expected = sum(np.trace(functional.coeffs[key] @ asm.members[key]).real for key in asm.members)
    assert evaluate(functional, asm) == pytest.approx(expected, abs=1e-12)


def test_evaluate_rejects_imaginary_values():
    shape = ScenarioShape(1, 1, 1, 2)
    functional = SteeringFunctional(
        shape=shape, coeffs={(0, 0, 0): np.array([[0.0, -1j], [1j, 0.0]])}
    )
    skew = assemblages.BwiAssemblage(
        shape=shape, members={(0, 0, 0): np.array([[0.0, 0.0], [1.0, 0.0]])}
    )
    with pytest.raises(ValueError):
        evaluate(functional, skew)


def test_instrumental_functional_post_selects_matching_inputs():
    full = canonical_functional()
    wired = canonical_instrumental_functional()
    assert wired.shape.kind == INSTRUMENTAL
    for a in range(2):
        for x in range(3):
            assert np.array_equal(wired.term(a, x), full.term(a, x, a))
    value = evaluate(wired, assemblages.instrumental_pauli_assemblage())
    assert abs(value) <= 1e-10


# ---------------------------------------------------------------------------
# Hidden-state bound
# ---------------------------------------------------------------------------


def test_strategy_enumeration_is_lexicographic_and_capped():
    strategies = deterministic_strategies(2, 3)
    assert len(strategies) == 8
    assert strategies[0] == (0, 0, 0)
    assert strategies[-1] == (1, 1, 1)
    with pytest.raises(TooManyStrategies):
        deterministic_strategies(2, 13)


def closed_form_hidden_state_optimum(functional):
    """Independent oracle: enumerate strategies, add the best state per input.

    For a fixed strategy the optimal subnormalized states concentrate all
    weight on one strategy and align with the bottom eigenvector of each
    trusted input's summed coefficient, so the bound is the minimum over
    strategies of the summed smallest eigenvalues.
    """
    shape = functional.shape
    best = np.inf
    for strategy in itertools.product(range(shape.n_a), repeat=shape.m_a):
        total = 0.0
        for y in range(shape.m_b):
            gain = sum(functional.term(strategy[x], x, y) for x in range(shape.m_a))
            total += float(np.linalg.eigvalsh(gain).min())
        best = min(best, total)
    return best


def test_hidden_state_bound_matches_closed_form():
    functional = canonical_functional()
    oracle = closed_form_hidden_state_optimum(functional)
    assert oracle == pytest.approx(HIDDEN_STATE_OPTIMUM, abs=1e-12)
    value, model = lhs_bound(functional)
    assert value == pytest.approx(oracle, abs=1e-6)
    assert isinstance(model, LhsModel)
    assert model.weights().sum() == pytest.approx(1.0, abs=1e-7)
    realized = model.assemblage(functional.shape)
    assert validate_ns_bwi(realized, tol=1e-6).passed
    assert evaluate(functional, realized) == pytest.approx(value, abs=1e-6)


@pytest.mark.parametrize("seed", range(3))
def test_hidden_state_bound_matches_closed_form_on_random_functionals(seed):
    shape = ScenarioShape(2, 2, 2, 2)
    functional = random_psd_functional(seed, shape)
    oracle = closed_form_hidden_state_optimum(functional)
    value, _ = lhs_bound(functional)
    assert value == pytest.approx(oracle, abs=1e-6)


def random_indefinite_functional(seed, shape):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for key in itertools.product(range(shape.n_a), range(shape.m_a), range(shape.m_b)):
        gauss = rng.normal(size=(shape.d, shape.d)) + 1j * rng.normal(size=(shape.d, shape.d))
        coeffs[key] = gauss + gauss.conj().T
    return SteeringFunctional(shape=shape, coeffs=coeffs)


def sdp_hidden_state_optimum(functional):
    """Reference without the formula: optimize the trusted states of every strategy.

    One block per strategy and trusted input, traces equal across inputs,
    total weight one, objective the functional of the induced assemblage.
    """
    shape = functional.shape
    strategies = deterministic_strategies(shape.n_a, shape.m_a)
    eye = np.eye(shape.d, dtype=complex)
    builder = sdp.HermitianBlockBuilder()
    omega = {}
    for k, strategy in enumerate(strategies):
        for y in range(shape.m_b):
            omega[(k, y)] = builder.add_block(shape.d)
            gain = sum(functional.term(strategy[x], x, y) for x in range(shape.m_a))
            builder.add_objective_term(omega[(k, y)], gain)
        for y in range(1, shape.m_b):
            builder.add_equality([(omega[(k, y)], eye), (omega[(k, 0)], -eye)], 0.0)
    builder.add_equality([(omega[(k, 0)], eye) for k in range(len(strategies))], 1.0)
    solution = sdp.solve(builder.build())
    assert solution.status == sdp.OPTIMAL
    return solution.primal_value


@pytest.mark.parametrize(
    "draw", [random_psd_functional, random_indefinite_functional], ids=["psd", "indefinite"]
)
@pytest.mark.parametrize(
    "n_a, m_a, m_b, d", [(2, 3, 2, 2), (3, 2, 2, 2), (2, 2, 3, 3), (3, 3, 2, 3)]
)
def test_hidden_state_bound_matches_the_semidefinite_program(n_a, m_a, m_b, d, draw):
    functional = draw(11, ScenarioShape(n_a, m_a, m_b, d))
    value, _ = lhs_bound(functional)
    assert value == pytest.approx(sdp_hidden_state_optimum(functional), abs=1e-6)


def test_hidden_state_model_attains_the_bound_exactly():
    shape = ScenarioShape(3, 2, 2, 3)
    functional = random_indefinite_functional(4, shape)
    value, model = lhs_bound(functional)
    assert len(model.strategies) == 1
    assert model.weights().sum() == pytest.approx(1.0, abs=1e-12)
    for state in model.states.values():
        assert np.linalg.eigvalsh(state).min() >= -1e-12
    assert abs(evaluate(functional, model.assemblage(shape)) - value) <= 1e-12


def test_hidden_state_bound_runs_no_solver(monkeypatch):
    functional = canonical_functional()
    expected, _ = lhs_bound(functional)

    def refuse(*args, **kwargs):
        raise AssertionError("the hidden-state bound must not call the solver")

    monkeypatch.setattr(sdp, "solve", refuse)
    value, _ = lhs_bound(functional)
    assert value == expected


def test_hidden_state_bound_warns_that_an_iteration_budget_is_inert():
    functional = canonical_functional()
    expected, _ = lhs_bound(functional)
    with pytest.warns(DeprecationWarning, match="max_iter has no effect"):
        value, _ = lhs_bound(functional, max_iter=3)
    assert value == expected


def test_hidden_state_membership_splits_the_examples():
    box = lhs_membership(pr_box_assemblage())
    assert not box.feasible
    assert box.margin < -1e-3
    asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2), seed=7)
    report = lhs_membership(asm)
    assert report.feasible
    back = report.witness.assemblage(asm.shape)
    for key, member in asm.members.items():
        assert np.allclose(back.members[key], member, atol=1e-6)


@pytest.mark.parametrize(
    "m_a, verdict, margin",
    [
        (6, sdp.INSIDE, 4.3075150e-04),
        (7, sdp.OUTSIDE, -3.1258054e-04),
        (8, sdp.OUTSIDE, -1.5629035e-04),
    ],
)
def test_near_boundary_hidden_state_memberships_keep_their_margins(m_a, verdict, margin):
    # Margins of a few 1e-4 on 64 to 512 side-2 blocks: the solver's side-2
    # kernels must not move them.
    report = lhs_membership(random_quantum_bwi(ScenarioShape(2, m_a, 2, 2), seed=1))
    assert report.verdict == verdict
    assert report.margin == pytest.approx(margin, abs=1e-9)


def _two_block_phase_one(problem, tol=1e-8):
    """Phase one with its shift t = t+ - t- in two 1 x 1 blocks, as it was first
    written: the reference for the 2 x 2 shift block."""
    from scipy import sparse

    trace = problem.a @ sdp._svec_identity(problem.block_dims)
    two_block = sdp.SdpProblem(
        problem.block_dims + (1, 1),
        np.concatenate([np.zeros_like(problem.c), [1.0, -1.0]]),
        sparse.hstack([problem.a, sparse.csr_array(np.stack([-trace, trace], axis=1))]),
        problem.b,
    )
    solution = sdp.solve(two_block, tol=tol)
    assert solution.status == sdp.OPTIMAL
    shift = solution.block_values[-2][0, 0].real - solution.block_values[-1][0, 0].real
    return sdp.MembershipReport.from_solve(solution, problem, tol, -shift)


def _lhs_blocks_membership(index):
    # The benchmark's lhs-blocks memberships at seed 4099 (perfbench/ is on the path).
    import workloads

    return workloads.lhs_blocks(4099)[index].run()


PHASE_ONE_CASES = {
    "pr-box": lambda: lhs_membership(pr_box_assemblage()),
    "pauli-transpose": lambda: lhs_membership(pauli_transpose_assemblage()),
    "wired-pauli": lambda: instrumental_membership(assemblages.instrumental_pauli_assemblage()),
    **{
        f"{''.join(map(str, shape))}-{seed}": (
            lambda shape=shape, seed=seed: lhs_membership(
                random_quantum_bwi(ScenarioShape(*shape), seed=seed)
            )
        )
        for shape in ((2, 3, 2, 2), (2, 2, 3, 2))
        for seed in range(10)
    },
    "lhs_member6_steer": lambda: _lhs_blocks_membership(2),
    "lhs_member8_lhs": lambda: _lhs_blocks_membership(3),
}


@pytest.mark.parametrize("case", PHASE_ONE_CASES)
def test_phase_one_matches_its_two_block_form(monkeypatch, case):
    # The shift's 2 x 2 block stays diagonal, so the program is the two-block
    # one: same verdict and iterations, margins apart by rounding alone.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    solved = []
    solve = sdp.solve

    def recording_solve(problem, **kwargs):
        solved.append(solve(problem, **kwargs))
        return solved[-1]

    monkeypatch.setattr(sdp, "solve", recording_solve)
    report = PHASE_ONE_CASES[case]()
    monkeypatch.setattr(sdp, "solve", solve)
    reference = _two_block_phase_one(report.problem)
    assert report.verdict == reference.verdict
    assert report.iterations == reference.iterations
    assert abs(report.margin - reference.margin) <= 1e-9
    assert len(solved) == 1
    shift = solved[0].block_values[-1]
    assert shift.shape == (2, 2) and shift[1, 0] == 0 and shift[0, 1] == 0


# ---------------------------------------------------------------------------
# No-signalling bound
# ---------------------------------------------------------------------------


def test_no_signalling_bound_vanishes_for_the_canonical_functional():
    assert abs(ns_bound(canonical_functional())) <= 1e-6


def test_no_signalling_bound_is_sharp_on_the_box():
    # A functional built from the box's own supports reaches its minimum over
    # no-signalling assemblages at a strictly negative value when coefficients
    # are indefinite; for positive coefficients the bound is nonnegative.
    functional = random_psd_functional(5, ScenarioShape(2, 2, 2, 2))
    value = ns_bound(functional)
    assert value >= -1e-7


# ---------------------------------------------------------------------------
# Moment-matrix relaxation
# ---------------------------------------------------------------------------


def test_moment_words_cover_singles_and_pairs():
    words = moment_words(ScenarioShape(2, 3, 2, 2))
    assert words[0] == ((), ())
    assert len(words) == 1 + 3 + 2 + 6
    assert ((2,), (1,)) in words


def test_relaxation_problem_has_the_embedded_moment_block():
    problem = build_qtilde_problem(canonical_functional())
    # The complex moment block of side 2 (1 + 3 + 2 + 6) is the only block.
    assert problem.block_dims == (24,)


def _dense_rows(problem):
    """The rows as a dense table, with +0.0 wherever ``a`` stores no entry."""
    return problem.a.toarray() + 0.0


def _problem_digest(problem):
    digest = hashlib.sha256(repr(problem.block_dims).encode())
    digest.update(_dense_rows(problem).tobytes())
    digest.update(problem.c.tobytes())
    return digest.hexdigest()


# Digests of (block_dims, a, c) of relaxation problems, recorded before words
# became letter sequences.  The entries are exact (units, sqrt(2) weights,
# exact members), so any change in the moment structure or the moment order
# shows here.  The bounds' rows and costs depend on the shape alone.  The two
# memberships at d = 3, of random_quantum_bwi(shape, seed=5) with (2,5,3,3)
# the side-72 case, were recorded from dense coefficient matrices, as a
# reference for the entry-by-entry writer; their rows depend on the shape
# alone, their costs on the members.  The rows are hashed as a dense table
# with +0.0 at every entry CSR does not store.  The strings were recorded by
# the same rule from the last dense rows, whose negated table held -0.0
# there, so they still pin every nonzero of those rows bit for bit.
RELAXATION_DIGESTS = [
    ("canonical", "22adcb944fb4da7b3971cf15f1acac4482d8a36cbb81ad7244d4a712cc93e6f7"),
    ((3, 2, 2), "22adcb944fb4da7b3971cf15f1acac4482d8a36cbb81ad7244d4a712cc93e6f7"),
    ((3, 3, 2), "b5dd705bdaaf1fc0c0781130adc29b9b16d17ffcf4bcda481aa639b46e790b42"),
    ((3, 2, 3), "09614951066808efdf40d7ae3074be07977314af927c8197addd5a669a43ee87"),
    ((4, 3, 2), "4683fc2049cf1274e21aa1087e51e510b52517711872b8fb2bc6424449eabc5d"),
    ("pauli-transpose", "cf3584acad25a0d4415d620616b1059ad57ae54f11e3141524defa3aceaf73d3"),
    ("member-2223", "00b027521745af194910172eff0293c23754e5bf7d6135c2720bfd141cf8e248"),
    ("member-2533", "20955591bebc6b60316453c96c8c3310489d18ea6c606625ef0a84eabacf9ff0"),
]


@pytest.mark.parametrize(
    "case, expected",
    RELAXATION_DIGESTS,
    ids=["canonical", "322", "332", "323", "432", "pauli-transpose", "member-2223", "member-2533"],
)
def test_relaxation_problems_keep_their_recorded_digests(case, expected):
    if case == "canonical":
        problem = build_qtilde_problem(canonical_functional())
    elif case == "pauli-transpose":
        problem = qtilde_membership(pauli_transpose_assemblage()).problem
    elif isinstance(case, tuple):
        problem = build_qtilde_problem(cli._random_psd_functional(ScenarioShape(2, *case), 0))
    else:
        shape = ScenarioShape(*(int(c) for c in case.removeprefix("member-")))
        # Built, not solved: the side-72 solve takes seconds.
        _, problem = steering._membership_lmi(random_quantum_bwi(shape, seed=5))
    assert _problem_digest(problem) == expected


# Digests of (block_dims, a, c, b) of the programs whose builders moved into
# steering, recorded before the move: the wired relaxation bound of the
# canonical functional, and the memberships of the wired Pauli example (wired)
# and of the box-like example (hidden state).  The rows are hashed as
# ``_dense_rows`` gives them; only the wired bound's string moved with that,
# since the builder's rows never held -0.0.
SET_PROGRAM_DIGESTS = {
    "wired-bound": "f3cab2b00b6fbc1b304d7f74b65cbba9b9fd18f04fc0664f6f351144c0cb1122",
    "wired-membership": "babd4b85221826aefc871686c2c7cf59ee177671aff6bbed16c0d59ca4fdf51f",
    "hidden-state-membership": "9b29779bd1458a66c8397064e897769ae5bac5f5ca31a5b5ca4aab1d65157090",
}


@pytest.mark.parametrize("case", SET_PROGRAM_DIGESTS)
def test_set_programs_keep_their_recorded_digests(case):
    problem = {
        "wired-bound": lambda: build_qtilde_problem(canonical_instrumental_functional()),
        "wired-membership": lambda: instrumental_membership(
            assemblages.instrumental_pauli_assemblage()
        ).problem,
        "hidden-state-membership": lambda: lhs_membership(pr_box_assemblage()).problem,
    }[case]()
    digest = hashlib.sha256(repr(problem.block_dims).encode())
    for part in (_dense_rows(problem), problem.c, problem.b):
        digest.update(part.tobytes())
    assert digest.hexdigest() == SET_PROGRAM_DIGESTS[case]


@pytest.mark.parametrize(
    "case",
    ["relaxation-bound", "pinned-membership", "hidden-state-membership", "ns-bound",
     "wired-membership", "phase-one"],
)
def test_every_program_stores_its_rows_as_canonical_csr(monkeypatch, case):
    # Sorted indices, no stored zeros, and one stored entry per nonzero.
    solved = []
    solve = sdp.solve

    def recording_solve(problem, **kwargs):
        solved.append(problem)
        return solve(problem, **kwargs)

    monkeypatch.setattr(sdp, "solve", recording_solve)
    built = {
        "relaxation-bound": lambda: build_qtilde_problem(canonical_functional()),
        "pinned-membership": lambda: steering._membership_lmi(pauli_transpose_assemblage())[1],
        "hidden-state-membership": lambda: lhs_membership(pr_box_assemblage()).problem,
        "ns-bound": lambda: ns_bound(canonical_functional()),
        "wired-membership": lambda: instrumental_membership(
            assemblages.instrumental_pauli_assemblage()
        ).problem,
        "phase-one": lambda: lhs_membership(pr_box_assemblage()),
    }[case]()
    problem = solved[0] if case in ("ns-bound", "phase-one") else built
    if case == "phase-one":
        # The shift block diag(t+, t-): no row or cost touches its off-diagonal.
        assert problem.block_dims[-1] == 2
        assert not problem.a[:, -4:][:, [1, 3]].nnz and not problem.c[-4:][[1, 3]].any()
    a = problem.a
    assert a.format == "csr" and a.has_sorted_indices
    assert np.all(a.data != 0)
    assert a.nnz == np.count_nonzero(a.toarray())


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 2, 2), (2, 2, 2, 3), (2, 3, 3, 2), None])
def test_moment_form_puts_each_key_class_at_every_position_with_its_key(shape):
    # Whatever the writer does inside, every block with a key must equal the
    # key's class at any moments p: each structural residual (all but psd)
    # vanishes.  None is the pinned form of a membership, with its shift row.
    if shape is None:
        form, _ = steering._membership_lmi(random_quantum_bwi(ScenarioShape(2, 3, 2, 2), seed=5))
    else:
        form = steering._MomentForm(ScenarioShape(*shape))
    rng = np.random.default_rng(17)
    for _ in range(3):
        moment = form.moment(rng.normal(size=len(form.first_row) - 1))
        residuals = moment.residuals()
        del residuals["psd"]
        assert max(residuals.values()) <= 1e-12, residuals


def test_relaxation_bound_holds_no_dense_coefficient_stack():
    # The (4,3,2) bound's 613 moments over a side-40 block would take 15.7 MB
    # as dense complex matrices, and their Hermitian parts twice that again;
    # its 613 x 1,600 rows would take 7.8 MB dense, and the row-scaled copy as
    # much.  With CSR rows the traced peak is 14.6-14.9 MB (both dense stores
    # read 30.4 MB).  A process that has imported no scipy traces its 16.8 MB
    # import at this first solve and reads 30.3 MB, so both scipy modules load
    # before tracing starts, and the peak is the solve's in any process.
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    functional = cli._random_psd_functional(ScenarioShape(2, 4, 3, 2), 0)
    tracemalloc.start()
    try:
        qtilde_solution(functional)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19e6


# Relaxation bounds solved with one more LMI block per outcome-1 member, which
# the moment block's positivity implies: the canonical functional, then
# cli._random_psd_functional(shape, 3) at (n_a, m_a, m_b, d) = (2, 2, 2, 2),
# (2, 3, 2, 2) and (2, 3, 3, 2).
BOUNDS_WITH_MEMBER_BLOCKS = [
    (None, 0.413493565),
    ((2, 2, 2, 2), 3.23352517),
    ((2, 3, 2, 2), 7.62046736),
    ((2, 3, 3, 2), 8.46010440),
]


@pytest.mark.parametrize("shape, bound", BOUNDS_WITH_MEMBER_BLOCKS)
def test_relaxation_members_are_positive_without_blocks_of_their_own(shape, bound):
    if shape is None:
        functional = canonical_functional()
    else:
        functional = cli._random_psd_functional(ScenarioShape(*shape), 3)
    value, moment = qtilde_solution(functional)
    assert value == pytest.approx(bound, rel=1e-7)
    inputs = itertools.product(range(functional.shape.m_a), range(functional.shape.m_b))
    for x, y in inputs:
        assert np.linalg.eigvalsh(moment.member(1, x, y)).min() >= -1e-7


def test_relaxation_bound_reproduces_the_reference_value():
    value = qtilde_bound(canonical_functional())
    assert value == pytest.approx(RELAXATION_OPTIMUM, abs=1e-6)


# Seeded presentations of the benchmark ladder's (3,3,2) and (4,3,2)
# functionals whose solves once ended numerical_trouble: an accepted step
# left an iterate that could not be factored.  Seed 13 jammed on dense rows,
# its step bound collapsing while the dual residual sat just above tolerance;
# the CSR rows' summation order re-rolled it, and it solves in 15 iterations.
# The endgame still has no guard (ROADMAP item 2).
@pytest.mark.parametrize(
    "name",
    ["qtilde432_seed1", "qtilde332_seed13", "qtilde332_seed25", "qtilde332_seed53", "qtilde332_seed75"],
)
def test_jammed_ladder_presentations_reach_the_reference_value(name):
    with open(os.path.join(ROOT, "tests", "data", name + ".json")) as handle:
        functional = serialize.functional_from_json(json.load(handle))
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as handle:
        reference = json.load(handle)["qtilde"][name.split("_")[0]]
    assert qtilde_bound(functional) == pytest.approx(reference, rel=3.5e-8)


def test_relaxation_solution_is_structurally_consistent():
    value, moment = qtilde_solution(canonical_functional())
    assert isinstance(moment, MomentMatrix)
    assert np.allclose(moment.block(((), ()), ((), ())), np.eye(2), atol=1e-8)
    residuals = moment.residuals()
    assert max(residuals.values()) <= 1e-7
    extracted = moment.assemblage()
    assert validate_ns_bwi(extracted, tol=1e-7).passed
    assert evaluate(canonical_functional(), extracted) == pytest.approx(value, abs=1e-6)


@pytest.mark.parametrize(
    "m_a, m_b, d, moments", [(3, 2, 2, 161), (3, 3, 2, 357), (3, 2, 3, 361), (4, 3, 2, 613)]
)
def test_relaxation_has_one_row_per_free_moment(m_a, m_b, d, moments):
    functional = random_psd_functional(0, ScenarioShape(2, m_a, m_b, d))
    assert build_qtilde_problem(functional).num_rows == moments


def test_relaxation_structure_holds_for_a_qutrit():
    functional = random_psd_functional(3, ScenarioShape(2, 3, 2, 3))
    value, moment = qtilde_solution(functional)
    assert max(moment.residuals().values()) <= 1e-7
    assert evaluate(functional, moment.assemblage()) == pytest.approx(value, abs=1e-6)


def test_relaxation_requires_binary_outcomes():
    shape = ScenarioShape(3, 2, 2, 2)
    functional = random_psd_functional(0, shape)
    with pytest.raises(ValueError):
        build_qtilde_problem(functional)
    asm = random_quantum_bwi(shape, seed=0)
    with pytest.raises(ValueError):
        qtilde_membership(asm)


def test_every_relaxation_entry_point_names_the_binary_outcome_rule():
    shape = ScenarioShape(3, 2, 2, 2)
    wired = InstrumentalFunctional(
        shape=ScenarioShape(3, 2, 3, 2, INSTRUMENTAL),
        coeffs={(a, x): np.eye(2) for a in range(3) for x in range(2)},
    )
    calls = [
        lambda: build_qtilde_problem(random_psd_functional(0, shape)),
        lambda: qtilde_membership(random_quantum_bwi(shape, seed=0)),
        lambda: qtilde_bound(wired),
    ]
    for call in calls:
        with pytest.raises(BinaryOutcomesRequired, match="n_a = 3"):
            call()


def test_relaxation_collapses_in_the_single_input_scenario():
    # With one input on each side there is nothing to steer, so the hidden
    # state set, the relaxation, and the no-signalling set all coincide.
    shape = ScenarioShape(2, 1, 1, 2)
    functional = random_psd_functional(42, shape)
    ns = ns_bound(functional)
    qt = qtilde_bound(functional)
    lhs, _ = lhs_bound(functional)
    assert qt == pytest.approx(ns, abs=1e-6)
    assert lhs == pytest.approx(ns, abs=1e-6)


@pytest.mark.parametrize("seed", range(3))
def test_bounds_are_ordered_on_random_functionals(seed):
    shape = ScenarioShape(2, 2, 2, 2)
    functional = random_psd_functional(100 + seed, shape)
    ns = ns_bound(functional)
    qt = qtilde_bound(functional)
    lhs, _ = lhs_bound(functional)
    assert ns <= qt + 1e-6
    assert qt <= lhs + 1e-6


def test_relaxation_membership_splits_the_examples():
    rejected = qtilde_membership(pauli_transpose_assemblage())
    assert not rejected.feasible
    assert rejected.margin < -1e-3

    accepted = qtilde_membership(random_quantum_bwi(ScenarioShape(2, 2, 2, 2), seed=7))
    assert accepted.feasible
    assert accepted.margin > 1e-4
    assert isinstance(accepted.witness, MomentMatrix)
    assert max(accepted.witness.residuals().values()) <= 1e-7

    boundary = qtilde_membership(pr_box_assemblage())
    assert boundary.feasible
    assert boundary.margin == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("membership", [lhs_membership, qtilde_membership])
def test_memberships_refuse_non_finite_members(membership):
    # Set to NaN in place, past the container's check: the membership's
    # no-signalling check names the member instead of drawing a verdict.
    asm = pr_box_assemblage()
    asm.members[(0, 0, 0)][0, 1] = np.nan
    with pytest.raises(ValueError, match=r"member \(0, 0, 0\) .* not finite"):
        membership(asm)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize(
    "membership", [lhs_membership, qtilde_membership, instrumental_membership]
)
def test_memberships_rule_out_members_that_are_not_hermitian(monkeypatch, membership, sign):
    # The rows pin Hermitian parts only.  A skew of opposite signs on two
    # members keeps every summed state and trace, and such inputs read inside;
    # with equal signs the summed state moves too, and the hidden-state
    # membership read a rounding-level mismatch of its omitted rows as a
    # certificate (entries near 1.6e15, b . y = 0.94, largest eigenvalue of
    # sum y_i A_i 0.38).  The hermitian residual now rules both out, with no
    # certificate.
    skew = np.array([[0.0, 0.05], [-0.05, 0.0]])
    if membership is instrumental_membership:
        parent = random_quantum_bwi(ScenarioShape(2, 3, 2, 2), seed=1)
        asm, keys = assemblages.instrumental_from_bwi(parent), [(0, 0), (1, 0)]
    else:
        asm, keys = random_quantum_bwi(ScenarioShape(2, 2, 2, 2), seed=3), [(0, 0, 0), (1, 0, 0)]
    members = dict(asm.members)
    members[keys[0]] = members[keys[0]] + skew
    members[keys[1]] = members[keys[1]] + sign * skew
    skewed = type(asm)(asm.shape, members)

    def refuse(*args, **kwargs):
        raise AssertionError("data that are not Hermitian need no solve")

    monkeypatch.setattr(sdp, "solve", refuse)
    monkeypatch.setattr(sdp, "feasibility_phase1", refuse)
    report = membership(skewed)
    assert report.margin == -np.inf
    assert report.status == sdp.INFEASIBLE
    assert report.iterations is None
    assert report.certificate_y is None
    assert report.residuals["hermitian"] == pytest.approx(0.1 * np.sqrt(2))


def test_relaxation_membership_rejects_trusted_to_untrusted_signalling():
    # Outcome weights that depend on the trusted input break the trace rule
    # of the pinned pair blocks, so no moment block exists.
    asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2), seed=7)
    members = dict(asm.members)
    for x in range(2):
        members[(0, x, 1)] = members[(0, x, 1)] + 0.025 * np.eye(2)
        members[(1, x, 1)] = members[(1, x, 1)] - 0.025 * np.eye(2)
    report = qtilde_membership(assemblages.BwiAssemblage(asm.shape, members))
    assert not report.feasible
    assert report.margin == -np.inf
    assert report.status == "infeasible"
    # Decided before any solve.
    assert report.iterations is None


def test_relaxation_membership_rejects_untrusted_to_trusted_signalling():
    # Only the x = 0 reduced state is pinned.  Replacing sigma_{1|1,0} by the
    # maximally mixed state of the same trace keeps every trace rule but makes
    # the trusted side's reduced state depend on the untrusted input.
    asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2, BWI), seed=7)
    members = dict(asm.members)
    members[(1, 1, 0)] = 0.5 * np.trace(members[(1, 1, 0)]).real * np.eye(2)
    signalling = assemblages.BwiAssemblage(asm.shape, members)
    assert validate_ns_bwi(signalling).residuals["state_consistency"] > 0.2
    report = qtilde_membership(signalling)
    assert not report.feasible
    assert report.margin == -np.inf
    assert report.status == "infeasible"
    assert report.witness is None


@pytest.mark.parametrize(
    "membership, make",
    [
        (lhs_membership, pauli_transpose_assemblage),
        (lhs_membership, pr_box_assemblage),
        (qtilde_membership, pauli_transpose_assemblage),
        (qtilde_membership, pr_box_assemblage),
        (instrumental_membership, assemblages.instrumental_pauli_assemblage),
    ],
)
def test_unfinished_membership_is_undecided(membership, make):
    report = membership(make(), max_iter=3)
    assert report.status == sdp.MAX_ITERATIONS
    assert report.verdict == sdp.UNDECIDED
    assert not report.feasible
    assert report.witness is None and report.certificate_y is None


def test_hidden_state_membership_certificate_separates():
    # The signalling input above has no hidden-state model either, and y is
    # a Farkas certificate on the problem's own rows: b.y = 1 and
    # sum_i y_i A_i negative semidefinite.
    asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2, BWI), seed=7)
    members = dict(asm.members)
    members[(1, 1, 0)] = 0.5 * np.trace(members[(1, 1, 0)]).real * np.eye(2)
    report = lhs_membership(assemblages.BwiAssemblage(asm.shape, members))
    assert not report.feasible
    assert report.margin == -np.inf
    assert report.status == "infeasible"
    b_dot_y, max_eig = sdp.farkas_terms(report.problem, report.certificate_y)
    assert b_dot_y == pytest.approx(1.0, abs=1e-9)
    assert max_eig <= 1e-9


def test_hidden_state_membership_rejects_trusted_to_untrusted_signalling():
    # Member traces that depend on the trusted input, with every reduced
    # state unchanged: caught before any solve, with a certificate on the
    # problem that pins every member.
    asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2, BWI), seed=7)
    members = dict(asm.members)
    for x in range(2):
        members[(0, x, 1)] = members[(0, x, 1)] + 0.025 * np.eye(2)
        members[(1, x, 1)] = members[(1, x, 1)] - 0.025 * np.eye(2)
    signalling = assemblages.BwiAssemblage(asm.shape, members)
    assert validate_ns_bwi(signalling).residuals["state_consistency"] <= 1e-12
    report = lhs_membership(signalling)
    assert report.status == "infeasible"
    assert report.margin == -np.inf
    assert report.iterations is None
    b_dot_y, max_eig = sdp.farkas_terms(report.problem, report.certificate_y)
    assert b_dot_y == pytest.approx(1.0, abs=1e-9)
    assert max_eig <= 1e-9


def test_hidden_state_membership_withholds_a_certificate_of_rounding():
    # Anti-Hermitian parts, each within VALIDATION_TOL, add up to push the
    # omitted summed-state rows over it, while the Hermitian parts meet those
    # rows to rounding.  The data are rightly ruled out, but the mismatch of
    # the rows is rounding, and a certificate built from it had b . y = 1.05,
    # a largest eigenvalue of sum y_i A_i of 1.25 and entries near 3.4e15.
    asm = random_quantum_bwi(ScenarioShape(3, 2, 2, 2), seed=5)
    members = dict(asm.members)
    for a in range(3):
        members[(a, 1, 0)] = members[(a, 1, 0)] + 0.35e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    skewed = assemblages.BwiAssemblage(asm.shape, members)
    residuals = validate_ns_bwi(skewed).residuals
    assert residuals["hermitian"] < assemblages.VALIDATION_TOL < residuals["state_consistency"]
    report = lhs_membership(skewed)
    assert report.margin == -np.inf
    assert report.iterations is None
    assert report.certificate_y is None


def pin_every_member(asm):
    """Reference membership: every member pinned and every strategy's traces equated.

    The solver takes only independent rows, so a pivoted QR of ``a^T`` picks
    them here, with the threshold the presolve's proof uses.
    """
    shape = asm.shape
    strategies = deterministic_strategies(shape.n_a, shape.m_a)
    eye = np.eye(shape.d)
    builder = sdp.HermitianBlockBuilder()
    omega = {}
    for k in range(len(strategies)):
        for y in range(shape.m_b):
            omega[(k, y)] = builder.add_block(shape.d)
        for y in range(1, shape.m_b):
            builder.add_equality([(omega[(k, y)], eye), (omega[(k, 0)], -eye)], 0.0)
    for a, x, y in itertools.product(range(shape.n_a), range(shape.m_a), range(shape.m_b)):
        terms = [(omega[(k, y)], 1.0) for k, s in enumerate(strategies) if s[x] == a]
        builder.add_matrix_equality(terms, asm.member(a, x, y))
    problem = builder.build()
    r_fac, piv = scipy.linalg.qr(problem.a.toarray().T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r_fac[: problem.num_rows]))
    keep = np.sort(piv[: int(np.sum(diag > sdp.PRESOLVE_RANK_TOL * diag[0]))])
    return sdp.feasibility_phase1(
        sdp.SdpProblem(problem.block_dims, problem.c, problem.a[keep], problem.b[keep])
    )


@pytest.mark.parametrize(
    "n_a, m_a, m_b, d", list(itertools.product((2, 3), (1, 2, 3, 5), (1, 2, 3), (1, 2, 3)))
)
def test_hidden_state_membership_pins_only_independent_rows(monkeypatch, n_a, m_a, m_b, d):
    asm = random_quantum_bwi(ScenarioShape(n_a, m_a, m_b, d), seed=5)
    reference = pin_every_member(asm)

    def refuse(*args, **kwargs):
        raise AssertionError("independent rows need no pivoted QR")

    monkeypatch.setattr(scipy.linalg, "qr", refuse)
    report = lhs_membership(asm)
    if n_a == 2:
        assert qtilde_membership(asm).feasible
    monkeypatch.undo()
    assert np.linalg.matrix_rank(report.problem.a.toarray()) == report.problem.num_rows
    assert report.problem.num_rows == reference.problem.num_rows
    assert report.verdict == reference.verdict
    assert report.margin == pytest.approx(reference.margin, abs=1e-7)


def test_hidden_state_rows_depend_only_on_the_shape():
    # An anti-Hermitian residue of 1e-12 on one member passes validation.  The
    # membership pins the Hermitian part, so the rows and the margin are
    # those of the clean input.
    asm = random_quantum_bwi(ScenarioShape(2, 3, 2, 2), seed=3)
    members = dict(asm.members)
    members[(0, 1, 0)] = members[(0, 1, 0)] + 1e-12j * np.diag([1.0, -1.0])
    perturbed = assemblages.BwiAssemblage(asm.shape, members)
    assert validate_ns_bwi(perturbed).passed
    clean, report = lhs_membership(asm), lhs_membership(perturbed)
    assert report.problem.num_rows == clean.problem.num_rows == 36
    assert report.verdict == sdp.INSIDE
    assert report.margin == pytest.approx(0.0074879, abs=1e-7)
    assert report.margin == pytest.approx(clean.margin, abs=1e-9)


def test_relaxation_membership_witness_reproduces_the_members():
    asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2), seed=21)
    report = qtilde_membership(asm)
    assert report.feasible
    back = report.witness.assemblage()
    for key, member in asm.members.items():
        assert np.allclose(back.members[key], member, atol=1e-6)


def test_wired_relaxation_bound_vanishes_for_the_canonical_functional():
    value = qtilde_bound(canonical_instrumental_functional())
    assert value == pytest.approx(0.0, abs=2e-6)


def test_wired_relaxation_bound_is_below_wired_values():
    functional = canonical_instrumental_functional()
    bound = qtilde_bound(functional)
    realized = evaluate(functional, assemblages.instrumental_pauli_assemblage())
    assert bound <= realized + 1e-6


@pytest.mark.parametrize(
    "n_a, m_a, m_b, d", list(itertools.product((2, 3), (1, 2, 3), (1, 2, 3), (1, 2)))
)
def test_no_signalling_bound_rows_are_independent(monkeypatch, n_a, m_a, m_b, d):
    shape = ScenarioShape(n_a, m_a, m_b, d)
    problems = []
    solve = sdp.solve

    def recording_solve(problem, **kwargs):
        problems.append(problem)
        return solve(problem, **kwargs)

    monkeypatch.setattr(sdp, "solve", recording_solve)
    ns_bound(random_psd_functional(n_a * 100 + m_a * 10 + m_b, shape))
    (problem,) = problems
    assert problem.num_rows == np.linalg.matrix_rank(problem.a.toarray())


@pytest.mark.parametrize(
    "seed, value", enumerate([4.7679057, 2.2393660, 3.8792845, 7.6204675])
)
def test_no_signalling_bound_keeps_its_values(seed, value):
    # The values before the implied trace rows were omitted.
    functional = cli._random_psd_functional(ScenarioShape(2, 3, 2, 2), seed)
    assert ns_bound(functional) == pytest.approx(value, abs=1e-6)


@pytest.mark.parametrize("m_a, m_b, d", list(itertools.product((1, 2, 3), repeat=3)))
def test_no_signalling_bound_with_one_outcome_is_the_hidden_state_bound(m_a, m_b, d):
    # With one outcome the no-signalling set is {sigma_{0|x,y} = rho_y}, the
    # assemblages of the single deterministic strategy.
    functional = random_psd_functional(m_a * 100 + m_b * 10 + d, ScenarioShape(1, m_a, m_b, d))
    lhs_value, _ = lhs_bound(functional)
    assert ns_bound(functional) == pytest.approx(lhs_value, rel=1e-7)


def test_solver_failure_carries_the_solution():
    failure = steering.SolverFailure("context", solution="payload")
    assert failure.solution == "payload"
    assert "context" in str(failure)
