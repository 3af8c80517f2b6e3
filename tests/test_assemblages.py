"""Tests for assemblage containers, validators, examples, and samplers."""

from __future__ import annotations

import ast
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steercert import assemblages, sdp
from steercert.assemblages import (
    INSTRUMENTAL,
    TRADITIONAL,
    BwiAssemblage,
    InstrumentalAssemblage,
    ScenarioShape,
    SequentialAssemblage,
    SequentialShape,
    TraditionalAssemblage,
    bell_correlations,
    chsh_value,
    instrumental_from_bwi,
    instrumental_pauli_assemblage,
    pauli_transpose_assemblage,
    pr_box_assemblage,
    random_ns_sequential,
    random_ns_traditional,
    random_quantum_bwi,
    random_quantum_sequential,
    validate_instrumental,
    validate_ns_bwi,
    validate_ns_sequential,
)
from steercert.matcore import PAULIS
from steercert.steering import instrumental_membership

KET = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])]
COMPUTATIONAL = [KET, KET]


# ---------------------------------------------------------------------------
# Shapes and containers
# ---------------------------------------------------------------------------


def test_shape_rejects_bad_kinds_and_ranges():
    with pytest.raises(ValueError):
        ScenarioShape(2, 2, 2, 2, kind="telepathic")
    with pytest.raises(ValueError):
        ScenarioShape(2, 2, 2, 0)
    with pytest.raises(ValueError):
        ScenarioShape(2, 2, 2, 2, kind=TRADITIONAL)
    with pytest.raises(ValueError):
        ScenarioShape(2, 2, 3, 2, kind=INSTRUMENTAL)


def test_bwi_assemblage_rejects_mismatched_keys_and_shapes():
    shape = ScenarioShape(2, 1, 1, 2)
    good = {(a, 0, 0): np.eye(2) / 4 for a in range(2)}
    BwiAssemblage(shape=shape, members=good)
    with pytest.raises(ValueError):
        BwiAssemblage(shape=shape, members={(0, 0, 0): np.eye(2) / 2})
    bad = {(a, 0, 0): np.eye(3) / 6 for a in range(2)}
    with pytest.raises(ValueError):
        BwiAssemblage(shape=shape, members=bad)


NON_FINITE_CASES = [
    (pr_box_assemblage, validate_ns_bwi),
    (lambda: random_quantum_sequential(SequentialShape(2, 2, 2, 2, 2), seed=5), validate_ns_sequential),
    (instrumental_pauli_assemblage, validate_instrumental),
]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("make, validate", NON_FINITE_CASES)
def test_non_finite_members_are_refused_with_their_key(make, validate, bad):
    # A NaN member once passed validation, with nan residuals (nan > tol is
    # false), and the hidden-state membership then called it outside.
    asm = make()
    key = list(asm.members)[1]
    members = dict(asm.members)
    members[key] = members[key].copy()
    members[key][0, 1] = bad
    with pytest.raises(ValueError, match=rf"member {re.escape(str(key))} .* not finite"):
        type(asm)(shape=asm.shape, members=members)
    # A matrix changed in place after construction is caught by the validator.
    asm.members[key][0, 1] = bad
    with pytest.raises(ValueError, match=rf"member {re.escape(str(key))} .* not finite"):
        validate(asm)


def test_traditional_from_members_roundtrip():
    members = {
        (a, x): 0.25 * (np.eye(2) + (-1.0) ** a * PAULIS[x])
        for a in range(2)
        for x in range(2)
    }
    asm = TraditionalAssemblage.from_members(members)
    assert asm.shape == ScenarioShape(2, 2, 1, 2, kind=TRADITIONAL)
    assert np.array_equal(asm.traditional_member(1, 0), members[(1, 0)])
    assert validate_ns_bwi(asm).passed


def test_sequential_accessors():
    shape = SequentialShape(2, 2, 2, 2, 2)
    asm = random_quantum_sequential(shape, seed=5)
    state = asm.state()
    assert np.trace(state).real == pytest.approx(1.0, abs=1e-10)
    for a1 in range(2):
        for x1 in range(2):
            first = asm.first_round_member(a1, x1, x2=0)
            second = asm.first_round_member(a1, x1, x2=1)
            assert np.allclose(first, second, atol=1e-10)


# ---------------------------------------------------------------------------
# Example assemblages
# ---------------------------------------------------------------------------


def test_box_members_match_the_hand_table():
    asm = pr_box_assemblage()
    for a in range(2):
        for x in range(2):
            for y in range(2):
                expected = 0.5 * KET[a ^ (x & y)]
                assert np.array_equal(asm.member(a, x, y), expected)
    report = validate_ns_bwi(asm)
    assert report.passed
    assert max(report.residuals.values()) == 0.0


def test_box_reaches_algebraic_maximum_of_the_correlator():
    table = bell_correlations(pr_box_assemblage(), COMPUTATIONAL)
    assert chsh_value(table) == pytest.approx(4.0, abs=1e-12)


def test_transpose_example_members():
    asm = pauli_transpose_assemblage()
    for a in range(2):
        for x in range(3):
            base = 0.25 * (np.eye(2) + (-1.0) ** a * PAULIS[x])
            assert np.allclose(asm.member(a, x, 0), base, atol=1e-15)
            assert np.allclose(asm.member(a, x, 1), base.T, atol=1e-15)
    assert validate_ns_bwi(asm).passed
    assert np.allclose(bell_correlations(asm, [[np.eye(2)]] * 2)[:, 0, :, 0], 0.5, atol=1e-12)


# ---------------------------------------------------------------------------
# Validators catch each violation family
# ---------------------------------------------------------------------------


def test_validator_flags_signalling_states():
    shape = ScenarioShape(2, 2, 1, 2)
    members = {
        (0, 0, 0): KET[0].astype(complex),
        (1, 0, 0): np.zeros((2, 2), dtype=complex),
        (0, 1, 0): KET[1].astype(complex),
        (1, 1, 0): np.zeros((2, 2), dtype=complex),
    }
    report = validate_ns_bwi(BwiAssemblage(shape=shape, members=members))
    assert not report.passed
    assert any("state_consistency" in v for v in report.violations)
    assert report.residuals["psd"] == 0.0


def test_validator_flags_negative_members():
    members = {(0, 0): np.diag([1.5, -0.5]).astype(complex)}
    report = validate_ns_bwi(TraditionalAssemblage.from_members(members, d=2))
    assert not report.passed
    assert any("psd" in v for v in report.violations)


def test_validator_flags_non_hermitian_members():
    members = {(0, 0): np.array([[0.5, 0.3], [0.0, 0.5]])}
    report = validate_ns_bwi(TraditionalAssemblage.from_members(members, d=2))
    assert not report.passed
    assert any("hermitian" in v for v in report.violations)


def test_validator_flags_trace_signalling():
    asm = pr_box_assemblage()
    members = dict(asm.members)
    members[(0, 0, 1)] = 1.2 * members[(0, 0, 1)]
    members[(1, 0, 1)] = sum(asm.member(a, 0, 1) for a in range(2)) - members[(0, 0, 1)]
    report = validate_ns_bwi(BwiAssemblage(shape=asm.shape, members=members))
    assert not report.passed
    assert any("trace_consistency" in v for v in report.violations)


def test_validator_flags_broken_normalization():
    asm = pr_box_assemblage()
    members = {key: 1.01 * mat for key, mat in asm.members.items()}
    report = validate_ns_bwi(BwiAssemblage(shape=asm.shape, members=members))
    assert not report.passed
    assert report.residuals["normalization"] == pytest.approx(0.01, abs=1e-12)


def test_sequential_validator_flags_round_one_signalling():
    shape = SequentialShape(2, 1, 2, 2, 2)
    uniform = np.eye(2, dtype=complex) / 8
    members = {
        (a1, a2, 0, x2): uniform for a1 in range(2) for a2 in range(2) for x2 in range(2)
    }
    assert validate_ns_sequential(SequentialAssemblage(shape=shape, members=members)).passed
    # Shift weight between round-one outcomes at x2 = 1 only; the total state
    # is untouched but the round-one members now depend on x2, by |Z / 16|.
    tilt = np.diag([1.0, -1.0]).astype(complex) / 16
    skewed = dict(members)
    skewed[(0, 0, 0, 1)] = uniform + tilt
    skewed[(1, 0, 0, 1)] = uniform - tilt
    report = validate_ns_sequential(SequentialAssemblage(shape=shape, members=skewed))
    assert not report.passed
    assert any("round_one_consistency" in v for v in report.violations)
    assert report.residuals["state_consistency"] == pytest.approx(0.0, abs=1e-14)
    assert report.residuals["round_one_consistency"] == pytest.approx(np.sqrt(2) / 16, abs=1e-15)
    assert report.residuals["normalization"] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize(
    "shift, expected",
    [
        # Traceless: only the summed state moves, by |delta Z| = delta sqrt(2).
        (PAULIS[2], {"state_consistency": np.sqrt(2), "trace_consistency": 0.0, "normalization": 0.0}),
        # Weight on |0><0|: the state, the member's trace and the total all move by delta.
        (KET[0], {"state_consistency": 1.0, "trace_consistency": 1.0, "normalization": 1.0}),
    ],
)
def test_validator_residuals_measure_the_perturbation(delta, shift, expected):
    asm = pauli_transpose_assemblage()
    members = dict(asm.members)
    members[(0, 1, 0)] = members[(0, 1, 0)] + delta * shift
    residuals = validate_ns_bwi(BwiAssemblage(shape=asm.shape, members=members)).residuals
    assert residuals["hermitian"] == 0.0
    for name, per_delta in expected.items():
        assert residuals[name] == pytest.approx(delta * per_delta, abs=1e-15), name


# ---------------------------------------------------------------------------
# Wiring and its extension test
# ---------------------------------------------------------------------------


def test_wiring_keeps_the_matching_trusted_input():
    bwi = pauli_transpose_assemblage()
    wired = instrumental_from_bwi(bwi)
    assert wired.shape.kind == INSTRUMENTAL
    for a in range(2):
        for x in range(3):
            assert np.array_equal(wired.member(a, x), bwi.member(a, x, a))
    assert validate_instrumental(wired).passed
    direct = instrumental_pauli_assemblage()
    for key, mat in wired.members.items():
        assert np.array_equal(direct.members[key], mat)


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
def test_wired_normalization_measures_the_added_weight(delta):
    wired = instrumental_pauli_assemblage()
    members = dict(wired.members)
    members[(1, 2)] = members[(1, 2)] + delta * KET[0]
    report = validate_instrumental(InstrumentalAssemblage(wired.shape, members))
    assert report.residuals["normalization"] == pytest.approx(delta, abs=1e-15)
    assert report.residuals["hermitian"] == report.residuals["psd"] == 0.0


def test_wiring_requires_enough_trusted_inputs():
    members = {(a, 0): np.eye(2, dtype=complex) / 4 for a in range(2)}
    trad = TraditionalAssemblage.from_members(members, d=2)
    with pytest.raises(ValueError):
        instrumental_from_bwi(trad)


def test_wiring_refuses_members_that_lose_normalization():
    shape = ScenarioShape(2, 1, 2, 2)
    members = {(a, 0, y): (0.25 + 0.15 * a * y) * np.eye(2) for a in range(2) for y in range(2)}
    with pytest.raises(ValueError, match="lost normalization"):
        instrumental_from_bwi(BwiAssemblage(shape=shape, members=members))


def test_wired_example_extends_to_a_no_signalling_assemblage():
    report = instrumental_membership(instrumental_pauli_assemblage())
    assert report.feasible
    assert report.iterations > 0
    # Pinning rank-deficient members puts the extension on the cone boundary,
    # so the feasibility margin sits at zero rather than strictly inside.
    assert report.margin == pytest.approx(0.0, abs=1e-6)
    witness = report.witness
    assert isinstance(witness, BwiAssemblage)
    assert validate_ns_bwi(witness, tol=1e-6).passed
    rewired = instrumental_from_bwi(witness)
    for a in range(2):
        for x in range(3):
            assert np.allclose(
                rewired.member(a, x),
                instrumental_pauli_assemblage().member(a, x),
                atol=1e-6,
            )


def test_subnormalized_wired_members_do_not_extend():
    wired = instrumental_pauli_assemblage()
    shrunk = InstrumentalAssemblage(
        shape=wired.shape,
        members={key: 0.5 * mat for key, mat in wired.members.items()},
    )
    report = instrumental_membership(shrunk)
    assert not report.feasible
    assert report.status == sdp.INFEASIBLE
    assert report.margin == -np.inf
    b_dot_y, max_eig = sdp.farkas_terms(report.problem, report.certificate_y)
    assert b_dot_y == pytest.approx(1.0, abs=1e-9)
    assert max_eig <= 1e-9


@pytest.mark.parametrize("n_a", [2, 3])
@pytest.mark.parametrize("m_a", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_wired_membership_rows_are_independent(n_a, m_a, d):
    wired = instrumental_from_bwi(random_quantum_bwi(ScenarioShape(n_a, m_a, n_a, d), seed=m_a))
    report = instrumental_membership(wired)
    assert report.feasible
    assert report.problem.num_rows == np.linalg.matrix_rank(report.problem.a.toarray())


@pytest.mark.parametrize(
    "seed, margin",
    [
        (None, 5.899247756957493e-11),
        (0, 0.011117028631011105),
        (1, 0.01340556973340784),
        (2, 0.03324998697937853),
        (3, 0.04266194949335789),
        (4, 0.01964722334768243),
        (5, 0.03323868891830961),
    ],
)
def test_wired_membership_keeps_its_margins(seed, margin):
    # The margins from before the rows that the pins imply were omitted.
    # Seed None is the wired Pauli example, which sits on the boundary.
    if seed is None:
        wired = instrumental_pauli_assemblage()
    else:
        wired = instrumental_from_bwi(random_quantum_bwi(ScenarioShape(2, 3, 2, 2), seed))
    assert instrumental_membership(wired).margin == pytest.approx(margin, abs=1e-9)


@pytest.mark.parametrize("m_a", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_outcome_wired_members_extend_exactly_when_they_agree(m_a, d):
    # With one outcome every block is pinned, so the summed-state rows are
    # the data's own: equal members extend, and different ones are outside
    # with no solve.
    shape = ScenarioShape(1, m_a, 1, d, kind=INSTRUMENTAL)
    states = [
        random_quantum_bwi(ScenarioShape(1, 1, 1, d), seed).member(0, 0, 0) for seed in range(3)
    ]
    equal = instrumental_membership(
        InstrumentalAssemblage(shape, {(0, x): states[0] for x in range(m_a)})
    )
    assert equal.feasible
    assert equal.problem.num_rows == np.linalg.matrix_rank(equal.problem.a.toarray())
    if m_a == 1 or d == 1:
        return  # nothing to differ: every normalized 1 x 1 member is 1
    differ = instrumental_membership(
        InstrumentalAssemblage(shape, {(0, x): states[x] for x in range(m_a)})
    )
    assert differ.verdict == sdp.OUTSIDE
    assert differ.margin == -np.inf
    assert differ.residuals["state_consistency"] > 0.1
    b_dot_y, max_eig = sdp.farkas_terms(differ.problem, differ.certificate_y)
    assert b_dot_y == pytest.approx(1.0, abs=1e-9)
    assert max_eig <= 1e-9


def test_wired_members_normalized_at_one_input_only_do_not_extend():
    # Only x = 1 loses weight: the omitted (1, 1, 1) trace row is the one the
    # data contradict, and the certificate combines the full rows.
    wired = instrumental_pauli_assemblage()
    members = dict(wired.members)
    members[(0, 1)] = 0.9 * members[(0, 1)]
    report = instrumental_membership(InstrumentalAssemblage(wired.shape, members))
    assert report.status == sdp.INFEASIBLE
    assert report.margin == -np.inf
    assert report.iterations is None
    assert report.residuals["normalization"] == pytest.approx(0.05, abs=1e-12)
    b_dot_y, max_eig = sdp.farkas_terms(report.problem, report.certificate_y)
    assert b_dot_y == pytest.approx(1.0, abs=1e-9)
    assert max_eig <= 1e-9
    assert np.linalg.norm(report.problem.a.T @ report.certificate_y) <= 1e-9


# ---------------------------------------------------------------------------
# Correlation tables
# ---------------------------------------------------------------------------


def test_correlations_validate_the_effects():
    asm = pr_box_assemblage()
    with pytest.raises(ValueError):
        bell_correlations(asm, [KET])
    broken = [[KET[0], KET[0]], KET]
    with pytest.raises(ValueError):
        bell_correlations(asm, broken)
    negative = [[np.diag([2.0, -1.0]), np.diag([-1.0, 2.0])], KET]
    with pytest.raises(ValueError):
        bell_correlations(asm, negative)


@pytest.mark.parametrize(
    "povms, message",
    [
        (COMPUTATIONAL, r"correlation \(0,0\|0,0\) has imaginary part 1.000e-03"),
        ([COMPUTATIONAL] * 3, r"correlation \(0,0\|0,0\) at index 0 has imaginary part 1.000e-03"),
    ],
)
def test_correlations_reject_an_imaginary_part(povms, message):
    members = dict(pr_box_assemblage().members)
    members[(0, 0, 0)] = members[(0, 0, 0)] + np.diag([1e-3j, 0.0])
    asm = BwiAssemblage(shape=ScenarioShape(2, 2, 2, 2), members=members)
    with pytest.raises(ValueError, match=message):
        bell_correlations(asm, povms)


def test_correlations_are_normalized_distributions():
    asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2), seed=3)
    rng = np.random.default_rng(17)
    stack = np.array([[assemblages._random_povm(rng, 2, 2) for _ in range(2)] for _ in range(7)])
    tables = bell_correlations(asm, stack)
    assert tables.shape == (7, 2, 2, 2, 2)
    for povms, table in zip(stack, tables):
        assert np.max(np.abs(bell_correlations(asm, povms) - table)) <= 1e-15
    assert tables.min() >= -1e-12
    sums = tables.sum(axis=(1, 2))
    assert np.allclose(sums, 1.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_quantum_correlations_respect_the_quantum_ceiling(seed):
    asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2), seed=seed)
    rng = np.random.default_rng(1000 + seed)
    stack = np.array([[assemblages._random_povm(rng, 2, 2) for _ in range(2)] for _ in range(7)])
    values = chsh_value(bell_correlations(asm, stack))
    assert values.shape == (7,)
    for povms, value in zip(stack, values):
        assert abs(chsh_value(bell_correlations(asm, povms)) - value) <= 1e-15
    assert np.max(np.abs(values)) <= 2.0 * np.sqrt(2.0) + 1e-9


def test_chsh_rejects_wrong_table_shape():
    for shape in [(2, 2, 2), (2, 2, 2, 3), (7, 2, 2, 3, 2), (7, 2, 2, 2)]:
        with pytest.raises(ValueError, match="table"):
            chsh_value(np.zeros(shape))


# ---------------------------------------------------------------------------
# Random models
# ---------------------------------------------------------------------------


def test_quantum_sampler_is_reproducible_and_valid():
    shape = ScenarioShape(2, 3, 2, 2)
    first = random_quantum_bwi(shape, seed=11)
    second = random_quantum_bwi(shape, seed=11)
    for key in first.members:
        assert np.array_equal(first.members[key], second.members[key])
    assert validate_ns_bwi(first).passed


def test_sequential_quantum_sampler_is_valid():
    shape = SequentialShape(2, 2, 2, 2, 2)
    asm = random_quantum_sequential(shape, seed=2)
    assert validate_ns_sequential(asm).passed
    again = random_quantum_sequential(shape, seed=2)
    for key in asm.members:
        assert np.array_equal(asm.members[key], again.members[key])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_traditional_ns_sampler_is_valid(seed):
    shape = ScenarioShape(2, 3, 1, 2, kind=TRADITIONAL)
    asm = random_ns_traditional(shape, seed)
    assert asm.shape.kind == TRADITIONAL
    assert validate_ns_bwi(asm).passed


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sequential_ns_sampler_is_valid(seed):
    shape = SequentialShape(2, 2, 2, 2, 2)
    asm = random_ns_sequential(shape, seed)
    assert validate_ns_sequential(asm).passed


def test_ns_sampler_covers_multiple_outcome_counts():
    shape = ScenarioShape(2, 2, 1, 3, kind=TRADITIONAL)
    asm = random_ns_traditional(shape, seed=8)
    assert validate_ns_bwi(asm).passed
    distribution = bell_correlations(asm, [[np.eye(3)]])[:, 0, :, 0]
    assert np.allclose(distribution.sum(axis=0), 1.0, atol=1e-10)


#: The package's modules, each importing only modules before it.
LAYERS = ("matcore", "assemblages", "sdp", "steering", "ptp", "ghjw", "serialize", "cli")


def _imported_names(tree):
    """The dotted name of every import in ``tree``, local imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = ".".join(["steercert", *filter(None, [node.module])])
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_module_imports_a_later_layer():
    # The data layer never reaches the solver, and the solver never reaches
    # the set programs built on it.
    package = os.path.dirname(assemblages.__file__)
    modules = {name[:-3] for name in os.listdir(package) if name.endswith(".py")}
    assert modules - {"__init__"} == set(LAYERS)
    for rank, name in enumerate(LAYERS):
        with open(os.path.join(package, f"{name}.py")) as handle:
            tree = ast.parse(handle.read())
        imported = {
            parts[1]
            for parts in (dotted.split(".") for dotted in _imported_names(tree))
            if parts[0] == "steercert" and len(parts) > 1
        }
        later = sorted(imported & set(LAYERS[rank + 1 :]))
        assert not later, f"{name} imports {later}, which come after it"
