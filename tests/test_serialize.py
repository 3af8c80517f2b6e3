"""Tests for the JSON forms: lossless roundtrips and informative rejections."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steercert import serialize
from steercert.assemblages import (
    BWI,
    INSTRUMENTAL,
    SEQUENTIAL,
    TRADITIONAL,
    BwiAssemblage,
    InstrumentalAssemblage,
    ScenarioShape,
    SequentialAssemblage,
    SequentialShape,
    TraditionalAssemblage,
    instrumental_pauli_assemblage,
    pauli_transpose_assemblage,
    pr_box_assemblage,
    random_ns_sequential,
    random_ns_traditional,
    random_quantum_bwi,
)
from steercert.ghjw import ghjw_sequential, ghjw_traditional
from steercert.steering import (
    InstrumentalFunctional,
    SteeringFunctional,
    canonical_functional,
    canonical_instrumental_functional,
)

TRAD_SHAPE = ScenarioShape(n_a=2, m_a=3, m_b=1, d=2, kind=TRADITIONAL)
SEQ_SHAPE = SequentialShape(n_a1=2, m_x1=2, n_a2=2, m_x2=2, d=2)


def through_text(document):
    return json.loads(json.dumps(document))


def assert_members_equal(first, second):
    assert type(first) is type(second)
    assert first.shape == second.shape
    for key, matrix in first.members.items():
        assert np.array_equal(matrix, second.members[key])


class TestAssemblageRoundtrip:
    @pytest.mark.parametrize(
        "factory",
        [
            pr_box_assemblage,
            pauli_transpose_assemblage,
            instrumental_pauli_assemblage,
            lambda: random_ns_traditional(TRAD_SHAPE, seed=4),
            lambda: random_ns_sequential(SEQ_SHAPE, seed=4),
        ],
    )
    def test_bitwise_roundtrip(self, factory):
        asm = factory()
        data = through_text(serialize.assemblage_to_json(asm))
        assert_members_equal(asm, serialize.assemblage_from_json(data))

    def test_scenario_block_names_the_kind(self):
        data = serialize.assemblage_to_json(pr_box_assemblage())
        assert data["scenario"] == {"kind": BWI, "n_a": 2, "m_a": 2, "m_b": 2, "d": 2}
        assert set(data["members"]) == {
            f"{a}|{x},{y}" for a in range(2) for x in range(2) for y in range(2)
        }

    def test_sequential_scenario_block(self):
        data = serialize.assemblage_to_json(random_ns_sequential(SEQ_SHAPE, seed=1))
        assert data["scenario"]["kind"] == "sequential"
        assert "1,0|0,1" in data["members"]

    def test_complex_entries_are_pairs(self):
        data = serialize.assemblage_to_json(pauli_transpose_assemblage())
        entry = data["members"]["0|1,0"][0][1]
        assert entry == [0.0, -0.25]


RANGE = st.integers(min_value=1, max_value=3)
SEQUENTIAL_RANGE = st.integers(min_value=1, max_value=2)

SINGLE_ROUND_SHAPES = st.one_of(
    st.builds(ScenarioShape, RANGE, RANGE, RANGE, RANGE),
    st.builds(lambda n_a, m_a, d: ScenarioShape(n_a, m_a, 1, d, TRADITIONAL), RANGE, RANGE, RANGE),
    st.builds(
        lambda n_a, m_a, d: ScenarioShape(n_a, m_a, n_a, d, INSTRUMENTAL), RANGE, RANGE, RANGE
    ),
)
SHAPES = st.one_of(
    SINGLE_ROUND_SHAPES,
    st.builds(SequentialShape, *[SEQUENTIAL_RANGE] * 4, RANGE),
)

CONTAINERS = {
    BWI: BwiAssemblage,
    TRADITIONAL: TraditionalAssemblage,
    SEQUENTIAL: SequentialAssemblage,
    INSTRUMENTAL: InstrumentalAssemblage,
}


def expected_table(shape):
    """Label to key of every member, written out per kind."""
    if shape.kind == SEQUENTIAL:
        return {
            f"{a1},{a2}|{x1},{x2}": (a1, a2, x1, x2)
            for a1 in range(shape.n_a1)
            for a2 in range(shape.n_a2)
            for x1 in range(shape.m_x1)
            for x2 in range(shape.m_x2)
        }
    if shape.kind == BWI:
        return {
            f"{a}|{x},{y}": (a, x, y)
            for a in range(shape.n_a)
            for x in range(shape.m_a)
            for y in range(shape.m_b)
        }
    if shape.kind == TRADITIONAL:
        return {f"{a}|{x}": (a, x, 0) for a in range(shape.n_a) for x in range(shape.m_a)}
    return {f"{a}|{x}": (a, x) for a in range(shape.n_a) for x in range(shape.m_a)}


def random_matrices(keys, d, seed, hermitian=False):
    rng = np.random.default_rng(seed)
    out = {}
    for key in keys:
        matrix = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        out[key] = matrix + matrix.conj().T if hermitian else matrix
    return out


def assert_rejects_bad_tables(make, table, d):
    """A missing member, a stray key, or a member of the wrong side raises."""
    keys = list(table)
    missing = dict(table)
    del missing[keys[-1]]
    stray = dict(table)
    stray[(9,) * len(keys[0])] = table[keys[0]]
    wrong_side = dict(table)
    wrong_side[keys[0]] = np.eye(d + 1)
    for bad in (missing, stray, wrong_side):
        with pytest.raises(ValueError):
            make(bad)


class TestKeyScheme:
    @settings(max_examples=60, deadline=None)
    @given(SHAPES, st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_assemblage_kind_roundtrips_under_its_labels(self, shape, seed):
        container = CONTAINERS[shape.kind]
        labels = expected_table(shape)
        members = random_matrices(labels.values(), shape.d, seed)
        asm = container(shape=shape, members=members)
        data = serialize.assemblage_to_json(asm)
        assert set(data["members"]) == set(labels)
        for label, key in labels.items():
            assert np.array_equal(serialize.matrix_from_json(data["members"][label]), members[key])
        assert_members_equal(asm, serialize.assemblage_from_json(through_text(data)))
        assert_rejects_bad_tables(
            lambda table: container(shape=shape, members=table), members, shape.d
        )
        label = next(iter(labels))
        missing, stray = through_text(data), through_text(data)
        del missing["members"][label]
        stray["members"][label.replace("0", "9", 1)] = data["members"][label]
        for bad in (missing, stray):
            with pytest.raises(ValueError):
                serialize.assemblage_from_json(bad)

    @settings(max_examples=60, deadline=None)
    @given(SINGLE_ROUND_SHAPES, st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_functional_kind_roundtrips_under_its_labels(self, shape, seed):
        wired = shape.kind == INSTRUMENTAL
        functional_type = InstrumentalFunctional if wired else SteeringFunctional
        keys = list(expected_table(shape).values())
        if shape.kind == TRADITIONAL:
            labels = {f"{a},{x},0": (a, x, 0) for a, x, _ in keys}
        else:
            labels = {",".join(map(str, key)): key for key in keys}
        coeffs = random_matrices(keys, shape.d, seed, hermitian=True)
        functional = functional_type(shape=shape, coeffs=coeffs)
        data = serialize.functional_to_json(functional)
        assert set(data["coefficients"]) == set(labels)
        back = serialize.functional_from_json(through_text(data))
        assert type(back) is functional_type
        assert back.shape == shape
        for key in keys:
            assert np.array_equal(back.coeffs[key], coeffs[key])
        assert_rejects_bad_tables(
            lambda table: functional_type(shape=shape, coeffs=table), coeffs, shape.d
        )

    def test_traditional_shaped_bwi_assemblage_roundtrips(self):
        asm = random_quantum_bwi(ScenarioShape(2, 2, 1, 2, TRADITIONAL), 0)
        data = through_text(serialize.assemblage_to_json(asm))
        assert set(data["members"]) == {"0|0", "0|1", "1|0", "1|1"}
        back = serialize.assemblage_from_json(data)
        assert isinstance(back, TraditionalAssemblage)
        assert back.shape == asm.shape
        for key, matrix in asm.members.items():
            assert np.array_equal(back.members[key], matrix)


class TestAssemblageRejections:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            serialize.assemblage_from_json({"scenario": {"kind": "startrek"}})

    def test_missing_scenario(self):
        with pytest.raises(ValueError, match="missing scenario"):
            serialize.assemblage_from_json({"members": {}})

    def test_missing_scenario_fields(self):
        with pytest.raises(ValueError, match="missing keys"):
            serialize.assemblage_from_json({"scenario": {"kind": BWI, "n_a": 2}})

    def test_non_integer_range(self):
        scenario = {"kind": BWI, "n_a": 2.5, "m_a": 2, "m_b": 2, "d": 2}
        with pytest.raises(ValueError, match="must be an integer"):
            serialize.assemblage_from_json({"scenario": scenario, "members": {}})

    def test_member_key_arity(self):
        data = serialize.assemblage_to_json(pr_box_assemblage())
        data["members"]["0|0"] = data["members"].pop("0|0,0")
        with pytest.raises(ValueError, match="comma-separated"):
            serialize.assemblage_from_json(data)

    def test_member_key_needs_separator(self):
        data = serialize.assemblage_to_json(instrumental_pauli_assemblage())
        data["members"]["0,0"] = data["members"].pop("0|0")
        with pytest.raises(ValueError, match="'[|]' separator"):
            serialize.assemblage_from_json(data)

    def test_incomplete_members_fail_container_check(self):
        data = serialize.assemblage_to_json(pr_box_assemblage())
        del data["members"]["0|0,0"]
        with pytest.raises(ValueError, match="do not match the scenario shape"):
            serialize.assemblage_from_json(data)

    def test_ragged_matrix(self):
        data = serialize.assemblage_to_json(instrumental_pauli_assemblage())
        data["members"]["0|0"][1] = data["members"]["0|0"][1][:1]
        with pytest.raises(ValueError, match="length"):
            serialize.assemblage_from_json(data)

    def test_bad_complex_pair(self):
        data = serialize.assemblage_to_json(instrumental_pauli_assemblage())
        data["members"]["0|0"][0][0] = [1.0]
        with pytest.raises(ValueError, match="pair"):
            serialize.assemblage_from_json(data)

    def test_non_numeric_pair(self):
        data = serialize.assemblage_to_json(instrumental_pauli_assemblage())
        data["members"]["0|0"][0][0] = ["one", 0.0]
        with pytest.raises(ValueError, match="numbers"):
            serialize.assemblage_from_json(data)


class TestFunctionalRoundtrip:
    def test_steering_functional(self):
        functional = canonical_functional()
        data = through_text(serialize.functional_to_json(functional))
        back = serialize.functional_from_json(data)
        assert back.shape == functional.shape
        for key, matrix in functional.coeffs.items():
            assert np.array_equal(matrix, back.coeffs[key])

    def test_instrumental_functional(self):
        functional = canonical_instrumental_functional()
        data = through_text(serialize.functional_to_json(functional))
        back = serialize.functional_from_json(data)
        assert back.shape == functional.shape
        for key, matrix in functional.coeffs.items():
            assert np.array_equal(matrix, back.coeffs[key])

    def test_coefficient_keys(self):
        data = serialize.functional_to_json(canonical_functional())
        assert "1,2,0" in data["coefficients"]
        data = serialize.functional_to_json(canonical_instrumental_functional())
        assert "1,2" in data["coefficients"]

    def test_sequential_scenarios_rejected(self):
        scenario = serialize.scenario_to_json(SEQ_SHAPE)
        with pytest.raises(ValueError, match="not supported"):
            serialize.functional_from_json({"scenario": scenario, "coefficients": {"0,0,0": [[[1.0, 0.0]]]}})

    def test_missing_coefficients(self):
        scenario = serialize.scenario_to_json(canonical_functional().shape)
        with pytest.raises(ValueError, match="coefficients"):
            serialize.functional_from_json({"scenario": scenario})


class TestRealizationRoundtrip:
    def test_traditional(self):
        realization = ghjw_traditional(random_ns_traditional(TRAD_SHAPE, seed=9))
        data = through_text(serialize.realization_to_json(realization))
        back = serialize.realization_from_json(data)
        assert back.d == realization.d
        assert np.array_equal(back.state, realization.state)
        for x, effects in realization.povms.items():
            for effect, copy in zip(effects, back.povms[x]):
                assert np.array_equal(effect, copy)

    def test_sequential(self):
        realization = ghjw_sequential(random_ns_sequential(SEQ_SHAPE, seed=9))
        data = through_text(serialize.realization_to_json(realization))
        back = serialize.realization_from_json(data)
        assert np.array_equal(back.state, realization.state)
        for x1, elements in realization.kraus.items():
            for element, copy in zip(elements, back.kraus[x1]):
                assert np.array_equal(element, copy)
        for key, effects in realization.povms.items():
            for effect, copy in zip(effects, back.povms[key]):
                assert np.array_equal(effect, copy)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            serialize.realization_from_json({"kind": "holographic"})

    def test_missing_fields(self):
        with pytest.raises(ValueError, match="missing keys"):
            serialize.realization_from_json({"kind": "traditional", "d": 2})
