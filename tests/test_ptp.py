"""Tests for qubit maps as transfer matrices, dual measurements, Choi matrices,
the pure-member certificate, and the certification rule."""

import numpy as np
import pytest

from steercert import ptp, sdp, steering
from steercert.assemblages import (
    BWI,
    BwiAssemblage,
    ScenarioShape,
    bell_correlations,
    chsh_value,
    instrumental_pauli_assemblage,
    pauli_transpose_assemblage,
    pr_box_assemblage,
    random_quantum_bwi,
)
from steercert.matcore import PAULIS
from steercert.steering import UnsupportedInput

X, Y, Z = PAULIS
EYE = np.eye(2, dtype=complex)
TSIRELSON = 2.0 * np.sqrt(2.0)


def random_effect(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = g @ g.conj().T
    vals, vecs = np.linalg.eigh(h)
    return (vecs * rng.uniform(size=2)) @ vecs.conj().T


def dichotomic_povm(rng):
    effect = random_effect(rng)
    return [effect, EYE - effect]


def random_positive_images(rng):
    """Pauli images of a unital trace-preserving map whose Bloch block has norm 0.9."""
    bloch = rng.normal(size=(3, 3))
    bloch *= 0.9 / np.linalg.norm(bloch, ord=2)
    images = {"I": EYE}
    for j, label in enumerate("XYZ"):
        images[label] = sum(bloch[i, j] * PAULIS[i] for i in range(3))
    return images


class TestMapSpec:
    def test_transfer_must_be_real_4x4(self):
        with pytest.raises(ValueError, match="real 4x4"):
            ptp.QubitMap(np.eye(3))
        with pytest.raises(ValueError, match="real 4x4"):
            ptp.QubitMap(np.eye(4, dtype=complex))

    def test_transfer_must_be_unital(self):
        transfer = np.eye(4)
        transfer[3, 0] = 0.1
        with pytest.raises(ValueError, match="not unital"):
            ptp.QubitMap(transfer)

    def test_transfer_must_be_trace_preserving(self):
        transfer = np.eye(4)
        transfer[0, 3] = 0.1
        with pytest.raises(ValueError, match="not trace-preserving"):
            ptp.QubitMap(transfer)

    def test_transfer_is_read_only(self):
        source = np.eye(4)
        qubit_map = ptp.QubitMap(source)
        source[1, 1] = 0.5
        assert qubit_map.transfer[1, 1] == 1.0
        with pytest.raises(ValueError):
            qubit_map.transfer[1, 1] = 0.5

    def test_images_must_cover_basis(self):
        with pytest.raises(ValueError, match="exactly I, X, Y, Z"):
            ptp.pauli_action({"I": EYE, "X": X})

    def test_identity_image_pinned(self):
        with pytest.raises(ValueError, match="identity to itself"):
            ptp.pauli_action({"I": X, "X": X, "Y": Y, "Z": Z})

    def test_images_must_be_traceless(self):
        with pytest.raises(ValueError, match="traceless"):
            ptp.pauli_action({"I": EYE, "X": X + 0.2 * EYE, "Y": Y, "Z": Z})

    def test_images_must_be_qubit_sized(self):
        with pytest.raises(ValueError, match="2x2"):
            ptp.pauli_action({"I": EYE, "X": np.eye(3), "Y": Y, "Z": Z})


class TestApplyMap:
    def test_pauli_coordinates_expand_any_matrix(self):
        rng = np.random.default_rng(7)
        matrices = rng.normal(size=(3, 2, 2, 2)) + 1j * rng.normal(size=(3, 2, 2, 2))
        coords = ptp.pauli_coordinates(matrices)
        assert coords.shape == (3, 2, 4)
        basis = [EYE, X, Y, Z]
        rebuilt = sum(coords[..., i, None, None] * basis[i] for i in range(4))
        assert np.max(np.abs(rebuilt - matrices)) < 1e-14

    def test_transpose_flips_y_component(self):
        before = 0.25 * (EYE - Y)
        after = ptp.transpose_map()(before)
        assert np.linalg.norm(after - 0.25 * (EYE + Y)) < 1e-14

    def test_identity_returns_copy(self):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        out = ptp.identity_map()(matrix)
        assert np.array_equal(out, matrix)
        out[0, 0] = -5.0
        assert matrix[0, 0] == 1.0

    def test_maps_refuse_a_3x3_input(self):
        with pytest.raises(ValueError, match="2x2"):
            ptp.transpose_map()(np.eye(3))

    def test_pauli_action_is_qubit_only(self):
        spec = ptp.pauli_action({"I": EYE, "X": X, "Y": -Y, "Z": Z})
        with pytest.raises(ValueError, match="2x2"):
            spec(np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            ptp.identity_map()(np.ones((2, 3)))

    def test_pauli_action_matches_transpose(self):
        spec = ptp.pauli_action({"I": EYE, "X": X, "Y": -Y, "Z": Z})
        assert np.array_equal(spec.transfer, ptp.transpose_map().transfer)
        rng = np.random.default_rng(11)
        for _ in range(10):
            matrix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.linalg.norm(spec(matrix) - matrix.T) < 1e-13


class TestPositivity:
    def test_transpose_transfer_is_y_flip(self):
        basis = [EYE, X, Y, Z]
        definition = np.array(
            [[np.trace(p @ q.T).real / 2.0 for q in basis] for p in basis]
        )
        assert np.linalg.norm(definition - np.diag([1.0, 1.0, -1.0, 1.0])) < 1e-14
        assert np.linalg.norm(ptp.transpose_map().transfer - definition) < 1e-14

    def test_transpose_is_positive(self):
        assert ptp.transpose_map().is_positive()

    def test_duplicate_images_overstretch_the_ball(self):
        spec = ptp.pauli_action({"I": EYE, "X": X, "Y": X, "Z": Z})
        norm = np.linalg.norm(spec.transfer[1:, 1:], ord=2)
        assert norm == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert not spec.is_positive()

    def test_shrinking_map_is_positive(self):
        spec = ptp.pauli_action({"I": EYE, "X": 0.6 * X, "Y": -0.5 * Y, "Z": 0.7 * Z})
        assert spec.is_positive()


class TestDual:
    def test_transpose_fixes_computational_basis(self):
        povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        dual = ptp.dual_povm(ptp.transpose_map(), povm)
        assert max(np.linalg.norm(a - b) for a, b in zip(povm, dual)) < 1e-14

    def test_transpose_swaps_y_basis(self):
        povm = [0.5 * (EYE + Y), 0.5 * (EYE - Y)]
        dual = ptp.dual_povm(ptp.transpose_map(), povm)
        assert np.linalg.norm(dual[0] - povm[1]) < 1e-14
        assert np.linalg.norm(dual[1] - povm[0]) < 1e-14

    def test_duality_identity(self):
        spec = ptp.pauli_action({"I": EYE, "X": 0.6 * X + 0.2 * Z, "Y": -0.5 * Y, "Z": 0.7 * Z})
        dual = spec.dual()
        assert np.array_equal(dual.transfer, spec.transfer.T)
        rng = np.random.default_rng(23)
        for _ in range(20):
            effect = random_effect(rng)
            state = random_effect(rng)
            state = state / np.trace(state)
            forward = np.trace(effect @ spec(state))
            pulled = np.trace(dual(effect) @ state)
            assert abs(forward - pulled) < 1e-12

    def test_input_povm_is_validated(self):
        cases = [
            ([-X @ X, EYE], "input: effect 0 is not positive"),
            ([EYE, EYE], "input: effects do not sum to the identity"),
            ([[EYE, 0 * EYE], [EYE, -X @ X], [EYE, EYE]], "at index 1: effect 1 is not positive"),
            ([[EYE, 0 * EYE], [0 * EYE, EYE], [EYE, EYE]], "at index 2: effects do not sum to the identity"),
        ]
        for effects, message in cases:
            with pytest.raises(ValueError, match=message):
                ptp.dual_povm(ptp.transpose_map(), effects)

    def test_dual_output_is_a_povm(self):
        spec = ptp.pauli_action({"I": EYE, "X": 0.6 * X, "Y": -0.5 * Y, "Z": 0.7 * Z})
        rng = np.random.default_rng(29)
        stack = np.array([dichotomic_povm(rng) for _ in range(7)])
        duals = ptp.dual_povm(spec, stack)
        for povm, dual in zip(stack, duals):
            assert np.max(np.abs(ptp.dual_povm(spec, povm) - dual)) <= 1e-15
            assert np.linalg.norm(sum(dual) - EYE) < 1e-9
            for effect in dual:
                assert np.linalg.eigvalsh(effect).min() > -1e-9


class TestChoi:
    def test_transpose_choi_has_negative_eigenvalue(self):
        result = ptp.choi(ptp.transpose_map())
        assert result.matrix.shape == (4, 4)
        assert result.min_eigenvalue() == pytest.approx(-1.0, abs=1e-12)
        assert not result.is_positive()
        assert result.trace_residual() < 1e-12
        assert result.trace_preservation_residual() < 1e-12

    def test_pauli_form_of_transpose_matches(self):
        spec = ptp.pauli_action({"I": EYE, "X": X, "Y": -Y, "Z": Z})
        direct = ptp.choi(ptp.transpose_map())
        assert np.linalg.norm(ptp.choi(spec).matrix - direct.matrix) < 1e-12

    def test_identity_choi_is_positive(self):
        result = ptp.choi(ptp.identity_map())
        assert result.is_positive()
        assert result.trace_residual() < 1e-12

    @pytest.mark.parametrize("name", ["identity", "transpose", "random-positive"])
    def test_choi_matches_the_definition(self, name):
        if name == "identity":
            qubit_map, action = ptp.identity_map(), lambda m: m
        elif name == "transpose":
            qubit_map, action = ptp.transpose_map(), lambda m: m.T
        else:
            images = random_positive_images(np.random.default_rng(37))
            qubit_map = ptp.pauli_action(images)
            assert qubit_map.is_positive()

            def action(m):
                basis = zip("IXYZ", [EYE, X, Y, Z])
                return sum(np.trace(p @ m) / 2.0 * images[k] for k, p in basis)

        definition = np.zeros((4, 4), dtype=complex)
        for k in range(2):
            for l in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[k, l] = 1.0
                definition += np.kron(action(unit), unit)
        assert np.max(np.abs(ptp.choi(qubit_map).matrix - definition)) < 1e-14


class TestBellModel:
    def test_model_reproduces_example_assemblage(self):
        induced = ptp.model_assemblage(ptp.transpose_bell_spec())
        example = pauli_transpose_assemblage()
        for a in range(2):
            for x in range(3):
                for y in range(2):
                    gap = np.linalg.norm(induced.member(a, x, y) - example.member(a, x, y))
                    assert gap < 1e-12

    def test_dual_path_equals_direct_path(self):
        spec = ptp.transpose_bell_spec()
        bases = [
            [0.5 * (EYE + X), 0.5 * (EYE - X)],
            [0.5 * (EYE + Y), 0.5 * (EYE - Y)],
        ]
        result = ptp.ptp_bell_model(spec, bases)
        assert result.table.shape == (2, 2, 3, 2, 2)
        assert np.max(np.abs(result.table.sum(axis=(0, 1)) - 1.0)) < 1e-12
        for z, effects in enumerate(bases):
            direct = bell_correlations(result.assemblage, [effects, effects])
            assert np.max(np.abs(result.table[:, :, :, :, z] - direct)) < 1e-10

    def test_non_positive_map_rejected(self):
        base = ptp.transpose_bell_spec()
        bad = ptp.pauli_action({"I": EYE, "X": X, "Y": X, "Z": Z})
        spec = ptp.PtpModelSpec(state=base.state, povms=base.povms, maps=[ptp.identity_map(), bad])
        povm = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        with pytest.raises(ValueError, match="not positive"):
            ptp.ptp_bell_model(spec, [povm])

    def test_each_trusted_measurement_is_checked_once(self, monkeypatch):
        calls = []
        check = ptp.check_povm

        def counting(effects, context):
            calls.append(context)
            return check(effects, context)

        spec = ptp.transpose_bell_spec()
        monkeypatch.setattr(ptp, "check_povm", counting)
        bases = [[0.5 * (EYE + X), 0.5 * (EYE - X)], [0.5 * (EYE + Y), 0.5 * (EYE - Y)]]
        ptp.ptp_bell_model(spec, bases)
        assert calls == ["trusted measurement 0", "trusted measurement 1"]

    def test_malformed_trusted_measurement_rejected(self):
        spec = ptp.transpose_bell_spec()
        with pytest.raises(ValueError, match="sum to the identity"):
            ptp.ptp_bell_model(spec, [[EYE, EYE]])
        with pytest.raises(ValueError, match="same outcome count"):
            ptp.ptp_bell_model(spec, [[EYE, 0 * EYE], [EYE]])

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"povms": [[EYE, EYE]] * 3}, "untrusted measurement 0: effects do not sum"),
            ({"state": 2.0 * ptp.transpose_bell_spec().state}, "state has trace 2"),
            ({"state": np.diag([1.5, -0.5, 0.0, 0.0])}, "state is not positive"),
            ({"state": np.triu(np.ones((4, 4))) / 4.0}, "not Hermitian"),
            ({"state": np.ones((4, 2)) / 4.0}, "square"),
            ({"state": np.eye(6) / 6.0}, r"state side 6 is not 2 x 2 \(untrusted x qubit\)"),
        ],
    )
    def test_bad_spec_rejected(self, change, message):
        base = ptp.transpose_bell_spec()
        fields = {"state": base.state, "povms": base.povms, "maps": base.maps, **change}
        with pytest.raises(ValueError, match=message):
            ptp.PtpModelSpec(**fields)

    def test_stacked_effects_match_each_item(self):
        spec = ptp.transpose_bell_spec()
        rng = np.random.default_rng(43)
        stack = np.array([[dichotomic_povm(rng) for _ in range(2)] for _ in range(7)])
        result = ptp.ptp_bell_model(spec, stack)
        assert result.table.shape == (7, 2, 2, 3, 2, 2)
        for i, pair in enumerate(stack):
            single = ptp.ptp_bell_model(spec, pair)
            assert np.max(np.abs(result.table[i] - single.table)) <= 1e-15
            assert np.max(np.abs(result.witness_povms[i] - single.witness_povms)) <= 1e-15
            values = chsh_value(ptp.chsh_subtables(single.table))
            assert np.max(np.abs(chsh_value(ptp.chsh_subtables(result.table))[i] - values)) <= 1e-15

    def test_chsh_subtables_pair_distinct_inputs_and_settings(self):
        table = np.random.default_rng(47).uniform(size=(2, 2, 3, 2, 2))
        settings = [(y, z) for y in range(2) for z in range(2)]
        expected = [
            np.stack([np.stack([table[:, :, x, y, z] for y, z in (s1, s2)], -1) for x in (x1, x2)], -2)
            for x1 in range(3) for x2 in range(3) if x1 != x2
            for s1 in settings for s2 in settings if s1 != s2
        ]
        assert np.array_equal(ptp.chsh_subtables(table), np.array(expected))

    def test_sampled_tables_respect_the_quantum_ceiling(self):
        spec = ptp.transpose_bell_spec()
        induced = ptp.model_assemblage(spec)
        rng = np.random.default_rng(31)
        pairs = np.array([[dichotomic_povm(rng) for _ in range(2)] for _ in range(60)])
        result = ptp.ptp_bell_model(spec, pairs)
        direct = bell_correlations(induced, np.repeat(pairs[:, :, None], 2, axis=2))
        assert np.max(np.abs(result.table - np.moveaxis(direct, 1, -1))) < 1e-10
        worst = np.max(np.abs(chsh_value(ptp.chsh_subtables(result.table))))
        assert worst <= TSIRELSON + 1e-6


class TestPureStateCertificate:
    def test_example_is_certified_post_quantum(self):
        report = ptp.pure_state_lemma_check(pauli_transpose_assemblage(), y_ref=1)
        assert report.status == ptp.POST_QUANTUM
        assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-9)
        qubit_map = report.maps[0]
        assert np.linalg.norm(qubit_map(X) - X) < 1e-10
        assert np.linalg.norm(qubit_map(Y) + Y) < 1e-10
        assert np.linalg.norm(qubit_map(Z) - Z) < 1e-10

    def test_certificate_is_reference_independent_here(self):
        report = ptp.pure_state_lemma_check(pauli_transpose_assemblage(), y_ref=0)
        assert report.status == ptp.POST_QUANTUM
        assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-9)

    def test_input_independent_members_give_no_certificate(self):
        example = pauli_transpose_assemblage()
        members = {
            (a, x, y): example.member(a, x, 0)
            for a in range(2)
            for x in range(3)
            for y in range(2)
        }
        flat = BwiAssemblage(shape=example.shape, members=members)
        report = ptp.pure_state_lemma_check(flat, y_ref=0)
        assert report.status == ptp.NO_CERTIFICATE
        assert report.min_eigenvalue > -1e-9

    def test_unitary_rotation_gives_no_certificate(self):
        example = pauli_transpose_assemblage()
        theta = 0.3
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        members = {}
        for a in range(2):
            for x in range(3):
                base = example.member(a, x, 0)
                members[(a, x, 0)] = base
                members[(a, x, 1)] = u @ base @ u.conj().T
        rotated = BwiAssemblage(shape=example.shape, members=members)
        report = ptp.pure_state_lemma_check(rotated, y_ref=0)
        assert report.status == ptp.NO_CERTIFICATE

    def test_deficient_span_is_reported_not_guessed(self):
        members = {}
        for a in range(2):
            projector = 0.5 * np.diag([1.0 - a, float(a)]).astype(complex)
            for y in range(2):
                members[(a, 0, y)] = projector
        shape = ScenarioShape(n_a=2, m_a=1, m_b=2, d=2, kind=BWI)
        report = ptp.pure_state_lemma_check(BwiAssemblage(shape=shape, members=members))
        assert report.status == ptp.INCONCLUSIVE
        assert "span" in report.note

    def test_mixed_reference_members_rejected(self):
        shape = ScenarioShape(n_a=2, m_a=2, m_b=2, d=2, kind=BWI)
        mixed = random_quantum_bwi(shape, seed=3)
        with pytest.raises(ValueError, match="pure"):
            ptp.pure_state_lemma_check(mixed, y_ref=0)

    def test_qubit_members_required(self):
        shape = ScenarioShape(n_a=2, m_a=2, m_b=2, d=3, kind=BWI)
        with pytest.raises(ValueError, match="qubit"):
            ptp.pure_state_lemma_check(random_quantum_bwi(shape, seed=1))

    def test_reference_input_range_checked(self):
        with pytest.raises(ValueError, match="outside range"):
            ptp.pure_state_lemma_check(pauli_transpose_assemblage(), y_ref=5)


class TestCertify:
    def test_transpose_example_is_certified_by_relaxation_and_choi(self):
        found = ptp.certify(pauli_transpose_assemblage())
        assert found.classification == ptp.POST_QUANTUM
        assert {entry["kind"] for entry in found.certificates} == {"qtilde-infeasible", "choi"}
        assert list(found.memberships) == ["lhs", "qtilde"]

    def test_box_is_certified_by_its_statistics_alone(self):
        found = ptp.certify(pr_box_assemblage())
        assert found.classification == ptp.POST_QUANTUM
        assert [entry["kind"] for entry in found.certificates] == ["bell-violation"]
        assert found.memberships["qtilde"].verdict == sdp.INSIDE
        assert found.checks["bell"]["chsh"] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("m_a, seed", [(2, 63), (3, 18), (3, 63), (3, 78), (3, 85)])
    def test_steerable_quantum_samples_have_no_certificate(self, m_a, seed):
        # Quantum samples outside the hidden-state set, at margins -1.1e-3 to
        # -6.8e-3, and inside the relaxation at +1.6e-3 to +5.8e-3.
        found = ptp.certify(random_quantum_bwi(ScenarioShape(2, m_a, 2, 2, BWI), seed=seed))
        assert found.classification == ptp.STEERABLE
        assert found.certificates == []
        assert found.memberships["lhs"].verdict == sdp.OUTSIDE
        assert found.memberships["qtilde"].verdict == sdp.INSIDE
        assert abs(found.checks["bell"]["chsh"]) <= TSIRELSON

    @pytest.mark.parametrize(
        "status, margin", [(sdp.MAX_ITERATIONS, np.nan), (sdp.OPTIMAL, -1e-7)]
    )
    def test_undecided_hidden_state_runs_no_relaxation(self, monkeypatch, status, margin):
        # An unfinished solve, or a margin outside by more than tol but not by
        # DECISIVE_MARGIN, decides nothing.
        problem = sdp.SdpProblem(block_dims=(1,), c=np.zeros(1), a=np.zeros((0, 1)), b=[])
        unfinished = sdp.MembershipReport(margin=margin, status=status, residuals={}, problem=problem)

        def relaxation(asm, tol=1e-8):
            raise AssertionError("the relaxation ran after an undecided hidden-state verdict")

        monkeypatch.setattr(steering, "lhs_membership", lambda asm, tol=1e-8: unfinished)
        monkeypatch.setattr(steering, "qtilde_membership", relaxation)
        found = ptp.certify(pr_box_assemblage())
        assert found.classification == sdp.UNDECIDED
        assert found.memberships == {"lhs": unfinished}
        assert found.certificates == []
        assert found.note.startswith("hidden-state membership") and "no verdict" in found.note

    def test_input_without_a_trusted_input_is_unsupported(self):
        with pytest.raises(UnsupportedInput, match="trusted input"):
            ptp.certify(instrumental_pauli_assemblage())

    def test_signalling_input_is_unsupported(self):
        asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2, BWI), seed=7)
        members = dict(asm.members)
        members[(0, 1, 0)] = members[(0, 1, 0)] + 3e-9 * np.diag([1.0, -1.0])
        with pytest.raises(UnsupportedInput, match="no-signalling: state_consistency"):
            ptp.certify(BwiAssemblage(asm.shape, members))
