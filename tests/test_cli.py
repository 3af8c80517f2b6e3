"""Tests for the command-line front end: exit codes, report documents, and the
certification chain."""

import json

import numpy as np
import pytest

from steercert import cli, sdp, serialize
from steercert.assemblages import (
    BWI,
    TRADITIONAL,
    BwiAssemblage,
    MembershipReport,
    ScenarioShape,
    SequentialShape,
    pauli_transpose_assemblage,
    random_ns_sequential,
    random_ns_traditional,
    random_quantum_bwi,
)
from steercert.ghjw import reconstruct_sequential, reconstruct_traditional
from steercert.matcore import PAULIS
from steercert.steering import SolverFailure


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def write_assemblage(path, asm):
    path.write_text(json.dumps(serialize.assemblage_to_json(asm)))
    return str(path)


@pytest.fixture
def traditional_file(tmp_path):
    shape = ScenarioShape(n_a=2, m_a=3, m_b=1, d=2, kind=TRADITIONAL)
    return write_assemblage(tmp_path / "trad.json", random_ns_traditional(shape, seed=4))


@pytest.fixture
def sequential_file(tmp_path):
    shape = SequentialShape(n_a1=2, m_x1=2, n_a2=2, m_x2=2, d=2)
    return write_assemblage(tmp_path / "seq.json", random_ns_sequential(shape, seed=4))


@pytest.fixture
def signalling_file(tmp_path):
    data = serialize.assemblage_to_json(pauli_transpose_assemblage())
    matrix = serialize.matrix_from_json(data["members"]["0|0,1"])
    data["members"]["0|0,1"] = serialize.matrix_to_json(1.2 * matrix)
    path = tmp_path / "signalling.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestValidate:
    def test_builtin_passes(self, capsys):
        code, doc, err = run_json(capsys, "validate", "builtin:pr-box")
        assert code == 0
        assert doc["results"]["passed"] is True
        assert doc["results"]["scenario"] == "bwi"
        assert doc["inputs"]["builtin:pr-box"] == "builtin"

    def test_instrumental_builtin(self, capsys):
        code, doc, _ = run_json(
            capsys, "validate", "builtin:instrumental-pauli", "--scenario", "instrumental"
        )
        assert code == 0
        assert doc["results"]["passed"] is True

    def test_signalling_input_fails(self, capsys, signalling_file):
        code, doc, _ = run_json(capsys, "validate", signalling_file)
        assert code == 1
        assert doc["results"]["passed"] is False
        assert any("state_consistency" in line for line in doc["results"]["violations"])
        assert doc["inputs"][signalling_file].startswith("sha256:")

    def test_malformed_json_reports_byte_offset(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": {"kind": "bwi",')
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "byte" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/asm.json")
        assert code == 2
        assert "cannot read" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "validate", "builtin:unicorn")
        assert code == 2
        assert "available" in err

    def test_scenario_mismatch(self, capsys):
        code, _, err = run(capsys, "validate", "builtin:pr-box", "--scenario", "sequential")
        assert code == 2
        assert "not sequential" in err

    def test_loose_tolerance_admits_noise(self, capsys, signalling_file):
        code, doc, _ = run_json(capsys, "validate", signalling_file, "--tol", "0.5")
        assert code == 0
        assert doc["results"]["passed"] is True


class TestBounds:
    def test_hidden_state_bound(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "builtin:canonical", "--which", "lhs")
        assert code == 0
        assert doc["results"]["value"] == pytest.approx(1.2679491924, abs=1e-6)
        assert doc["residuals"]["witness_gap"] < 1e-8
        assert doc["solver"][0]["status"] == "optimal"

    def test_relaxation_bound(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "builtin:canonical", "--which", "qtilde")
        assert code == 0
        assert doc["results"]["value"] == pytest.approx(0.413493597568, abs=1e-6)
        assert doc["results"]["embedded_side"] == 48
        assert max(doc["residuals"].values()) < 1e-6

    def test_no_signalling_bound(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "builtin:canonical", "--which", "ns")
        assert code == 0
        assert abs(doc["results"]["value"]) < 1e-6

    def test_wired_relaxation_bound(self, capsys):
        code, doc, _ = run_json(
            capsys, "bounds", "builtin:canonical", "--which", "qtilde-instrumental"
        )
        assert code == 0
        assert abs(doc["results"]["value"]) < 1e-6

    def test_functional_file(self, capsys, tmp_path):
        from steercert.steering import canonical_functional

        path = tmp_path / "functional.json"
        path.write_text(json.dumps(serialize.functional_to_json(canonical_functional())))
        code, doc, _ = run_json(capsys, "bounds", str(path), "--which", "lhs")
        assert code == 0
        assert doc["results"]["value"] == pytest.approx(1.2679491924, abs=1e-6)

    def test_assemblage_file_is_input_error(self, capsys, traditional_file):
        code, _, err = run(capsys, "bounds", traditional_file, "--which", "lhs")
        assert code == 2
        assert "coefficients" in err

    def test_solver_trouble_is_exit_three(self, capsys, monkeypatch):
        def explode(functional, **kwargs):
            raise SolverFailure("did not converge")

        monkeypatch.setattr(cli, "lhs_bound", explode)
        code, _, err = run(capsys, "bounds", "builtin:canonical", "--which", "lhs")
        assert code == 3
        assert "did not converge" in err


class TestCertify:
    def test_transpose_example_has_both_certificates(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "builtin:pauli-transpose")
        assert code == 0
        results = doc["results"]
        assert results["classification"] == "post-quantum"
        kinds = {entry["kind"] for entry in results["certificates"]}
        assert kinds == {"qtilde-infeasible", "choi"}
        assert results["memberships"]["lhs"]["feasible"] is False
        assert results["memberships"]["qtilde"]["margin"] < -1e-3
        choi_cert = next(e for e in results["certificates"] if e["kind"] == "choi")
        assert choi_cert["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-6)

    def test_box_is_certified_by_its_statistics(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "builtin:pr-box")
        assert code == 0
        results = doc["results"]
        assert results["classification"] == "post-quantum"
        kinds = [entry["kind"] for entry in results["certificates"]]
        assert kinds == ["bell-violation"]
        assert results["bell"]["chsh"] == pytest.approx(4.0, abs=1e-12)
        assert results["memberships"]["qtilde"]["feasible"] is True
        table = np.array(results["bell"]["table"])
        assert table.shape == (2, 2, 2, 2)

    def test_unsteerable_sample_is_classified_lhs(self, capsys, tmp_path):
        shape = ScenarioShape(n_a=2, m_a=2, m_b=2, d=2, kind=BWI)
        path = write_assemblage(tmp_path / "q.json", random_quantum_bwi(shape, seed=7))
        code, doc, _ = run_json(capsys, "certify", path)
        assert code == 0
        assert doc["results"]["classification"] == "LHS"
        assert doc["results"]["certificates"] == []

    def test_steerable_quantum_sample_stays_unflagged(self, capsys, tmp_path):
        members = {}
        for a in range(2):
            for x, pauli in enumerate(PAULIS):
                member = 0.25 * (np.eye(2) + (-1.0) ** a * pauli)
                for y in range(2):
                    members[(a, x, y)] = member
        shape = ScenarioShape(n_a=2, m_a=3, m_b=2, d=2, kind=BWI)
        path = write_assemblage(
            tmp_path / "steer.json", BwiAssemblage(shape=shape, members=members)
        )
        code, doc, _ = run_json(capsys, "certify", path)
        assert code == 0
        results = doc["results"]
        assert results["classification"] == "steerable-possibly-quantum"
        assert results["certificates"] == []
        assert results["memberships"]["lhs"]["feasible"] is False
        # This quantum assemblage sits on the relaxation boundary, so its
        # membership margin is zero up to solver accuracy.
        assert results["memberships"]["qtilde"]["margin"] > -1e-6
        assert results["choi_check"] == "no-certificate"

    def test_signalling_input_rejected(self, capsys, signalling_file):
        code, _, err = run(capsys, "certify", signalling_file)
        assert code == 2
        assert "no-signalling" in err

    def test_instrumental_input_rejected(self, capsys):
        code, _, err = run(capsys, "certify", "builtin:instrumental-pauli")
        assert code == 2
        assert "trusted input" in err

    def test_solver_log_reports_the_membership_status(self, capsys, monkeypatch):
        def unconverged(status):
            def membership(asm, tol=1e-8):
                return MembershipReport(
                    feasible=False, margin=np.nan, status=status, residuals={}, problem=None
                )

            return membership

        monkeypatch.setattr(cli, "lhs_membership", unconverged(sdp.MAX_ITERATIONS))
        monkeypatch.setattr(cli, "qtilde_membership", unconverged(sdp.NUMERICAL_TROUBLE))
        _, doc, _ = run_json(capsys, "certify", "builtin:pr-box")
        assert [(entry["context"], entry["status"]) for entry in doc["solver"]] == [
            ("hidden-state membership", sdp.MAX_ITERATIONS),
            ("relaxation membership", sdp.NUMERICAL_TROUBLE),
        ]


class TestGhjw:
    def test_traditional_realization_roundtrips(self, capsys, traditional_file):
        code, doc, _ = run_json(capsys, "ghjw", traditional_file, "--scenario", "traditional")
        assert code == 0
        assert doc["residuals"]["roundtrip"] < 1e-10
        assert doc["residuals"]["completeness"] < 1e-10
        realization = serialize.realization_from_json(doc["results"]["realization"])
        rebuilt = reconstruct_traditional(realization)
        original = serialize.assemblage_from_json(json.load(open(traditional_file)))
        for a in range(2):
            for x in range(3):
                gap = np.linalg.norm(
                    rebuilt.traditional_member(a, x) - original.traditional_member(a, x)
                )
                assert gap < 1e-10

    def test_sequential_realization_roundtrips(self, capsys, sequential_file):
        code, doc, _ = run_json(capsys, "ghjw", sequential_file)
        assert code == 0
        assert doc["results"]["scenario"] == "sequential"
        assert doc["residuals"]["roundtrip"] < 1e-10
        realization = serialize.realization_from_json(doc["results"]["realization"])
        rebuilt = reconstruct_sequential(realization)
        original = serialize.assemblage_from_json(json.load(open(sequential_file)))
        for key in original.members:
            assert np.linalg.norm(rebuilt.member(*key) - original.member(*key)) < 1e-10

    def test_trusted_input_scenarios_rejected(self, capsys):
        code, _, err = run(capsys, "ghjw", "builtin:pr-box")
        assert code == 2
        assert "traditional or sequential" in err

    def test_scenario_mismatch(self, capsys, sequential_file):
        code, _, err = run(capsys, "ghjw", sequential_file, "--scenario", "traditional")
        assert code == 2
        assert "not traditional" in err

    def test_signalling_input_rejected(self, capsys, tmp_path):
        shape = ScenarioShape(n_a=2, m_a=2, m_b=1, d=2, kind=TRADITIONAL)
        asm = random_ns_traditional(shape, seed=2)
        data = serialize.assemblage_to_json(asm)
        matrix = serialize.matrix_from_json(data["members"]["0|1"])
        data["members"]["0|1"] = serialize.matrix_to_json(1.5 * matrix)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "ghjw", str(path))
        assert code == 2
        assert "no-signalling" in err


class TestReproduce:
    def test_report_table_and_exit_codes(self, capsys, monkeypatch):
        seen = {}

        def fake(seed=0):
            seen["seed"] = seed
            return [
                {"name": "first", "passed": True, "detail": "fine"},
                {"name": "second", "passed": True, "detail": "fine"},
            ]

        monkeypatch.setattr(cli, "run_reproduction", fake)
        code, out, _ = run(capsys, "reproduce", "--seed", "5")
        assert code == 0
        assert seen["seed"] == 5
        assert "PASS first" in out

    def test_failures_turn_the_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "run_reproduction",
            lambda seed=0: [{"name": "only", "passed": False, "detail": "off"}],
        )
        code, out, _ = run(capsys, "reproduce")
        assert code == 1
        assert "FAIL only" in out

    def test_solver_failure_is_exit_three(self, capsys, monkeypatch):
        def explode(ctx):
            raise SolverFailure("did not converge")

        (name, _), *rest = cli.CRITERIA
        monkeypatch.setattr(cli, "CRITERIA", ((name, explode), *rest))
        code, _, err = run(capsys, "reproduce")
        assert code == 3
        assert "did not converge" in err


class TestReportDocument:
    def test_text_rendering_sections(self, capsys):
        code, out, _ = run(capsys, "validate", "builtin:pr-box")
        assert code == 0
        assert out.startswith("command: steercert validate builtin:pr-box")
        assert "results:" in out
        assert "residuals:" in out
        assert "wall time [s]:" in out

    def test_documents_are_deterministic(self, capsys):
        def snapshot():
            _, doc, _ = run_json(capsys, "certify", "builtin:pauli-transpose")
            doc.pop("wall_time_s")
            for entry in doc["solver"]:
                entry.pop("seconds")
            return doc

        assert snapshot() == snapshot()
