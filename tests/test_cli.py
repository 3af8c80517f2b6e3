"""Tests for the command-line front end: exit codes, report documents, and the
certification chain."""

import inspect
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from steercert import cli, sdp, serialize, steering
from steercert.assemblages import (
    BWI,
    INSTRUMENTAL,
    TRADITIONAL,
    VALIDATION_TOL,
    BwiAssemblage,
    ScenarioShape,
    SequentialShape,
    instrumental_pauli_assemblage,
    pauli_transpose_assemblage,
    pr_box_assemblage,
    random_ns_sequential,
    random_ns_traditional,
    random_quantum_bwi,
    random_quantum_sequential,
)
from steercert.ghjw import reconstruct_sequential, reconstruct_traditional
from steercert.matcore import PAULIS
from steercert.sdp import MembershipReport, SdpProblem
from steercert.steering import (
    InstrumentalFunctional,
    SolverFailure,
    canonical_functional,
    canonical_instrumental_functional,
    lhs_membership,
    qtilde_membership,
)

#: A problem with no rows, for stand-in membership reports.
NO_ROWS = SdpProblem(block_dims=(1,), c=np.zeros(1), a=np.zeros((0, 1)), b=[])


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


@pytest.fixture
def three_outcome_functional_file(tmp_path):
    functional = cli._random_psd_functional(ScenarioShape(3, 2, 2, 2, BWI), seed=5)
    path = tmp_path / "three.json"
    path.write_text(json.dumps(serialize.functional_to_json(functional)))
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

    @pytest.mark.parametrize("builtin", sorted(cli.BUILTIN_ASSEMBLAGES))
    def test_builtin_residuals_print_no_negative_zero(self, capsys, builtin):
        # -0.0 == 0.0, so only the sign bit tells a negative zero apart.
        code, doc, _ = run_json(capsys, "validate", builtin)
        assert code == 0
        residuals = doc["residuals"]
        assert all(math.copysign(1.0, value) > 0 for value in residuals.values()), residuals

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


    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, signalling_file, tol):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", signalling_file, "--tol", tol])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "builtin:canonical", "--which", "ns", "--tol", tol])
        assert exc.value.code == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), True, 10**400])
def test_non_finite_input_entries_are_input_errors(capsys, tmp_path, bad):
    # ``json`` reads NaN, Infinity and integers no float holds, and a bool passes for an int.
    asm = serialize.assemblage_to_json(pr_box_assemblage())
    asm["members"]["0|0,0"][0][1][0] = bad
    functional = serialize.functional_to_json(canonical_functional())
    functional["coefficients"]["0,0,0"][0][1][0] = bad
    asm_path, functional_path = tmp_path / "asm.json", tmp_path / "functional.json"
    asm_path.write_text(json.dumps(asm))
    functional_path.write_text(json.dumps(functional))
    for argv, entry in [
        (["validate", str(asm_path)], "members[0|0,0][0][1]"),
        (["certify", str(asm_path)], "members[0|0,0][0][1]"),
        (["bounds", str(functional_path), "--which", "lhs"], "coefficients[0,0,0][0][1]"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert entry in err and "finite" in err


@pytest.mark.parametrize(
    "asm",
    [
        pr_box_assemblage(),
        random_quantum_sequential(SequentialShape(2, 2, 2, 2, 2), seed=5),
        instrumental_pauli_assemblage(),
    ],
    ids=["bob-with-input", "sequential", "instrumental"],
)
def test_non_finite_member_files_exit_two_for_every_kind(capsys, tmp_path, asm):
    # The file is refused where it is read, before any container or validator.
    data = serialize.assemblage_to_json(asm)
    label = next(iter(data["members"]))
    data["members"][label][0][1][0] = float("nan")
    path = tmp_path / "asm.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert f"members[{label}][0][1]" in err and "finite" in err


@pytest.mark.parametrize("n_a, m_a, m_b, d", list(itertools.product((1, 2), repeat=4)))
def test_degenerate_shapes_end_in_a_verdict_or_an_input_error(capsys, tmp_path, n_a, m_a, m_b, d):
    # Every range in {1, 2}: each request ends in exit 0 or 2, never in a
    # traceback (which would read as exit 1, a negative verdict) or exit 3.
    shape = ScenarioShape(n_a, m_a, m_b, d, BWI)
    functional = tmp_path / "functional.json"
    document = serialize.functional_to_json(cli._random_psd_functional(shape, 0))
    functional.write_text(json.dumps(document))
    assemblage = write_assemblage(tmp_path / "assemblage.json", random_quantum_bwi(shape, 0))
    requests = [("bounds", str(functional), "--which", which) for which in ("lhs", "ns", "qtilde")]
    requests += [("certify", assemblage), ("validate", assemblage)]
    codes = {request: run(capsys, *request)[0] for request in requests}
    assert all(code in (0, 2) for code in codes.values()), codes


class TestBounds:
    def test_hidden_state_bound(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "builtin:canonical", "--which", "lhs")
        assert code == 0
        assert doc["results"]["value"] == pytest.approx(1.2679491924, abs=1e-6)
        assert doc["residuals"]["witness_gap"] < 1e-8
        assert doc["solver"] == []

    def test_relaxation_bound(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "builtin:canonical", "--which", "qtilde")
        assert code == 0
        assert doc["results"]["value"] == pytest.approx(0.413493597568, abs=1e-6)
        assert doc["results"]["embedded_side"] == 48
        assert doc["results"]["block_side"] == 24
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
        # The wired bound is audited as the relaxation bound is.
        assert doc["results"]["block_side"] == 24
        assert max(doc["residuals"].values()) < 1e-6
        assert [entry["context"] for entry in doc["solver"]] == ["wired relaxation bound"]

    @pytest.mark.parametrize(
        "which, context",
        [
            ("qtilde", "relaxation bound"),
            ("qtilde-instrumental", "wired relaxation bound"),
            ("ns", "no-signalling bound"),
        ],
    )
    def test_failed_bound_names_its_context_once(self, capsys, monkeypatch, which, context):
        # Two iterations reach no tolerance, so every bound's solve fails.
        solve = sdp.solve
        monkeypatch.setattr(sdp, "solve", lambda problem, **kwargs: solve(problem, **kwargs, max_iter=2))
        code, _, err = run(capsys, "bounds", "builtin:canonical", "--which", which)
        assert code == cli.EXIT_SOLVER
        assert err.startswith(f"error: {context} ended with status ")
        assert err.count(context) == 1

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

        monkeypatch.setattr(cli, "ns_bound", explode)
        code, _, err = run(capsys, "bounds", "builtin:canonical", "--which", "ns")
        assert code == 3
        assert "did not converge" in err
        # The hidden-state bound is a closed form: no solve, nothing logged.
        code, doc, _ = run_json(capsys, "bounds", "builtin:canonical", "--which", "lhs")
        assert code == 0
        assert doc["solver"] == []
        assert doc["residuals"]["witness_gap"] <= 1e-12

    def test_relaxation_needs_binary_outcomes(
        self, capsys, tmp_path, three_outcome_functional_file
    ):
        code, _, err = run(capsys, "bounds", three_outcome_functional_file, "--which", "qtilde")
        assert code == 2
        assert "binary outcomes" in err
        for which in ("lhs", "ns"):
            code, _, _ = run(capsys, "bounds", three_outcome_functional_file, "--which", which)
            assert code == 0
        wired = InstrumentalFunctional(
            shape=ScenarioShape(3, 2, 3, 2, INSTRUMENTAL),
            coeffs={(a, x): np.eye(2) for a in range(3) for x in range(2)},
        )
        path = tmp_path / "wired.json"
        path.write_text(json.dumps(serialize.functional_to_json(wired)))
        code, _, err = run(capsys, "bounds", str(path), "--which", "qtilde-instrumental")
        assert code == 2
        assert "binary outcomes" in err

    def test_wired_coefficient_of_the_wrong_side_is_input_error(self, capsys, tmp_path):
        data = serialize.functional_to_json(canonical_instrumental_functional())
        data["coefficients"]["0,0"] = serialize.matrix_to_json(np.eye(3))
        path = tmp_path / "wired.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "bounds", str(path), "--which", "qtilde-instrumental")
        assert code == 2
        assert "expected side 2" in err

    def test_too_many_strategies_is_input_error(self, capsys, tmp_path):
        functional = cli._random_psd_functional(ScenarioShape(2, 13, 1, 1, BWI), seed=0)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(serialize.functional_to_json(functional)))
        code, _, err = run(capsys, "bounds", str(path), "--which", "lhs")
        assert code == 2
        assert "exceed the supported cap" in err


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

    def test_seed_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "builtin:pr-box", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_signalling_input_rejected(self, capsys, signalling_file):
        code, _, err = run(capsys, "certify", signalling_file)
        assert code == 2
        assert "no-signalling" in err

    @pytest.mark.parametrize("shift, options", [(3e-9, ()), (1e-5, ("--tol", "1e-3"))])
    def test_signalling_below_the_validation_tolerance_is_input_error(
        self, capsys, tmp_path, shift, options
    ):
        # A traceless shift of one member signals to the trusted side.  At
        # 3e-9, and at 1e-5 under a looser --tol, certify's own check at the
        # validation tolerance catches it: no classification follows.
        asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2, BWI), seed=7)
        members = dict(asm.members)
        members[(0, 1, 0)] = members[(0, 1, 0)] + shift * np.diag([1.0, -1.0])
        shifted = BwiAssemblage(asm.shape, members)
        path = write_assemblage(tmp_path / "shifted.json", shifted)
        code, out, err = run(capsys, "certify", path, "--format", "json", *options)
        assert code == 2
        assert out == ""
        assert "no-signalling" in err and "state_consistency" in err

    @pytest.mark.parametrize(
        "shift, options",
        [(5e-10, ()), (1.2e-9, ()), (3e-9, ()), (1e-8, ()), (1e-5, ("--tol", "1e-3"))],
    )
    def test_one_no_signalling_verdict_across_the_old_thresholds(
        self, capsys, tmp_path, shift, options
    ):
        # The shift gives a state_consistency residual of sqrt(2) * shift.
        # The rules this replaces put its threshold at 1e-9 for validate,
        # 2.16e-9 (1e-9 relative to the members' size) for the memberships and
        # max(tol, 1e-9) for certify; validate's report now decides all three.
        asm = random_quantum_bwi(ScenarioShape(2, 2, 2, 2, BWI), seed=7)
        members = dict(asm.members)
        members[(0, 1, 0)] = members[(0, 1, 0)] + shift * np.diag([1.0, -1.0])
        shifted = BwiAssemblage(asm.shape, members)
        path = write_assemblage(tmp_path / "shifted.json", shifted)
        validated, report, _ = run_json(capsys, "validate", path)
        residual = report["residuals"]["state_consistency"]
        assert residual == pytest.approx(math.sqrt(2) * shift, rel=1e-4)
        signalling = residual > VALIDATION_TOL
        assert validated == (1 if signalling else 0)
        certified, out, _ = run(capsys, "certify", path, "--format", "json", *options)
        assert certified == (2 if signalling else 0)
        for membership in (lhs_membership, qtilde_membership):
            assert (membership(shifted).margin == -np.inf) == signalling
        if not signalling:
            memberships = json.loads(out)["results"]["memberships"]
            assert memberships
            assert all(math.isfinite(entry["margin"]) for entry in memberships.values())

    def test_one_no_signalling_tolerance_per_request(self, capsys, monkeypatch):
        # certify checks its input at the validation tolerance whatever --tol
        # says, and each membership's own check reads the same rule.
        real, tols = cli.validate_ns_bwi, []
        signature = inspect.signature(real)

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tols.append(bound.arguments["tol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "validate_ns_bwi", spy)
        monkeypatch.setattr(steering, "validate_ns_bwi", spy)
        code, doc, _ = run_json(capsys, "certify", "builtin:pauli-transpose", "--tol", "1e-3")
        assert code == 0
        assert set(doc["results"]["memberships"]) == {"lhs", "qtilde"}
        assert tols == [VALIDATION_TOL] * 3

    def test_three_outcome_steerable_input_is_input_error(self, capsys, tmp_path):
        shape = ScenarioShape(n_a=3, m_a=3, m_b=2, d=2, kind=BWI)
        eye = np.eye(2)
        members = {
            (a, x, y): (eye + (-1.0) ** a * pauli) / 4 if a < 2 else 0 * eye
            for a in range(3)
            for x, pauli in enumerate(PAULIS)
            for y in range(2)
        }
        path = write_assemblage(tmp_path / "three.json", BwiAssemblage(shape=shape, members=members))
        code, _, err = run(capsys, "certify", path)
        assert code == 2
        assert "binary outcomes" in err

    def test_too_many_strategies_is_input_error(self, capsys, tmp_path):
        shape = ScenarioShape(n_a=2, m_a=13, m_b=1, d=1, kind=BWI)
        path = write_assemblage(tmp_path / "wide.json", random_quantum_bwi(shape, seed=0))
        code, _, err = run(capsys, "certify", path)
        assert code == 2
        assert "exceed the supported cap" in err

    def test_instrumental_input_rejected(self, capsys):
        code, _, err = run(capsys, "certify", "builtin:instrumental-pauli")
        assert code == 2
        assert "trusted input" in err

    def test_solver_log_reports_the_membership_status(self, capsys, monkeypatch):
        # An unfinished membership decides nothing: exit 3 naming the solve.
        def membership(status, margin=np.nan):
            def run_membership(asm, tol=1e-8):
                return MembershipReport(margin=margin, status=status, residuals={}, problem=NO_ROWS)

            return run_membership

        monkeypatch.setattr(cli, "lhs_membership", membership(sdp.MAX_ITERATIONS))
        monkeypatch.setattr(cli, "qtilde_membership", membership(sdp.NUMERICAL_TROUBLE))
        code, out, err = run(capsys, "certify", "builtin:pr-box")
        assert code == cli.EXIT_SOLVER
        assert out == ""
        assert "hidden-state membership" in err and sdp.MAX_ITERATIONS in err

        # A decisive hidden-state verdict, then an unfinished relaxation.
        monkeypatch.setattr(cli, "lhs_membership", membership(sdp.OPTIMAL, -1.0))
        code, out, err = run(capsys, "certify", "builtin:pr-box")
        assert code == cli.EXIT_SOLVER
        assert "relaxation membership" in err and sdp.NUMERICAL_TROUBLE in err

        # The status is logged before the error is raised.
        log = []
        with pytest.raises(cli.CliError):
            cli._timed(log, "relaxation membership", lambda: cli.qtilde_membership(None))
        assert [(entry["context"], entry["status"]) for entry in log] == [
            ("relaxation membership", sdp.NUMERICAL_TROUBLE)
        ]

    def test_solver_log_reports_the_rows_kept_by_presolve(self, capsys):
        # Every problem's rows are independent, so presolve keeps them all:
        # the log reports the row count of each membership's problem.
        code, doc, _ = run_json(capsys, "certify", "builtin:pauli-transpose")
        assert code == 0
        kept = {entry["context"]: entry["rows"] for entry in doc["solver"]}
        asm = pauli_transpose_assemblage()
        assert kept["relaxation membership"] == qtilde_membership(asm).problem.num_rows
        assert kept["hidden-state membership"] == lhs_membership(asm).problem.num_rows

    def test_solver_log_reports_the_iterations_of_each_membership(self, capsys):
        # Solves repeat bit for bit, so the log matches a fresh solve exactly.
        code, doc, _ = run_json(capsys, "certify", "builtin:pauli-transpose")
        assert code == 0
        counts = {entry["context"]: entry["iterations"] for entry in doc["solver"]}
        asm = pauli_transpose_assemblage()
        assert counts == {
            "hidden-state membership": lhs_membership(asm).iterations,
            "relaxation membership": qtilde_membership(asm).iterations,
        }
        assert all(count > 0 for count in counts.values())

    def test_solver_log_reports_the_phase_seconds_of_each_membership(self, capsys):
        code, doc, _ = run_json(capsys, "certify", "builtin:pauli-transpose")
        assert code == 0
        assert len(doc["solver"]) == 2
        for entry in doc["solver"]:
            phases = entry["phase_seconds"]
            assert set(phases) == set(sdp.PHASES)
            assert all(seconds >= 0.0 for seconds in phases.values())
            # ``seconds`` is rounded to the millisecond.
            assert sum(phases.values()) <= entry["seconds"] + 5e-4

    def test_failed_scaling_is_no_verdict(self, capsys, monkeypatch):
        # An iterate whose Cholesky factorization fails ends the solve
        # undecided: exit 3, never a verdict.
        def fail(x_mats, s_mats):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(sdp, "_nt_scaling_batch", fail)
        code, out, err = run(capsys, "certify", "builtin:pauli-transpose")
        assert code == cli.EXIT_SOLVER == 3
        assert out == ""
        assert "hidden-state membership" in err and sdp.NUMERICAL_TROUBLE in err

    def test_hidden_state_margin_near_the_boundary_is_no_verdict(self, capsys, monkeypatch):
        # Outside by more than tol but not by DECISIVE_MARGIN: undecided.
        def run_membership(asm, tol=1e-8):
            return MembershipReport(margin=-1e-7, status=sdp.OPTIMAL, residuals={}, problem=NO_ROWS)

        monkeypatch.setattr(cli, "lhs_membership", run_membership)
        code, out, err = run(capsys, "certify", "builtin:pr-box")
        assert code == cli.EXIT_SOLVER
        assert out == ""
        assert "hidden-state membership" in err and "no verdict" in err


    @pytest.mark.parametrize(
        "make, verdicts",
        [
            (pauli_transpose_assemblage, {"lhs": "outside", "qtilde": "outside"}),
            (pr_box_assemblage, {"lhs": "outside", "qtilde": "inside"}),
            (lambda: random_quantum_bwi(ScenarioShape(2, 2, 2, 2, BWI), seed=7), {"lhs": "inside"}),
        ],
    )
    def test_memberships_report_their_verdicts(self, capsys, tmp_path, make, verdicts):
        path = write_assemblage(tmp_path / "asm.json", make())
        code, doc, _ = run_json(capsys, "certify", path)
        assert code == 0
        memberships = doc["results"]["memberships"]
        assert {key: entry["verdict"] for key, entry in memberships.items()} == verdicts
        for entry in memberships.values():
            assert entry["feasible"] == (entry["verdict"] == "inside")


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

    def test_tolerance_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_failures_turn_the_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "run_reproduction",
            lambda seed=0: [{"name": "only", "passed": False, "detail": "off"}],
        )
        code, out, _ = run(capsys, "reproduce")
        assert code == 1
        assert "FAIL only" in out

    def test_json_reports_seconds_per_criterion(self, capsys, monkeypatch):
        cheap = tuple(cli.CRITERIA[i] for i in (0, 4, 7))
        monkeypatch.setattr(cli, "CRITERIA", cheap)
        code, data, _ = run_json(capsys, "reproduce")
        assert code == 0
        entries = data["results"]["criteria"]
        assert [entry["name"] for entry in entries] == [name for name, _ in cheap]
        for entry in entries:
            assert np.isfinite(entry["seconds"]) and entry["seconds"] >= 0.0

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
                entry.pop("phase_seconds")
            return doc

        assert snapshot() == snapshot()


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's ``steercert``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_module_entry_point_runs_without_runtime_warnings():
    result = run_python("-W", "error::RuntimeWarning", "-m", "steercert.cli", "--help")
    assert result.returncode == 0, result.stderr
    assert "usage: steercert" in result.stdout


# Lists the scipy modules a process has loaded.
SCIPY_LOADED = (
    "import sys\n"
    "def scipy_loaded():\n"
    "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
)


def test_cli_import_leaves_scipy_sparse_unloaded():
    # After numpy, scipy.sparse takes 0.13-0.15 s to import and scipy.linalg
    # 0.07-0.12 s more; the first solve loads both.
    check = SCIPY_LOADED + (
        "import steercert\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        "import steercert.cli\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
    )
    result = run_python("-c", check)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "builtin:pr-box"],
        ["validate", "builtin:instrumental-pauli"],
        ["bounds", "builtin:canonical", "--which", "lhs"],
        ["ghjw", "{traditional}", "--scenario", "traditional"],
        ["--help"],
    ],
    ids=["validate-pr-box", "validate-instrumental-pauli", "bounds-lhs", "ghjw", "help"],
)
def test_commands_that_solve_nothing_leave_scipy_unloaded(argv, traditional_file):
    check = SCIPY_LOADED + (
        "from steercert import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as stop:\n"
        "    code = stop.code\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        "sys.exit(code)\n"
    )
    argv = [arg.format(traditional=traditional_file) for arg in argv]
    result = run_python("-c", check, *argv)
    assert result.returncode == 0, result.stderr


def test_first_solve_of_a_fresh_process_loads_scipy_outside_its_phases():
    result = run_python("-m", "steercert.cli", "certify", "builtin:pr-box", "--format", "json")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["results"]["classification"] == "post-quantum"
    # The first membership's seconds include scipy's import; its phases do not.
    # Its seconds are rounded to 1 ms, its phases to 1 us.
    first = doc["solver"][0]
    assert sum(first["phase_seconds"].values()) <= first["seconds"] + 5e-4
