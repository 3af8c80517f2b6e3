"""Command-line front end: validate, bound, certify, realize, reproduce.

Every subcommand emits a single report document, as plain text or JSON, that
echoes the command line, digests its inputs, and carries named results,
residuals, and per-solve statistics.  Reports are deterministic for fixed
inputs and seed (wall-clock fields aside).

Exit codes: 0 when the requested check passes, 1 when an analysis reaches a
negative verdict, 2 for unusable input, 3 when a solver fails to converge.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from steercert import sdp, serialize
from steercert.assemblages import (
    BWI,
    INSTRUMENTAL,
    SEQUENTIAL,
    TRADITIONAL,
    VALIDATION_TOL,
    InstrumentalAssemblage,
    ScenarioShape,
    SequentialAssemblage,
    SequentialShape,
    TraditionalAssemblage,
    bell_correlations,
    chsh_value,
    instrumental_from_bwi,
    instrumental_pauli_assemblage,
    member_keys,
    pauli_transpose_assemblage,
    pr_box_assemblage,
    random_ns_sequential,
    random_ns_traditional,
    random_quantum_bwi,
    validate_instrumental,
    validate_ns_bwi,
    validate_ns_sequential,
)
from steercert.ghjw import (
    ghjw_sequential,
    ghjw_traditional,
    instrumental_pauli_model,
    reconstruct_instrumental,
    reconstruct_sequential,
    reconstruct_traditional,
)
from steercert.matcore import PAULIS
# ``perfbench/tracing.py`` wraps ``build_qtilde_problem``, ``lhs_membership`` and
# ``pure_state_lemma_check`` as ``cli`` names, so they stay imported though unused.
from steercert.ptp import (  # noqa: F401
    MEMBERSHIP_NAMES,
    TSIRELSON,
    certify,
    choi,
    chsh_subtables,
    computational_effects,
    pauli_action,
    post_quantum_certificates,
    ptp_bell_model,
    pure_state_lemma_check,
    transpose_bell_spec,
)
from steercert.steering import (  # noqa: F401
    InstrumentalFunctional,
    MomentMatrix,
    SolverFailure,
    SteeringFunctional,
    UnsupportedInput,
    build_qtilde_problem,
    canonical_functional,
    canonical_instrumental_functional,
    evaluate,
    instrumental_membership,
    lhs_bound,
    lhs_membership,
    ns_bound,
    qtilde_bound,
    qtilde_membership,
    qtilde_solution,
)

EXIT_PASS = 0
EXIT_ANALYTIC = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

BUILTIN_ASSEMBLAGES: dict[str, Callable[[], Any]] = {
    "builtin:pr-box": pr_box_assemblage,
    "builtin:pauli-transpose": pauli_transpose_assemblage,
    "builtin:instrumental-pauli": instrumental_pauli_assemblage,
}

BOUND_CHOICES = ("lhs", "ns", "qtilde", "qtilde-instrumental")


class CliError(Exception):
    """A failure with a designated exit code and a user-facing message."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(entry) for entry in value.tolist()]
    if isinstance(value, dict):
        return {str(key): _jsonable(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(entry) for entry in value]
    raise TypeError(f"cannot serialize report value of type {type(value).__name__}")


def _format_scalar(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass
class ReportDocument:
    """One command's structured output: results, residuals, solve statistics."""

    command: str = ""
    inputs: dict[str, str] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    residuals: dict[str, float] = field(default_factory=dict)
    solver: list[dict[str, Any]] = field(default_factory=list)
    wall_time: float = 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "inputs": dict(self.inputs),
            "results": _jsonable(self.results),
            "residuals": {key: float(val) for key, val in self.residuals.items()},
            "solver": _jsonable(self.solver),
            "wall_time_s": round(self.wall_time, 3),
        }

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.inputs:
            lines.append("inputs:")
            for name, digest in self.inputs.items():
                lines.append(f"  {name}: {digest}")
        if self.results:
            lines.append("results:")
            for key, value in self.results.items():
                lines.extend(_render_result(key, value, indent=2))
        if self.residuals:
            lines.append("residuals:")
            for key, value in self.residuals.items():
                lines.append(f"  {key}: {value:.3e}")
        if self.solver:
            lines.append("solver:")
            for entry in self.solver:
                parts = [f"{key}={_format_scalar(val)}" for key, val in entry.items()]
                lines.append("  " + " ".join(parts))
        lines.append(f"wall time [s]: {self.wall_time:.2f}")
        return "\n".join(lines)


def _render_result(key: str, value: Any, indent: int) -> list[str]:
    pad = " " * indent
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"]
        for sub_key, sub_value in value.items():
            lines.extend(_render_result(str(sub_key), sub_value, indent + 2))
        return lines
    if isinstance(value, list) and value and all(
        isinstance(entry, dict) and "name" in entry and "passed" in entry
        for entry in value
    ):
        lines = [f"{pad}{key}:"]
        for entry in value:
            verdict = "PASS" if entry["passed"] else "FAIL"
            lines.append(f"{pad}  {verdict} {entry['name']}: {entry.get('detail', '')}")
        return lines
    if isinstance(value, (list, tuple, np.ndarray)):
        return [f"{pad}{key}: {json.dumps(_jsonable(value))}"]
    return [f"{pad}{key}: {_format_scalar(value)}"]


def _timed(solver_log: list[dict[str, Any]], context: str, action: Callable[[], Any]) -> Any:
    start = time.perf_counter()
    try:
        result = action()
    except SolverFailure as exc:
        solver_log.append(
            {
                "context": context,
                "status": getattr(exc.solution, "status", "unknown"),
                "seconds": round(time.perf_counter() - start, 3),
            }
        )
        raise CliError(EXIT_SOLVER, str(exc)) from exc
    solver_log.append(
        {"context": context, "status": sdp.OPTIMAL, "seconds": round(time.perf_counter() - start, 3)}
    )
    return result


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _load_json_file(path: str) -> Any:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(
            EXIT_INPUT, f"malformed JSON in {path} at byte {exc.pos}: {exc.msg}"
        ) from exc


def _digest_file(path: str) -> str:
    with open(path, "rb") as handle:
        return "sha256:" + hashlib.sha256(handle.read()).hexdigest()


def _resolve_assemblage(ref: str) -> tuple[Any, dict[str, str]]:
    if ref.startswith("builtin:"):
        factory = BUILTIN_ASSEMBLAGES.get(ref)
        if factory is None:
            known = ", ".join(sorted(BUILTIN_ASSEMBLAGES))
            raise CliError(EXIT_INPUT, f"unknown builtin {ref!r}; available: {known}")
        return factory(), {ref: "builtin"}
    data = _load_json_file(ref)
    try:
        asm = serialize.assemblage_from_json(data)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"{ref}: {exc}") from exc
    return asm, {ref: _digest_file(ref)}


def _resolve_functional(ref: str, which: str) -> tuple[Any, dict[str, str]]:
    if ref == "builtin:canonical":
        if which == "qtilde-instrumental":
            return canonical_instrumental_functional(), {ref: "builtin"}
        return canonical_functional(), {ref: "builtin"}
    if ref.startswith("builtin:"):
        raise CliError(
            EXIT_INPUT, f"unknown builtin functional {ref!r}; available: builtin:canonical"
        )
    data = _load_json_file(ref)
    try:
        functional = serialize.functional_from_json(data)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"{ref}: {exc}") from exc
    return functional, {ref: _digest_file(ref)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> tuple[ReportDocument, int]:
    asm, inputs = _resolve_assemblage(args.target)
    doc = ReportDocument(inputs=inputs)
    kind = asm.shape.kind
    if args.scenario is not None and args.scenario != kind:
        raise CliError(
            EXIT_INPUT, f"input is a {kind} assemblage, not {args.scenario}"
        )
    tol = VALIDATION_TOL if args.tol is None else args.tol
    if isinstance(asm, SequentialAssemblage):
        report = validate_ns_sequential(asm, tol=tol)
    elif isinstance(asm, InstrumentalAssemblage):
        report = validate_instrumental(asm, tol=tol)
    else:
        report = validate_ns_bwi(asm, tol=tol)
    doc.results = {
        "scenario": kind,
        "tolerance": tol,
        "passed": report.passed,
        "violations": sorted(report.violations),
    }
    doc.residuals = {key: float(val) for key, val in sorted(report.residuals.items())}
    return doc, EXIT_PASS if report.passed else EXIT_ANALYTIC


def cmd_bounds(args: argparse.Namespace) -> tuple[ReportDocument, int]:
    functional, inputs = _resolve_functional(args.target, args.which)
    doc = ReportDocument(inputs=inputs)
    tol = 1e-8 if args.tol is None else args.tol
    if args.which == "qtilde-instrumental":
        if not isinstance(functional, InstrumentalFunctional):
            raise CliError(EXIT_INPUT, "this bound needs an instrumental functional")
    elif not isinstance(functional, SteeringFunctional):
        raise CliError(EXIT_INPUT, f"the {args.which} bound needs a steering functional")
    doc.results["which"] = args.which
    if args.which == "lhs":
        # A closed form: no solve, so nothing goes into the solver log.
        value, model = lhs_bound(functional)
        realized = evaluate(functional, model.assemblage(functional.shape))
        doc.residuals["witness_gap"] = abs(realized - value)
        doc.residuals["weight_total"] = abs(sum(model.weights()) - 1.0)
    elif args.which == "ns":
        value = _timed(
            doc.solver,
            "no-signalling bound",
            lambda: ns_bound(functional, tol=tol),
        )
    else:
        value, moment = _timed(
            doc.solver,
            "relaxation bound" if args.which == "qtilde" else "wired relaxation bound",
            lambda: qtilde_solution(functional, tol=tol),
        )
        doc.results["embedded_side"] = moment.embedded_side
        doc.results["block_side"] = moment.gamma.shape[0]
        for key, residual in sorted(moment.residuals().items()):
            doc.residuals[key] = float(residual)
    doc.results["value"] = float(value)
    return doc, EXIT_PASS


def cmd_certify(args: argparse.Namespace) -> tuple[ReportDocument, int]:
    asm, inputs = _resolve_assemblage(args.target)
    doc = ReportDocument(inputs=inputs)
    found = certify(asm, tol=1e-8 if args.tol is None else args.tol)
    if found.classification == sdp.UNDECIDED:
        raise CliError(EXIT_SOLVER, found.note)
    for key, report in found.memberships.items():
        phases = {phase: round(seconds, 6) for phase, seconds in report.phase_seconds.items()}
        doc.solver.append(dict(
            context=MEMBERSHIP_NAMES[key], status=report.status, seconds=round(found.seconds[key], 3),
            rows=report.problem.num_rows, iterations=report.iterations, phase_seconds=phases,
        ))
    doc.results.update(found.checks, classification=found.classification, certificates=found.certificates)
    doc.results["memberships"] = {
        key: {"feasible": report.feasible, "margin": float(report.margin), "verdict": report.verdict}
        for key, report in found.memberships.items()
    }
    return doc, EXIT_PASS


def _realization_residuals(asm: Any, realization: Any) -> tuple[float, float]:
    """Worst roundtrip and completeness residuals of a realization of ``asm``."""
    eye = np.eye(realization.d)
    if isinstance(asm, SequentialAssemblage):
        rebuilt = reconstruct_sequential(realization)
        totals = [
            sum(el.conj().T @ el for el in elements)
            for elements in realization.kraus.values()
        ]
    else:
        rebuilt = reconstruct_traditional(realization)
        totals = []
    roundtrip = max(
        float(np.linalg.norm(rebuilt.members[key] - member)) for key, member in asm.members.items()
    )
    totals.extend(sum(effects) for effects in realization.povms.values())
    completeness = max(float(np.linalg.norm(total - eye)) for total in totals)
    return roundtrip, completeness


def cmd_ghjw(args: argparse.Namespace) -> tuple[ReportDocument, int]:
    asm, inputs = _resolve_assemblage(args.target)
    doc = ReportDocument(inputs=inputs)
    kind = asm.shape.kind
    wanted = args.scenario
    if wanted is not None and wanted != kind:
        raise CliError(EXIT_INPUT, f"input is a {kind} assemblage, not {wanted}")
    tol = VALIDATION_TOL if args.tol is None else args.tol
    if isinstance(asm, SequentialAssemblage):
        validate, realize = validate_ns_sequential, ghjw_sequential
    elif isinstance(asm, TraditionalAssemblage):
        validate, realize = validate_ns_bwi, ghjw_traditional
    else:
        raise CliError(
            EXIT_INPUT,
            f"realizations are built for traditional or sequential assemblages, not {kind}",
        )
    validation = validate(asm, tol=tol)
    if not validation.passed:
        raise CliError(
            EXIT_INPUT,
            "assemblage violates no-signalling: " + ", ".join(sorted(validation.violations)),
        )
    try:
        realization = realize(asm)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, f"no realization: {exc}") from exc
    roundtrip, completeness = _realization_residuals(asm, realization)
    doc.results["scenario"] = kind
    doc.results["realization"] = serialize.realization_to_json(realization)
    doc.residuals["roundtrip"] = roundtrip
    doc.residuals["completeness"] = completeness
    return doc, EXIT_PASS


# ---------------------------------------------------------------------------
# Reproduction battery
# ---------------------------------------------------------------------------


@dataclass
class BatteryContext:
    """What the criteria of one battery run share.

    ``seed`` shifts every sampled instance; seed 0 draws the reference
    instances.  The canonical relaxation is solved at most once per context.
    """

    seed: int = 0
    functional: SteeringFunctional = field(init=False, default_factory=canonical_functional)
    _relaxation: tuple[float, MomentMatrix, float] | None = field(init=False, default=None)

    def relaxation(self) -> tuple[float, MomentMatrix, float]:
        """Value, moment block and solve time of the canonical relaxation bound."""
        if self._relaxation is None:
            start = time.perf_counter()
            value, moment = qtilde_solution(self.functional)
            self._relaxation = (value, moment, time.perf_counter() - start)
        return self._relaxation


def _exp(bound: float) -> str:
    """A one-digit tolerance as the checks print it: ``1e-3``, ``5e-3``."""
    mantissa, exponent = f"{bound:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _random_psd_functional(shape: ScenarioShape, seed: int) -> SteeringFunctional:
    rng = np.random.default_rng(seed)
    coeffs = {}
    for key in member_keys(shape):
        g = rng.normal(size=(shape.d, shape.d)) + 1j * rng.normal(size=(shape.d, shape.d))
        coeffs[key] = g @ g.conj().T / shape.d
    return SteeringFunctional(shape=shape, coeffs=coeffs)


def _hidden_state_bound(ctx: BatteryContext) -> tuple[bool, str]:
    target, tol, seconds = 1.2679, 1e-3, 30.0
    start = time.perf_counter()
    value, _ = lhs_bound(ctx.functional)
    elapsed = time.perf_counter() - start
    return (
        abs(value - target) <= tol and elapsed < seconds,
        f"value {value:.9f} vs {target} within {_exp(tol)} in {elapsed:.2f} s",
    )


def _relaxation_bound(ctx: BatteryContext) -> tuple[bool, str]:
    target, tol, expected_side, seconds = 0.4135, 5e-3, 48, 60.0
    value, moment, elapsed = ctx.relaxation()
    side = moment.embedded_side
    return (
        abs(value - target) <= tol and side == expected_side and elapsed < seconds,
        f"value {value:.9f} vs {target} within {_exp(tol)}, embedded side {side} "
        f"(solved block side {moment.gamma.shape[0]}), in {elapsed:.2f} s",
    )


def _no_signalling_bound(ctx: BatteryContext) -> tuple[bool, str]:
    tol = 1e-6
    value = ns_bound(ctx.functional)
    return abs(value) <= tol, f"value {value:.3e} within {_exp(tol)} of zero"


def _example_value_and_margin(ctx: BatteryContext) -> tuple[bool, str]:
    tol, min_margin = 1e-10, 0.4
    value = evaluate(ctx.functional, pauli_transpose_assemblage())
    margin = ctx.relaxation()[0] - abs(value)
    return (
        abs(value) <= tol and margin >= min_margin,
        f"value {value:.3e} within {_exp(tol)}, margin {margin:.4f} >= {min_margin}",
    )


def _box_statistics(ctx: BatteryContext) -> tuple[bool, str]:
    target, tol = 4.0, 1e-12
    table = bell_correlations(pr_box_assemblage(), computational_effects(2))
    a, b, x, y = np.indices(table.shape)
    expected = np.where((a + b) % 2 == (x & y), 0.5, 0.0)
    exact = bool(np.array_equal(table, expected))
    value = float(chsh_value(table))
    return (
        exact and abs(value - target) <= tol,
        f"table exactly 1/2 iff a+b = xy: {exact}, value {value:.12f} vs {target:g} "
        f"within {_exp(tol)}",
    )


def _realization_roundtrips(ctx: BatteryContext) -> tuple[bool, str]:
    roundtrip_tol, completeness_tol, seconds = 1e-8, 1e-9, 60.0
    start = time.perf_counter()
    residuals = []
    for i in range(100):
        shape = ScenarioShape(n_a=2, m_a=1 + i % 3, m_b=1, d=2, kind=TRADITIONAL)
        sample = random_ns_traditional(shape, seed=ctx.seed * 7919 + i)
        residuals.append(_realization_residuals(sample, ghjw_traditional(sample)))
    seq_shape = SequentialShape(n_a1=2, m_x1=2, n_a2=2, m_x2=2, d=2)
    for i in range(20):
        sample = random_ns_sequential(seq_shape, seed=ctx.seed * 6101 + i)
        residuals.append(_realization_residuals(sample, ghjw_sequential(sample)))
    elapsed = time.perf_counter() - start
    roundtrip = max(entry[0] for entry in residuals)
    completeness = max(entry[1] for entry in residuals)
    return (
        roundtrip <= roundtrip_tol and completeness <= completeness_tol and elapsed < seconds,
        f"{len(residuals)} realizations: roundtrip {roundtrip:.2e} <= {_exp(roundtrip_tol)}, "
        f"completeness {completeness:.2e} <= {_exp(completeness_tol)}, in {elapsed:.2f} s",
    )


def _quantum_samples_stay_inside(ctx: BatteryContext) -> tuple[bool, str]:
    samples = 50
    shape = ScenarioShape(n_a=2, m_a=2, m_b=2, d=2, kind=BWI)
    feasible = 0
    flagged = 0
    for i in range(samples):
        sample = random_quantum_bwi(shape, seed=ctx.seed * 4409 + i)
        membership = qtilde_membership(sample)
        if membership.feasible:
            feasible += 1
        # ``certify``'s rule; sampled members are mixed, so its Choi check is skipped.
        if post_quantum_certificates(sample, membership).certificates:
            flagged += 1
    return (
        feasible == samples and flagged == 0,
        f"{feasible}/{samples} samples relaxation-feasible, {flagged} flagged post-quantum",
    )


def _map_certificate_eigenvalue(ctx: BatteryContext) -> tuple[bool, str]:
    target, tol = -1.0, 1e-9
    x_pauli, y_pauli, z_pauli = PAULIS
    flip = pauli_action({"I": np.eye(2), "X": x_pauli, "Y": -y_pauli, "Z": z_pauli})
    result = choi(flip)
    value = result.min_eigenvalue()
    return (
        abs(value - target) <= tol and result.trace_residual() <= tol,
        f"min eigenvalue {value:.12f} vs {target:g} within {_exp(tol)}",
    )


def _model_ceiling_and_path_agreement(ctx: BatteryContext) -> tuple[bool, str]:
    pairs, chsh_slack, gap_tol = 1000, 1e-6, 1e-10
    rng = np.random.default_rng(ctx.seed + 9)
    effects = np.empty((pairs, 2, 2, 2, 2), dtype=complex)
    for i in range(pairs):
        for z in range(2):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            _, vecs = np.linalg.eigh(g @ g.conj().T)
            effect = (vecs * rng.uniform(size=2)) @ vecs.conj().T
            effects[i, z] = effect, np.eye(2) - effect
    bell = ptp_bell_model(transpose_bell_spec(), effects)
    # Direct measurement of the model's members, each z's effects at both map inputs.
    direct = bell_correlations(bell.assemblage, np.repeat(effects[:, :, None], 2, axis=2))
    worst_gap = float(np.max(np.abs(bell.table - np.moveaxis(direct, 1, -1))))
    worst_chsh = float(np.max(np.abs(chsh_value(chsh_subtables(bell.table)))))
    return (
        worst_chsh <= TSIRELSON + chsh_slack and worst_gap <= gap_tol,
        f"{pairs} effect pairs: max value {worst_chsh:.9f} <= {TSIRELSON:.9f} + "
        f"{_exp(chsh_slack)}, path gap {worst_gap:.2e} <= {_exp(gap_tol)}",
    )


def _wired_example(ctx: BatteryContext) -> tuple[bool, str]:
    # The relaxation contains every quantum wired assemblage, so its bound
    # cannot exceed the value of the explicit quantum model; the functional's
    # coefficients are projectors, so no assemblage goes below 0.  The bound
    # must therefore match the model's value, 0, to solver accuracy.
    exact_tol, bound_tol = 1e-10, 1e-6
    functional = canonical_instrumental_functional()
    wired = instrumental_from_bwi(pauli_transpose_assemblage())
    membership = instrumental_membership(wired)
    value = evaluate(functional, wired)
    modelled = reconstruct_instrumental(instrumental_pauli_model())
    model_gap = max(
        float(np.max(np.abs(modelled.member(*key) - wired.member(*key))))
        for key in wired.members
    )
    model_value = evaluate(functional, modelled)
    bound = qtilde_bound(functional)
    return (
        membership.feasible
        and abs(value) <= exact_tol
        and model_gap <= exact_tol
        and abs(bound - model_value) <= bound_tol,
        f"membership feasible: {membership.feasible}, post-selected value {value:.3e} "
        f"within {_exp(exact_tol)}, quantum model gap {model_gap:.2e} <= {_exp(exact_tol)}, "
        f"wired bound {bound:.3e} within {_exp(bound_tol)} of model value {model_value:.3e}",
    )


def _bound_ordering(ctx: BatteryContext) -> tuple[bool, str]:
    count, slack = 20, 1e-6
    shape = ScenarioShape(n_a=2, m_a=2, m_b=2, d=2, kind=BWI)
    for i in range(count):
        seed = 1000 + ctx.seed * 271 + i
        functional = _random_psd_functional(shape, seed=seed)
        ns_value = ns_bound(functional)
        qt_value, _ = qtilde_solution(functional)
        lhs_value, _ = lhs_bound(functional)
        if not (ns_value <= qt_value + slack and qt_value <= lhs_value + slack):
            return False, (
                f"seed {seed}: ns {ns_value:.8f}, relaxation {qt_value:.8f}, "
                f"lhs {lhs_value:.8f} out of order"
            )
    return True, (
        f"{count} functionals ordered ns <= relaxation + {_exp(slack)} <= lhs + {_exp(slack)}"
    )


#: The acceptance battery in order: a name and a check returning the verdict
#: and a one-line detail.  ``steercert reproduce`` and the acceptance tests
#: both run exactly these.
CRITERIA: tuple[tuple[str, Callable[[BatteryContext], tuple[bool, str]]], ...] = (
    ("hidden-state bound", _hidden_state_bound),
    ("relaxation bound", _relaxation_bound),
    ("no-signalling bound", _no_signalling_bound),
    ("example value and margin", _example_value_and_margin),
    ("box statistics", _box_statistics),
    ("realization roundtrips", _realization_roundtrips),
    ("quantum samples stay inside", _quantum_samples_stay_inside),
    ("map certificate eigenvalue", _map_certificate_eigenvalue),
    ("model ceiling and path agreement", _model_ceiling_and_path_agreement),
    ("wired example", _wired_example),
    ("bound ordering", _bound_ordering),
)


def run_reproduction(seed: int = 0) -> list[dict[str, Any]]:
    """The full battery of headline checks, one verdict and its run time per criterion."""
    ctx = BatteryContext(seed=seed)
    out: list[dict[str, Any]] = []
    for name, check in CRITERIA:
        start = time.perf_counter()
        passed, detail = check(ctx)
        seconds = time.perf_counter() - start
        out.append({"name": name, "passed": bool(passed), "detail": detail, "seconds": seconds})
    return out


def cmd_reproduce(args: argparse.Namespace) -> tuple[ReportDocument, int]:
    doc = ReportDocument()
    criteria = run_reproduction(seed=args.seed)
    doc.results["criteria"] = criteria
    passed = sum(1 for entry in criteria if entry["passed"])
    doc.results["passed"] = passed
    doc.results["total"] = len(criteria)
    return doc, EXIT_PASS if passed == len(criteria) else EXIT_ANALYTIC


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    """A finite positive number; argparse reports anything else as a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="steercert",
        description="certify steering assemblages and reproduce the headline numbers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    validate = sub.add_parser("validate", help="check no-signalling constraints")
    validate.add_argument("target", help="assemblage file or builtin:<name>")
    validate.add_argument(
        "--scenario",
        choices=(BWI, TRADITIONAL, SEQUENTIAL, INSTRUMENTAL),
        default=None,
        help="require this scenario kind",
    )
    _add_common(validate)

    bounds = sub.add_parser("bounds", help="optimize a functional over a model set")
    bounds.add_argument("target", help="functional file or builtin:canonical")
    bounds.add_argument(
        "--which", choices=BOUND_CHOICES, default="lhs", help="which bound to compute"
    )
    _add_common(bounds)

    certify = sub.add_parser("certify", help="classify an assemblage")
    certify.add_argument("target", help="assemblage file or builtin:<name>")
    _add_common(certify)

    realize = sub.add_parser("ghjw", help="construct a quantum realization")
    realize.add_argument("target", help="assemblage file or builtin:<name>")
    realize.add_argument(
        "--scenario",
        choices=(TRADITIONAL, SEQUENTIAL),
        default=None,
        help="require this scenario kind",
    )
    _add_common(realize)

    reproduce = sub.add_parser("reproduce", help="run the full battery of checks")
    reproduce.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    _add_common(reproduce)

    ns, solver = "no-signalling tolerance (default 1e-9)", "solver tolerance (default 1e-8)"
    helps = {validate: ns, bounds: solver, certify: "verdict band and " + solver, realize: ns}
    for command, text in helps.items():
        command.add_argument("--tol", type=_tolerance, default=None, help=text)

    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "bounds": cmd_bounds,
    "certify": cmd_certify,
    "ghjw": cmd_ghjw,
    "reproduce": cmd_reproduce,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        doc, code = _HANDLERS[args.subcommand](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except UnsupportedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    doc.command = "steercert " + " ".join(argv)
    doc.wall_time = time.perf_counter() - start
    if args.format == "json":
        print(json.dumps(doc.to_json(), indent=2))
    else:
        print(doc.render_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
