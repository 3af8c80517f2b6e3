"""Inputs, items and correctness checks for the three benchmark workloads.

Every workload is a fixed list of items built from the seed before any timing
starts.  ``Item.run`` makes the call being measured and returns its output;
``Item.check`` runs after the pass, outside the timed region and with no probe
installed, and returns a list of problems (empty when the output is right).
Why each workload exists is written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from steercert import cli, ghjw, serialize, steering
from steercert.assemblages import (
    BWI,
    TRADITIONAL,
    BwiAssemblage,
    ScenarioShape,
    SequentialShape,
    random_ns_sequential,
    random_ns_traditional,
)

#: Published value of the canonical functional's relaxation bound.
CANONICAL_QTILDE = 0.4135
CANONICAL_QTILDE_TOL = 5e-3
#: Relative agreement required with a recorded reference value.
REFERENCE_RTOL = 1e-6
#: Slack on bound comparisons (closed form, set inclusions).
BOUND_TOL = 1e-6
#: Largest structural residual accepted from a relaxation solution.
MOMENT_RESIDUAL_TOL = 1e-7
#: Largest member mismatch accepted from a hidden-state witness.
WITNESS_TOL = 1e-6
GHJW_ROUNDTRIP_TOL = 1e-8
GHJW_COMPLETENESS_TOL = 1e-9

#: Visibilities of the noisy maximally entangled state.  Every projective
#: measurement on a two-qubit Werner state has a hidden-state model up to 1/2;
#: the Pauli X and Z pair steers above 1/sqrt(2).
LHS_VISIBILITY = 0.3
STEERABLE_VISIBILITY = 0.95

LADDER = ((3, 2, 2), (3, 3, 2), (3, 2, 3), (4, 3, 2))

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class ItemFailed(Exception):
    """The program reported that it could not finish (exit code 3)."""


@dataclass
class Item:
    name: str
    digest: str
    run: Callable[[], Any]
    check: Callable[[Any, dict[str, Any]], list[str]]


def _digest(data: Any) -> str:
    raw = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(raw).hexdigest()


def workload_digest(items: list[Item]) -> str:
    return _digest([[item.name, item.digest] for item in items])


def load_references() -> dict[str, float]:
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)["qtilde"]


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def random_functional(shape: ScenarioShape, rng: np.random.Generator) -> steering.SteeringFunctional:
    """Random positive semidefinite coefficients ``G G^dagger / d``."""
    coeffs = {}
    for a in range(shape.n_a):
        for x in range(shape.m_a):
            for y in range(shape.m_b):
                g = rng.normal(size=(shape.d, shape.d)) + 1j * rng.normal(size=(shape.d, shape.d))
                coeffs[(a, x, y)] = g @ g.conj().T / shape.d
    return steering.SteeringFunctional(shape=shape, coeffs=coeffs)


def _random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return 0.7 * rho / np.trace(rho).real + 0.3 * np.eye(d) / d


def lhs_assemblage(shape: ScenarioShape, rng: np.random.Generator) -> BwiAssemblage:
    """An assemblage with a hidden-state model by construction (full-rank states)."""
    strategies = steering.deterministic_strategies(shape.n_a, shape.m_a)
    k = len(strategies)
    weights = 0.5 / k + 0.5 * rng.dirichlet(np.ones(k))
    states = {
        (i, y): weights[i] * _random_state(rng, shape.d)
        for i in range(k)
        for y in range(shape.m_b)
    }
    return steering.LhsModel(tuple(strategies), states).assemblage(shape)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def entangled_assemblage(
    shape: ScenarioShape, rng: np.random.Generator, visibility: float
) -> BwiAssemblage:
    """Projective qubit measurements on a noisy maximally entangled state.

    Input 0 measures Z and input 1 measures X; further inputs measure random
    directions.  Trusted input 0 is the identity channel, the others random
    unitaries, so the assemblage is quantum by construction.
    """
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    directions = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
    while len(directions) < shape.m_a:
        v = rng.normal(size=3)
        directions.append(v / np.linalg.norm(v))
    unitaries = [np.eye(2, dtype=complex)] + [_haar_unitary(rng, 2) for _ in range(shape.m_b - 1)]
    members = {}
    for x, n in enumerate(directions[: shape.m_a]):
        observable = n[0] * pauli_x + n[1] * pauli_y + n[2] * pauli_z
        for a in range(2):
            proj = 0.5 * (np.eye(2) + (-1) ** a * observable)
            steered = 0.5 * (visibility * proj.T + (1 - visibility) * 0.5 * np.eye(2))
            for y, u in enumerate(unitaries):
                members[(a, x, y)] = u @ steered @ u.conj().T
    return BwiAssemblage(shape=shape, members=members)


class Draws:
    """Fixed instances in seeded presentations.

    Each input is drawn from a generator fixed per workload, so the instance
    depends only on the workload and the input's position, and is then
    presented through a seeded symmetry of every bound and verdict: one
    Haar-random unitary on the trusted system applied to every member or
    coefficient, and permutations of the untrusted and trusted input labels.
    A seed changes every input and digest; the values, the verdicts and the
    solver's work stay those of the fixed instance up to rounding.  Timings
    then compare commits rather than instances: the solver's iteration count
    ranges over 15-20 between random (4,3,2) ladder instances, but moves by
    one or two between presentations of one instance.  Every value also has
    a reference for any seed.  ``seeded`` alone picks orders and sampler
    seeds.
    """

    def __init__(self, seed: int, stream: int) -> None:
        self.fixed = np.random.default_rng([stream])
        self.seeded = np.random.default_rng([seed, stream])

    def _present(self, shape: ScenarioShape, table: dict) -> dict:
        u = _haar_unitary(self.seeded, shape.d)
        px = self.seeded.permutation(shape.m_a)
        py = self.seeded.permutation(shape.m_b)
        return {(a, int(px[x]), int(py[y])): u @ m @ u.conj().T for (a, x, y), m in table.items()}

    def functional(self, shape: ScenarioShape) -> steering.SteeringFunctional:
        return self.functionals(shape, 1)[0]

    def functionals(self, shape: ScenarioShape, count: int) -> list[steering.SteeringFunctional]:
        """``count`` presentations of one fixed functional."""
        base = random_functional(shape, self.fixed).coeffs
        return [
            steering.SteeringFunctional(shape=shape, coeffs=self._present(shape, base))
            for _ in range(count)
        ]

    def assemblage(
        self, make: Callable[[ScenarioShape, np.random.Generator], BwiAssemblage], shape: ScenarioShape
    ) -> BwiAssemblage:
        members = self._present(shape, make(shape, self.fixed).members)
        return BwiAssemblage(shape=shape, members=members)


def _entangled(visibility: float) -> Callable[[ScenarioShape, np.random.Generator], BwiAssemblage]:
    return lambda shape, rng: entangled_assemblage(shape, rng, visibility)


# ---------------------------------------------------------------------------
# Reference oracles
# ---------------------------------------------------------------------------


def closed_form_lhs_bound(functional: steering.SteeringFunctional) -> float:
    """``min over strategies s of sum_y lambda_min(sum_x F_{s(x),x,y})``.

    Weights are shared across trusted inputs and the states of one strategy
    decouple per input, so the hidden-state minimum sits on one deterministic
    strategy with a ground state for each trusted input.
    """
    shape = functional.shape
    table = np.array(
        [
            [[functional.term(a, x, y) for y in range(shape.m_b)] for x in range(shape.m_a)]
            for a in range(shape.n_a)
        ]
    )
    strategies = np.array(steering.deterministic_strategies(shape.n_a, shape.m_a))
    gains = table[strategies, np.arange(shape.m_a)].sum(axis=1)
    lowest = np.linalg.eigvalsh(gains)[..., 0]
    return float(lowest.sum(axis=1).min())


def _max_member_gap(left: BwiAssemblage, right: BwiAssemblage) -> float:
    return max(float(np.max(np.abs(left.members[k] - right.members[k]))) for k in left.members)


# ---------------------------------------------------------------------------
# qtilde-ladder
# ---------------------------------------------------------------------------


def _ladder_item(name: str, functional: steering.SteeringFunctional, reference: float | None) -> Item:
    is_canonical = name == "qtilde322"
    # Oracles are computed on first use, once per run, outside the timed region.
    lhs_oracle = functools.cache(lambda: closed_form_lhs_bound(functional))
    ns_oracle = functools.cache(lambda: steering.ns_bound(functional))

    def run() -> dict[str, Any]:
        value, moment = steering.qtilde_solution(functional)
        return {"value": value, "residual": max(moment.residuals().values())}

    def check(out: dict[str, Any], _: dict[str, Any]) -> list[str]:
        problems = []
        value = out["value"]
        if is_canonical and abs(value - CANONICAL_QTILDE) > CANONICAL_QTILDE_TOL:
            problems.append(f"canonical value {value} not within {CANONICAL_QTILDE_TOL} of {CANONICAL_QTILDE}")
        if reference is None:
            problems.append("no reference value recorded")
        elif abs(value - reference) > REFERENCE_RTOL * abs(reference):
            problems.append(f"value {value} differs from reference {reference}")
        if out["residual"] > MOMENT_RESIDUAL_TOL:
            problems.append(f"moment residual {out['residual']:.3e}")
        if not ns_oracle() - BOUND_TOL <= value <= lhs_oracle() + BOUND_TOL:
            problems.append(f"ordering ns {ns_oracle()} <= qtilde {value} <= lhs {lhs_oracle()} fails")
        return problems

    return Item(name, _digest(serialize.functional_to_json(functional)), run, check)


def qtilde_ladder(seed: int) -> list[Item]:
    """The fixed ladder: canonical (3,2,2), then random (3,3,2), (3,2,3), (4,3,2).

    The value of each point is invariant under the seeded presentation, so
    ``reference.json`` holds one recorded value per point.
    """
    draws = Draws(seed, 1)
    references = load_references()
    items = []
    for index, (m_a, m_b, d) in enumerate(LADDER):
        if index == 0:
            functional = steering.canonical_functional()
        else:
            functional = draws.functional(ScenarioShape(2, m_a, m_b, d, BWI))
        name = f"qtilde{m_a}{m_b}{d}"
        items.append(_ladder_item(name, functional, references.get(name)))
    return items


# ---------------------------------------------------------------------------
# lhs-blocks
# ---------------------------------------------------------------------------


def _lhs_bound_item(functional: steering.SteeringFunctional, max_iter: int) -> Item:
    oracle = functools.cache(lambda: closed_form_lhs_bound(functional))

    def run() -> float:
        value, _ = steering.lhs_bound(functional, max_iter=max_iter)
        return value

    def check(value: float, _: dict[str, Any]) -> list[str]:
        if abs(value - oracle()) > BOUND_TOL * max(1.0, abs(oracle())):
            return [f"hidden-state bound {value} differs from closed form {oracle()}"]
        return []

    digest = _digest(serialize.functional_to_json(functional))
    return Item(f"lhs_bound{functional.shape.m_a}", digest, run, check)


def _lhs_membership_item(name: str, asm: BwiAssemblage, truth: bool, max_iter: int) -> Item:
    def run() -> Any:
        return steering.lhs_membership(asm, max_iter=max_iter)

    def check(report: Any, _: dict[str, Any]) -> list[str]:
        if report.feasible != truth:
            return [f"verdict feasible={report.feasible}, construction says {truth}"]
        if truth:
            gap = _max_member_gap(report.witness.assemblage(asm.shape), asm)
            if gap > WITNESS_TOL:
                return [f"witness misses its input by {gap:.3e}"]
        return []

    return Item(name, _digest(serialize.assemblage_to_json(asm)), run, check)


def lhs_blocks(seed: int, max_iter: int = 200) -> list[Item]:
    """Hidden-state bounds and memberships with 128 and 512 small blocks.

    Half of the four items are at m_a = 8, so the median item latency is
    half a multi-second solve rather than one of the small ones.
    """
    draws = Draws(seed, 2)
    shape6 = ScenarioShape(2, 6, 2, 2, BWI)
    shape8 = ScenarioShape(2, 8, 2, 2, BWI)
    steerable = draws.assemblage(_entangled(STEERABLE_VISIBILITY), shape6)
    return [
        _lhs_bound_item(draws.functional(shape6), max_iter),
        _lhs_bound_item(draws.functional(shape8), max_iter),
        _lhs_membership_item("lhs_member6_steer", steerable, False, max_iter),
        _lhs_membership_item("lhs_member8_lhs", draws.assemblage(lhs_assemblage, shape8), True, max_iter),
    ]


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


def _call_cli(argv: list[str]) -> dict[str, Any]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == cli.EXIT_SOLVER:
        raise ItemFailed(err.getvalue().strip())
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _doc(out: dict[str, Any]) -> tuple[dict[str, Any] | None, list[str]]:
    if out["code"] != cli.EXIT_PASS:
        return None, [f"exit code {out['code']}: {out['stderr'].strip()}"]
    return json.loads(out["stdout"]), []


def _write(workdir: str, name: str, data: Any) -> tuple[str, str]:
    path = os.path.join(workdir, name)
    raw = json.dumps(data, sort_keys=True).encode()
    with open(path, "wb") as handle:
        handle.write(raw)
    return path, hashlib.sha256(raw).hexdigest()


def _certify_item(name: str, target: str, digest: str, truth: str) -> Item:
    def run() -> dict[str, Any]:
        return _call_cli(["certify", target, "--format", "json"])

    def check(out: dict[str, Any], _: dict[str, Any]) -> list[str]:
        doc, problems = _doc(out)
        if doc is None:
            return problems
        got = doc["results"]["classification"]
        if got != truth:
            return [f"classified {got}, construction says {truth}"]
        if truth != "post-quantum" and doc["results"]["certificates"]:
            return [f"certificates on a quantum input: {doc['results']['certificates']}"]
        return []

    return Item(name, digest, run, check)


def _validate_item(name: str, target: str, digest: str) -> Item:
    def run() -> dict[str, Any]:
        return _call_cli(["validate", target, "--format", "json"])

    def check(out: dict[str, Any], _: dict[str, Any]) -> list[str]:
        doc, problems = _doc(out)
        if doc is not None and doc["results"]["passed"] is not True:
            problems.append("a no-signalling input failed validation")
        return problems

    return Item(name, digest, run, check)


def _bounds_items(group: str, path: str, digest: str, functional: steering.SteeringFunctional) -> list[Item]:
    """ns, lhs and qtilde bounds of one functional, checked against each other."""
    names = {which: f"{group}-{which}" for which in ("ns", "lhs", "qtilde")}
    lhs_oracle = functools.cache(lambda: closed_form_lhs_bound(functional))

    def make(which: str) -> Item:
        def run() -> dict[str, Any]:
            return _call_cli(["bounds", path, "--which", which, "--format", "json"])

        def check(out: dict[str, Any], outputs: dict[str, Any]) -> list[str]:
            doc, problems = _doc(out)
            if doc is None:
                return problems
            value = doc["results"]["value"]
            top = lhs_oracle()
            if which == "lhs":
                if abs(value - top) > BOUND_TOL * max(1.0, abs(top)):
                    problems.append(f"hidden-state bound {value} differs from closed form {top}")
                if doc["residuals"]["witness_gap"] > BOUND_TOL:
                    problems.append("hidden-state model does not attain the bound")
                return problems
            if value > top + BOUND_TOL:
                problems.append(f"{which} bound {value} above the hidden-state bound {top}")
            if which == "qtilde":
                residual = max(doc["residuals"].values())
                if residual > MOMENT_RESIDUAL_TOL:
                    problems.append(f"moment residual {residual:.3e}")
                ns_out = outputs.get(names["ns"])
                if ns_out is not None and ns_out["code"] == cli.EXIT_PASS:
                    ns = json.loads(ns_out["stdout"])["results"]["value"]
                    if ns > value + BOUND_TOL:
                        problems.append(f"ns bound {ns} above qtilde bound {value}")
            return problems

        return Item(names[which], digest, run, check)

    return [make(which) for which in ("ns", "lhs", "qtilde")]


def _ghjw_item(name: str, path: str, digest: str, asm: Any, sequential: bool) -> Item:
    def run() -> dict[str, Any]:
        return _call_cli(["ghjw", path, "--format", "json"])

    def check(out: dict[str, Any], _: dict[str, Any]) -> list[str]:
        doc, problems = _doc(out)
        if doc is None:
            return problems
        realization = serialize.realization_from_json(doc["results"]["realization"])
        eye = np.eye(realization.d)
        if sequential:
            rebuilt = ghjw.reconstruct_sequential(realization)
            roundtrip = max(
                float(np.linalg.norm(rebuilt.member(*k) - asm.member(*k))) for k in asm.members
            )
            totals = [sum(k.conj().T @ k for k in ks) for ks in realization.kraus.values()]
        else:
            rebuilt = ghjw.reconstruct_traditional(realization)
            roundtrip = max(
                float(np.linalg.norm(rebuilt.traditional_member(a, x) - asm.traditional_member(a, x)))
                for a in range(asm.shape.n_a)
                for x in range(asm.shape.m_a)
            )
            totals = []
        totals += [sum(effects) for effects in realization.povms.values()]
        completeness = max(float(np.linalg.norm(t - eye)) for t in totals)
        if roundtrip > GHJW_ROUNDTRIP_TOL:
            problems.append(f"realization round-trip {roundtrip:.3e}")
        if completeness > GHJW_COMPLETENESS_TOL:
            problems.append(f"realization completeness {completeness:.3e}")
        return problems

    return Item(name, digest, run, check)


#: Requests per pass of the cli-mix, by kind: pairs are counts on the
#: (2,2,2,2) and (2,3,2,2) scenarios, or traditional and sequential inputs.
#: Twenty requests run ``Q~`` and take far longer than the rest; the count of
#: steerable inputs puts ``item_s.p90`` near the middle of that group, where
#: it is steadier than at its edge (see README.md).
CLI_MIX = {
    "certify_lhs_model": (12, 6),
    "certify_entangled_low": (12, 8),
    "certify_entangled_high": (12, 1),
    "bounds_functionals": 5,  # (2,2,2,2), one instance; ns, lhs and qtilde requests each
    "ghjw": (8, 8),
    "validate": 16,
}


def cli_mix(seed: int, workdir: str) -> list[Item]:
    """100 CLI requests, shuffled, 53 of them ``certify``; input files are written to ``workdir``.

    Besides the kinds counted in ``CLI_MIX``, one request certifies each of
    the two post-quantum builtins.
    """
    draws = Draws(seed, 3)
    shapes = (ScenarioShape(2, 2, 2, 2, BWI), ScenarioShape(2, 3, 2, 2, BWI))
    items: list[Item] = []
    certify_inputs: list[tuple[str, str]] = []

    def add_certify(kind: str, make: Callable[[ScenarioShape, np.random.Generator], BwiAssemblage], truth: str) -> None:
        for shape, count in zip(shapes, CLI_MIX[kind]):
            for i in range(count):
                name = f"{kind}{shape.m_a}-{i}"
                path, digest = _write(workdir, f"{name}.json", serialize.assemblage_to_json(draws.assemblage(make, shape)))
                certify_inputs.append((path, digest))
                items.append(_certify_item(name, path, digest, truth))

    add_certify("certify_lhs_model", lhs_assemblage, "LHS")
    add_certify("certify_entangled_low", _entangled(LHS_VISIBILITY), "LHS")
    add_certify("certify_entangled_high", _entangled(STEERABLE_VISIBILITY), "steerable-possibly-quantum")
    for builtin in ("builtin:pr-box", "builtin:pauli-transpose"):
        items.append(_certify_item(f"certify-{builtin[8:]}", builtin, builtin, "post-quantum"))
    # One instance in several presentations: the relaxation bounds then form
    # one cluster of near-equal latencies, which is where item_s.p90 falls.
    for i, functional in enumerate(draws.functionals(shapes[0], CLI_MIX["bounds_functionals"])):
        path, digest = _write(workdir, f"functional-{i}.json", serialize.functional_to_json(functional))
        items.extend(_bounds_items(f"bounds{i}", path, digest, functional))
    traditional, sequential = CLI_MIX["ghjw"]
    for i in range(traditional):
        shape = ScenarioShape(2 + i % 2, 3, 1, 2 + i % 2, TRADITIONAL)
        asm = random_ns_traditional(shape, seed=int(draws.seeded.integers(2**31)))
        path, digest = _write(workdir, f"traditional-{i}.json", serialize.assemblage_to_json(asm))
        items.append(_ghjw_item(f"ghjw-traditional-{i}", path, digest, asm, sequential=False))
    for i in range(sequential):
        shape = SequentialShape(2, 2, 2, 2, 2 + i % 2)
        asm = random_ns_sequential(shape, seed=int(draws.seeded.integers(2**31)))
        path, digest = _write(workdir, f"sequential-{i}.json", serialize.assemblage_to_json(asm))
        items.append(_ghjw_item(f"ghjw-sequential-{i}", path, digest, asm, sequential=True))
    for i in range(CLI_MIX["validate"]):
        path, digest = certify_inputs[int(draws.seeded.integers(len(certify_inputs)))]
        items.append(_validate_item(f"validate-{i}", path, digest))
    order = draws.seeded.permutation(len(items))
    return [items[i] for i in order]


WORKLOADS: dict[str, Callable[..., list[Item]]] = {
    "qtilde-ladder": lambda seed, workdir: qtilde_ladder(seed),
    "lhs-blocks": lambda seed, workdir: lhs_blocks(seed),
    "cli-mix": cli_mix,
}
