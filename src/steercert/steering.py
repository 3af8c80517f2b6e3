"""Linear functionals on assemblages and a hierarchy of bounds and membership tests.

A steering functional assigns the real value ``sum tr(F_{a,x,y} sigma_{a|x,y})``
to an assemblage.  Three convex sets give three benchmarks for such values:

* the no-signalling set (all valid assemblages),
* the unsteerable set (assemblages explained by a hidden state shared with a
  classical strategy on the untrusted side),
* a moment-matrix relaxation of the quantum-realizable set, built from words
  in the untrusted measurement and trusted channel labels, with one block of
  side ``d * (1 + m_a + m_b + m_a m_b)``.

Each benchmark is the functional's minimum over its set, computed with the
in-house semidefinite solver; each set also supports a direct membership test
for a given assemblage.  The wired (instrumental) variant post-selects the
trusted input to equal the untrusted outcome, both for functional values and
for the relaxation bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from steercert import sdp
from steercert.assemblages import (
    BWI,
    INSTRUMENTAL,
    BwiAssemblage,
    InstrumentalAssemblage,
    MembershipReport,
    ScenarioShape,
    ns_variable_blocks,
)
from steercert.matcore import PAULIS, Array, require_hermitian

#: Imaginary residue allowed when a value is asserted real.
IMAG_TOL = 1e-10

#: Largest number of deterministic strategies enumerated for hidden-state bounds.
MAX_STRATEGIES = 4096


class SolverFailure(RuntimeError):
    """A bound or membership computation ended without a usable verdict."""

    def __init__(self, message: str, solution: object = None) -> None:
        super().__init__(message)
        self.solution = solution


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


@dataclass
class SteeringFunctional:
    """Hermitian coefficients ``F_{a,x,y}`` on bob-with-input members."""

    shape: ScenarioShape
    coeffs: dict[tuple[int, int, int], Array]

    def __post_init__(self) -> None:
        expected = {
            (a, x, y)
            for a in range(self.shape.n_a)
            for x in range(self.shape.m_a)
            for y in range(self.shape.m_b)
        }
        if set(self.coeffs) != expected:
            raise ValueError("coefficient keys do not match the scenario shape")
        self.coeffs = {
            key: require_hermitian(np.asarray(mat, dtype=complex), tol=1e-10)
            for key, mat in self.coeffs.items()
        }
        for key, mat in self.coeffs.items():
            if mat.shape != (self.shape.d, self.shape.d):
                raise ValueError(
                    f"coefficient {key} has shape {mat.shape}, expected side {self.shape.d}"
                )

    def term(self, a: int, x: int, y: int) -> Array:
        return self.coeffs[(a, x, y)]


@dataclass
class InstrumentalFunctional:
    """Hermitian coefficients ``F_{a,x}`` on wired members."""

    shape: ScenarioShape
    coeffs: dict[tuple[int, int], Array]

    def __post_init__(self) -> None:
        if self.shape.kind != INSTRUMENTAL:
            raise ValueError("shape.kind must be instrumental")
        expected = {(a, x) for a in range(self.shape.n_a) for x in range(self.shape.m_a)}
        if set(self.coeffs) != expected:
            raise ValueError("coefficient keys do not match the scenario shape")
        self.coeffs = {
            key: require_hermitian(np.asarray(mat, dtype=complex), tol=1e-10)
            for key, mat in self.coeffs.items()
        }

    def term(self, a: int, x: int) -> Array:
        return self.coeffs[(a, x)]


def _real_or_raise(value: complex, context: str) -> float:
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"{context} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def evaluate(
    functional: SteeringFunctional | InstrumentalFunctional,
    asm: BwiAssemblage | InstrumentalAssemblage,
) -> float:
    """Value of the functional on the assemblage, asserted real."""
    if isinstance(functional, SteeringFunctional):
        if not isinstance(asm, BwiAssemblage):
            raise TypeError("bob-with-input functionals evaluate bob-with-input assemblages")
        total = sum(
            complex(np.trace(functional.term(a, x, y) @ asm.member(a, x, y)))
            for a in range(functional.shape.n_a)
            for x in range(functional.shape.m_a)
            for y in range(functional.shape.m_b)
        )
    elif isinstance(functional, InstrumentalFunctional):
        if not isinstance(asm, InstrumentalAssemblage):
            raise TypeError("wired functionals evaluate wired assemblages")
        total = sum(
            complex(np.trace(functional.term(a, x) @ asm.member(a, x)))
            for a in range(functional.shape.n_a)
            for x in range(functional.shape.m_a)
        )
    else:
        raise TypeError(f"unsupported functional type {type(functional).__name__}")
    return _real_or_raise(total, "functional value")


def canonical_functional() -> SteeringFunctional:
    """The twelve-projector functional used throughout the examples.

    Coefficient ``(a, x, y)`` is ``(I - (-1)^a P_x) / 2`` transposed at
    trusted input 1, with ``P_x`` the Pauli matrices.  It vanishes on the
    transpose-based example assemblage.
    """
    shape = ScenarioShape(n_a=2, m_a=3, m_b=2, d=2, kind=BWI)
    coeffs = {}
    for a in range(2):
        for x, pauli in enumerate(PAULIS):
            base = 0.5 * (np.eye(2) - (-1.0) ** a * pauli)
            for y in range(2):
                coeffs[(a, x, y)] = base.T if y == 1 else base
    return SteeringFunctional(shape=shape, coeffs=coeffs)


def canonical_instrumental_functional() -> InstrumentalFunctional:
    """Post-selection of :func:`canonical_functional` on trusted input = outcome.

    Every coefficient is a projector, so the value is nonnegative on any
    assemblage, and the quantum realizable wired Pauli example attains 0.
    The functional's quantum minimum is therefore 0, equal to its
    no-signalling minimum: it does not witness post-quantum instrumental
    steering.
    """
    full = canonical_functional()
    shape = ScenarioShape(n_a=2, m_a=3, m_b=2, d=2, kind=INSTRUMENTAL)
    coeffs = {
        (a, x): full.term(a, x, a) for a in range(2) for x in range(full.shape.m_a)
    }
    return InstrumentalFunctional(shape=shape, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Hidden-state (unsteerable) set
# ---------------------------------------------------------------------------


def deterministic_strategies(n_a: int, m_a: int) -> list[tuple[int, ...]]:
    """All outcome assignments ``x -> a`` in lexicographic order."""
    count = n_a**m_a
    if count > MAX_STRATEGIES:
        raise ValueError(
            f"{count} deterministic strategies exceed the supported cap {MAX_STRATEGIES}"
        )
    return [tuple(s) for s in itertools.product(range(n_a), repeat=m_a)]


@dataclass
class LhsModel:
    """A hidden-state explanation: strategies with subnormalized trusted states.

    ``states[(k, y)]`` is the state attached to strategy ``k`` and trusted
    input ``y``, carrying the strategy weight in its trace.
    """

    strategies: tuple[tuple[int, ...], ...]
    states: dict[tuple[int, int], Array]

    def weights(self) -> Array:
        return np.array(
            [float(np.real(np.trace(self.states[(k, 0)]))) for k in range(len(self.strategies))]
        )

    def assemblage(self, shape: ScenarioShape) -> BwiAssemblage:
        members = {}
        for a in range(shape.n_a):
            for x in range(shape.m_a):
                for y in range(shape.m_b):
                    total = np.zeros((shape.d, shape.d), dtype=complex)
                    for k, strategy in enumerate(self.strategies):
                        if strategy[x] == a:
                            total = total + self.states[(k, y)]
                    members[(a, x, y)] = total
        return BwiAssemblage(shape=shape, members=members)


def _lhs_blocks(
    builder: sdp.HermitianBlockBuilder,
    shape: ScenarioShape,
    strategies: Sequence[tuple[int, ...]],
) -> dict[tuple[int, int], str]:
    """Declare hidden-state blocks with input-independent weights."""
    names = {}
    for k in range(len(strategies)):
        for y in range(shape.m_b):
            name = f"omega[{k},{y}]"
            builder.add_block(name, shape.d)
            names[(k, y)] = name
    eye = np.eye(shape.d, dtype=complex)
    for k in range(len(strategies)):
        for y in range(1, shape.m_b):
            builder.add_equality([(names[(k, y)], eye), (names[(k, 0)], -eye)], 0.0)
    return names


def lhs_bound(
    functional: SteeringFunctional,
    *,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[float, LhsModel]:
    """Minimum of the functional over hidden-state assemblages, with a model.

    The untrusted side is replaced by deterministic strategies; the
    semidefinite program optimizes the subnormalized trusted states.
    """
    shape = functional.shape
    strategies = deterministic_strategies(shape.n_a, shape.m_a)
    builder = sdp.HermitianBlockBuilder()
    names = _lhs_blocks(builder, shape, strategies)
    builder.add_equality(
        [(names[(k, 0)], np.eye(shape.d, dtype=complex)) for k in range(len(strategies))],
        1.0,
    )
    for k, strategy in enumerate(strategies):
        for y in range(shape.m_b):
            gain = np.zeros((shape.d, shape.d), dtype=complex)
            for x in range(shape.m_a):
                gain = gain + functional.term(strategy[x], x, y)
            builder.add_objective_term(names[(k, y)], gain)
    problem = builder.build()
    solution = sdp.solve(problem, feas_tol=feas_tol, gap_tol=gap_tol, max_iter=max_iter)
    if solution.status != sdp.OPTIMAL:
        raise SolverFailure(
            f"hidden-state bound ended with status {solution.status}", solution
        )
    states = {
        key: builder.extract(solution.block_values, name) for key, name in names.items()
    }
    model = LhsModel(strategies=tuple(strategies), states=states)
    return float(solution.primal_value), model


def lhs_membership(
    asm: BwiAssemblage, tol: float = 1e-8, max_iter: int = 200
) -> MembershipReport:
    """Decide whether an assemblage admits a hidden-state explanation."""
    shape = asm.shape
    strategies = deterministic_strategies(shape.n_a, shape.m_a)
    builder = sdp.HermitianBlockBuilder()
    names = _lhs_blocks(builder, shape, strategies)
    d = shape.d
    for a in range(shape.n_a):
        for x in range(shape.m_a):
            for y in range(shape.m_b):
                target = asm.member(a, x, y)
                for i in range(d):
                    for j in range(i, d):
                        unit = np.zeros((d, d), dtype=complex)
                        unit[j, i] = 1.0
                        terms = [
                            (names[(k, y)], unit)
                            for k, strategy in enumerate(strategies)
                            if strategy[x] == a
                        ]
                        if not terms:
                            continue
                        builder.add_equality(terms, complex(target[i, j]))
    problem = builder.build()
    result = sdp.feasibility_phase1(problem, feas_tol=tol, max_iter=max_iter)
    witness = None
    if result.feasible and result.block_values is not None:
        states = {
            key: builder.extract(result.block_values, name)
            for key, name in names.items()
        }
        witness = LhsModel(strategies=tuple(strategies), states=states)
    return MembershipReport(
        feasible=result.feasible,
        margin=result.margin,
        status=result.status,
        residuals=result.residuals,
        problem=problem,
        witness=witness,
        certificate_y=result.certificate_y,
    )


# ---------------------------------------------------------------------------
# No-signalling set
# ---------------------------------------------------------------------------


def ns_bound(
    functional: SteeringFunctional,
    *,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> float:
    """Minimum of the functional over all no-signalling assemblages."""
    shape = functional.shape
    builder = sdp.HermitianBlockBuilder()
    names = ns_variable_blocks(builder, shape)
    for key, name in names.items():
        builder.add_objective_term(name, functional.term(*key))
    problem = builder.build()
    solution = sdp.solve(problem, feas_tol=feas_tol, gap_tol=gap_tol, max_iter=max_iter)
    if solution.status != sdp.OPTIMAL:
        raise SolverFailure(
            f"no-signalling bound ended with status {solution.status}", solution
        )
    return float(solution.primal_value)


# ---------------------------------------------------------------------------
# Moment-matrix relaxation
# ---------------------------------------------------------------------------


def moment_words(shape: ScenarioShape) -> list[tuple]:
    """Word labels: empty, one per untrusted input, one per trusted input, all pairs."""
    return (
        [("e",)]
        + [("x", x) for x in range(shape.m_a)]
        + [("y", y) for y in range(shape.m_b)]
        + [("xy", x, y) for x in range(shape.m_a) for y in range(shape.m_b)]
    )


@dataclass
class MomentMatrix:
    """The relaxation's positive block, labeled by words times the trusted space."""

    shape: ScenarioShape
    words: list[tuple]
    gamma: Array

    @property
    def embedded_side(self) -> int:
        """Side of the real symmetric block the solver works on: twice ``gamma``'s."""
        return 2 * self.gamma.shape[0]

    def _index(self, word: tuple) -> int:
        return self.words.index(word)

    def block(self, u: tuple, v: tuple) -> Array:
        d = self.shape.d
        i, j = self._index(u), self._index(v)
        return self.gamma[d * i : d * i + d, d * j : d * j + d]

    def member(self, a: int, x: int, y: int) -> Array:
        """Assemblage member encoded in the first block row.

        The encoding blocks are Hermitian only up to the solve tolerance, so
        the result is symmetrized before it is returned.
        """
        d = self.shape.d
        sigma_y = d * self.block(("e",), ("y", y)).T
        sigma_0 = d * self.block(("e",), ("xy", x, y)).T
        if a == 0:
            return require_hermitian(sigma_0, tol=1e-6)
        if a == 1:
            return require_hermitian(sigma_y - sigma_0, tol=1e-6)
        raise ValueError("the relaxation encodes binary outcomes only")

    def assemblage(self) -> BwiAssemblage:
        shape = ScenarioShape(2, self.shape.m_a, self.shape.m_b, self.shape.d, BWI)
        members = {
            (a, x, y): self.member(a, x, y)
            for a in range(2)
            for x in range(shape.m_a)
            for y in range(shape.m_b)
        }
        return BwiAssemblage(shape=shape, members=members)

    def residuals(self) -> dict[str, float]:
        """Largest violation of each structural family, for auditing."""
        d = self.shape.d
        m_a, m_b = self.shape.m_a, self.shape.m_b
        e = ("e",)

        def norm(mat: Array) -> float:
            return float(np.max(np.abs(mat)))

        out: dict[str, float] = {}
        out["unit_block"] = norm(self.block(e, e) - np.eye(d))
        out["idempotent"] = max(
            norm(self.block(w, w) - self.block(e, w)) for w in self.words[1:]
        )
        joint = 0.0
        for x in range(m_a):
            for y in range(m_b):
                wxy, wx, wy = ("xy", x, y), ("x", x), ("y", y)
                base = self.block(e, wxy)
                for other in (self.block(wx, wxy), self.block(wy, wxy), self.block(wx, wy)):
                    joint = max(joint, norm(base - other))
        out["joint_consistency"] = joint
        x_compat = 0.0
        for x in range(m_a):
            for xp in range(m_a):
                for y in range(m_b):
                    left = self.block(("x", x), ("xy", xp, y))
                    x_compat = max(
                        x_compat,
                        norm(left - self.block(("xy", x, y), ("xy", xp, y))),
                        norm(left - self.block(("xy", x, y), ("x", xp))),
                    )
        out["x_compatibility"] = x_compat
        y_compat = 0.0
        for x in range(m_a):
            for y in range(m_b):
                for yp in range(m_b):
                    left = self.block(("y", y), ("xy", x, yp))
                    y_compat = max(
                        y_compat,
                        norm(left - self.block(("xy", x, y), ("xy", x, yp))),
                        norm(left - self.block(("xy", x, y), ("y", yp))),
                    )
        out["y_compatibility"] = y_compat
        scalar = 0.0
        for x in range(m_a):
            for xp in range(m_a):
                block = self.block(("x", x), ("x", xp))
                off = block - np.diag(np.diag(block))
                scalar = max(scalar, norm(off), norm(np.diag(block) - block[0, 0]))
        out["x_pair_scalar"] = scalar
        trace = 0.0
        for y in range(m_b):
            trace = max(trace, abs(d * complex(np.trace(self.block(e, ("y", y)))) - 1.0))
        out["state_trace"] = float(trace)
        outcome = 0.0
        for x in range(m_a):
            block = self.block(e, ("x", x))
            off = block - np.diag(np.diag(block))
            outcome = max(outcome, norm(off), norm(np.diag(block) - block[0, 0]))
            for y in range(m_b):
                outcome = max(
                    outcome,
                    abs(block[0, 0] - d * complex(np.trace(self.block(e, ("xy", x, y))))),
                )
        out["outcome_trace"] = float(outcome)
        out["psd"] = float(-min(np.linalg.eigvalsh(require_hermitian(self.gamma, tol=1e-8)).min(), 0.0))
        return out


def _unit_in_gamma(side: int, p: int, q: int) -> Array:
    out = np.zeros((side, side), dtype=complex)
    out[q, p] = 1.0
    return out


class _QtildeSpace:
    """Shared scaffolding for the relaxation's constraint rows."""

    def __init__(self, shape: ScenarioShape) -> None:
        if shape.n_a != 2:
            raise ValueError("the relaxation is formulated for binary outcomes")
        self.shape = shape
        self.words = moment_words(shape)
        self.widx = {w: i for i, w in enumerate(self.words)}
        self.d = shape.d
        self.side = self.d * len(self.words)
        self.name = "gamma"

    def coord(self, word: tuple, local: int) -> int:
        return self.d * self.widx[word] + local

    def entry_unit(self, u: tuple, i: int, v: tuple, j: int) -> Array:
        """Coefficient with ``tr(E Gamma) = Gamma_block(u, v)[i, j]``."""
        return _unit_in_gamma(self.side, self.coord(u, i), self.coord(v, j))

    def add_block_equality(
        self, builder: sdp.HermitianBlockBuilder, u: tuple, v: tuple, up: tuple, vp: tuple
    ) -> None:
        """Rows forcing block (u, v) to equal block (up, vp) entrywise."""
        if (u, v) == (up, vp):
            return
        for i in range(self.d):
            for j in range(self.d):
                coeff = self.entry_unit(u, i, v, j) - self.entry_unit(up, i, vp, j)
                builder.add_equality([(self.name, coeff)], 0.0)

    def add_structure(self, builder: sdp.HermitianBlockBuilder) -> None:
        """All structural rows shared by the bound and membership variants."""
        shape, d = self.shape, self.d
        e = ("e",)
        # Unit upper-left block.
        for i in range(d):
            for j in range(i, d):
                builder.add_equality(
                    [(self.name, self.entry_unit(e, i, e, j))], 1.0 if i == j else 0.0
                )
        # Projector words: diagonal block equals first-row block.
        for w in self.words[1:]:
            self.add_block_equality(builder, w, w, e, w)
        # A pair word meets each of its letters consistently.
        for x in range(shape.m_a):
            for y in range(shape.m_b):
                wxy, wx, wy = ("xy", x, y), ("x", x), ("y", y)
                self.add_block_equality(builder, e, wxy, wx, wxy)
                self.add_block_equality(builder, e, wxy, wy, wxy)
                self.add_block_equality(builder, e, wxy, wx, wy)
        # Dropping the trusted letter from either side of an untrusted pair.
        for x in range(shape.m_a):
            for xp in range(shape.m_a):
                for y in range(shape.m_b):
                    self.add_block_equality(
                        builder, ("x", x), ("xy", xp, y), ("xy", x, y), ("xy", xp, y)
                    )
                    self.add_block_equality(
                        builder, ("x", x), ("xy", xp, y), ("xy", x, y), ("x", xp)
                    )
        # Dropping the untrusted letter from either side of a trusted pair.
        for x in range(shape.m_a):
            for y in range(shape.m_b):
                for yp in range(shape.m_b):
                    self.add_block_equality(
                        builder, ("y", y), ("xy", x, yp), ("xy", x, y), ("xy", x, yp)
                    )
                    self.add_block_equality(
                        builder, ("y", y), ("xy", x, yp), ("xy", x, y), ("y", yp)
                    )
        # Untrusted-only blocks are multiples of the identity.
        for x in range(shape.m_a):
            for xp in range(shape.m_a):
                for i in range(d):
                    for j in range(d):
                        if i == j and i == 0:
                            continue
                        coeff = self.entry_unit(("x", x), i, ("x", xp), j)
                        if i == j:
                            coeff = coeff - self.entry_unit(("x", x), 0, ("x", xp), 0)
                        builder.add_equality([(self.name, coeff)], 0.0)
        # Trusted states are normalized.
        for y in range(shape.m_b):
            coeff = sum(self.entry_unit(e, i, ("y", y), i) for i in range(d))
            builder.add_equality([(self.name, d * coeff)], 1.0)
        # Outcome weights: scalar on the untrusted block, trace of every pair block.
        for x in range(shape.m_a):
            for i in range(d):
                for j in range(d):
                    if i == j and i == 0:
                        continue
                    coeff = self.entry_unit(e, i, ("x", x), j)
                    if i == j:
                        coeff = coeff - self.entry_unit(e, 0, ("x", x), 0)
                        builder.add_equality([(self.name, coeff)], 0.0)
                    else:
                        builder.add_equality([(self.name, coeff)], 0.0)
            for y in range(shape.m_b):
                coeff = self.entry_unit(e, 0, ("x", x), 0) - d * sum(
                    self.entry_unit(e, i, ("xy", x, y), i) for i in range(d)
                )
                builder.add_equality([(self.name, coeff)], 0.0)


def _qtilde_scenario(shape: ScenarioShape) -> ScenarioShape:
    return ScenarioShape(n_a=2, m_a=shape.m_a, m_b=shape.m_b, d=shape.d, kind=BWI)


def _build_bound_problem(
    shape: ScenarioShape,
) -> tuple[sdp.HermitianBlockBuilder, _QtildeSpace, dict[tuple[int, int], str]]:
    space = _QtildeSpace(shape)
    builder = sdp.HermitianBlockBuilder()
    builder.add_block(space.name, space.side)
    space.add_structure(builder)
    d = shape.d
    e = ("e",)
    s1_names = {}
    for x in range(shape.m_a):
        for y in range(shape.m_b):
            name = f"sigma1[{x},{y}]"
            builder.add_block(name, d)
            s1_names[(x, y)] = name
            # The outcome-1 member is the trusted state minus the outcome-0
            # member, both read off the first block row (transposed, scaled).
            for i in range(d):
                for j in range(i, d):
                    unit = np.zeros((d, d), dtype=complex)
                    unit[j, i] = 1.0
                    gamma_coeff = d * (
                        space.entry_unit(e, j, ("y", y), i)
                        - space.entry_unit(e, j, ("xy", x, y), i)
                    )
                    builder.add_equality(
                        [(name, unit), (space.name, -gamma_coeff)], 0.0
                    )
    return builder, space, s1_names


def _pair_block_coefficient(space: _QtildeSpace, f0: Array, x: int, y: int) -> Array:
    """Coefficient reading ``tr(f0 sigma_0)`` off the pair block ``(x, y)``."""
    d = space.d
    coeff = np.zeros((space.side, space.side), dtype=complex)
    for i in range(d):
        for j in range(d):
            coeff += d * f0[i, j] * space.entry_unit(("e",), i, ("xy", x, y), j)
    return coeff


def _bwi_objective_filler(functional: SteeringFunctional):
    shape = functional.shape

    def fill(builder, space, s1_names):
        for x in range(shape.m_a):
            for y in range(shape.m_b):
                coeff = _pair_block_coefficient(space, functional.term(0, x, y), x, y)
                builder.add_objective_term(space.name, coeff)
                builder.add_objective_term(s1_names[(x, y)], functional.term(1, x, y))

    return fill


def build_qtilde_problem(functional: SteeringFunctional) -> sdp.SdpProblem:
    """The relaxation bound as a block semidefinite program.

    The returned problem minimizes the functional over the relaxation; its
    first block is the embedded moment block of side ``2 d (1 + m_a + m_b +
    m_a m_b)``, followed by one explicit block per outcome-1 member.
    """
    builder, space, s1_names = _build_bound_problem(functional.shape)
    _bwi_objective_filler(functional)(builder, space, s1_names)
    return builder.build()


def _solve_bound(
    shape: ScenarioShape,
    objective_filler,
    *,
    feas_tol: float,
    gap_tol: float,
    max_iter: int,
    context: str,
) -> tuple[float, MomentMatrix]:
    builder, space, s1_names = _build_bound_problem(shape)
    objective_filler(builder, space, s1_names)
    problem = builder.build()
    solution = sdp.solve(problem, feas_tol=feas_tol, gap_tol=gap_tol, max_iter=max_iter)
    if solution.status != sdp.OPTIMAL:
        raise SolverFailure(f"{context} ended with status {solution.status}", solution)
    gamma = builder.extract(solution.block_values, space.name)
    moment = MomentMatrix(shape=_qtilde_scenario(shape), words=space.words, gamma=gamma)
    return float(solution.primal_value), moment


def qtilde_bound(
    functional: SteeringFunctional,
    *,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> float:
    """Minimum of the functional over the moment-matrix relaxation."""
    value, _ = qtilde_solution(
        functional, feas_tol=feas_tol, gap_tol=gap_tol, max_iter=max_iter
    )
    return value


def qtilde_solution(
    functional: SteeringFunctional,
    *,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[float, MomentMatrix]:
    """Relaxation bound together with the optimizing moment block."""
    return _solve_bound(
        functional.shape,
        _bwi_objective_filler(functional),
        feas_tol=feas_tol,
        gap_tol=gap_tol,
        max_iter=max_iter,
        context="relaxation bound",
    )


def qtilde_instrumental_bound(
    functional: InstrumentalFunctional,
    *,
    feas_tol: float = 1e-8,
    gap_tol: float = 1e-8,
    max_iter: int = 200,
) -> float:
    """Relaxation bound for wired values: the objective post-selects input = outcome.

    The feasible set is the same moment block; only the objective changes, so
    the result lower-bounds every quantum-realizable wired value.
    """
    shape = functional.shape
    if shape.n_a != 2:
        raise ValueError("the relaxation is formulated for binary outcomes")
    if shape.m_b != 2:
        raise ValueError("wiring binary outcomes needs two trusted inputs")
    base_shape = _qtilde_scenario(shape)

    def fill(builder, space, s1_names):
        for x in range(shape.m_a):
            coeff = _pair_block_coefficient(space, functional.term(0, x), x, 0)
            builder.add_objective_term(space.name, coeff)
            builder.add_objective_term(s1_names[(x, 1)], functional.term(1, x))

    value, _ = _solve_bound(
        base_shape,
        fill,
        feas_tol=feas_tol,
        gap_tol=gap_tol,
        max_iter=max_iter,
        context="wired relaxation bound",
    )
    return value


def qtilde_membership(
    asm: BwiAssemblage, tol: float = 1e-8, max_iter: int = 200
) -> MembershipReport:
    """Decide whether an assemblage admits a feasible moment block.

    The first block row is pinned to the assemblage: the untrusted blocks to
    the outcome weights times the identity, the trusted blocks to the states,
    the pair blocks to the outcome-0 members (transposed, scaled).
    """
    shape = asm.shape
    if shape.n_a != 2:
        raise ValueError("the relaxation is formulated for binary outcomes")
    space = _QtildeSpace(shape)
    builder = sdp.HermitianBlockBuilder()
    builder.add_block(space.name, space.side)
    space.add_structure(builder)
    d = shape.d
    e = ("e",)
    for x in range(shape.m_a):
        weight = complex(np.trace(asm.member(0, x, 0))).real
        for i in range(d):
            for j in range(d):
                builder.add_equality(
                    [(space.name, space.entry_unit(e, i, ("x", x), j))],
                    weight if i == j else 0.0,
                )
    for y in range(shape.m_b):
        sigma_y = asm.reduced_state(y)
        for i in range(d):
            for j in range(i, d):
                builder.add_equality(
                    [(space.name, space.entry_unit(e, i, ("y", y), j))],
                    complex(sigma_y[j, i]) / d,
                )
        for x in range(shape.m_a):
            sigma_0 = asm.member(0, x, y)
            for i in range(d):
                for j in range(i, d):
                    builder.add_equality(
                        [(space.name, space.entry_unit(e, i, ("xy", x, y), j))],
                        complex(sigma_0[j, i]) / d,
                    )
    problem = builder.build()
    result = sdp.feasibility_phase1(problem, feas_tol=tol, max_iter=max_iter)
    witness = None
    if result.feasible and result.block_values is not None:
        gamma = builder.extract(result.block_values, space.name)
        witness = MomentMatrix(
            shape=_qtilde_scenario(shape), words=space.words, gamma=gamma
        )
    return MembershipReport(
        feasible=result.feasible,
        margin=result.margin,
        status=result.status,
        residuals=result.residuals,
        problem=problem,
        witness=witness,
        certificate_y=result.certificate_y,
    )
