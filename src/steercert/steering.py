"""Linear functionals on assemblages and a hierarchy of bounds and membership tests.

A steering functional assigns the real value ``sum tr(F_{a,x,y} sigma_{a|x,y})``
to an assemblage.  Three convex sets give three benchmarks for such values:

* the no-signalling set (all valid assemblages),
* the unsteerable set (assemblages explained by a hidden state shared with a
  classical strategy on the untrusted side),
* a moment-matrix relaxation of the quantum-realizable set, built from words
  in the untrusted measurement and trusted channel labels, with one block of
  side ``d * (1 + m_a + m_b + m_a m_b)`` written over its free moments.

Each benchmark is the functional's minimum over its set.  The hidden-state
minimum has a closed form, a sum of smallest eigenvalues minimized over
deterministic strategies; the no-signalling and relaxation minima are
computed with the in-house semidefinite solver.  Each set also supports a
direct membership test for a given assemblage, all three by the solver.  The
wired (instrumental) variant post-selects the trusted input to equal the
untrusted outcome, both for functional values and for the relaxation bound.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from steercert import sdp
from steercert.assemblages import (
    BWI,
    INSTRUMENTAL,
    BwiAssemblage,
    InstrumentalAssemblage,
    ScenarioShape,
    consistent,
    ns_variable_blocks,
    validate_ns_bwi,
)
from steercert.matcore import PAULIS, Array, hermitian_part, require_hermitian

#: Imaginary residue allowed when a value is asserted real.
IMAG_TOL = 1e-10

#: Largest number of deterministic strategies enumerated for hidden-state bounds.
MAX_STRATEGIES = 4096


class SolverFailure(RuntimeError):
    """A bound or membership computation ended without a usable verdict."""

    def __init__(self, message: str, solution: object = None) -> None:
        super().__init__(message)
        self.solution = solution


class BinaryOutcomesRequired(ValueError):
    """The relaxation was asked for an input whose untrusted side has n_a != 2."""


def require_binary_outcomes(shape: ScenarioShape) -> None:
    """Raise ``BinaryOutcomesRequired`` unless the relaxation can encode ``shape``."""
    if shape.n_a != 2:
        raise BinaryOutcomesRequired(
            f"the relaxation needs binary outcomes (n_a = 2); this input has n_a = {shape.n_a}"
        )


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


def lhs_bound(
    functional: SteeringFunctional, *, max_iter: int | None = None
) -> tuple[float, LhsModel]:
    """Minimum of the functional over hidden-state assemblages, with an exact model.

    The weights are shared across trusted inputs, so for each deterministic
    strategy ``s`` the trusted states decouple per input and the minimum is
    ``min_s sum_y lambda_min(sum_x F_{s(x),x,y})``.  The model is the first
    minimizing strategy with weight one and a ground-state projector at each
    trusted input.  No solver runs, so ``max_iter`` has no effect: it is
    accepted only because the benchmark in ``perfbench/`` still passes it, and
    passing it raises a ``DeprecationWarning``.
    """
    if max_iter is not None:
        warnings.warn(
            "lhs_bound is a closed form and runs no solver; max_iter has no effect",
            DeprecationWarning,
            stacklevel=2,
        )
    shape = functional.shape
    strategies = deterministic_strategies(shape.n_a, shape.m_a)
    table = np.array(
        [
            [[functional.term(a, x, y) for y in range(shape.m_b)] for x in range(shape.m_a)]
            for a in range(shape.n_a)
        ]
    )
    # gains[k, y] = sum_x F_{s_k(x),x,y}
    gains = table[np.array(strategies), np.arange(shape.m_a)].sum(axis=1)
    energies, vectors = np.linalg.eigh(gains)
    totals = energies[..., 0].sum(axis=1)
    best = int(np.argmin(totals))
    ground = vectors[best, :, :, 0]
    states = {(0, y): np.outer(ground[y], ground[y].conj()) for y in range(shape.m_b)}
    return float(totals[best]), LhsModel(strategies=(strategies[best],), states=states)


def _signalling(asm: BwiAssemblage, rules: Sequence[str]) -> dict[str, float] | None:
    """The worst named :func:`validate_ns_bwi` residual, when above the presolve's tolerance."""
    worst = max(validate_ns_bwi(asm).residuals[rule] for rule in rules)
    return None if consistent(worst, asm.members.values()) else {"signalling": worst}


def lhs_membership(
    asm: BwiAssemblage, tol: float = 1e-8, max_iter: int = 200
) -> sdp.MembershipReport:
    """Decide whether an assemblage admits a hidden-state explanation.

    Each strategy carries one block per trusted input.  The rows pin (the
    Hermitian part of) every member at ``x = 0`` and ``a < n_a - 1`` at ``x >=
    1``, and equate each strategy's traces across trusted inputs except for
    the ``1 + m_a (n_a - 1)`` strategies with at most one nonzero entry, over
    which the pinned ``(a, x)`` have an invertible indicator matrix (a
    function ``c + sum_x f_x(s(x))`` vanishing there vanishes everywhere).
    Only pins touch those strategies' blocks, so the rows are independent; on
    no-signalling data they imply the omitted rows (the last outcome is the
    reduced state minus the others, and the pins fix those traces).
    Signalling data are infeasible with margin ``-inf``, with no solve: the
    report's ``problem`` then holds every row, and ``certificate_y`` combines
    them into ``sum_i y_i A_i = 0`` with ``b . y = 1``.
    """
    shape = asm.shape
    strategies = deterministic_strategies(shape.n_a, shape.m_a)
    table = np.array(strategies)
    builder = sdp.HermitianBlockBuilder()
    names = {(k, y): f"omega[{k},{y}]" for k in range(len(table)) for y in range(shape.m_b)}
    for name in names.values():
        builder.add_block(name, shape.d)
    sparse = np.count_nonzero(table, axis=1) <= 1

    def add_rows(traced: Array, last: bool) -> sdp.SdpProblem:
        eye = np.eye(shape.d)
        for k, y in itertools.product(np.flatnonzero(traced), range(1, shape.m_b)):
            builder.add_equality([(names[(k, y)], eye), (names[(k, 0)], -eye)])
        for a, x, y in itertools.product(range(shape.n_a), range(shape.m_a), range(shape.m_b)):
            if (x > 0 and a == shape.n_a - 1) == last:
                terms = [(names[(k, y)], 1.0) for k in np.flatnonzero(table[:, x] == a)]
                builder.add_matrix_equality(terms, hermitian_part(asm.member(a, x, y)))
        return builder.build()

    problem = add_rows(~sparse, last=False)
    signalling = _signalling(asm, ("state_consistency", "trace_consistency"))
    if signalling is None:
        report = sdp.feasibility_phase1(problem, feas_tol=tol, max_iter=max_iter)
        if report.feasible:
            states = {key: builder.extract(report.witness, name) for key, name in names.items()}
            report.witness = LhsModel(strategies=tuple(strategies), states=states)
        return report
    full = add_rows(sparse, last=True)
    return sdp.contradiction_report(full, problem.num_rows, signalling, tol)


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
        """Twice ``gamma``'s side: the relaxation's size as a real symmetric program.

        The solver works on ``gamma`` itself, a complex Hermitian block.
        """
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


MomentKey = tuple[tuple[int, ...], tuple[int, ...]]


def _moment_key(u: tuple, v: tuple) -> MomentKey:
    """Label of block ``(u, v)``: per letter kind, ``u``'s letters reversed, then ``v``'s.

    The two kinds commute and every letter is a projector, so each kind is
    rewritten on its own and adjacent repeats collapse.
    """

    def rewrite(kinds: tuple[str, ...], at: int) -> tuple[int, ...]:
        left = (u[at],) if u[0] in kinds else ()
        joined = left[::-1] + ((v[at],) if v[0] in kinds else ())
        return tuple(l for i, l in enumerate(joined) if i == 0 or joined[i - 1] != l)

    return rewrite(("x", "xy"), 1), rewrite(("y", "xy"), -1)


def _orient(key: MomentKey) -> tuple[MomentKey, bool]:
    """Representative of ``key`` and its reverse, and whether ``key`` is the reverse."""
    reverse = (key[0][::-1], key[1][::-1])
    return min(key, reverse), reverse < key


class _MomentForm:
    """The moment block as ``Gamma = F0 + sum_k p_k F_k`` over its free real moments.

    ``stack[0]`` is ``F0`` and ``stack[1 + k]`` is ``F_k``.  Blocks with equal
    keys are equal and a key's reverse labels the conjugate transpose.  A
    representative key's block is the identity (empty key), a multiple of the
    identity (no trusted letter; real if the key is its own reverse), a general
    complex block (a key that is not its own reverse), or else a Hermitian
    block whose last diagonal entry sets ``d tr`` to 1 (trusted letter alone)
    or to the untrusted letter's scalar.  ``pinned`` fixes some keys' blocks.
    """

    def __init__(
        self, shape: ScenarioShape, pinned: dict[MomentKey, Array] | None = None
    ) -> None:
        require_binary_outcomes(shape)
        self.shape, self.words, self.d = shape, moment_words(shape), shape.d
        d, pinned = shape.d, pinned or {}
        eye = np.eye(d, dtype=complex)
        last = np.outer(eye[-1], eye[-1])
        # Per representative key: its constant and (moment, coefficient) terms.
        # The first row comes first, so a pair's untrusted scalar is known.
        classes: dict[MomentKey, tuple[Array, list[tuple[int, Array]]]] = {}
        n_moments = 0
        for u in self.words:
            for v in self.words:
                key, _ = _orient(_moment_key(u, v))
                if key in classes:
                    continue
                x_part, y_part = key
                const, terms, basis = 0 * eye, [], []
                if key in pinned:
                    const = np.asarray(pinned[key], dtype=complex)
                elif key == ((), ()):
                    const = eye
                elif not y_part:
                    basis = [eye] if len(x_part) == 1 else [eye, 1j * eye]
                elif len(x_part) == 2 or len(y_part) == 2:
                    basis = [
                        ph * np.outer(eye[i], eye[j])
                        for ph in (1, 1j)
                        for i in range(d)
                        for j in range(d)
                    ]
                else:
                    scalar, scalar_terms = classes[(x_part, ())]
                    const = scalar[0, 0] / d * last
                    terms = [(k, coeff[0, 0] / d * last) for k, coeff in scalar_terms]
                    basis = [np.outer(eye[i], eye[i]) - last for i in range(d - 1)] + [
                        np.outer(ph * eye[i], eye[j]) + np.outer(np.conj(ph) * eye[j], eye[i])
                        for i in range(d)
                        for j in range(i + 1, d)
                        for ph in (1, 1j)
                    ]
                classes[key] = (const, terms + list(enumerate(basis, 1 + n_moments)))
                n_moments += len(basis)
        side = d * len(self.words)
        self.stack = np.zeros((1 + n_moments, side, side), dtype=complex)
        for i, u in enumerate(self.words):
            for j, v in enumerate(self.words):
                key, flip = _orient(_moment_key(u, v))
                const, terms = classes[key]
                block = (slice(d * i, d * i + d), slice(d * j, d * j + d))
                for k, coeff in [(0, const)] + terms:
                    self.stack[(k, *block)] = coeff.conj().T if flip else coeff

    def moment(self, p: Array) -> MomentMatrix:
        gamma = np.tensordot(np.concatenate([[1.0], p]), self.stack, axes=1)
        return MomentMatrix(shape=_qtilde_scenario(self.shape), words=self.words, gamma=gamma)

    def member(self, a: int, x: int, y: int) -> Array:
        """``sigma_{a|x,y}`` per entry of ``stack``, read as :meth:`MomentMatrix.member` does."""

        def first_row(word: tuple) -> Array:
            col = self.d * self.words.index(word)
            return self.d * self.stack[:, : self.d, col : col + self.d].transpose(0, 2, 1)

        sigma_0 = first_row(("xy", x, y))
        return sigma_0 if a == 0 else first_row(("y", y)) - sigma_0


def _qtilde_scenario(shape: ScenarioShape) -> ScenarioShape:
    return ScenarioShape(n_a=2, m_a=shape.m_a, m_b=shape.m_b, d=shape.d, kind=BWI)


def _bound_problem(
    form: _MomentForm, terms: Sequence[tuple[Array, int, int, int]]
) -> tuple[sdp.SdpProblem, Array]:
    """The bound as an LMI, and the objective per entry of ``form.stack``.

    The objective is the sum of ``tr(F sigma_{a|x,y})`` over ``terms``
    ``(F, a, x, y)``.  The moment block is the only LMI block: ``Gamma >= 0``
    already makes every member positive semidefinite, since ``d
    sigma_{1|x,y}`` is the transpose of ``Gamma`` compressed by ``e_y -
    e_xy``.
    """
    gain = sum(
        np.einsum("ij,kji->k", coeff, form.member(a, x, y)).real for coeff, a, x, y in terms
    )
    problem = sdp.hermitian_lmi([form.stack[0]], [form.stack[1:]], -gain[1:])
    return problem, gain


def build_qtilde_problem(functional: SteeringFunctional) -> sdp.SdpProblem:
    """The relaxation bound as a block semidefinite program.

    The moment block is ``Gamma = F0 + sum_k p_k F_k`` over the free real
    moments, and the problem is its linear matrix inequality as built by
    :func:`steercert.sdp.hermitian_lmi`: one row per free moment, with the
    negated functional as the dual objective.  Its one block is the complex
    moment block of side ``d (1 + m_a + m_b + m_a m_b)``; the members need no
    blocks of their own, because the moment block's being positive
    semidefinite implies theirs.
    """
    terms = [(coeff, *key) for key, coeff in functional.coeffs.items()]
    return _bound_problem(_MomentForm(functional.shape), terms)[0]


def _solve_bound(
    shape: ScenarioShape,
    terms: Sequence[tuple[Array, int, int, int]],
    *,
    feas_tol: float,
    gap_tol: float,
    max_iter: int,
    context: str,
) -> tuple[float, MomentMatrix]:
    form = _MomentForm(shape)
    problem, gain = _bound_problem(form, terms)
    solution = sdp.solve(problem, feas_tol=feas_tol, gap_tol=gap_tol, max_iter=max_iter)
    if solution.status != sdp.OPTIMAL:
        raise SolverFailure(f"{context} ended with status {solution.status}", solution)
    return float(gain[0] + gain[1:] @ solution.y), form.moment(solution.y)


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
        [(coeff, *key) for key, coeff in functional.coeffs.items()],
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
    require_binary_outcomes(shape)
    if shape.m_b != 2:
        raise ValueError("wiring binary outcomes needs two trusted inputs")
    value, _ = _solve_bound(
        _qtilde_scenario(shape),
        [(coeff, a, x, a) for (a, x), coeff in functional.coeffs.items()],
        feas_tol=feas_tol,
        gap_tol=gap_tol,
        max_iter=max_iter,
        context="wired relaxation bound",
    )
    return value


def qtilde_membership(
    asm: BwiAssemblage, tol: float = 1e-8, max_iter: int = 200
) -> sdp.MembershipReport:
    """Decide whether an assemblage admits a feasible moment block.

    The first block row is pinned to the assemblage: the untrusted blocks to
    the outcome weights times the identity, the trusted blocks to the states,
    the pair blocks to the outcome-0 members (transposed, scaled).  Data that
    break a trace rule (a state's trace is not 1, or an outcome weight
    depends on the trusted input) or signal to the trusted side (the reduced
    state ``sum_a sigma_{a|x,y}`` depends on ``x``; only ``x = 0`` is pinned)
    are infeasible with margin ``-inf``, with no solve.  Otherwise the margin
    is the largest ``t`` with ``Gamma(p) - t I`` positive semidefinite over
    the free moments ``p``, and the witness is ``Gamma`` at the optimum when
    feasible.  ``certificate_y`` is ``None``: the separating functional is
    the LMI's dual block (the solver's primal).
    """
    shape = asm.shape
    require_binary_outcomes(shape)
    d = shape.d
    weights = [float(np.trace(asm.member(0, x, 0)).real) for x in range(shape.m_a)]
    pinned = {((x,), ()): w * np.eye(d) for x, w in enumerate(weights)}
    for y in range(shape.m_b):
        for x_part, member in [((), asm.reduced_state(y))] + [
            ((x,), asm.member(0, x, y)) for x in range(shape.m_a)
        ]:
            pinned[(x_part, (y,))] = hermitian_part(member).T / d
    form = _MomentForm(shape, pinned)
    # The shift t is the last parameter, and the only one in the objective.
    shifted = np.concatenate([form.stack[1:], -np.eye(len(form.stack[0]))[None]])
    problem = sdp.hermitian_lmi([form.stack[0]], [shifted], np.eye(len(shifted))[-1])
    signalling = _signalling(asm, ("state_consistency", "trace_consistency", "normalization"))
    if signalling is not None:
        return sdp.MembershipReport(-np.inf, sdp.INFEASIBLE, signalling, problem, tol=tol)
    solution = sdp.solve(problem, feas_tol=tol, max_iter=max_iter)
    report = sdp.MembershipReport(
        margin=float(solution.y[-1]) if solution.status == sdp.OPTIMAL else np.nan,
        status=solution.status,
        residuals=solution.residuals,
        problem=problem,
        iterations=solution.iterations,
        tol=tol,
        phase_seconds=solution.phase_seconds,
    )
    if report.feasible:
        report.witness = form.moment(solution.y[:-1])
    return report
