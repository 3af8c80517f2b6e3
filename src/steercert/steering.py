"""Linear functionals on assemblages and a hierarchy of bounds and membership tests.

A steering functional assigns the real value ``sum tr(F_{a,x,y} sigma_{a|x,y})``
to an assemblage.  Three convex sets give three benchmarks for such values:

* the no-signalling set (all valid assemblages),
* the unsteerable set (assemblages explained by a hidden state shared with a
  classical strategy on the untrusted side),
* a moment-matrix relaxation of the quantum-realizable set, with one block
  of side ``d * (1 + m_a + m_b + m_a m_b)`` written over its free moments.
  Its rows and columns are words, each a pair of letter sequences: untrusted
  measurement labels, then trusted channel labels (the empty word, one
  letter of either kind, or one of each).  One key rule labels block
  ``(u, v)``: per kind, ``u``'s letters reversed, then ``v``'s, with
  adjacent repeats collapsed.  Blocks with equal keys are equal, each key's
  structure fixes its block's basis, and the assemblage is read from the
  empty word's block row.

Each benchmark is the functional's minimum over its set.  The hidden-state
minimum has a closed form, a sum of smallest eigenvalues minimized over
deterministic strategies; the no-signalling and relaxation minima are
computed with the in-house semidefinite solver.  Each set also supports a
direct membership test for a given assemblage, all three by the solver; wired
members are tested for a no-signalling parent.  A wired (instrumental)
functional post-selects the trusted input to equal the untrusted outcome,
for its values and for the relaxation bound alike.  Every program over these
sets is built here: :mod:`steercert.assemblages` holds data and runs no solver.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from steercert import sdp
from steercert.assemblages import (
    BWI,
    INSTRUMENTAL,
    VALIDATION_TOL,
    BwiAssemblage,
    InstrumentalAssemblage,
    ScenarioShape,
    checked_members,
    member_keys,
    validate_instrumental,
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


class UnsupportedInput(ValueError):
    """A well-formed input beyond what a computation supports: an input error, not a verdict."""


class BinaryOutcomesRequired(UnsupportedInput):
    """The relaxation was asked for an input whose untrusted side has n_a != 2."""


class TooManyStrategies(UnsupportedInput):
    """The hidden-state set was asked for more than ``MAX_STRATEGIES`` deterministic strategies."""


def require_binary_outcomes(shape: ScenarioShape) -> None:
    """Raise ``BinaryOutcomesRequired`` unless the relaxation can encode ``shape``."""
    if shape.n_a != 2:
        raise BinaryOutcomesRequired(
            f"the relaxation needs binary outcomes (n_a = 2); this input has n_a = {shape.n_a}"
        )


def ruled_out(residuals: Mapping[str, float], omitted: Sequence[str]) -> dict[str, float]:
    """The residuals that rule data out of a membership, with margin ``-inf`` and no solve.

    A membership pins Hermitian parts and omits the ``omitted`` families' rows
    as implied, so a ``hermitian`` residual or one of theirs above
    :data:`VALIDATION_TOL`, where the validators fail the data, rules them out.
    """
    families = ("hermitian", *omitted)
    return {n: residuals[n] for n in families if residuals.get(n, 0) > VALIDATION_TOL}


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


@dataclass
class SteeringFunctional:
    """Hermitian coefficients ``F_{a,x,y}`` on bob-with-input members."""

    shape: ScenarioShape
    coeffs: dict[tuple[int, int, int], Array]

    def __post_init__(self) -> None:
        if self.shape.kind == INSTRUMENTAL:
            raise ValueError("wired coefficients belong in an InstrumentalFunctional")
        self.coeffs = _hermitian_coefficients(self.shape, self.coeffs)

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
        self.coeffs = _hermitian_coefficients(self.shape, self.coeffs)

    def term(self, a: int, x: int) -> Array:
        return self.coeffs[(a, x)]


#: Either kind of functional, as the relaxation bound and ``evaluate`` take them.
Functional = SteeringFunctional | InstrumentalFunctional


def _hermitian_coefficients(shape: ScenarioShape, coeffs: dict) -> dict:
    """The Hermitian coefficients of a functional, once :func:`checked_members` accepts them."""
    checked = checked_members(shape, coeffs, "coefficient")
    return {key: require_hermitian(mat, tol=1e-10) for key, mat in checked.items()}


def _real_or_raise(value: complex, context: str) -> float:
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(f"{context} has imaginary residue {value.imag:.3e}")
    return float(value.real)


def evaluate(functional: Functional, asm: BwiAssemblage | InstrumentalAssemblage) -> float:
    """Value of the functional on the assemblage, asserted real.

    The two shapes must agree in ``(n_a, m_a, m_b, d)``; their kinds may
    differ, as between a traditional functional and a bob-with-input member
    table.
    """
    wired = isinstance(functional, InstrumentalFunctional)
    wanted = InstrumentalAssemblage if wired else BwiAssemblage
    if not isinstance(asm, wanted):
        raise TypeError(
            f"{type(functional).__name__} evaluates {wanted.__name__}, not {type(asm).__name__}"
        )
    ranges = [(s.n_a, s.m_a, s.m_b, s.d) for s in (functional.shape, asm.shape)]
    if ranges[0] != ranges[1]:
        raise ValueError(
            f"functional shape {functional.shape} does not match assemblage shape {asm.shape}"
        )
    total = sum(
        complex(np.trace(coeff @ asm.members[key])) for key, coeff in functional.coeffs.items()
    )
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
    coeffs = {(a, x): full.term(a, x, a) for a, x in member_keys(shape)}
    return InstrumentalFunctional(shape=shape, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Hidden-state (unsteerable) set
# ---------------------------------------------------------------------------


def deterministic_strategies(n_a: int, m_a: int) -> list[tuple[int, ...]]:
    """All outcome assignments ``x -> a`` in lexicographic order."""
    count = n_a**m_a
    if count > MAX_STRATEGIES:
        raise TooManyStrategies(
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
        for a, x, y in member_keys(shape):
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


@dataclass(frozen=True)
class _HiddenStateRows:
    """The rows of a hidden-state membership of one shape, which the members
    enter only through ``b``: ``problem`` holds them with ``b`` zero,
    ``pins`` the members they pin in row order, and ``pinned`` the rows of
    those members' svec coordinates.  ``blocks`` maps each strategy and
    trusted input to its block."""

    strategies: tuple[tuple[int, ...], ...]
    blocks: dict[tuple[int, int], int]
    problem: sdp.SdpProblem
    pins: tuple[tuple[int, int, int], ...]
    pinned: Array

    def fill(self, asm: BwiAssemblage) -> sdp.SdpProblem:
        """The program for ``asm``: its pinned members' Hermitian parts, one
        batched :func:`~steercert.sdp.svec`, in ``b``."""
        b = np.zeros(self.problem.num_rows)
        members = np.stack([asm.member(*key) for key in self.pins])
        b[self.pinned] = sdp.svec(hermitian_part(members)).ravel()
        return self.problem.with_rhs(b)


@functools.lru_cache(maxsize=sdp.PHASE_ONE_PROGRAMS)
def _hidden_state_rows(shape: ScenarioShape, implied: bool) -> _HiddenStateRows:
    """:func:`lhs_membership`'s rows for ``shape``, built once per shape; with
    ``implied``, the rows it omits follow them."""
    strategies = deterministic_strategies(shape.n_a, shape.m_a)
    table = np.array(strategies)
    builder = sdp.HermitianBlockBuilder()
    blocks = {
        (k, y): builder.add_block(shape.d) for k in range(len(table)) for y in range(shape.m_b)
    }
    sparse = np.count_nonzero(table, axis=1) <= 1
    eye, zero = np.eye(shape.d), np.zeros((shape.d, shape.d))
    pins, pinned = [], []
    for traced, last in [(~sparse, False), (sparse, True)][: 1 + implied]:
        for k, y in itertools.product(np.flatnonzero(traced), range(1, shape.m_b)):
            builder.add_equality([(blocks[(k, y)], eye), (blocks[(k, 0)], -eye)])
        for a, x, y in member_keys(shape):
            if (x > 0 and a == shape.n_a - 1) == last:
                terms = [(blocks[(k, y)], 1.0) for k in np.flatnonzero(table[:, x] == a)]
                start = builder.num_rows
                builder.add_matrix_equality(terms, zero)
                pins.append((a, x, y))
                pinned.append(np.arange(start, builder.num_rows))
    problem = builder.build()
    return _HiddenStateRows(tuple(strategies), blocks, problem, tuple(pins), np.concatenate(pinned))


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
    reduced state minus the others, and the pins fix those traces).  Data
    whose ``hermitian``, ``state_consistency`` or ``trace_consistency``
    residual exceeds ``VALIDATION_TOL`` (:func:`ruled_out`) are infeasible
    with margin ``-inf``, no solve: ``problem`` then holds every row
    (:func:`~steercert.sdp.ruled_out_report`).  The rows depend on the shape
    alone, so they are built once per shape and the members fill only ``b``.
    """
    rows = _hidden_state_rows(asm.shape, False)
    failed = ruled_out(validate_ns_bwi(asm).residuals, ("state_consistency", "trace_consistency"))
    if failed:
        every = _hidden_state_rows(asm.shape, True).fill(asm)
        return sdp.ruled_out_report(every, rows.problem.num_rows, failed, tol)
    report = sdp.feasibility_phase1(rows.fill(asm), tol=tol, max_iter=max_iter)
    if report.feasible:
        states = {key: report.witness[index] for key, index in rows.blocks.items()}
        report.witness = LhsModel(strategies=rows.strategies, states=states)
    return report


# ---------------------------------------------------------------------------
# No-signalling set
# ---------------------------------------------------------------------------


def ns_variable_blocks(
    builder: sdp.HermitianBlockBuilder, shape: ScenarioShape, wired: bool = False
) -> dict[tuple[int, int, int], int]:
    """Declare one Hermitian block per member and add independent no-signalling rows.

    Returns the block indices keyed by (outcome, untrusted input, trusted input).
    The rows are: summed state independent of the untrusted input, member
    traces independent of the trusted input, and total trace one.  At ``x >=
    1`` the trace rows of outcome 0 are omitted: the summed-state rows and the
    other outcomes' trace rows imply them.  ``wired`` also omits
    :func:`_wiring_implied_rows`, which pinning ``w_{a|x,y=a}`` to wired
    members whose weights sum to one implies.
    """
    d = shape.d
    blocks = {
        key: builder.add_block(d)
        for key in itertools.product(range(shape.n_a), range(shape.m_a), range(shape.m_b))
    }
    if shape.n_a > 1:
        _state_rows(builder, blocks, shape)
    keys = itertools.product(range(shape.n_a), range(shape.m_a), range(1, shape.m_b))
    kept = [(a, x, y) for a, x, y in keys if x == 0 or (a > 0 and (a, y) != (1, 1))]
    _trace_rows(builder, blocks, d, kept)
    if not wired:
        _wiring_implied_rows(builder, blocks, shape)
    return blocks


def _state_rows(builder: sdp.HermitianBlockBuilder, blocks: dict, shape: ScenarioShape) -> None:
    """``sum_a w_{a|x,y} = sum_a w_{a|0,y}`` at each ``x >= 1``."""
    zero = np.zeros((shape.d, shape.d), dtype=complex)
    for y in range(shape.m_b):
        for x in range(1, shape.m_a):
            terms = [(blocks[(a, x, y)], 1.0) for a in range(shape.n_a)]
            terms += [(blocks[(a, 0, y)], -1.0) for a in range(shape.n_a)]
            builder.add_matrix_equality(terms, zero)


def _trace_rows(builder: sdp.HermitianBlockBuilder, blocks: dict, d: int, keys: list) -> None:
    """``tr w_{a|x,y} = tr w_{a|x,0}`` for each key ``(a, x, y)``."""
    eye = np.eye(d)
    for a, x, y in keys:
        builder.add_equality([(blocks[(a, x, y)], eye), (blocks[(a, x, 0)], -eye)])


def _wiring_implied_rows(builder: sdp.HermitianBlockBuilder, blocks: dict, shape: ScenarioShape):
    """The rows that pins of ``w_{a|x,a}`` imply, then the normalization row.

    With one outcome every block is pinned, so the pins imply the
    summed-state rows when the members agree.  Otherwise these are the ``(1,
    x, 1)`` trace rows at ``x >= 1``: with ``w_{a|x,a}`` pinned to members
    whose traces sum to one at every ``x``, the ``x = 0`` trace rows and pins
    give ``tr sum_a w_{a|0,0} = 1``, the summed-state rows carry that to
    every ``x``, and there the remaining trace rows and pins fix ``tr
    w_{1|x,0}``.
    """
    if shape.n_a == 1:
        _state_rows(builder, blocks, shape)
    else:
        keys = [(1, x, 1) for x in range(1, shape.m_a) if shape.m_b > 1]
        _trace_rows(builder, blocks, shape.d, keys)
    eye = np.eye(shape.d)
    builder.add_equality([(blocks[(a, 0, 0)], eye) for a in range(shape.n_a)], 1.0)


def ns_bound(functional: SteeringFunctional, *, tol: float = 1e-8) -> float:
    """Minimum of the functional over all no-signalling assemblages.

    ``tol`` bounds the solve's feasibility residuals and its duality gap.
    """
    shape = functional.shape
    builder = sdp.HermitianBlockBuilder()
    for key, index in ns_variable_blocks(builder, shape).items():
        builder.add_objective_term(index, functional.term(*key))
    problem = builder.build()
    solution = sdp.solve(problem, tol=tol)
    if solution.status != sdp.OPTIMAL:
        raise SolverFailure(
            f"no-signalling bound ended with status {solution.status}", solution
        )
    return float(solution.primal_value)


def instrumental_membership(
    asm: InstrumentalAssemblage, tol: float = 1e-8, max_iter: int = 200
) -> sdp.MembershipReport:
    """Decide whether wired members extend to a no-signalling assemblage.

    Searches for bob-with-input members ``w_{a|x,y}`` satisfying the
    no-signalling rows with ``w_{a|x,y=a}`` pinned to the Hermitian parts of
    the given members; the wiring map then reproduces the input exactly.  The
    rows are independent: the pins imply the rows that ``wired``
    :func:`ns_variable_blocks` omits, as long as each input's outcome weights
    sum to one and, with one outcome, the members agree across inputs.
    Members that break either, or are not Hermitian, above ``VALIDATION_TOL``
    (:func:`ruled_out`) are infeasible with margin ``-inf``, no solve: then
    ``problem`` holds the omitted rows too (:func:`~steercert.sdp.ruled_out_report`).
    """
    shape = asm.shape
    builder = sdp.HermitianBlockBuilder()
    blocks = ns_variable_blocks(builder, shape, wired=True)
    for a, x in member_keys(shape):
        builder.add_matrix_equality([(blocks[(a, x, a)], 1.0)], asm.member(a, x))
    problem = builder.build()
    residuals = validate_instrumental(asm).residuals
    if shape.n_a == 1:
        first = asm.member(0, 0)
        gaps = [hermitian_part(asm.member(0, x) - first) for x in range(1, shape.m_a)]
        residuals["state_consistency"] = float(max(map(np.linalg.norm, gaps), default=0.0))
    failed = ruled_out(residuals, ("normalization", "state_consistency"))
    if failed:
        _wiring_implied_rows(builder, blocks, shape)
        return sdp.ruled_out_report(builder.build(), problem.num_rows, failed, tol)
    report = sdp.feasibility_phase1(problem, tol=tol, max_iter=max_iter)
    if report.feasible:
        members = {key: require_hermitian(report.witness[i], tol=1e-6) for key, i in blocks.items()}
        parent = ScenarioShape(shape.n_a, shape.m_a, shape.m_b, shape.d, BWI)
        report.witness = BwiAssemblage(shape=parent, members=members)
    return report


# ---------------------------------------------------------------------------
# Moment-matrix relaxation
# ---------------------------------------------------------------------------

#: A word, or a block's key: the untrusted measurement letters, then the
#: trusted channel letters.
Word = tuple[tuple[int, ...], tuple[int, ...]]

#: The empty word: its block row encodes the assemblage.
EMPTY: Word = ((), ())


def moment_words(shape: ScenarioShape) -> list[Word]:
    """The empty word, one word per untrusted input, one per trusted input, then all pairs."""
    return (
        [EMPTY]
        + [((x,), ()) for x in range(shape.m_a)]
        + [((), (y,)) for y in range(shape.m_b)]
        + [((x,), (y,)) for x in range(shape.m_a) for y in range(shape.m_b)]
    )


def _moment_key(u: Word, v: Word) -> Word:
    """Label of block ``(u, v)``: per letter kind, ``u``'s letters reversed, then ``v``'s.

    The two kinds commute and every letter is a projector, so each kind is
    rewritten on its own and adjacent repeats collapse.
    """
    joined = (left[::-1] + right for left, right in zip(u, v))
    return tuple(tuple(c for i, c in enumerate(j) if i == 0 or j[i - 1] != c) for j in joined)


def _orient(key: Word) -> tuple[Word, bool]:
    """Representative of ``key`` and its reverse, and whether ``key`` is the reverse."""
    reverse = (key[0][::-1], key[1][::-1])
    return min(key, reverse), reverse < key


def _read_member(array: Array, index: dict[Word, int], a: int, x: int, y: int) -> Array:
    """``sigma_{a|x,y}`` from the first block row of ``array``'s last two axes.

    Block ``(EMPTY, w)`` of a word ``w`` with trusted letter ``y`` is the
    transpose, over ``d``, of the state at ``y`` projected by ``w``'s
    untrusted letter onto outcome 0 (no letter: the whole state).  Outcome 1
    is the state minus outcome 0.  Leading axes are read entrywise.
    """
    if a not in (0, 1):
        raise ValueError("the relaxation encodes binary outcomes only")
    d = array.shape[-1] // len(index)

    def read(word: Word) -> Array:
        col = d * index[word]
        return d * np.swapaxes(array[..., :d, col : col + d], -1, -2)

    sigma_0 = read(((x,), (y,)))
    return sigma_0 if a == 0 else read(((), (y,))) - sigma_0


@dataclass
class MomentMatrix:
    """The relaxation's positive block, labeled by words times the trusted space."""

    shape: ScenarioShape
    words: list[Word]
    gamma: Array

    def __post_init__(self) -> None:
        self.index = {word: i for i, word in enumerate(self.words)}

    @property
    def embedded_side(self) -> int:
        """Twice ``gamma``'s side: the relaxation's size as a real symmetric program.

        The solver works on ``gamma`` itself, a complex Hermitian block.
        """
        return 2 * self.gamma.shape[0]

    def block(self, u: Word, v: Word) -> Array:
        d = self.shape.d
        i, j = self.index[u], self.index[v]
        return self.gamma[d * i : d * i + d, d * j : d * j + d]

    def member(self, a: int, x: int, y: int) -> Array:
        """Assemblage member encoded in the first block row.

        The encoding blocks are Hermitian only up to the solve tolerance, so
        the result is symmetrized before it is returned.
        """
        return require_hermitian(_read_member(self.gamma, self.index, a, x, y), tol=1e-6)

    def assemblage(self) -> BwiAssemblage:
        shape = _qtilde_scenario(self.shape)
        members = {key: self.member(*key) for key in member_keys(shape)}
        return BwiAssemblage(shape=shape, members=members)

    def residuals(self) -> dict[str, float]:
        """Largest violation of each structural family, for auditing."""
        d = self.shape.d
        m_a, m_b = self.shape.m_a, self.shape.m_b
        e = EMPTY

        def wx(x: int) -> Word:
            return ((x,), ())

        def wy(y: int) -> Word:
            return ((), (y,))

        def wxy(x: int, y: int) -> Word:
            return ((x,), (y,))

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
                base = self.block(e, wxy(x, y))
                for other in (
                    self.block(wx(x), wxy(x, y)),
                    self.block(wy(y), wxy(x, y)),
                    self.block(wx(x), wy(y)),
                ):
                    joint = max(joint, norm(base - other))
        out["joint_consistency"] = joint
        x_compat = 0.0
        for x in range(m_a):
            for xp in range(m_a):
                for y in range(m_b):
                    left = self.block(wx(x), wxy(xp, y))
                    x_compat = max(
                        x_compat,
                        norm(left - self.block(wxy(x, y), wxy(xp, y))),
                        norm(left - self.block(wxy(x, y), wx(xp))),
                    )
        out["x_compatibility"] = x_compat
        y_compat = 0.0
        for x in range(m_a):
            for y in range(m_b):
                for yp in range(m_b):
                    left = self.block(wy(y), wxy(x, yp))
                    y_compat = max(
                        y_compat,
                        norm(left - self.block(wxy(x, y), wxy(x, yp))),
                        norm(left - self.block(wxy(x, y), wy(yp))),
                    )
        out["y_compatibility"] = y_compat
        scalar = 0.0
        for x in range(m_a):
            for xp in range(m_a):
                block = self.block(wx(x), wx(xp))
                off = block - np.diag(np.diag(block))
                scalar = max(scalar, norm(off), norm(np.diag(block) - block[0, 0]))
        out["x_pair_scalar"] = scalar
        trace = 0.0
        for y in range(m_b):
            trace = max(trace, abs(d * complex(np.trace(self.block(e, wy(y)))) - 1.0))
        out["state_trace"] = float(trace)
        outcome = 0.0
        for x in range(m_a):
            block = self.block(e, wx(x))
            off = block - np.diag(np.diag(block))
            outcome = max(outcome, norm(off), norm(np.diag(block) - block[0, 0]))
            for y in range(m_b):
                outcome = max(
                    outcome,
                    abs(block[0, 0] - d * complex(np.trace(self.block(e, wxy(x, y))))),
                )
        out["outcome_trace"] = float(outcome)
        out["psd"] = float(-min(np.linalg.eigvalsh(require_hermitian(self.gamma, tol=1e-8)).min(), 0.0))
        return out


class _MomentForm:
    """The moment block as ``Gamma = F0 + sum_k p_k F_k`` over its free real
    moments, written as the rows of its linear matrix inequality.

    Blocks with equal keys are equal and a key's reverse labels the conjugate
    transpose.  A representative key's block is the identity (empty key), a
    multiple of the identity (no trusted letter; real if the key is its own
    reverse), a general complex block (a key that is not its own reverse), or
    else a Hermitian block whose last diagonal entry ties ``d tr`` to the
    scalar of its untrusted part (1 for none).  ``pinned`` fixes some keys'
    blocks.  The caller checks that the shape has binary outcomes.

    No ``F_k`` is stored whole: each key class's constant and ``(moment,
    coefficient)`` terms are written to the :func:`~steercert.sdp.svec`
    coordinates of the lower triangle at every block position that carries
    its key.  ``c`` is ``svec(F0)`` and row ``k`` of the CSR array ``a`` is
    ``-svec(F_{k+1})``, each entry the Hermitian part's, so that ``max b . p``
    subject to ``Gamma(p) >= 0`` is the solver's dual problem ``(c, a, b)``,
    whose slack ``c - a^T p`` is ``Gamma``.  A pinned form's ``a`` ends with
    the row of one more moment ``t`` at ``-I``, so the slack is ``Gamma - t
    I``.  ``first_row`` is the first block row of ``F0, F_1, ...``, which
    holds the members.
    """

    def __init__(self, shape: ScenarioShape, pinned: dict[Word, Array] | None = None) -> None:
        from scipy import sparse
        self.shape, self.words = shape, moment_words(shape)
        self.index = {word: i for i, word in enumerate(self.words)}
        d, shift, pinned = shape.d, pinned is not None, pinned or {}
        eye = np.eye(d, dtype=complex)
        last = np.outer(eye[-1], eye[-1])
        keys = [[_orient(_moment_key(u, v)) for v in self.words] for u in self.words]
        # Per representative key: its constant and (moment, coefficient) terms.
        # The first row comes first, so an untrusted part's scalar is known.
        classes: dict[Word, tuple[Array, list[tuple[int, Array]]]] = {}
        n_moments = 0
        for key, _ in itertools.chain.from_iterable(keys):
            if key in classes:
                continue
            untrusted, trusted = key
            symmetric = key == (untrusted[::-1], trusted[::-1])
            const, terms, basis = 0 * eye, [], []
            if key in pinned:
                const = np.asarray(pinned[key], dtype=complex)
            elif key == EMPTY:
                const = eye
            elif not trusted:
                basis = [eye] if symmetric else [eye, 1j * eye]
            elif not symmetric:
                basis = [
                    ph * np.outer(eye[i], eye[j])
                    for ph in (1, 1j)
                    for i in range(d)
                    for j in range(d)
                ]
            else:
                scalar, scalar_terms = classes[(untrusted, ())]
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
        # Every class's terms in one stack, the constant first at moment 0.
        spans, coeffs, moments = {}, [], []
        for key, (const, terms) in classes.items():
            spans[key] = range(len(coeffs), len(coeffs) + 1 + len(terms))
            coeffs += [const] + [coeff for _, coeff in terms]
            moments += [0] + [k for k, _ in terms]
        # One pair per term of the class at each block position on or below
        # the diagonal or in the first block row, with the orientations of the
        # position and of its mirror.
        pairs = []
        for i, row in enumerate(keys):
            for j, (key, flip) in enumerate(row if i == 0 else row[: i + 1]):
                pairs += [(term, i, j, flip, keys[j][i][1]) for term in spans[key]]
        term, i, j, flip, mirror_flip = np.array(pairs).T
        straight = np.array(coeffs)[term]
        adjoint = straight.conj().swapaxes(-1, -2)
        block = np.where(flip[:, None, None], adjoint, straight)
        rows = np.array(moments)[term]
        self.side = side = d * len(self.words)
        r = np.arange(d)
        top = i == 0
        self.first_row = np.zeros((1 + n_moments, d, side), dtype=complex)
        self.first_row[rows[top, None, None], r[:, None], d * j[top, None, None] + r] = block[top]
        # The Hermitian part, 0.5 (v + conj(v at the mirror)) as
        # matcore.hermitian_part forms it, on and below the diagonal.
        entries = 0.5 * (block + np.where(mirror_flip[:, None, None], straight, adjoint))
        row_at, col_at = d * i[:, None, None] + r[:, None], d * j[:, None, None] + r
        lower = np.broadcast_to(row_at >= col_at, entries.shape)
        places = [np.broadcast_to(v, entries.shape)[lower] for v in (rows[:, None, None], row_at, col_at)]
        # A pinned form's shift t stands at -I, in the row after the moments'.
        diagonal = np.arange(side * shift)
        places = map(np.append, places, (np.full(len(diagonal), 1 + n_moments), diagonal, diagonal))
        values = np.append(entries[lower], -np.ones(len(diagonal)))
        index, coord, value = sdp.svec_entries(*places, values, side)
        first, rest = index == 0, (index > 0) & (value != 0)
        self.c = np.zeros(side * side)
        self.c[coord[first]] = value[first]
        size = (n_moments + shift, side * side)
        self.a = sparse.csr_array((-value[rest], (index[rest] - 1, coord[rest])), shape=size)

    def moment(self, p: Array) -> MomentMatrix:
        """``Gamma(p)``, the slack ``c - a^T p`` over the first ``len(p)`` rows."""
        gamma = sdp.smat(self.c - self.a[: len(p)].T @ p)
        return MomentMatrix(shape=_qtilde_scenario(self.shape), words=self.words, gamma=gamma)


def _qtilde_scenario(shape: ScenarioShape) -> ScenarioShape:
    return ScenarioShape(n_a=2, m_a=shape.m_a, m_b=shape.m_b, d=shape.d, kind=BWI)


def _relaxation_lmi(functional: Functional) -> tuple[_MomentForm, Array, sdp.SdpProblem]:
    """A functional's minimum over the relaxation: the LMI of the unpinned moment form.

    The objective is the sum of ``tr(F sigma_{a|x,y})`` over the functional's
    coefficients, a wired coefficient ``F_{a,x}`` standing at ``y = a``, and
    the returned ``gain`` holds it per moment, read from ``form.first_row``
    (the constant first).  The moment block is the only LMI block: ``Gamma >=
    0`` already makes every member positive semidefinite, since ``d
    sigma_{1|x,y}`` is the transpose of ``Gamma`` compressed by ``e_y -
    e_xy``.
    """
    require_binary_outcomes(functional.shape)
    wired = isinstance(functional, InstrumentalFunctional)
    keys = [(a, x, a) for a, x in functional.coeffs] if wired else functional.coeffs
    form = _MomentForm(_qtilde_scenario(functional.shape))
    gain = sum(
        np.einsum("ij,kji->k", coeff, _read_member(form.first_row, form.index, *key)).real
        for key, coeff in zip(keys, functional.coeffs.values())
    )
    return form, gain, sdp.SdpProblem((form.side,), form.c, form.a, -gain[1:])


def build_qtilde_problem(functional: Functional) -> sdp.SdpProblem:
    """The relaxation bound as a block semidefinite program.

    The moment block is ``Gamma = F0 + sum_k p_k F_k`` over the free real
    moments, and the problem is its linear matrix inequality as the moment
    form writes it: one row per free moment, with the negated functional as
    the dual objective.  Its one block is the complex
    moment block of side ``d (1 + m_a + m_b + m_a m_b)``; the members need no
    blocks of their own, because the moment block's being positive
    semidefinite implies theirs.
    """
    return _relaxation_lmi(functional)[2]


def qtilde_bound(functional: Functional, *, tol: float = 1e-8) -> float:
    """Minimum of the functional over the moment-matrix relaxation.

    A wired functional post-selects the trusted input to equal the outcome:
    the feasible set is the same moment block and only the objective changes,
    so the result lower-bounds every quantum-realizable wired value.
    """
    value, _ = qtilde_solution(functional, tol=tol)
    return value


def qtilde_solution(functional: Functional, *, tol: float = 1e-8) -> tuple[float, MomentMatrix]:
    """Relaxation bound together with the optimizing moment block.

    ``tol`` bounds the solve's feasibility residuals and its duality gap.
    """
    form, gain, problem = _relaxation_lmi(functional)
    solution = sdp.solve(problem, tol=tol)
    if solution.status != sdp.OPTIMAL:
        wired = isinstance(functional, InstrumentalFunctional)
        context = "wired relaxation bound" if wired else "relaxation bound"
        raise SolverFailure(f"{context} ended with status {solution.status}", solution)
    return float(gain[0] + gain[1:] @ solution.y), form.moment(solution.y)


def _membership_lmi(asm: BwiAssemblage) -> tuple[_MomentForm, sdp.SdpProblem]:
    """The moment form whose first block row is pinned to ``asm``, and its LMI.

    The untrusted blocks are pinned to the outcome weights times the
    identity, the trusted blocks to the states, the pair blocks to the
    outcome-0 members (transposed and scaled, as :meth:`MomentMatrix.member`
    reads them back).  The LMI's last moment is the shift ``t`` of ``Gamma(p)
    - t I``, and the only one in its objective.
    """
    shape = asm.shape
    require_binary_outcomes(shape)
    d = shape.d

    def pin(word: Word) -> Array:
        untrusted, trusted = word
        if not trusted:
            return float(np.trace(asm.member(0, untrusted[0], 0)).real) * np.eye(d)
        y = trusted[0]
        state = asm.member(0, untrusted[0], y) if untrusted else asm.reduced_state(y)
        return hermitian_part(state).T / d

    pinned = {_moment_key(EMPTY, w): pin(w) for w in moment_words(shape)[1:]}
    form = _MomentForm(shape, pinned)
    objective = np.zeros(form.a.shape[0])
    objective[-1] = 1.0
    return form, sdp.SdpProblem((form.side,), form.c, form.a, objective)


def qtilde_membership(
    asm: BwiAssemblage, tol: float = 1e-8, max_iter: int = 200
) -> sdp.MembershipReport:
    """Decide whether an assemblage admits a feasible moment block.

    The first block row is pinned to the assemblage (:func:`_membership_lmi`).
    Data that are not Hermitian, break a trace rule (a state's trace is not
    1, or an outcome weight depends on the trusted input) or signal to the
    trusted side (the reduced state ``sum_a sigma_{a|x,y}`` depends on ``x``;
    only ``x = 0`` is pinned) above ``VALIDATION_TOL`` (:func:`ruled_out`) are
    infeasible with margin ``-inf``, with no solve.  Otherwise the margin is
    the largest ``t`` with ``Gamma(p) - t I`` positive semidefinite over the
    free moments ``p``, and the witness is ``Gamma`` at the optimum when
    feasible.  ``certificate_y`` is ``None``: the separating functional is
    the LMI's dual block (the solver's primal).
    """
    form, problem = _membership_lmi(asm)
    families = ("state_consistency", "trace_consistency", "normalization")
    failed = ruled_out(validate_ns_bwi(asm).residuals, families)
    if failed:
        return sdp.ruled_out_report(problem, problem.num_rows, failed, tol)
    solution = sdp.solve(problem, tol=tol, max_iter=max_iter)
    margin = float(solution.y[-1]) if solution.status == sdp.OPTIMAL else np.nan
    report = sdp.MembershipReport.from_solve(solution, problem, tol, margin)
    if report.feasible:
        report.witness = form.moment(solution.y[:-1])
    return report
