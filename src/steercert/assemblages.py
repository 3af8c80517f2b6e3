"""Assemblage containers, no-signalling validators, examples, and samplers.

An assemblage collects the conditional states steered onto a trusted quantum
system, indexed by the untrusted party's input and outcome and, in the
scenarios treated here, also by an input on the trusted side:

* bob-with-input members ``sigma_{a|x,y}`` carry the untrusted input ``x``,
  outcome ``a``, and trusted input ``y``;
* traditional members are the ``m_b = 1`` special case, keyed at ``y = 0``;
* sequential members ``sigma_{a1 a2|x1 x2}`` arise from two rounds of inputs
  and outcomes on the untrusted side;
* instrumental members ``sigma_{a|x}`` arise when the trusted input is wired
  to equal the untrusted outcome.

Every shape names its ``kind``, and :func:`member_keys` lists its keys: the
one source of the keys that the containers, the functionals in
:mod:`steercert.steering` and the JSON labels in :mod:`steercert.serialize`
use.  :func:`checked_members` is the one check of a table against them.

The module also provides the box-like and transpose-based example assemblages,
correlation tables against trusted measurements, and seeded random samplers
for both quantum-realized and merely no-signalling assemblages.  It runs no
solver: the programs over these sets live in :mod:`steercert.steering`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

import numpy as np

from steercert.matcore import PAULIS, Array, check_povm, hermitian_part, is_psd, real_table

TRADITIONAL = "traditional"
BWI = "bwi"
SEQUENTIAL = "sequential"
INSTRUMENTAL = "instrumental"

KINDS = (TRADITIONAL, BWI, SEQUENTIAL, INSTRUMENTAL)

#: Default tolerance for validation residuals.
VALIDATION_TOL = 1e-9

#: Normalization drift per untrusted input that wiring accepts: it admits
#: numerically solved parents while still rejecting inputs whose outcome
#: weights do not sum to one.
WIRING_TOL = 1e-6


@dataclass(frozen=True)
class ScenarioShape:
    """Index ranges of a single-round steering scenario.

    ``n_a`` outcomes and ``m_a`` inputs on the untrusted side, ``m_b`` inputs
    on the trusted side, local dimension ``d``.  Traditional scenarios have
    ``m_b = 1``; instrumental scenarios identify the trusted input range with
    the outcome range, so ``m_b = n_a``.
    """

    n_a: int
    m_a: int
    m_b: int
    d: int
    kind: str = BWI

    def __post_init__(self) -> None:
        if self.kind not in (TRADITIONAL, BWI, INSTRUMENTAL):
            raise ValueError(f"unknown single-round scenario kind {self.kind!r}")
        for label, value in (("n_a", self.n_a), ("m_a", self.m_a), ("m_b", self.m_b), ("d", self.d)):
            if value < 1:
                raise ValueError(f"{label} must be positive, got {value}")
        if self.kind == TRADITIONAL and self.m_b != 1:
            raise ValueError("traditional scenarios have a single trusted input")
        if self.kind == INSTRUMENTAL and self.m_b != self.n_a:
            raise ValueError(
                "instrumental scenarios wire the trusted input to the outcome, "
                f"so m_b must equal n_a (got m_b={self.m_b}, n_a={self.n_a})"
            )


@dataclass(frozen=True)
class SequentialShape:
    """Index ranges of a two-round scenario on the untrusted side."""

    kind: ClassVar[str] = SEQUENTIAL

    n_a1: int
    m_x1: int
    n_a2: int
    m_x2: int
    d: int

    def __post_init__(self) -> None:
        for label, value in (
            ("n_a1", self.n_a1),
            ("m_x1", self.m_x1),
            ("n_a2", self.n_a2),
            ("m_x2", self.m_x2),
            ("d", self.d),
        ):
            if value < 1:
                raise ValueError(f"{label} must be positive, got {value}")


Shape = ScenarioShape | SequentialShape


def member_keys(shape: Shape) -> list[tuple[int, ...]]:
    """Every member key of ``shape``, in lexicographic order.

    Keys are ``(a1, a2, x1, x2)`` for two rounds, ``(a, x)`` when the trusted
    input is wired to the outcome, and ``(a, x, y)`` otherwise (``y = 0``
    throughout a traditional scenario).
    """
    if shape.kind == SEQUENTIAL:
        ranges = (shape.n_a1, shape.n_a2, shape.m_x1, shape.m_x2)
    elif shape.kind == INSTRUMENTAL:
        ranges = (shape.n_a, shape.m_a)
    else:
        ranges = (shape.n_a, shape.m_a, shape.m_b)
    return list(itertools.product(*map(range, ranges)))


def checked_members(
    shape: Shape, table: Mapping[tuple[int, ...], Array], name: str = "member"
) -> dict[tuple[int, ...], Array]:
    """``table`` as complex ``d x d`` matrices, in :func:`member_keys` order.

    Raises ``ValueError``, naming the first offending key, unless the keys
    are exactly those of ``shape`` and every matrix has side ``d`` and finite
    entries.
    """
    keys = member_keys(shape)
    expected = set(keys)
    if set(table) != expected:
        missing = [key for key in keys if key not in table]
        stray = [key for key in table if key not in expected]
        problem = f"{missing[0]} is missing" if missing else f"{stray[0]!r} is stray"
        raise ValueError(f"{name} keys do not match the scenario shape: {problem}")
    out = {}
    for key in keys:
        matrix = np.asarray(table[key], dtype=complex)
        if matrix.shape != (shape.d, shape.d):
            raise ValueError(f"{name} {key} has shape {matrix.shape}, expected side {shape.d}")
        if not np.isfinite(matrix).all():
            raise ValueError(f"{name} {key} has an entry that is not finite")
        out[key] = matrix
    return out


@dataclass
class BwiAssemblage:
    """Members ``sigma_{a|x,y}`` keyed by (outcome, untrusted input, trusted input)."""

    shape: ScenarioShape
    members: dict[tuple[int, int, int], Array]

    def __post_init__(self) -> None:
        if self.shape.kind == INSTRUMENTAL:
            raise ValueError("wired members belong in an InstrumentalAssemblage")
        self.members = checked_members(self.shape, self.members)

    def member(self, a: int, x: int, y: int) -> Array:
        return self.members[(a, x, y)]

    def reduced_state(self, y: int, x: int = 0) -> Array:
        """State steered-to on average for trusted input ``y`` (x-independent when NS)."""
        return sum(self.member(a, x, y) for a in range(self.shape.n_a))


class TraditionalAssemblage(BwiAssemblage):
    """Single trusted input: members ``sigma_{a|x}`` stored at ``y = 0``."""

    @classmethod
    def from_members(
        cls, members: Mapping[tuple[int, int], Array], d: int | None = None
    ) -> "TraditionalAssemblage":
        keys = sorted(members)
        n_a = 1 + max(key[0] for key in keys)
        m_a = 1 + max(key[1] for key in keys)
        if d is None:
            d = int(np.asarray(next(iter(members.values()))).shape[0])
        shape = ScenarioShape(n_a=n_a, m_a=m_a, m_b=1, d=d, kind=TRADITIONAL)
        table = {(a, x, 0): np.asarray(members[(a, x)], dtype=complex) for a, x in keys}
        return cls(shape=shape, members=table)

    def traditional_member(self, a: int, x: int) -> Array:
        return self.member(a, x, 0)


@dataclass
class SequentialAssemblage:
    """Members ``sigma_{a1 a2|x1 x2}`` for two untrusted rounds."""

    shape: SequentialShape
    members: dict[tuple[int, int, int, int], Array]

    def __post_init__(self) -> None:
        self.members = checked_members(self.shape, self.members)

    def member(self, a1: int, a2: int, x1: int, x2: int) -> Array:
        return self.members[(a1, a2, x1, x2)]

    def first_round_member(self, a1: int, x1: int, x2: int = 0) -> Array:
        """Round-one member ``sum_{a2} sigma_{a1 a2|x1 x2}`` (x2-independent when NS)."""
        return sum(self.member(a1, a2, x1, x2) for a2 in range(self.shape.n_a2))

    def state(self) -> Array:
        """Total steered state (input-independent when NS)."""
        return sum(
            self.member(a1, a2, 0, 0)
            for a1 in range(self.shape.n_a1)
            for a2 in range(self.shape.n_a2)
        )


@dataclass
class InstrumentalAssemblage:
    """Members ``sigma_{a|x}`` with the trusted input wired to the outcome."""

    shape: ScenarioShape
    members: dict[tuple[int, int], Array]

    def __post_init__(self) -> None:
        if self.shape.kind != INSTRUMENTAL:
            raise ValueError("shape.kind must be instrumental")
        self.members = checked_members(self.shape, self.members)

    def member(self, a: int, x: int) -> Array:
        return self.members[(a, x)]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    """Per-constraint residuals of a no-signalling check."""

    passed: bool
    residuals: dict[str, float]
    violations: list[str]
    tol: float


def _member_table(asm: BwiAssemblage | SequentialAssemblage | InstrumentalAssemblage) -> Array:
    """The members as one array: one axis per :func:`member_keys` entry, then ``d x d``.

    A matrix changed in place to hold a non-finite entry after
    :func:`checked_members` accepted it is refused here too, with its key.
    """
    keys, d = member_keys(asm.shape), asm.shape.d
    table = np.stack([asm.members[key] for key in keys])
    if not np.isfinite(table).all():
        checked_members(asm.shape, asm.members)
    # The last key holds the largest value of each entry.
    return table.reshape(*(1 + k for k in keys[-1]), d, d)


def _frobenius(mats: Array) -> Array:
    """Frobenius norm over the last two axes, summed as ``np.linalg.norm`` sums one matrix."""
    rows = mats.reshape(*mats.shape[:-2], 1, mats.shape[-1] ** 2)
    return np.sqrt(sum(part @ part.swapaxes(-1, -2) for part in (rows.real, rows.imag)))[..., 0, 0]


def _modulus(values: Array) -> Array:
    """``|z|`` of each entry, rounded as Python's ``abs`` rounds one complex number."""
    return np.hypot(values.real, values.imag)


def _report(table: Array, families: dict[str, Array], tol: float) -> ValidationReport:
    """Every member's Hermitian and PSD residuals, then each family's worst entry, at ``tol``."""
    skew = _frobenius(table - table.conj().swapaxes(-1, -2))
    lowest = np.linalg.eigvalsh(hermitian_part(table)).min()
    residuals = {"hermitian": skew, "psd": np.maximum(-lowest, 0.0), **families}
    residuals = {name: float(np.max(values, initial=0.0)) for name, values in residuals.items()}
    violations = [
        f"{name} residual {value:.3e} exceeds {tol:.1e}"
        for name, value in residuals.items()
        if value > tol
    ]
    return ValidationReport(
        passed=not violations, residuals=residuals, violations=violations, tol=tol
    )


def validate_ns_bwi(asm: BwiAssemblage, tol: float = VALIDATION_TOL) -> ValidationReport:
    """No-signalling check for bob-with-input (or traditional) assemblages.

    Members must be positive semidefinite; the summed state per trusted input
    must not depend on the untrusted input; member traces must not depend on
    the trusted input; and the total trace must be one.
    """
    table = _member_table(asm)
    # Python's ``sum`` adds one outcome at a time, in key order, so each summed
    # state rounds as a member-by-member sum does; ``table.sum(0)`` need not.
    states = sum(table)
    traces = np.trace(table, axis1=-2, axis2=-1)
    families = {
        "state_consistency": _frobenius(states[1:] - states[:1]),
        "trace_consistency": _modulus(traces[..., 1:] - traces[..., :1]),
        "normalization": _modulus(sum(traces) - 1.0),
    }
    return _report(table, families, tol)


def validate_ns_sequential(
    asm: SequentialAssemblage, tol: float = VALIDATION_TOL
) -> ValidationReport:
    """No-signalling check for two-round assemblages.

    The total state must not depend on either input, and each round-one
    member must not depend on the round-two input.
    """
    table = _member_table(asm)
    totals = sum(table.reshape(-1, *table.shape[2:]))
    rounds = sum(table.swapaxes(0, 1))
    families = {
        "state_consistency": _frobenius(totals - totals[0, 0]),
        "round_one_consistency": _frobenius(rounds[:, :, 1:] - rounds[:, :, :1]),
        "normalization": _modulus(np.trace(totals[0, 0]) - 1.0),
    }
    return _report(table, families, tol)


def validate_instrumental(
    asm: InstrumentalAssemblage, tol: float = VALIDATION_TOL
) -> ValidationReport:
    """Positivity and per-input normalization of wired members.

    Wiring the trusted input to the outcome mixes different trusted inputs
    into the summed state, so that sum may depend on the untrusted input.
    Each input's outcome weights must still sum to one.  A no-signalling
    parent asks more with one outcome, where each wired member is the
    parent's whole state: the members must agree across inputs.  That, and
    whether a full parent exists, is
    :func:`steercert.steering.instrumental_membership`'s test.
    """
    table = _member_table(asm)
    families = {"normalization": _modulus(sum(np.trace(table, axis1=-2, axis2=-1)) - 1.0)}
    return _report(table, families, tol)


# ---------------------------------------------------------------------------
# Example assemblages
# ---------------------------------------------------------------------------


def _basis_state(d: int, index: int) -> Array:
    vec = np.zeros(d, dtype=complex)
    vec[index] = 1.0
    return np.outer(vec, vec.conj())


def pr_box_assemblage() -> BwiAssemblage:
    """Box-like assemblage built from the extremal binary no-signalling box.

    The member for outcome ``a`` and inputs ``(x, y)`` is half the projector
    onto the computational state ``a XOR (x AND y)``.
    """
    shape = ScenarioShape(n_a=2, m_a=2, m_b=2, d=2, kind=BWI)
    members = {(a, x, y): 0.5 * _basis_state(2, a ^ (x & y)) for a, x, y in member_keys(shape)}
    return BwiAssemblage(shape=shape, members=members)


def pauli_transpose_assemblage() -> BwiAssemblage:
    """Pauli steering members at trusted input 0, their transposes at input 1.

    Member ``(a, x, y)`` equals ``(I + (-1)^(a + s) P_x) / 4`` where ``P_x``
    runs over the three Pauli matrices and the extra sign ``s`` flips exactly
    for the imaginary Pauli at trusted input 1.  That sign pattern makes the
    trusted input 1 members the exact transposes of the trusted input 0
    members, which is asserted at construction time together with every member
    being half a rank-one projector.
    """
    shape = ScenarioShape(n_a=2, m_a=3, m_b=2, d=2, kind=BWI)
    members = {
        (a, x, y): 0.25 * (np.eye(2) + (-1.0) ** (a + (x == 1 and y == 1)) * PAULIS[x])
        for a, x, y in member_keys(shape)
    }
    asm = BwiAssemblage(shape=shape, members=members)
    table = _member_table(asm)
    if not np.allclose(table[:, :, 1], table[:, :, 0].swapaxes(-1, -2), atol=1e-14):
        raise AssertionError("transpose relation between trusted inputs failed")
    if not np.allclose(np.linalg.eigvalsh(table), [0.0, 0.5], atol=1e-14):
        raise AssertionError("members must be half rank-one projectors")
    return asm


def instrumental_from_bwi(asm: BwiAssemblage) -> InstrumentalAssemblage:
    """Wire the trusted input to the untrusted outcome: keep ``sigma_{a|x,y=a}``.

    Each untrusted input's wired weights must sum to one within
    :data:`WIRING_TOL`.
    """
    shape = asm.shape
    if shape.m_b < shape.n_a:
        raise ValueError(
            "wiring needs a trusted input for every outcome "
            f"(m_b={shape.m_b} < n_a={shape.n_a})"
        )
    out_shape = ScenarioShape(
        n_a=shape.n_a, m_a=shape.m_a, m_b=shape.n_a, d=shape.d, kind=INSTRUMENTAL
    )
    members = {(a, x): asm.member(a, x, a) for a, x in member_keys(out_shape)}
    out = InstrumentalAssemblage(shape=out_shape, members=members)
    if validate_instrumental(out, tol=WIRING_TOL).residuals["normalization"] > WIRING_TOL:
        raise ValueError(
            "wired members lost normalization; the input assemblage is not no-signalling"
        )
    return out


def instrumental_pauli_assemblage() -> InstrumentalAssemblage:
    """The wired instrumental family of the transpose-based example.

    Unlike its bob-with-input parent, this family is quantum realizable:
    :func:`steercert.ghjw.instrumental_pauli_model` steers a qubit and rotates
    the outcome-1 states with a fixed unitary to reproduce every member.
    """
    return instrumental_from_bwi(pauli_transpose_assemblage())


# ---------------------------------------------------------------------------
# Correlation tables
# ---------------------------------------------------------------------------


def bell_correlations(asm: BwiAssemblage, povms: Array | Sequence[Sequence[Array]]) -> Array:
    """Joint table ``p(a, b|x, y)`` from measuring the members.

    ``povms[..., y, b]`` is trusted effect ``b`` for input ``y``, checked by
    :func:`~steercert.matcore.check_povm`; leading axes stack sets of
    effects, and the table ``[..., a, b, x, y]`` carries them too.  A single
    trivial effect reproduces the outcome distribution ``p(a|x)`` in the
    ``b = 0`` slice.
    """
    shape = asm.shape
    effects = check_povm(povms, "trusted input effects")
    if effects.ndim < 4 or effects.shape[-4] != shape.m_b or effects.shape[-1] != shape.d:
        raise ValueError(f"need effects (..., {shape.m_b}, n_b, {shape.d}, {shape.d}), got {effects.shape}")
    values = np.einsum("...ybij,axyji->...abxy", effects, _member_table(asm))
    return real_table(values, 4, "correlation")


#: ``(-1)^(a+b)``, negated at ``x = y = 1``: ``E00 + E01 + E10 - E11`` as one contraction.
_CHSH_SIGNS = np.einsum("a,b,xy->abxy", [1.0, -1.0], [1.0, -1.0], [[1.0, 1.0], [1.0, -1.0]])


def chsh_value(table: Array) -> Array:
    """Two-input two-outcome correlator combination ``E00 + E01 + E10 - E11``.

    ``table`` is indexed ``[..., a, b, x, y]``; one value per leading index,
    a scalar for a single table.
    """
    table = np.asarray(table, dtype=float)
    if table.shape[-4:] != (2, 2, 2, 2):
        raise ValueError(f"need a (..., 2, 2, 2, 2) table, got {table.shape}")
    return np.einsum("...abxy,abxy->...", table, _CHSH_SIGNS)


# ---------------------------------------------------------------------------
# Random models
# ---------------------------------------------------------------------------


def _haar_unitary(rng: np.random.Generator, n: int) -> Array:
    """Haar-distributed unitary via QR with the standard phase fix."""
    gauss = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(gauss)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _random_povm(rng: np.random.Generator, d: int, n_out: int) -> list[Array]:
    """Random POVM from a unitary dilation with an auxiliary outcome register."""
    unitary = _haar_unitary(rng, d * n_out)
    isometry = unitary[:, :d]
    effects = []
    for a in range(n_out):
        block = isometry[a * d : (a + 1) * d, :]
        effects.append(block.conj().T @ block)
    return effects


def _random_kraus_family(rng: np.random.Generator, d: int, n_out: int) -> list[Array]:
    """Kraus operators of a random instrument with ``n_out`` classical outcomes."""
    unitary = _haar_unitary(rng, d * n_out)
    isometry = unitary[:, :d]
    return [isometry[a * d : (a + 1) * d, :] for a in range(n_out)]


def _random_channel(rng: np.random.Generator, d: int) -> list[Array]:
    """Kraus operators of a random channel with an environment of dimension ``d``."""
    return _random_kraus_family(rng, d, d)


def _random_pure_state(rng: np.random.Generator, d_a: int, d_b: int) -> Array:
    vec = rng.normal(size=d_a * d_b) + 1j * rng.normal(size=d_a * d_b)
    vec /= np.linalg.norm(vec)
    return vec


def random_quantum_bwi(shape: ScenarioShape, seed: int) -> BwiAssemblage:
    """Quantum-realized bob-with-input assemblage, reproducible from the seed.

    A random pure state is shared between an untrusted system of dimension
    ``d`` and the trusted system; the untrusted side measures random POVMs
    from unitary dilations, and each trusted input applies a random channel
    with an environment of dimension ``d`` to the trusted share.
    """
    rng = np.random.default_rng(seed)
    d = shape.d
    vec = _random_pure_state(rng, d, d)
    rho = np.outer(vec, vec.conj())
    povms = [_random_povm(rng, d, shape.n_a) for _ in range(shape.m_a)]
    channels = [_random_channel(rng, d) for _ in range(shape.m_b)]
    members = {}
    for x in range(shape.m_a):
        for a in range(shape.n_a):
            steered = np.einsum(
                "ij,ikjl->kl", povms[x][a].T, rho.reshape(d, d, d, d), optimize=True
            )
            for y in range(shape.m_b):
                out = sum(k @ steered @ k.conj().T for k in channels[y])
                members[(a, x, y)] = 0.5 * (out + out.conj().T)
    return BwiAssemblage(shape=shape, members=members)


def random_quantum_sequential(shape: SequentialShape, seed: int) -> SequentialAssemblage:
    """Quantum-realized two-round assemblage, reproducible from the seed.

    The untrusted side applies a random instrument in round one and a random
    POVM on the post-instrument system in round two.
    """
    rng = np.random.default_rng(seed)
    d = shape.d
    vec = _random_pure_state(rng, d, d)
    rho = np.outer(vec, vec.conj())
    kraus = [_random_kraus_family(rng, d, shape.n_a1) for _ in range(shape.m_x1)]
    povms = [_random_povm(rng, d, shape.n_a2) for _ in range(shape.m_x2)]
    members = {}
    for x1 in range(shape.m_x1):
        for a1 in range(shape.n_a1):
            for x2 in range(shape.m_x2):
                for a2 in range(shape.n_a2):
                    effect = (
                        kraus[x1][a1].conj().T @ povms[x2][a2] @ kraus[x1][a1]
                    )
                    steered = np.einsum(
                        "ij,ikjl->kl", effect.T, rho.reshape(d, d, d, d), optimize=True
                    )
                    members[(a1, a2, x1, x2)] = 0.5 * (steered + steered.conj().T)
    return SequentialAssemblage(shape=shape, members=members)


#: Weight of the maximally mixed state in the no-signalling samplers' drafts.
TRADITIONAL_MIX = 0.35
SEQUENTIAL_MIX = 0.5


def _random_psd(rng: np.random.Generator, d: int, mix: float) -> Array:
    gauss = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    raw = gauss @ gauss.conj().T
    raw /= np.trace(raw).real
    return (1.0 - mix) * raw + mix * np.eye(d) / d


def random_ns_traditional(shape: ScenarioShape, seed: int) -> TraditionalAssemblage:
    """No-signalling traditional assemblage sampled around the maximally mixed one.

    Random positive drafts are projected onto the equal-state rows by shifting
    each input's deficit uniformly over outcomes, rescaled to unit trace, and
    rejected until every member stays positive semidefinite.
    """
    if shape.m_b != 1:
        raise ValueError("traditional sampling needs m_b = 1")
    rng = np.random.default_rng(seed)
    d = shape.d
    for _ in range(1000):
        draft = {
            (a, x): _random_psd(rng, d, TRADITIONAL_MIX) / shape.n_a
            for a in range(shape.n_a)
            for x in range(shape.m_a)
        }
        target = sum(draft.values()) / shape.m_a
        members = {}
        for x in range(shape.m_a):
            deficit = target - sum(draft[(a, x)] for a in range(shape.n_a))
            for a in range(shape.n_a):
                members[(a, x)] = draft[(a, x)] + deficit / shape.n_a
        scale = float(np.trace(target).real)
        members = {key: mat / scale for key, mat in members.items()}
        if all(is_psd(mat, tol=1e-12) for mat in members.values()):
            return TraditionalAssemblage.from_members(members, d)
    raise RuntimeError("sampling did not produce a positive assemblage")


def random_ns_sequential(shape: SequentialShape, seed: int) -> SequentialAssemblage:
    """No-signalling two-round assemblage sampled around the maximally mixed one.

    Drafts are projected onto the two no-signalling row families (round-one
    members independent of the round-two input, total state independent of
    both inputs) by uniform shifts, rescaled, and rejected until positive.
    """
    rng = np.random.default_rng(seed)
    d = shape.d
    n_pairs = shape.n_a1 * shape.n_a2
    for _ in range(1000):
        draft = {key: _random_psd(rng, d, SEQUENTIAL_MIX) / n_pairs for key in member_keys(shape)}
        # Round-one targets: average over x2 of the round-one marginals.
        round_one = {}
        for a1 in range(shape.n_a1):
            for x1 in range(shape.m_x1):
                marginals = [
                    sum(draft[(a1, a2, x1, x2)] for a2 in range(shape.n_a2))
                    for x2 in range(shape.m_x2)
                ]
                round_one[(a1, x1)] = sum(marginals) / shape.m_x2
        state = sum(
            sum(round_one[(a1, x1)] for a1 in range(shape.n_a1))
            for x1 in range(shape.m_x1)
        ) / shape.m_x1
        members = {}
        for a1 in range(shape.n_a1):
            for x1 in range(shape.m_x1):
                target_one = round_one[(a1, x1)] + (
                    state - sum(round_one[(b1, x1)] for b1 in range(shape.n_a1))
                ) / shape.n_a1
                for x2 in range(shape.m_x2):
                    marginal = sum(
                        draft[(a1, a2, x1, x2)] for a2 in range(shape.n_a2)
                    )
                    shift = (target_one - marginal) / shape.n_a2
                    for a2 in range(shape.n_a2):
                        members[(a1, a2, x1, x2)] = draft[(a1, a2, x1, x2)] + shift
        scale = float(np.trace(state).real)
        members = {key: mat / scale for key, mat in members.items()}
        if all(is_psd(mat, tol=1e-12) for mat in members.values()):
            return SequentialAssemblage(shape=shape, members=members)
    raise RuntimeError("sampling did not produce a positive assemblage")
