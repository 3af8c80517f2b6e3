"""Positive-map Bell models and complete-positivity certificates.

A trusted party who applies a positive trace-preserving map before measuring
produces Bell statistics that always admit a quantum explanation: moving the
map onto the measurement through its dual turns the model into an ordinary
state-and-measurements description.  The assemblage behind those statistics,
however, need not be quantum, and the gap is witnessed by the map's Choi
matrix: a negative eigenvalue certifies that no completely positive map does
the same job.

This module provides the map descriptions used by the examples (identity,
transpose, and maps given by their action on the Pauli basis), the dual-map
construction, the Bell-model table with its explicit quantum witness, Choi
matrices under the trace-``d`` convention, and a certificate check for
assemblages whose reference members are proportional to pure states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from steercert.assemblages import BWI, BwiAssemblage, ScenarioShape
from steercert.matcore import PAULIS, Array, check_povm, partial_trace, require_hermitian

IDENTITY = "identity"
TRANSPOSE = "transpose"
PAULI_ACTION = "pauli-action"

MAP_KINDS = (IDENTITY, TRANSPOSE, PAULI_ACTION)

#: Slack on a positivity test: a Bloch matrix's spectral norm above one, or
#: a Choi matrix's eigenvalue below zero.
POSITIVITY_TOL = 1e-9

#: Relative cutoff below which a reference member's weight counts as zero.
PURITY_RANK_TOL = 1e-9

_PAULI_LABELS = ("I", "X", "Y", "Z")
_PAULI_BASIS = (np.eye(2, dtype=complex),) + tuple(PAULIS)


@dataclass
class LinearMapSpec:
    """A linear map on operators, given by kind or by its Pauli-basis action.

    ``pauli_images`` is required exactly for the ``pauli-action`` kind and maps
    each label in ``I, X, Y, Z`` to the image matrix; the identity must map to
    itself and the other images must be Hermitian and traceless, which is what
    trace preservation and Hermiticity preservation amount to on a qubit.
    """

    kind: str
    pauli_images: dict[str, Array] | None = None

    def __post_init__(self) -> None:
        if self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind != PAULI_ACTION:
            if self.pauli_images is not None:
                raise ValueError(f"{self.kind} maps do not take Pauli images")
            return
        if self.pauli_images is None or set(self.pauli_images) != set(_PAULI_LABELS):
            raise ValueError("pauli-action maps need images for exactly I, X, Y, Z")
        images = {}
        for label in _PAULI_LABELS:
            image = np.asarray(self.pauli_images[label], dtype=complex)
            if image.shape != (2, 2):
                raise ValueError(f"image of {label} must be 2x2, got {image.shape}")
            images[label] = require_hermitian(image, tol=1e-10)
        if np.linalg.norm(images["I"] - np.eye(2)) > 1e-10:
            raise ValueError("pauli-action maps must send the identity to itself")
        for label in _PAULI_LABELS[1:]:
            if abs(np.trace(images[label])) > 1e-10:
                raise ValueError(
                    f"image of {label} must be traceless for trace preservation"
                )
        self.pauli_images = images


def identity_map() -> LinearMapSpec:
    return LinearMapSpec(kind=IDENTITY)


def transpose_map() -> LinearMapSpec:
    return LinearMapSpec(kind=TRANSPOSE)


def pauli_action(images: Mapping[str, Array]) -> LinearMapSpec:
    """Map given by its images of I, X, Y, Z."""
    return LinearMapSpec(kind=PAULI_ACTION, pauli_images=dict(images))


def apply_map(spec: LinearMapSpec, matrix: Array) -> Array:
    """Image of a matrix under the map.

    Identity and transpose act on any square matrix; a ``pauli-action`` map
    acts on qubit operators through their Pauli-basis expansion.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if spec.kind == IDENTITY:
        return matrix.copy()
    if spec.kind == TRANSPOSE:
        return matrix.T.copy()
    if matrix.shape != (2, 2):
        raise ValueError("pauli-action maps act on 2x2 matrices")
    assert spec.pauli_images is not None
    out = np.zeros((2, 2), dtype=complex)
    for label, basis in zip(_PAULI_LABELS, _PAULI_BASIS):
        coefficient = complex(np.trace(basis @ matrix)) / 2.0
        out += coefficient * spec.pauli_images[label]
    return out


def transfer_matrix(spec: LinearMapSpec) -> Array:
    """Real 4x4 action on Pauli coordinates (rows and columns ordered I, X, Y, Z)."""
    out = np.zeros((4, 4))
    for j, basis in enumerate(_PAULI_BASIS):
        image = apply_map(spec, basis)
        for i, probe in enumerate(_PAULI_BASIS):
            out[i, j] = float(np.real(np.trace(probe @ image))) / 2.0
    return out


def bloch_matrix(spec: LinearMapSpec) -> Array:
    """The 3x3 block of the transfer matrix acting on Bloch vectors."""
    return transfer_matrix(spec)[1:, 1:]


def is_positive_map(spec: LinearMapSpec) -> bool:
    """Whether the map sends every state to a positive operator.

    For unital trace-preserving qubit maps this is exactly the condition that
    the Bloch-vector action does not leave the unit ball, i.e. the Bloch
    matrix has spectral norm at most one.
    """
    if spec.kind in (IDENTITY, TRANSPOSE):
        return True
    norm = float(np.linalg.norm(bloch_matrix(spec), ord=2))
    return norm <= 1.0 + POSITIVITY_TOL


def dual_map(spec: LinearMapSpec) -> LinearMapSpec:
    """The adjoint with respect to the trace inner product.

    Identity and transpose are self-dual; a ``pauli-action`` map dualizes by
    transposing its transfer matrix, which stays unital and trace-preserving.
    """
    if spec.kind in (IDENTITY, TRANSPOSE):
        return LinearMapSpec(kind=spec.kind)
    transfer = transfer_matrix(spec).T
    images = {}
    for j, label in enumerate(_PAULI_LABELS):
        images[label] = sum(
            transfer[i, j] * basis for i, basis in enumerate(_PAULI_BASIS)
        )
    return LinearMapSpec(kind=PAULI_ACTION, pauli_images=images)


def dual_povm(spec: LinearMapSpec, effects: Sequence[Array]) -> list[Array]:
    """Push a measurement through the map's dual.

    For a positive unital dual the images form a measurement again; this is
    how a trusted-side map is absorbed into the trusted measurement.
    """
    checked = check_povm(effects, "dual_povm input")
    images = [apply_map(dual_map(spec), effect) for effect in checked]
    return [0.5 * (image + image.conj().T) for image in images]


# ---------------------------------------------------------------------------
# Bell models with a trusted-side map
# ---------------------------------------------------------------------------


@dataclass
class PtpModelSpec:
    """A bipartite state, untrusted measurements, and one trusted map per input."""

    state: Array
    povms: list[list[Array]]
    maps: list[LinearMapSpec]

    def dims(self) -> tuple[int, int]:
        d_a = int(np.asarray(self.povms[0][0]).shape[0])
        side = int(np.asarray(self.state).shape[0])
        if side % d_a:
            raise ValueError(
                f"state side {side} is not a multiple of the untrusted side {d_a}"
            )
        return d_a, side // d_a


def transpose_bell_spec() -> PtpModelSpec:
    """The two-qubit model behind the transpose-based example assemblage.

    The maximally entangled state is measured with transposed Pauli projectors
    on the untrusted side, and the trusted side applies the identity at input
    0 and the transpose at input 1; steering then reproduces the example's
    members exactly.
    """
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    state = np.outer(phi, phi.conj())
    povms = [
        [0.5 * (np.eye(2) + (-1.0) ** a * pauli.T) for a in range(2)]
        for pauli in PAULIS
    ]
    return PtpModelSpec(state=state, povms=povms, maps=[identity_map(), transpose_map()])


def model_assemblage(spec: PtpModelSpec) -> BwiAssemblage:
    """Members steered by the untrusted measurements, then passed through the maps."""
    d_a, d_b = spec.dims()
    members = {}
    for x, effects in enumerate(spec.povms):
        for a, effect in enumerate(effects):
            steered = partial_trace(
                np.kron(np.asarray(effect, dtype=complex), np.eye(d_b)) @ spec.state,
                dims=(d_a, d_b),
                keep=1,
            )
            for y, map_spec in enumerate(spec.maps):
                member = apply_map(map_spec, steered)
                members[(a, x, y)] = 0.5 * (member + member.conj().T)
    shape = ScenarioShape(
        n_a=len(spec.povms[0]), m_a=len(spec.povms), m_b=len(spec.maps), d=d_b, kind=BWI
    )
    return BwiAssemblage(shape=shape, members=members)


@dataclass
class BellModelResult:
    """Probability table with the explicit quantum witness measurements.

    ``table[a, b, x, y, z]`` is the probability of outcomes ``(a, b)`` when
    the untrusted input is ``x``, the trusted map input is ``y``, and the
    trusted measurement input is ``z``.  ``witness_povms[(y, z)]`` lists the
    dual-image effects whose direct measurement on the shared state produces
    the same table, which is what makes the statistics quantum.
    """

    table: Array
    witness_povms: dict[tuple[int, int], list[Array]]
    assemblage: BwiAssemblage


def ptp_bell_model(spec: PtpModelSpec, bob_effects: Sequence[Sequence[Array]]) -> BellModelResult:
    """Bell statistics of a trusted-map model, with their quantum witness.

    Rejects maps that are not positive, validates every measurement, and
    evaluates ``tr((M_{a|x} (x) F_y(N_{b|z})) rho)`` where ``F_y`` is the dual
    of the input-``y`` map.  The same table equals direct measurement of the
    model's assemblage members.
    """
    for y, map_spec in enumerate(spec.maps):
        if not is_positive_map(map_spec):
            raise ValueError(f"map for trusted input {y} is not positive")
    checked = [
        check_povm(effects, f"trusted measurement {z}")
        for z, effects in enumerate(bob_effects)
    ]
    d_a, d_b = spec.dims()
    n_a = len(spec.povms[0])
    n_b = len(checked[0])
    for z, effects in enumerate(checked):
        if len(effects) != n_b:
            raise ValueError("every trusted measurement needs the same outcome count")
    witness = {
        (y, z): dual_povm(map_spec, effects)
        for y, map_spec in enumerate(spec.maps)
        for z, effects in enumerate(checked)
    }
    table = np.zeros((n_a, n_b, len(spec.povms), len(spec.maps), len(checked)))
    for x, alice_effects in enumerate(spec.povms):
        for a, alice_effect in enumerate(alice_effects):
            alice = np.asarray(alice_effect, dtype=complex)
            for (y, z), effects in witness.items():
                for b, bob in enumerate(effects):
                    value = complex(np.trace(np.kron(alice, bob) @ spec.state))
                    if abs(value.imag) > 1e-10:
                        raise ValueError(
                            f"probability ({a},{b}|{x},{y},{z}) has imaginary part "
                            f"{value.imag:.3e}"
                        )
                    table[a, b, x, y, z] = value.real
    return BellModelResult(
        table=table, witness_povms=witness, assemblage=model_assemblage(spec)
    )


# ---------------------------------------------------------------------------
# Choi matrices
# ---------------------------------------------------------------------------


@dataclass
class ChoiMatrix:
    """The map applied to half of the unnormalized maximally entangled projector.

    With this trace-``d`` convention a trace-preserving map has trace exactly
    ``d`` and complete positivity is equivalent to the matrix being positive
    semidefinite.
    """

    matrix: Array
    map_dimension: int

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(require_hermitian(self.matrix, tol=1e-8)).min())

    def is_positive(self) -> bool:
        return self.min_eigenvalue() >= -POSITIVITY_TOL

    def trace_residual(self) -> float:
        """Distance of the trace from the trace-preserving value ``d``."""
        return abs(complex(np.trace(self.matrix)) - self.map_dimension)

    def trace_preservation_residual(self) -> float:
        """Norm of ``tr_1 C - I``, zero exactly for trace-preserving maps."""
        d = self.map_dimension
        reduced = partial_trace(self.matrix, dims=(d, d), keep=1)
        return float(np.linalg.norm(reduced - np.eye(d)))


def choi(spec: LinearMapSpec, d: int = 2) -> ChoiMatrix:
    """Choi matrix ``sum_kl map(E_kl) (x) E_kl`` of the map at dimension ``d``."""
    if spec.kind == PAULI_ACTION and d != 2:
        raise ValueError("pauli-action maps are qubit maps")
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[k, l] = 1.0
            out += np.kron(apply_map(spec, unit), unit)
    return ChoiMatrix(matrix=out, map_dimension=d)


# ---------------------------------------------------------------------------
# Pure-state certificate
# ---------------------------------------------------------------------------

POST_QUANTUM = "post-quantum"
NO_CERTIFICATE = "no-certificate"
INCONCLUSIVE = "inconclusive"


@dataclass
class CertificateReport:
    """Outcome of the pure-member map reconstruction.

    ``post-quantum`` means some reconstructed trusted-input map has a negative
    Choi eigenvalue, so no completely positive map can relate the members;
    ``no-certificate`` means every reconstructed map passed; ``inconclusive``
    means the reference members did not span enough of operator space to pin
    the maps down.
    """

    status: str
    y_reference: int
    min_eigenvalue: float
    choi_matrices: dict[int, ChoiMatrix] = field(default_factory=dict)
    maps: dict[int, LinearMapSpec] = field(default_factory=dict)
    residuals: dict[str, float] = field(default_factory=dict)
    note: str = ""


def _pauli_coordinates(matrix: Array) -> Array:
    return np.array(
        [float(np.real(np.trace(basis @ matrix))) / 2.0 for basis in _PAULI_BASIS]
    )


def pure_state_lemma_check(asm: BwiAssemblage, y_ref: int = 0) -> CertificateReport:
    """Certificate from members proportional to pure states at one trusted input.

    When the reference members are pure (up to weight), any assemblage those
    members extend is related input-to-input by linear maps fixed on the span
    of the reference members.  The maps are reconstructed on the Pauli basis
    by least squares; a negative Choi eigenvalue then rules out any completely
    positive explanation, certifying the assemblage post-quantum.  Reference
    members that fail purity raise; a span smaller than the full operator
    space returns the explicit ``inconclusive`` status.
    """
    shape = asm.shape
    if shape.d != 2:
        raise ValueError("the certificate check is implemented for qubit members")
    if not 0 <= y_ref < shape.m_b:
        raise ValueError(f"reference input {y_ref} outside range {shape.m_b}")
    reference = []
    for a in range(shape.n_a):
        for x in range(shape.m_a):
            member = require_hermitian(asm.member(a, x, y_ref), tol=1e-8)
            values = np.linalg.eigvalsh(member)
            weight = float(values.max())
            if weight > PURITY_RANK_TOL and values[:-1].max(initial=0.0) > 1e-6 * weight:
                raise ValueError(
                    f"reference member ({a}|{x},{y_ref}) is not proportional to a "
                    "pure state"
                )
            reference.append(member)
    coords = np.stack([_pauli_coordinates(member) for member in reference], axis=1)
    singular = np.linalg.svd(coords, compute_uv=False)
    rank = int(np.sum(singular > 1e-8 * max(float(singular.max()), 1.0)))
    if rank < 4:
        return CertificateReport(
            status=INCONCLUSIVE,
            y_reference=y_ref,
            min_eigenvalue=np.nan,
            note="reference members do not span the operator space",
        )
    report_maps: dict[int, LinearMapSpec] = {}
    chois: dict[int, ChoiMatrix] = {}
    residuals: dict[str, float] = {}
    worst = np.inf
    for y in range(shape.m_b):
        if y == y_ref:
            continue
        targets = np.stack(
            [
                _pauli_coordinates(require_hermitian(asm.member(a, x, y), tol=1e-8))
                for a in range(shape.n_a)
                for x in range(shape.m_a)
            ],
            axis=1,
        )
        transfer, *_ = np.linalg.lstsq(coords.T, targets.T, rcond=None)
        transfer = transfer.T
        fit = float(np.max(np.abs(transfer @ coords - targets)))
        residuals[f"fit[{y}]"] = fit
        if fit > 1e-7:
            return CertificateReport(
                status=INCONCLUSIVE,
                y_reference=y_ref,
                min_eigenvalue=np.nan,
                residuals=residuals,
                note=f"no linear map relates inputs {y_ref} and {y} within tolerance",
            )
        images = {}
        for j, label in enumerate(_PAULI_LABELS):
            images[label] = sum(
                transfer[i, j] * basis for i, basis in enumerate(_PAULI_BASIS)
            )
        unit_drift = float(np.linalg.norm(images["I"] - np.eye(2)))
        residuals[f"unital[{y}]"] = unit_drift
        if unit_drift > 1e-7:
            return CertificateReport(
                status=INCONCLUSIVE,
                y_reference=y_ref,
                min_eigenvalue=np.nan,
                residuals=residuals,
                note=f"reconstructed map for input {y} does not preserve the identity",
            )
        images["I"] = np.eye(2, dtype=complex)
        for label in _PAULI_LABELS[1:]:
            images[label] = images[label] - np.trace(images[label]) / 2.0 * np.eye(2)
        spec = LinearMapSpec(kind=PAULI_ACTION, pauli_images=images)
        report_maps[y] = spec
        chois[y] = choi(spec)
        worst = min(worst, chois[y].min_eigenvalue())
    if not chois:
        worst = 0.0
    status = POST_QUANTUM if worst < -1e-7 else NO_CERTIFICATE
    return CertificateReport(
        status=status,
        y_reference=y_ref,
        min_eigenvalue=float(worst),
        choi_matrices=chois,
        maps=report_maps,
        residuals=residuals,
    )
