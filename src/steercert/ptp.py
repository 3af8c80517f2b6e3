"""Positive-map Bell models and complete-positivity certificates.

A trusted party who applies a positive trace-preserving map before measuring
produces Bell statistics that always admit a quantum explanation: moving the
map onto the measurement through its dual turns the model into an ordinary
state-and-measurements description.  The assemblage behind those statistics,
however, need not be quantum, and the gap is witnessed by the map's Choi
matrix: a negative eigenvalue certifies that no completely positive map does
the same job.

Every map here is a unital, trace-preserving qubit map, held as its Pauli
transfer matrix ``T`` (:class:`QubitMap`): ``T[i, j] = tr(P_i F(P_j)) / 2``
over ``P = I, X, Y, Z``, a real 4x4 matrix whose row 0 and column 0 are
``e_0``.  Its dual is ``T^T``; it is positive exactly when the 3x3 Bloch
block has spectral norm at most one (Ruskai, Szarek & Werner, Linear Algebra
Appl. 347, 159 (2002)); and its Choi matrix is ``sum_ij T_ij P_i (x) P_j^T / 2``.
On top of that form sit the Bell-model table with its explicit quantum
witness and a certificate check for assemblages whose reference members are
proportional to pure states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from steercert.assemblages import BWI, BwiAssemblage, ScenarioShape, member_keys
from steercert.matcore import (
    PAULIS,
    POVM_TOL,
    Array,
    check_povm,
    hermitian_part,
    is_psd,
    partial_trace,
    real_table,
    require_hermitian,
)

#: Slack on a positivity test: a Bloch matrix's spectral norm above one, or
#: a Choi matrix's eigenvalue below zero.
POSITIVITY_TOL = 1e-9

#: Relative cutoff below which a reference member's weight counts as zero.
PURITY_RANK_TOL = 1e-9

_PAULI_LABELS = ("I", "X", "Y", "Z")
_PAULI_BASIS = np.stack((np.eye(2, dtype=complex),) + tuple(PAULIS))
_E0 = np.eye(4)[0]


def pauli_coordinates(matrix: Array) -> Array:
    """``tr(P_i m) / 2`` for ``P = I, X, Y, Z`` over leading axes; real for Hermitian ``m``."""
    return np.einsum("iab,...ba->...i", _PAULI_BASIS, matrix) / 2.0


@dataclass(frozen=True, eq=False)
class QubitMap:
    """A unital, trace-preserving qubit map, as its Pauli transfer matrix.

    ``transfer`` is real 4x4 with rows and columns ordered ``I, X, Y, Z``; row
    0 equal to ``e_0`` is trace preservation and column 0 equal to ``e_0`` is
    unitality.
    """

    transfer: Array

    def __post_init__(self) -> None:
        transfer = np.asarray(self.transfer)
        if transfer.shape != (4, 4) or not np.isrealobj(transfer):
            raise ValueError(
                f"transfer matrix must be real 4x4, got {transfer.dtype} {transfer.shape}"
            )
        if not np.array_equal(transfer[:, 0], _E0):
            raise ValueError("map is not unital: column 0 of the transfer matrix is not e_0")
        if not np.array_equal(transfer[0], _E0):
            raise ValueError("map is not trace-preserving: row 0 of the transfer matrix is not e_0")
        transfer = transfer.astype(float)
        transfer.setflags(write=False)
        object.__setattr__(self, "transfer", transfer)

    def __call__(self, matrix: Array) -> Array:
        """The image of ``matrix``, or of each matrix over leading axes ``(..., 2, 2)``."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape[-2:] != (2, 2):
            raise ValueError(f"qubit maps act on 2x2 matrices, got shape {matrix.shape}")
        return np.einsum("...j,ij,iab->...ab", pauli_coordinates(matrix), self.transfer, _PAULI_BASIS)

    def dual(self) -> QubitMap:
        """The adjoint with respect to the trace inner product."""
        return QubitMap(self.transfer.T)

    def is_positive(self) -> bool:
        """Whether the Bloch block keeps the unit ball, i.e. states map to states."""
        norm = float(np.linalg.norm(self.transfer[1:, 1:], ord=2))
        return norm <= 1.0 + POSITIVITY_TOL


def _pinned(transfer: Array) -> QubitMap:
    """The map whose transfer matrix is ``transfer`` with row and column 0 set to ``e_0``."""
    transfer = np.array(transfer, dtype=float)
    transfer[:, 0] = _E0
    transfer[0, 1:] = 0.0
    return QubitMap(transfer)


def identity_map() -> QubitMap:
    return QubitMap(np.eye(4))


def transpose_map() -> QubitMap:
    return QubitMap(np.diag([1.0, 1.0, -1.0, 1.0]))


def pauli_action(images: Mapping[str, Array]) -> QubitMap:
    """Map given by its images of I, X, Y, Z.

    The identity must map to itself and the other images must be Hermitian
    and traceless, which is what trace preservation and Hermiticity
    preservation amount to on a qubit.
    """
    if set(images) != set(_PAULI_LABELS):
        raise ValueError("pauli-action maps need images for exactly I, X, Y, Z")
    checked = []
    for label in _PAULI_LABELS:
        image = np.asarray(images[label], dtype=complex)
        if image.shape != (2, 2):
            raise ValueError(f"image of {label} must be 2x2, got {image.shape}")
        checked.append(require_hermitian(image, tol=1e-10))
    if np.linalg.norm(checked[0] - np.eye(2)) > 1e-10:
        raise ValueError("pauli-action maps must send the identity to itself")
    for label, image in zip(_PAULI_LABELS[1:], checked[1:]):
        if abs(np.trace(image)) > 1e-10:
            raise ValueError(f"image of {label} must be traceless for trace preservation")
    return _pinned(pauli_coordinates(np.stack(checked)).real.T)


def dual_povm(qubit_map: QubitMap, effects: Array | Sequence[Array]) -> Array:
    """Push a measurement, or a stack ``(..., n, 2, 2)`` of them, through the map's dual.

    For a positive unital dual the images form a measurement again; this is
    how a trusted-side map is absorbed into the trusted measurement.
    """
    return hermitian_part(qubit_map.dual()(check_povm(effects, "dual_povm input")))


# ---------------------------------------------------------------------------
# Bell models with a trusted-side map
# ---------------------------------------------------------------------------


@dataclass
class PtpModelSpec:
    """A bipartite state, untrusted measurements, and one trusted qubit map per input.

    Construction checks each measurement, stacks them as ``povms[x, a]``, and
    requires a density matrix on the untrusted side times the qubit side.
    """

    state: Array
    povms: Array
    maps: list[QubitMap]

    def __post_init__(self) -> None:
        self.povms = np.stack(
            [check_povm(effects, f"untrusted measurement {x}") for x, effects in enumerate(self.povms)]
        )
        self.state = np.asarray(self.state, dtype=complex)
        if not is_psd(self.state, tol=POVM_TOL):
            raise ValueError("state is not positive semidefinite")
        if abs(np.trace(self.state) - 1.0) > POVM_TOL:
            raise ValueError(f"state has trace {np.trace(self.state).real:.6g}, expected 1")
        d_a, d_b = self.dims()
        if self.state.shape[0] != d_a * d_b:
            raise ValueError(f"state side {self.state.shape[0]} is not {d_a} x {d_b} (untrusted x qubit)")

    def dims(self) -> tuple[int, int]:
        """Sides of the untrusted system and of the trusted qubit."""
        return self.povms.shape[-1], 2


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
    m_a, n_a = spec.povms.shape[:2]
    # steered[x, a] = tr_A((M_{a|x} (x) I) rho)
    steered = np.einsum("xaki,ilkm->xalm", spec.povms, spec.state.reshape(d_a, d_b, d_a, d_b))
    images = np.stack([hermitian_part(qubit_map(steered)) for qubit_map in spec.maps])
    shape = ScenarioShape(n_a=n_a, m_a=m_a, m_b=len(spec.maps), d=d_b, kind=BWI)
    members = {(a, x, y): images[y, x, a] for a, x, y in member_keys(shape)}
    return BwiAssemblage(shape=shape, members=members)


@dataclass
class BellModelResult:
    """Probability table with the explicit quantum witness measurements.

    ``table[..., a, b, x, y, z]`` is the probability of outcomes ``(a, b)``
    when the untrusted input is ``x``, the trusted map input is ``y``, and
    the trusted measurement input is ``z``; leading axes follow those of the
    trusted effects.  ``witness_povms[..., y, z, b]`` is the dual-image effect
    whose direct measurement on the shared state produces the same table,
    which is what makes the statistics quantum.
    """

    table: Array
    witness_povms: Array
    assemblage: BwiAssemblage


def ptp_bell_model(spec: PtpModelSpec, bob_effects: Array | Sequence[Sequence[Array]]) -> BellModelResult:
    """Bell statistics of a trusted-map model, with their quantum witness.

    ``bob_effects[..., z, b]`` is trusted effect ``b`` of measurement ``z``;
    leading axes stack sets of trusted measurements.  Rejects maps that are
    not positive, checks each trusted measurement once (the spec checked the
    rest), and evaluates ``tr((M_{a|x} (x) F_y(N_{b|z})) rho)`` where ``F_y``
    is the dual of the input-``y`` map.  The same table equals direct
    measurement of the model's assemblage members.
    """
    for y, qubit_map in enumerate(spec.maps):
        if not qubit_map.is_positive():
            raise ValueError(f"map for trusted input {y} is not positive")
    try:
        effects = np.asarray(bob_effects, dtype=complex)
    except ValueError as exc:
        raise ValueError("every trusted measurement needs the same outcome count") from exc
    if effects.ndim < 4 or effects.shape[-2:] != (2, 2):
        raise ValueError(f"trusted effects need shape (..., m_z, n_b, 2, 2), got {effects.shape}")
    for z in range(effects.shape[-4]):
        check_povm(effects[..., z, :, :, :], f"trusted measurement {z}")
    transfers = np.stack([qubit_map.transfer for qubit_map in spec.maps])
    # Each dual map acts on Pauli coordinates by the transpose T^T.
    coords = np.einsum("...zbj,yji->...yzbi", pauli_coordinates(effects), transfers)
    witness = hermitian_part(np.einsum("...i,iab->...ab", coords, _PAULI_BASIS))
    d_a, d_b = spec.dims()
    rho = spec.state.reshape(d_a, d_b, d_a, d_b)
    values = np.einsum("xaki,...yzblj,ijkl->...abxyz", spec.povms, witness, rho, optimize=True)
    return BellModelResult(
        table=real_table(values, 5, "probability"),
        witness_povms=witness,
        assemblage=model_assemblage(spec),
    )


def chsh_subtables(table: Array) -> Array:
    """Every CHSH table ``[..., k, a, b, i, j]`` inside a table ``(..., 2, 2, m_x, m_y, m_z)``.

    Sub-table ``k`` takes inputs ``i`` from one ordered pair of distinct ``x``
    and ``j`` from one ordered pair of distinct trusted settings ``(y, z)``.
    """
    table = np.asarray(table)
    # [..., x, setting, a, b] with the trusted settings (y, z) on one axis.
    flat = np.moveaxis(table.reshape(*table.shape[:-2], -1), (-4, -3), (-2, -1))
    inputs = np.array(list(itertools.permutations(range(flat.shape[-4]), 2)))
    settings = np.array(list(itertools.permutations(range(flat.shape[-3]), 2)))
    picked = flat[..., inputs[:, None, :, None], settings[None, :, None, :], :, :]
    picked = np.moveaxis(picked, (-2, -1), (-4, -3))
    return picked.reshape(*picked.shape[:-6], -1, *picked.shape[-4:])


# ---------------------------------------------------------------------------
# Choi matrices
# ---------------------------------------------------------------------------


@dataclass
class ChoiMatrix:
    """A qubit map applied to half of the unnormalized maximally entangled projector.

    With this trace-2 convention a trace-preserving map has trace exactly 2
    and complete positivity is equivalent to the matrix being positive
    semidefinite.
    """

    matrix: Array

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(require_hermitian(self.matrix, tol=1e-8)).min())

    def is_positive(self) -> bool:
        return self.min_eigenvalue() >= -POSITIVITY_TOL

    def trace_residual(self) -> float:
        """Distance of the trace from the trace-preserving value 2."""
        return abs(complex(np.trace(self.matrix)) - 2.0)

    def trace_preservation_residual(self) -> float:
        """Norm of ``tr_1 C - I``, zero exactly for trace-preserving maps."""
        reduced = partial_trace(self.matrix, dims=(2, 2), keep=1)
        return float(np.linalg.norm(reduced - np.eye(2)))


def choi(qubit_map: QubitMap) -> ChoiMatrix:
    """Choi matrix ``sum_kl F(E_kl) (x) E_kl = sum_ij T_ij P_i (x) P_j^T / 2``."""
    blocks = np.einsum("ij,iab,jdc->acbd", qubit_map.transfer, _PAULI_BASIS, _PAULI_BASIS)
    return ChoiMatrix(matrix=blocks.reshape(4, 4) / 2.0)


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
    maps: dict[int, QubitMap] = field(default_factory=dict)
    residuals: dict[str, float] = field(default_factory=dict)
    note: str = ""


def _inconclusive(y_ref: int, residuals: dict[str, float], note: str) -> CertificateReport:
    return CertificateReport(INCONCLUSIVE, y_ref, np.nan, residuals=residuals, note=note)


def pure_state_lemma_check(asm: BwiAssemblage, y_ref: int = 0) -> CertificateReport:
    """Certificate from members proportional to pure states at one trusted input.

    When the reference members are pure (up to weight), any assemblage those
    members extend is related input-to-input by linear maps fixed on the span
    of the reference members.  Each map's transfer matrix is reconstructed by
    least squares on Pauli coordinates; a negative Choi eigenvalue then rules
    out any completely positive explanation, certifying the assemblage
    post-quantum.  Reference members that fail purity raise; a span smaller
    than the full operator space returns the explicit ``inconclusive`` status.
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
    coords = pauli_coordinates(np.stack(reference)).real.T
    singular = np.linalg.svd(coords, compute_uv=False)
    rank = int(np.sum(singular > 1e-8 * max(float(singular.max()), 1.0)))
    if rank < 4:
        return _inconclusive(y_ref, {}, "reference members do not span the operator space")
    report_maps: dict[int, QubitMap] = {}
    chois: dict[int, ChoiMatrix] = {}
    residuals: dict[str, float] = {}
    worst = np.inf
    for y in range(shape.m_b):
        if y == y_ref:
            continue
        members = [
            require_hermitian(asm.member(a, x, y), tol=1e-8)
            for a in range(shape.n_a)
            for x in range(shape.m_a)
        ]
        targets = pauli_coordinates(np.stack(members)).real.T
        transfer, *_ = np.linalg.lstsq(coords.T, targets.T, rcond=None)
        transfer = transfer.T
        fit = float(np.max(np.abs(transfer @ coords - targets)))
        residuals[f"fit[{y}]"] = fit
        if fit > 1e-7:
            note = f"no linear map relates inputs {y_ref} and {y} within tolerance"
            return _inconclusive(y_ref, residuals, note)
        # The image of the identity is sum_i T[i, 0] P_i, and ||P_i||_F = sqrt(2).
        unit_drift = float(np.sqrt(2.0) * np.linalg.norm(transfer[:, 0] - _E0))
        residuals[f"unital[{y}]"] = unit_drift
        if unit_drift > 1e-7:
            note = f"reconstructed map for input {y} does not preserve the identity"
            return _inconclusive(y_ref, residuals, note)
        report_maps[y] = _pinned(transfer)
        chois[y] = choi(report_maps[y])
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
