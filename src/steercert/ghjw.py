"""Explicit quantum realizations of no-signalling assemblages.

Every no-signalling traditional assemblage is steered-to exactly by measuring
one half of a fixed pure state: take the purification of the reduced state in
the computational basis and whiten the members into measurement operators.
The same recipe extends to two untrusted rounds, where the first round becomes
an instrument (Kraus family) and the second a measurement conditioned on the
first round's record.  A wired (instrumental) realization adds a unitary that
the trusted party applies to the steered system on each outcome.

The constructions here return the state and operator families explicitly and
are exact up to rank decisions, so rebuilding the assemblage from the
realization reproduces the input members to solver-free numerical precision.
Both directions are provided: ``ghjw_*`` builds a realization,
``reconstruct_*`` measures it back into an assemblage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from steercert.assemblages import (
    INSTRUMENTAL,
    InstrumentalAssemblage,
    ScenarioShape,
    SequentialAssemblage,
    SequentialShape,
    TraditionalAssemblage,
)
from steercert.matcore import (
    PAULIS,
    RANK_TOL,
    Array,
    kron,
    partial_trace,
    sqrt_psd,
    support_ops,
)

#: Largest norm of a member outside the support of the state it sums to.
SUPPORT_TOL = 10.0 * RANK_TOL


def _check_support(member: Array, kernel_projector: Array, context: str) -> None:
    """Members must live on the support of the state they sum to."""
    leak = float(np.linalg.norm(kernel_projector @ member @ kernel_projector))
    if leak > SUPPORT_TOL:
        raise ValueError(
            f"{context} leaks {leak:.3e} outside the reduced state's support; "
            "the input is not a consistent assemblage"
        )


def _entangled_vector(trusted_factor: Array) -> Array:
    """The vector ``(I (x) F) sum_k |kk>`` for a trusted-side factor ``F``."""
    d = trusted_factor.shape[0]
    vec = np.zeros(d * d, dtype=complex)
    for k in range(d):
        basis = np.zeros(d, dtype=complex)
        basis[k] = 1.0
        vec += np.kron(basis, trusted_factor[:, k])
    return vec


@dataclass
class QuantumRealizationTraditional:
    """A pure state with one measurement per untrusted input.

    ``state`` is a unit vector on the untrusted-times-trusted space (both of
    side ``d``); ``povms[x]`` lists the measurement operators for input ``x``
    in outcome order.
    """

    d: int
    state: Array
    povms: dict[int, list[Array]]


def ghjw_traditional(asm: TraditionalAssemblage) -> QuantumRealizationTraditional:
    """Realize a no-signalling traditional assemblage by measuring a pure state.

    The shared state purifies the reduced state over the computational basis;
    measurement operators are the members whitened by the reduced state and
    transposed, with the reduced state's kernel attached to outcome zero so
    each input's operators sum to the identity.
    """
    shape = asm.shape
    d = shape.d
    sigma_r = asm.reduced_state(0)
    ops = support_ops(sigma_r)
    kernel_t = ops.kernel.T
    state = _entangled_vector(sqrt_psd(sigma_r))
    povms: dict[int, list[Array]] = {}
    for x in range(shape.m_a):
        effects = []
        for a in range(shape.n_a):
            member = asm.traditional_member(a, x)
            _check_support(member, ops.kernel, f"member ({a}|{x})")
            effect = (ops.sqrt_pinv @ member @ ops.sqrt_pinv).T
            if a == 0:
                effect = effect + kernel_t
            effects.append(0.5 * (effect + effect.conj().T))
        povms[x] = effects
    return QuantumRealizationTraditional(d=d, state=state, povms=povms)


def reconstruct_traditional(
    realization: QuantumRealizationTraditional,
) -> TraditionalAssemblage:
    """Measure the realization back into an assemblage."""
    d = realization.d
    rho = np.outer(realization.state, realization.state.conj())
    eye = np.eye(d, dtype=complex)
    members = {}
    for x, effects in realization.povms.items():
        for a, effect in enumerate(effects):
            members[(a, x)] = partial_trace(
                kron(effect, eye) @ rho, dims=(d, d), keep=1
            )
    return TraditionalAssemblage.from_members(members, d=d)


@dataclass
class QuantumRealizationInstrumental:
    """A traditional realization with the trusted input wired to the outcome.

    On outcome ``a`` the trusted party applies ``unitaries[a]`` to the steered
    system, so the wired member is ``U_a sigma_{a|x} U_a^dagger``.
    """

    steering: QuantumRealizationTraditional
    unitaries: list[Array]


def reconstruct_instrumental(
    realization: QuantumRealizationInstrumental,
) -> InstrumentalAssemblage:
    """Measure the realization and rotate each outcome's steered state."""
    steered = reconstruct_traditional(realization.steering)
    shape = steered.shape
    members = {
        (a, x): u @ steered.traditional_member(a, x) @ u.conj().T
        for a, u in enumerate(realization.unitaries)
        for x in range(shape.m_a)
    }
    wired_shape = ScenarioShape(
        n_a=shape.n_a, m_a=shape.m_a, m_b=shape.n_a, d=shape.d, kind=INSTRUMENTAL
    )
    return InstrumentalAssemblage(shape=wired_shape, members=members)


def instrumental_pauli_model() -> QuantumRealizationInstrumental:
    """A quantum model of :func:`~steercert.assemblages.instrumental_pauli_assemblage`.

    The trusted reduced state is ``(I + (X + Y + Z)/3) / 2``.  Input ``x``
    steers it to ``(I + P_x)/4`` on outcome 0 and to the remainder on outcome
    1; each remainder is pure with weight 1/2, so ``ghjw_traditional``
    realizes the pair.  Outcome 0 is kept as is; on outcome 1 the unitary
    ``Y (X + Y + Z) / sqrt(3)`` turns each remainder into the wired member
    ``sigma_{1|x}``.
    """
    eye = np.eye(2, dtype=complex)
    sx, sy, sz = PAULIS
    reduced = 0.5 * (eye + (sx + sy + sz) / 3.0)
    members = {}
    for x, pauli in enumerate(PAULIS):
        members[(0, x)] = 0.25 * (eye + pauli)
        members[(1, x)] = reduced - members[(0, x)]
    steering = ghjw_traditional(TraditionalAssemblage.from_members(members, d=2))
    rotation = sy @ (sx + sy + sz) / np.sqrt(3.0)
    return QuantumRealizationInstrumental(steering=steering, unitaries=[eye, rotation])


@dataclass
class QuantumRealizationSequential:
    """A pure state with a round-one instrument and record-conditioned measurements.

    ``kraus[x1]`` lists the round-one operation elements in outcome order;
    ``povms[(a1, x1, x2)]`` lists the round-two measurement operators applied
    after record ``(a1, x1)``.
    """

    d: int
    state: Array
    kraus: dict[int, list[Array]]
    povms: dict[tuple[int, int, int], list[Array]]


def ghjw_sequential(asm: SequentialAssemblage) -> QuantumRealizationSequential:
    """Realize a no-signalling two-round assemblage on a pure state.

    Round one whitens the round-one members against the total state (all on
    the transposed side, since untrusted operators act on the mirror factor of
    the purification); round two whitens each full member against its round-one
    parent.  Kernels complete outcome zero at both rounds.
    """
    shape = asm.shape
    d = shape.d
    state_total = asm.state()
    total_t = state_total.T
    total_ops = support_ops(total_t)
    state = _entangled_vector(sqrt_psd(state_total))
    kraus: dict[int, list[Array]] = {}
    povms: dict[tuple[int, int, int], list[Array]] = {}
    for x1 in range(shape.m_x1):
        elements = []
        for a1 in range(shape.n_a1):
            first_t = asm.first_round_member(a1, x1).T
            _check_support(first_t, total_ops.kernel, f"round-one member ({a1}|{x1})")
            element = sqrt_psd(first_t) @ total_ops.sqrt_pinv
            if a1 == 0:
                element = element + total_ops.kernel
            elements.append(element)
            first_ops = support_ops(first_t)
            for x2 in range(shape.m_x2):
                effects = []
                for a2 in range(shape.n_a2):
                    member_t = asm.member(a1, a2, x1, x2).T
                    _check_support(member_t, first_ops.kernel, f"member ({a1},{a2}|{x1},{x2})")
                    effect = first_ops.sqrt_pinv @ member_t @ first_ops.sqrt_pinv
                    if a2 == 0:
                        effect = effect + first_ops.kernel
                    effects.append(0.5 * (effect + effect.conj().T))
                povms[(a1, x1, x2)] = effects
        kraus[x1] = elements
    return QuantumRealizationSequential(d=d, state=state, kraus=kraus, povms=povms)


def reconstruct_sequential(
    realization: QuantumRealizationSequential,
) -> SequentialAssemblage:
    """Run the instrument and the conditioned measurements on the state."""
    d = realization.d
    rho = np.outer(realization.state, realization.state.conj())
    eye = np.eye(d, dtype=complex)
    n_a1 = len(next(iter(realization.kraus.values())))
    m_x1 = len(realization.kraus)
    sample_effects = next(iter(realization.povms.values()))
    n_a2 = len(sample_effects)
    m_x2 = len({key[2] for key in realization.povms})
    members = {}
    for x1 in range(m_x1):
        for a1 in range(n_a1):
            k = realization.kraus[x1][a1]
            for x2 in range(m_x2):
                for a2 in range(n_a2):
                    effect = k.conj().T @ realization.povms[(a1, x1, x2)][a2] @ k
                    members[(a1, a2, x1, x2)] = partial_trace(
                        kron(effect, eye) @ rho, dims=(d, d), keep=1
                    )
    shape = SequentialShape(n_a1=n_a1, m_x1=m_x1, n_a2=n_a2, m_x2=m_x2, d=d)
    return SequentialAssemblage(shape=shape, members=members)
