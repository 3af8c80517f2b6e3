"""JSON forms for assemblages, functionals, and quantum realizations.

Complex scalars are two-element ``[real, imag]`` arrays, matrices are nested
lists of those pairs, and members are keyed by outcome-input labels such as
``"a|x"``, ``"a|x,y"``, or ``"a1,a2|x1,x2"``.  Every document carries a
``scenario`` block naming its kind and index ranges, so a file identifies its
own scenario.  Serialization is lossless: parsing a serialized object gives
back bitwise-equal arrays.
"""

from __future__ import annotations

import sys
from typing import Any, Mapping

import numpy as np

from steercert.assemblages import (
    BWI,
    INSTRUMENTAL,
    SEQUENTIAL,
    TRADITIONAL,
    BwiAssemblage,
    InstrumentalAssemblage,
    ScenarioShape,
    SequentialAssemblage,
    SequentialShape,
    TraditionalAssemblage,
)
from steercert.ghjw import QuantumRealizationSequential, QuantumRealizationTraditional
from steercert.matcore import Array
from steercert.steering import InstrumentalFunctional, SteeringFunctional

Json = dict[str, Any]

_FLOAT_MAX = sys.float_info.max


def _complex_to_json(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


def _complex_from_json(data: Any, context: str) -> complex:
    if not isinstance(data, list) or len(data) != 2:
        raise ValueError(f"{context}: expected a [real, imag] pair, got {data!r}")
    # ``json`` parses NaN, Infinity and integers beyond any float, and a bool is an int.
    if not all(
        isinstance(part, (int, float)) and not isinstance(part, bool) and abs(part) <= _FLOAT_MAX
        for part in data
    ):
        raise ValueError(
            f"{context}: entries of a complex pair must be finite numbers, got {data!r}"
        )
    return complex(*data)


def matrix_to_json(matrix: Array) -> list[list[list[float]]]:
    matrix = np.asarray(matrix, dtype=complex)
    return [[_complex_to_json(entry) for entry in row] for row in matrix]


def matrix_from_json(data: Any, context: str = "matrix") -> Array:
    if not isinstance(data, list) or not data:
        raise ValueError(f"{context}: expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise ValueError(f"{context}: row {i} is not a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{context}: row {i} has length {len(row)}, expected {width}")
        rows.append(
            [_complex_from_json(entry, f"{context}[{i}][{j}]") for j, entry in enumerate(row)]
        )
    return np.array(rows, dtype=complex)


def vector_to_json(vector: Array) -> list[list[float]]:
    return [_complex_to_json(entry) for entry in np.asarray(vector, dtype=complex)]


def vector_from_json(data: Any, context: str = "vector") -> Array:
    if not isinstance(data, list) or not data:
        raise ValueError(f"{context}: expected a non-empty list")
    return np.array(
        [_complex_from_json(entry, f"{context}[{i}]") for i, entry in enumerate(data)],
        dtype=complex,
    )


def _require_keys(data: Mapping[str, Any], keys: tuple[str, ...], context: str) -> None:
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{context}: missing keys {missing}")


def _int_field(data: Mapping[str, Any], key: str, context: str) -> int:
    value = data.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{context}: field {key!r} must be an integer, got {value!r}")
    return value


def _index_tuple(label: str, count: int, context: str) -> tuple[int, ...]:
    parts = label.split(",")
    if len(parts) != count:
        raise ValueError(f"{context}: expected {count} comma-separated indices in {label!r}")
    try:
        return tuple(int(part) for part in parts)
    except ValueError as exc:
        raise ValueError(f"{context}: non-integer index in {label!r}") from exc


def _member_key(label: str, lhs: int, rhs: int, context: str) -> tuple[int, ...]:
    halves = label.split("|")
    if len(halves) != 2:
        raise ValueError(f"{context}: member key {label!r} needs one '|' separator")
    return _index_tuple(halves[0], lhs, context) + _index_tuple(halves[1], rhs, context)


# ---------------------------------------------------------------------------
# Scenario blocks
# ---------------------------------------------------------------------------


def scenario_to_json(shape: ScenarioShape | SequentialShape) -> Json:
    if isinstance(shape, SequentialShape):
        return {
            "kind": SEQUENTIAL,
            "n_a1": shape.n_a1,
            "m_x1": shape.m_x1,
            "n_a2": shape.n_a2,
            "m_x2": shape.m_x2,
            "d": shape.d,
        }
    return {
        "kind": shape.kind,
        "n_a": shape.n_a,
        "m_a": shape.m_a,
        "m_b": shape.m_b,
        "d": shape.d,
    }


def scenario_from_json(data: Any) -> ScenarioShape | SequentialShape:
    context = "scenario"
    if not isinstance(data, dict):
        raise ValueError(f"{context}: expected an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == SEQUENTIAL:
        _require_keys(data, ("n_a1", "m_x1", "n_a2", "m_x2", "d"), context)
        return SequentialShape(
            n_a1=_int_field(data, "n_a1", context),
            m_x1=_int_field(data, "m_x1", context),
            n_a2=_int_field(data, "n_a2", context),
            m_x2=_int_field(data, "m_x2", context),
            d=_int_field(data, "d", context),
        )
    if kind in (BWI, TRADITIONAL, INSTRUMENTAL):
        _require_keys(data, ("n_a", "m_a", "m_b", "d"), context)
        return ScenarioShape(
            n_a=_int_field(data, "n_a", context),
            m_a=_int_field(data, "m_a", context),
            m_b=_int_field(data, "m_b", context),
            d=_int_field(data, "d", context),
            kind=kind,
        )
    raise ValueError(f"{context}: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Assemblages
# ---------------------------------------------------------------------------

Assemblage = BwiAssemblage | SequentialAssemblage | InstrumentalAssemblage


def assemblage_to_json(asm: Assemblage) -> Json:
    members: dict[str, Any] = {}
    if isinstance(asm, SequentialAssemblage):
        shape = asm.shape
        for x1 in range(shape.m_x1):
            for x2 in range(shape.m_x2):
                for a1 in range(shape.n_a1):
                    for a2 in range(shape.n_a2):
                        members[f"{a1},{a2}|{x1},{x2}"] = matrix_to_json(
                            asm.member(a1, a2, x1, x2)
                        )
    elif isinstance(asm, InstrumentalAssemblage):
        shape = asm.shape
        for x in range(shape.m_a):
            for a in range(shape.n_a):
                members[f"{a}|{x}"] = matrix_to_json(asm.member(a, x))
    elif isinstance(asm, TraditionalAssemblage):
        shape = asm.shape
        for x in range(shape.m_a):
            for a in range(shape.n_a):
                members[f"{a}|{x}"] = matrix_to_json(asm.traditional_member(a, x))
    elif isinstance(asm, BwiAssemblage):
        shape = asm.shape
        for x in range(shape.m_a):
            for y in range(shape.m_b):
                for a in range(shape.n_a):
                    members[f"{a}|{x},{y}"] = matrix_to_json(asm.member(a, x, y))
    else:
        raise TypeError(f"cannot serialize {type(asm).__name__}")
    return {"scenario": scenario_to_json(asm.shape), "members": members}


def _member_matrices(data: Mapping[str, Any], lhs: int, rhs: int) -> dict[tuple[int, ...], Array]:
    members_data = data.get("members")
    if not isinstance(members_data, dict) or not members_data:
        raise ValueError("members: expected a non-empty object")
    out = {}
    for label, value in members_data.items():
        key = _member_key(label, lhs, rhs, "members")
        out[key] = matrix_from_json(value, f"members[{label}]")
    return out


def assemblage_from_json(data: Any) -> Assemblage:
    if not isinstance(data, dict):
        raise ValueError(f"assemblage: expected an object, got {type(data).__name__}")
    if "scenario" not in data:
        raise ValueError("assemblage: missing scenario block")
    shape = scenario_from_json(data["scenario"])
    if isinstance(shape, SequentialShape):
        members = _member_matrices(data, 2, 2)
        keyed = {(a1, a2, x1, x2): m for (a1, a2, x1, x2), m in members.items()}
        return SequentialAssemblage(shape=shape, members=keyed)
    if shape.kind == BWI:
        raw = {}
        members_data = data.get("members")
        if not isinstance(members_data, dict) or not members_data:
            raise ValueError("members: expected a non-empty object")
        for label, value in members_data.items():
            a_part, x_part, y_part = _member_key(label, 1, 2, "members")
            raw[(a_part, x_part, y_part)] = matrix_from_json(value, f"members[{label}]")
        return BwiAssemblage(shape=shape, members=raw)
    members = _member_matrices(data, 1, 1)
    if shape.kind == INSTRUMENTAL:
        return InstrumentalAssemblage(shape=shape, members=dict(members))
    keyed = {(a, x, 0): m for (a, x), m in members.items()}
    return TraditionalAssemblage(shape=shape, members=keyed)


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------

Functional = SteeringFunctional | InstrumentalFunctional


def functional_to_json(functional: Functional) -> Json:
    shape = functional.shape
    coefficients: dict[str, Any] = {}
    if isinstance(functional, InstrumentalFunctional):
        for x in range(shape.m_a):
            for a in range(shape.n_a):
                coefficients[f"{a},{x}"] = matrix_to_json(functional.term(a, x))
    elif isinstance(functional, SteeringFunctional):
        for x in range(shape.m_a):
            for y in range(shape.m_b):
                for a in range(shape.n_a):
                    coefficients[f"{a},{x},{y}"] = matrix_to_json(functional.term(a, x, y))
    else:
        raise TypeError(f"cannot serialize {type(functional).__name__}")
    return {"scenario": scenario_to_json(shape), "coefficients": coefficients}


def functional_from_json(data: Any) -> Functional:
    if not isinstance(data, dict):
        raise ValueError(f"functional: expected an object, got {type(data).__name__}")
    if "scenario" not in data:
        raise ValueError("functional: missing scenario block")
    shape = scenario_from_json(data["scenario"])
    if isinstance(shape, SequentialShape):
        raise ValueError("functional: sequential scenarios are not supported")
    table = data.get("coefficients")
    if not isinstance(table, dict) or not table:
        raise ValueError("coefficients: expected a non-empty object")
    if shape.kind == INSTRUMENTAL:
        coeffs = {}
        for label, value in table.items():
            a_part, x_part = _index_tuple(label, 2, "coefficients")
            coeffs[(a_part, x_part)] = matrix_from_json(value, f"coefficients[{label}]")
        return InstrumentalFunctional(shape=shape, coeffs=coeffs)
    coeffs = {}
    for label, value in table.items():
        key = _index_tuple(label, 3, "coefficients")
        coeffs[key] = matrix_from_json(value, f"coefficients[{label}]")
    return SteeringFunctional(shape=shape, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Quantum realizations
# ---------------------------------------------------------------------------

Realization = QuantumRealizationTraditional | QuantumRealizationSequential


def realization_to_json(realization: Realization) -> Json:
    if isinstance(realization, QuantumRealizationTraditional):
        return {
            "kind": TRADITIONAL,
            "d": realization.d,
            "state": vector_to_json(realization.state),
            "povms": {
                str(x): [matrix_to_json(effect) for effect in effects]
                for x, effects in sorted(realization.povms.items())
            },
        }
    if isinstance(realization, QuantumRealizationSequential):
        return {
            "kind": SEQUENTIAL,
            "d": realization.d,
            "state": vector_to_json(realization.state),
            "kraus": {
                str(x1): [matrix_to_json(element) for element in elements]
                for x1, elements in sorted(realization.kraus.items())
            },
            "povms": {
                f"{a1},{x1},{x2}": [matrix_to_json(effect) for effect in effects]
                for (a1, x1, x2), effects in sorted(realization.povms.items())
            },
        }
    raise TypeError(f"cannot serialize {type(realization).__name__}")


def _effect_list(data: Any, context: str) -> list[Array]:
    if not isinstance(data, list) or not data:
        raise ValueError(f"{context}: expected a non-empty list of matrices")
    return [matrix_from_json(entry, f"{context}[{i}]") for i, entry in enumerate(data)]


def realization_from_json(data: Any) -> Realization:
    if not isinstance(data, dict):
        raise ValueError(f"realization: expected an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == TRADITIONAL:
        _require_keys(data, ("d", "state", "povms"), "realization")
        povms = {
            int(label): _effect_list(value, f"povms[{label}]")
            for label, value in data["povms"].items()
        }
        return QuantumRealizationTraditional(
            d=_int_field(data, "d", "realization"),
            state=vector_from_json(data["state"], "state"),
            povms=povms,
        )
    if kind == SEQUENTIAL:
        _require_keys(data, ("d", "state", "kraus", "povms"), "realization")
        kraus = {
            int(label): _effect_list(value, f"kraus[{label}]")
            for label, value in data["kraus"].items()
        }
        povms = {}
        for label, value in data["povms"].items():
            key = _index_tuple(label, 3, "povms")
            povms[key] = _effect_list(value, f"povms[{label}]")
        return QuantumRealizationSequential(
            d=_int_field(data, "d", "realization"),
            state=vector_from_json(data["state"], "state"),
            kraus=kraus,
            povms=povms,
        )
    raise ValueError(f"realization: unknown kind {kind!r}")
