"""JSON forms for assemblages, functionals, and quantum realizations.

Complex scalars are two-element ``[real, imag]`` arrays and matrices are
nested lists of those pairs.  Members and coefficients are labelled by their
:func:`~steercert.assemblages.member_keys` key, under one rule for every
kind: an assemblage label is the outcome indices, ``|``, then the input
indices, each comma-joined (``"a|x,y"``, ``"a1,a2|x1,x2"``, or ``"a|x"`` when
wired or traditional, whose key drops its ``y = 0``), and a functional label
comma-joins the whole key (``"a,x,y"``, or ``"a,x"`` when wired).  Every
document carries a ``scenario`` block naming its kind and index ranges, so a
file identifies its own scenario.  Serialization is lossless: parsing a
serialized object gives back bitwise-equal arrays.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from typing import Any, Mapping

import numpy as np

from steercert.assemblages import (
    BWI,
    INSTRUMENTAL,
    KINDS,
    SEQUENTIAL,
    TRADITIONAL,
    BwiAssemblage,
    InstrumentalAssemblage,
    ScenarioShape,
    SequentialAssemblage,
    SequentialShape,
    Shape,
    TraditionalAssemblage,
    member_keys,
)
from steercert.ghjw import QuantumRealizationSequential, QuantumRealizationTraditional
from steercert.matcore import Array
from steercert.steering import Functional, InstrumentalFunctional, SteeringFunctional

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


def _label_runs(shape: Shape, functional: bool) -> tuple[list[slice], int]:
    """The slices of a key that its label writes between ``|`` separators, and the key's size.

    A functional label is its whole key.  An assemblage label is the outcome
    indices, then the input indices; a traditional key drops its ``y = 0``.
    """
    size = len(member_keys(shape)[0])
    if functional:
        return [slice(0, size)], size
    outcomes = 2 if shape.kind == SEQUENTIAL else 1
    return [slice(0, outcomes), slice(outcomes, size - (shape.kind == TRADITIONAL))], size


def _member_label(key: tuple[int, ...], runs: list[slice]) -> str:
    return "|".join(",".join(map(str, key[run])) for run in runs)


def _member_key(label: str, runs: list[slice], size: int, context: str) -> tuple[int, ...]:
    parts = label.split("|")
    if len(parts) != len(runs):
        raise ValueError(
            f"{context}: key {label!r} needs {len(runs) - 1} '|' separator(s), not {len(parts) - 1}"
        )
    key: tuple[int, ...] = ()
    for part, run in zip(parts, runs):
        key += _index_tuple(part, run.stop - run.start, context)
    return key + (0,) * (size - len(key))


def _table_to_json(shape: Shape, table: Mapping[tuple[int, ...], Array], functional: bool) -> Json:
    runs, _ = _label_runs(shape, functional)
    return {_member_label(key, runs): matrix_to_json(matrix) for key, matrix in table.items()}


def _table_from_json(shape: Shape, data: Mapping[str, Any], field: str, functional: bool) -> dict:
    table = data.get(field)
    if not isinstance(table, dict) or not table:
        raise ValueError(f"{field}: expected a non-empty object")
    runs, size = _label_runs(shape, functional)
    return {
        _member_key(label, runs, size, field): matrix_from_json(value, f"{field}[{label}]")
        for label, value in table.items()
    }


# ---------------------------------------------------------------------------
# Scenario blocks
# ---------------------------------------------------------------------------


def _range_names(kind: Any) -> tuple[str, ...]:
    if kind == SEQUENTIAL:
        return tuple(f.name for f in fields(SequentialShape))
    if kind in KINDS:
        return tuple(f.name for f in fields(ScenarioShape) if f.name != "kind")
    raise ValueError(f"scenario: unknown kind {kind!r}")


def scenario_to_json(shape: Shape) -> Json:
    return {"kind": shape.kind, **{name: getattr(shape, name) for name in _range_names(shape.kind)}}


def scenario_from_json(data: Any) -> Shape:
    context = "scenario"
    if not isinstance(data, dict):
        raise ValueError(f"{context}: expected an object, got {type(data).__name__}")
    kind = data.get("kind")
    names = _range_names(kind)
    _require_keys(data, names, context)
    ranges = {name: _int_field(data, name, context) for name in names}
    if kind == SEQUENTIAL:
        return SequentialShape(**ranges)
    return ScenarioShape(**ranges, kind=kind)


# ---------------------------------------------------------------------------
# Assemblages
# ---------------------------------------------------------------------------

Assemblage = BwiAssemblage | SequentialAssemblage | InstrumentalAssemblage

_ASSEMBLAGE_TYPES = {
    BWI: BwiAssemblage,
    TRADITIONAL: TraditionalAssemblage,
    SEQUENTIAL: SequentialAssemblage,
    INSTRUMENTAL: InstrumentalAssemblage,
}


def assemblage_to_json(asm: Assemblage) -> Json:
    if not isinstance(asm, Assemblage):
        raise TypeError(f"cannot serialize {type(asm).__name__}")
    members = _table_to_json(asm.shape, asm.members, functional=False)
    return {"scenario": scenario_to_json(asm.shape), "members": members}


def assemblage_from_json(data: Any) -> Assemblage:
    if not isinstance(data, dict):
        raise ValueError(f"assemblage: expected an object, got {type(data).__name__}")
    if "scenario" not in data:
        raise ValueError("assemblage: missing scenario block")
    shape = scenario_from_json(data["scenario"])
    members = _table_from_json(shape, data, "members", functional=False)
    return _ASSEMBLAGE_TYPES[shape.kind](shape=shape, members=members)


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


def functional_to_json(functional: Functional) -> Json:
    if not isinstance(functional, Functional):
        raise TypeError(f"cannot serialize {type(functional).__name__}")
    coefficients = _table_to_json(functional.shape, functional.coeffs, functional=True)
    return {"scenario": scenario_to_json(functional.shape), "coefficients": coefficients}


def functional_from_json(data: Any) -> Functional:
    if not isinstance(data, dict):
        raise ValueError(f"functional: expected an object, got {type(data).__name__}")
    if "scenario" not in data:
        raise ValueError("functional: missing scenario block")
    shape = scenario_from_json(data["scenario"])
    if shape.kind == SEQUENTIAL:
        raise ValueError("functional: sequential scenarios are not supported")
    coeffs = _table_from_json(shape, data, "coefficients", functional=True)
    if shape.kind == INSTRUMENTAL:
        return InstrumentalFunctional(shape=shape, coeffs=coeffs)
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
