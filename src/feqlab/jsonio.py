"""JSON loading with schema checks, and byte-stable serialization.

Canonical output: keys in fixed (insertion) order, floats at 17
significant digits, so identical inputs and seeds give byte-identical
reports.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ParseError
from .measures import DiracMeasure
from .semigroups import (
    FiniteSemigroup,
    InvolutiveMorphism,
    MorphismKind,
    _is_integer,
    validate_morphism,
    validate_semigroup,
)


def _load_obj(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")  # JSON is UTF-8 (RFC 8259), whatever the locale
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON ({exc})") from exc
    except RecursionError as exc:  # arrays or objects nested beyond the decoder's depth
        raise ParseError(f"{path}: JSON nested too deeply") from exc


def load_semigroup(path: str | Path) -> FiniteSemigroup:
    obj = _load_obj(path)
    if not isinstance(obj, dict) or "table" not in obj or "n" not in obj:
        raise ParseError(f"{path}: semigroup JSON needs 'n' and 'table'")
    table = obj["table"]
    if not _is_integer(obj["n"]) or not isinstance(table, list) or len(table) != obj["n"]:
        raise ParseError(f"{path}: 'n' must match the table size")
    if not all(isinstance(row, list) and all(_is_integer(v) for v in row) for row in table):
        raise ParseError(f"{path}: table entries must be integers")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"{path}: 'name' must be a string")
    return validate_semigroup(table, name=name)


def load_morphism(path: str | Path, sg: FiniteSemigroup) -> InvolutiveMorphism:
    obj = _load_obj(path)
    if not isinstance(obj, dict) or "map" not in obj or "kind" not in obj:
        raise ParseError(f"{path}: morphism JSON needs 'map' and 'kind'")
    if obj["kind"] not in ("auto", "anti"):
        raise ParseError(f"{path}: kind must be 'auto' or 'anti'")
    m = obj["map"]
    if not isinstance(m, list) or not all(_is_integer(v) for v in m):
        raise ParseError(f"{path}: map must be a list of integers")
    return validate_morphism(sg, m, MorphismKind(obj["kind"]))


def _as_complex(pair: Any, what: str, path: str | Path) -> complex:
    if (not isinstance(pair, list) or len(pair) != 2
            or not all(_is_integer(v) or isinstance(v, float) for v in pair)):
        raise ParseError(f"{path}: {what} must be a [re, im] pair")
    try:
        return complex(pair[0], pair[1])
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError(f"{path}: {what} must be finite") from exc


def load_measure(path: str | Path) -> DiracMeasure:
    obj = _load_obj(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("atoms"), list):
        raise ParseError(f"{path}: measure JSON needs an 'atoms' list")
    atoms = []
    for atom in obj["atoms"]:
        if not isinstance(atom, dict) or "point" not in atom or "w" not in atom:
            raise ParseError(f"{path}: each atom needs 'point' and 'w'")
        if not _is_integer(atom["point"]) or atom["point"] < 0:
            raise ParseError(f"{path}: atom point must be a nonnegative integer")
        atoms.append((atom["point"], _as_complex(atom["w"], "atom weight", path)))
    return DiracMeasure(tuple(atoms))


def load_function(path: str | Path) -> np.ndarray:
    obj = _load_obj(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("values"), list):
        raise ParseError(f"{path}: function JSON needs a 'values' list")
    vals = [_as_complex(v, "function value", path) for v in obj["values"]]
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals):
        raise ParseError(f"{path}: function values must be finite")
    return np.array(vals, dtype=complex)


def semigroup_to_json(sg: FiniteSemigroup) -> dict:
    out: dict = {"n": sg.n, "table": [list(row) for row in sg.table]}
    if sg.name is not None:
        out["name"] = sg.name
    return out


def morphism_to_json(m: InvolutiveMorphism) -> dict:
    return {"map": list(m.map), "kind": m.kind.value}


def function_to_json(values) -> dict:
    return {"values": [[complex(v).real, complex(v).imag] for v in values]}


def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError("reports must contain finite numbers")
    return format(v + 0.0, ".17g")  # folds -0.0 into 0.0


def _emit(obj: Any, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def render_table(obj: Any, indent: int = 0) -> str:
    """Loose human-readable view; never parsed by tests."""
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(render_table(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}[{i}]")
                lines.append(render_table(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return "\n".join(line for line in lines if line)
