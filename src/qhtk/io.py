"""Domain specification files, result persistence, and run manifests.

A spec document is ``{"dimension", "name"?, "norm"?, "primitives",
"removals"}`` or ``{"preset": "strip"}`` with optional integer parameters.
``PARTS`` states the format of the parts once: each type tag with its class
and a reader per field; parsing and serialization both walk it.  The readers
check only the JSON shape, the classes check the values.  Unknown fields are
rejected; parse and serialize round-trip to the identical document.  All
numeric output uses 17 significant digits (round-trip exact for doubles);
files are written atomically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import cases
from .geometry import (
    AxisPointFamily,
    BallPrimitive,
    BoxPrimitive,
    DomainSpec,
    HalfSpace,
    InvalidInputError,
    NormSpec,
    Polygon,
    QHError,
    RemovedPoint,
    RemovedSegment,
    Slab,
    half_plane,
    l2_section,
    prolongation_polygon,
    punctured_space,
    starlike3d,
    strip,
    symmetric_box,
    unit_ball,
)


class SchemaError(QHError):
    """Domain spec validation failure; carries the offending field paths."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# preset name -> (constructor, the integer parameters it reads)
PRESETS = {
    "half-plane": (half_plane, ("dimension",)),
    "punctured-plane": (punctured_space, ("dimension",)),
    "strip": (partial(strip, 2), ()),
    "slab3d": (partial(strip, 3), ()),
    "unit-ball": (unit_ball, ("dimension",)),
    "box": (symmetric_box, ("dimension",)),
    "polygon-P": (prolongation_polygon, ()),
    "omega-n": (cases.build_omega_n, ("n",)),
    "l2-section": (l2_section, ("n",)),
    "starlike3d": (starlike3d, ()),
}


def _build_preset(name, params):
    """The preset domain ``name`` with its parameters, each a JSON integer."""
    build, _ = PRESETS[name]
    for key, p in inspect.signature(build).parameters.items():
        if key not in params and p.default is inspect.Parameter.empty:
            raise SchemaError([f"$.{key}: required by preset {name!r}"])
    errors = []
    for key, value in params.items():
        try:
            _integer(value, None)
        except ValueError as e:
            errors.append(f"$.{key}: {e}, got {value!r}")
    if errors:
        raise SchemaError(errors)
    return build(**params)


# ---------------------------------------------------------------------------
# field readers: the JSON shape of one value, in a domain of dimension dim
# ---------------------------------------------------------------------------

def _is_number(v):
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _number(v, dim):
    if not _is_number(v):
        raise ValueError("finite number required")
    return float(v)


def _integer(v, dim):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError("integer required")
    return v


def _string(v, dim):
    if not isinstance(v, str):
        raise ValueError("string required")
    return v


def _vector(v, dim):
    if not isinstance(v, (list, tuple)) or len(v) != dim or not all(map(_is_number, v)):
        raise ValueError(f"finite vector of length {dim} required")
    return tuple(v)


def _vertices(v, dim):
    if not isinstance(v, (list, tuple)) or len(v) < 3:
        raise ValueError(">= 3 planar vertices required")
    return tuple(_vector(u, 2) for u in v)


# section -> type tag -> (class, {field: reader})
PARTS = {
    "primitives": {
        "half-space": (HalfSpace, {"normal": _vector, "offset": _number}),
        "ball": (BallPrimitive, {"center": _vector, "radius": _number}),
        "slab": (Slab, {"axis": _integer, "lower": _number, "upper": _number}),
        "box": (BoxPrimitive, {"lower": _vector, "upper": _vector}),
        "polygon": (Polygon, {"vertices": _vertices}),
    },
    "removals": {
        "point": (RemovedPoint, {"point": _vector}),
        "segment": (RemovedSegment, {"a": _vector, "b": _vector}),
        "axis-point-family": (AxisPointFamily, {"start_index": _integer}),
    },
}
_NORM_FIELDS = {"kind": _string, "p": _number}
_TAGS = {cls: (tag, fields) for table in PARTS.values()
         for tag, (cls, fields) in table.items()}


def _read(entry, cls, fields, dim, path, errors):
    """``cls`` built from the JSON object ``entry`` through its field
    readers, or None with the problems added to ``errors``."""
    if set(entry) - set(fields):
        errors.append(f"{path}: unknown fields")
        return None
    before = len(errors)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in entry:
            try:
                kwargs[f.name] = fields[f.name](entry[f.name], dim)
            except ValueError as e:
                errors.append(f"{path}.{f.name}: {e}")
        elif f.default is dataclasses.MISSING:
            errors.append(f"{path}.{f.name}: required")
    if len(errors) > before:
        return None
    try:
        return cls(**kwargs)
    except InvalidInputError as e:  # the message starts with the field
        errors.append(f"{path}.{e}")
        return None


def parse_domain_spec(doc):
    """Validate a spec document (JSON text or dict) into a domain.

    Raises SchemaError listing every offending field path.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise SchemaError([f"$: invalid JSON ({e.msg} at {e.pos})"])
    if not isinstance(doc, dict):
        raise SchemaError(["$: expected an object"])
    if "preset" in doc:
        name = doc["preset"]
        known = isinstance(name, str) and name in PRESETS
        unknown = set(doc) - {"preset", *(PRESETS[name][1] if known else ())}
        if unknown:
            raise SchemaError([f"$.{k}: unknown field" for k in sorted(unknown)])
        if not known:
            raise SchemaError([f"$.preset: unknown preset {name!r}"])
        return _build_preset(name, {k: v for k, v in doc.items() if k != "preset"})

    errors = [f"$.{k}: unknown field" for k in sorted(
        set(doc) - {"dimension", "norm", "primitives", "removals", "name"})]
    dim = doc.get("dimension")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise SchemaError(errors + ["$.dimension: integer >= 2 required"])
    nd = doc.get("norm", {})
    if not isinstance(nd, dict):
        errors.append("$.norm: expected {kind, p?}")
        nd = {}
    norm = _read(nd, NormSpec, _NORM_FIELDS, dim, "$.norm", errors)
    parts = {}
    for section, table in PARTS.items():
        entries = doc.get(section, [])
        if not isinstance(entries, list):
            errors.append(f"$.{section}: list required")
            continue
        parts[section] = []
        for i, entry in enumerate(entries):
            path = f"$.{section}[{i}]"
            if not isinstance(entry, dict) or "type" not in entry:
                errors.append(f"{path}: expected an object with a type")
                continue
            tag = entry["type"]
            if not isinstance(tag, str) or tag not in table:
                errors.append(f"{path}.type: unknown {section[:-1]} {tag!r}")
                continue
            cls, fields = table[tag]
            parts[section].append(_read({k: v for k, v in entry.items() if k != "type"},
                                        cls, fields, dim, path, errors))
    if errors:
        raise SchemaError(errors)
    if not parts["primitives"] and not parts["removals"]:
        raise SchemaError(["$: a domain needs at least one primitive or removal"])
    try:
        return DomainSpec(dim, tuple(parts["primitives"]), tuple(parts["removals"]),
                          norm=norm, name=doc.get("name", ""))
    except InvalidInputError as e:  # the message starts with the field
        raise SchemaError([f"$.{e}"]) from None


def _json_value(v):
    return [_json_value(x) for x in v] if isinstance(v, tuple) else v


def _fields_doc(obj, fields):
    """The JSON fields of a part or norm: tuples as lists, None left out."""
    return {k: _json_value(getattr(obj, k)) for k in fields if getattr(obj, k) is not None}


def domain_to_doc(domain):
    """Serialize a domain back to its spec document (inverse of parsing)."""
    if domain == starlike3d():
        return {"preset": "starlike3d"}
    doc = {"dimension": domain.dimension}
    if domain.name:
        doc["name"] = domain.name
    doc["norm"] = _fields_doc(domain.norm, _NORM_FIELDS)
    for section in PARTS:
        doc[section] = []
        for part in getattr(domain, section):
            if type(part) not in _TAGS:
                raise InvalidInputError(f"{type(part).__name__} has no spec-file form")
            tag, fields = _TAGS[type(part)]
            doc[section].append({"type": tag, **_fields_doc(part, fields)})
    return doc


def resolve_domain(arg):
    """CLI domain argument: preset name, 'omega-n:5' style, or @file.json."""
    if arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as e:
            raise SchemaError([f"$.domain: cannot read {arg[1:]!r} ({e})"]) from None
        return parse_domain_spec(text)
    name, suffix, param = arg.partition(":")
    if name in PRESETS:
        if suffix and "n" not in PRESETS[name][1]:
            raise SchemaError([f"$.domain: preset {name!r} takes no ':n' suffix, got {arg!r}"])
        try:
            params = {"n": int(param)} if param else {}
        except ValueError:
            raise SchemaError([f"$.n: integer required, got {param!r}"]) from None
        return _build_preset(name, params)
    raise SchemaError([f"$.domain: unknown preset or file {arg!r}"])


# ---------------------------------------------------------------------------
# deterministic output
# ---------------------------------------------------------------------------

def fmt17(x):
    return format(float(x), ".17g")


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dumps_json(obj):
    return json.dumps(_canonical(obj), sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


def write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path, obj):
    write_atomic(path, dumps_json(obj))


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            fmt17(v) if isinstance(v, (float, np.floating)) else str(v) for v in row
        ))
    write_atomic(path, "\n".join(lines) + "\n")


def spec_hash(domain):
    return hashlib.sha256(dumps_json(domain_to_doc(domain)).encode()).hexdigest()


@dataclass
class RunManifest:
    """Enough to reproduce a command's outputs bit for bit (wall time aside).

    ``args`` holds every parsed argument of the command with its defaults
    applied, the output directory and ``--seed`` included; ``input_hash``
    is the ``spec_hash`` of the resolved domain ("" for commands without
    one); ``outputs`` lists the files written; ``threads`` is the worker
    count that ran.
    """

    command: str
    args: dict
    version: str
    input_hash: str
    outputs: list
    wall_time_s: float = 0.0
    threads: int = 1


def write_manifest(path, manifest: RunManifest):
    write_json(path, dataclasses.asdict(manifest))
