"""Domain specification files, result persistence, and run manifests.

The JSON schema mirrors the constructive domain model:

    {
      "dimension": 2,
      "norm": {"kind": "euclidean"} | {"kind": "p", "p": 4.0},
      "primitives": [
        {"type": "half-space", "normal": [...], "offset": 0.0},
        {"type": "ball", "center": [...], "radius": 1.0},
        {"type": "slab", "axis": 1, "lower": -1.0, "upper": 1.0},
        {"type": "box", "lower": [...], "upper": [...]},
        {"type": "polygon", "vertices": [[...], ...]}
      ],
      "removals": [
        {"type": "point", "point": [...]},
        {"type": "segment", "a": [...], "b": [...]},
        {"type": "axis-point-family", "start_index": 2}
      ]
    }

or ``{"preset": "strip"}`` with optional parameters.  Unknown fields are
rejected; parse and serialize round-trip to the identical document.
All numeric output uses 17 significant digits (round-trip exact for
doubles); files are written atomically.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import cases
from .geometry import (
    AxisPointFamily,
    BallPrimitive,
    BoxPrimitive,
    DomainSpec,
    HalfSpace,
    NormSpec,
    Polygon,
    QHError,
    RemovedPoint,
    RemovedSegment,
    Slab,
    StarlikeDomain3D,
    half_plane,
    l2_section,
    prolongation_polygon,
    punctured_space,
    strip,
    symmetric_box,
    unit_ball,
)


class SchemaError(QHError):
    """Domain spec validation failure; carries the offending field paths."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


PRESETS = {
    "half-plane": lambda **kw: half_plane(int(kw.get("dimension", 2))),
    "punctured-plane": lambda **kw: punctured_space(int(kw.get("dimension", 2))),
    "strip": lambda **kw: strip(2),
    "slab3d": lambda **kw: strip(3),
    "unit-ball": lambda **kw: unit_ball(int(kw.get("dimension", 2))),
    "box": lambda **kw: symmetric_box(int(kw.get("dimension", 2))),
    "polygon-P": lambda **kw: prolongation_polygon(),
    "omega-n": lambda **kw: cases.build_omega_n(int(kw["n"])),
    "l2-section": lambda **kw: l2_section(int(kw["n"])),
    "starlike3d": lambda **kw: StarlikeDomain3D(),
}

_PRESET_PARAMS = {"omega-n": {"n"}, "l2-section": {"n"},
                  "half-plane": {"dimension"}, "punctured-plane": {"dimension"},
                  "unit-ball": {"dimension"}, "box": {"dimension"}}


def _build_preset(name, params):
    """The preset domain ``name`` with its integer parameters."""
    try:
        return PRESETS[name](**params)
    except KeyError as e:
        raise SchemaError([f"$.{e.args[0]}: required by preset {name!r}"]) from None
    except (TypeError, ValueError):
        raise SchemaError([f"$: preset {name!r} takes integer parameters, got {params!r}"]) from None


def _check_vector(v, dim, path, errors):
    if not isinstance(v, (list, tuple)) or len(v) != dim or not all(
        isinstance(c, (int, float)) and np.isfinite(c) for c in v
    ):
        errors.append(f"{path}: expected a finite vector of length {dim}")
        return False
    return True


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
    errors = []
    if "preset" in doc:
        name = doc["preset"]
        allowed = {"preset"} | _PRESET_PARAMS.get(name, set())
        unknown = set(doc) - allowed
        if unknown:
            raise SchemaError([f"$.{k}: unknown field" for k in sorted(unknown)])
        if name not in PRESETS:
            raise SchemaError([f"$.preset: unknown preset {name!r}"])
        return _build_preset(name, {k: v for k, v in doc.items() if k != "preset"})

    allowed = {"dimension", "norm", "primitives", "removals", "name"}
    for k in sorted(set(doc) - allowed):
        errors.append(f"$.{k}: unknown field")
    dim = doc.get("dimension")
    if not isinstance(dim, int) or dim < 2:
        errors.append("$.dimension: integer >= 2 required")
        raise SchemaError(errors)

    norm = NormSpec()
    nd = doc.get("norm", {"kind": "euclidean"})
    if not isinstance(nd, dict) or set(nd) - {"kind", "p"}:
        errors.append("$.norm: expected {kind, p?}")
    else:
        kind = nd.get("kind", "euclidean")
        if kind == "euclidean":
            if "p" in nd:
                errors.append("$.norm.p: not allowed for the euclidean norm")
        elif kind == "p":
            p = nd.get("p")
            if not isinstance(p, (int, float)) or not np.isfinite(p) or p <= 1:
                errors.append("$.norm.p: exponent must be finite and > 1")
            else:
                norm = NormSpec("p", float(p))
        else:
            errors.append(f"$.norm.kind: unknown kind {kind!r}")

    prims = []
    for i, pd in enumerate(doc.get("primitives", [])):
        path = f"$.primitives[{i}]"
        if not isinstance(pd, dict) or "type" not in pd:
            errors.append(f"{path}: expected an object with a type")
            continue
        typ = pd["type"]
        if typ == "half-space":
            if set(pd) - {"type", "normal", "offset"}:
                errors.append(f"{path}: unknown fields")
            elif _check_vector(pd.get("normal"), dim, f"{path}.normal", errors):
                if not isinstance(pd.get("offset"), (int, float)):
                    errors.append(f"{path}.offset: number required")
                else:
                    prims.append(HalfSpace(tuple(pd["normal"]), float(pd["offset"])))
        elif typ == "ball":
            if set(pd) - {"type", "center", "radius"}:
                errors.append(f"{path}: unknown fields")
            elif _check_vector(pd.get("center"), dim, f"{path}.center", errors):
                rr = pd.get("radius")
                if not isinstance(rr, (int, float)) or rr <= 0:
                    errors.append(f"{path}.radius: positive number required")
                else:
                    prims.append(BallPrimitive(tuple(pd["center"]), float(rr)))
        elif typ == "slab":
            if set(pd) - {"type", "axis", "lower", "upper"}:
                errors.append(f"{path}: unknown fields")
            else:
                ax = pd.get("axis")
                lo, hi = pd.get("lower"), pd.get("upper")
                if not isinstance(ax, int) or not 0 <= ax < dim:
                    errors.append(f"{path}.axis: index in [0, {dim}) required")
                elif not all(isinstance(t, (int, float)) for t in (lo, hi)) or lo >= hi:
                    errors.append(f"{path}: lower < upper required")
                else:
                    prims.append(Slab(ax, float(lo), float(hi)))
        elif typ == "box":
            if set(pd) - {"type", "lower", "upper"}:
                errors.append(f"{path}: unknown fields")
            elif _check_vector(pd.get("lower"), dim, f"{path}.lower", errors) and \
                    _check_vector(pd.get("upper"), dim, f"{path}.upper", errors):
                lo, hi = pd["lower"], pd["upper"]
                if not all(a < b for a, b in zip(lo, hi)):
                    errors.append(f"{path}: lower < upper required per axis")
                else:
                    prims.append(BoxPrimitive(tuple(lo), tuple(hi)))
        elif typ == "polygon":
            if dim != 2:
                errors.append(f"{path}: polygons are planar only")
            elif set(pd) - {"type", "vertices"}:
                errors.append(f"{path}: unknown fields")
            else:
                vs = pd.get("vertices")
                if not isinstance(vs, list) or len(vs) < 3 or not all(
                    _check_vector(v, 2, f"{path}.vertices[{j}]", errors)
                    for j, v in enumerate(vs)
                ):
                    errors.append(f"{path}.vertices: >= 3 planar vertices required")
                else:
                    prims.append(Polygon(tuple(tuple(v) for v in vs)))
        else:
            errors.append(f"{path}.type: unknown primitive {typ!r}")

    rems = []
    for i, rd in enumerate(doc.get("removals", [])):
        path = f"$.removals[{i}]"
        if not isinstance(rd, dict) or "type" not in rd:
            errors.append(f"{path}: expected an object with a type")
            continue
        typ = rd["type"]
        if typ == "point":
            if set(rd) - {"type", "point"}:
                errors.append(f"{path}: unknown fields")
            elif _check_vector(rd.get("point"), dim, f"{path}.point", errors):
                rems.append(RemovedPoint(tuple(rd["point"])))
        elif typ == "segment":
            if set(rd) - {"type", "a", "b"}:
                errors.append(f"{path}: unknown fields")
            elif _check_vector(rd.get("a"), dim, f"{path}.a", errors) and \
                    _check_vector(rd.get("b"), dim, f"{path}.b", errors):
                rems.append(RemovedSegment(tuple(rd["a"]), tuple(rd["b"])))
        elif typ == "axis-point-family":
            if set(rd) - {"type", "start_index"}:
                errors.append(f"{path}: unknown fields")
            else:
                si = rd.get("start_index", 2)
                if not isinstance(si, int) or si < 2:
                    errors.append(f"{path}.start_index: integer >= 2 required")
                else:
                    rems.append(AxisPointFamily(si))
        else:
            errors.append(f"{path}.type: unknown removal {typ!r}")

    if errors:
        raise SchemaError(errors)
    if not prims and not rems:
        raise SchemaError(["$: a domain needs at least one primitive or removal"])
    return DomainSpec(dim, tuple(prims), tuple(rems), norm=norm,
                      name=doc.get("name", ""))


def domain_to_doc(domain):
    """Serialize a domain back to its spec document (inverse of parsing)."""
    if isinstance(domain, StarlikeDomain3D):
        return {"preset": "starlike3d"}
    doc = {"dimension": domain.dimension}
    if domain.name:
        doc["name"] = domain.name
    if domain.norm.kind == "p":
        doc["norm"] = {"kind": "p", "p": domain.norm.p}
    else:
        doc["norm"] = {"kind": "euclidean"}
    prims = []
    for p in domain.primitives:
        if isinstance(p, HalfSpace):
            prims.append({"type": "half-space", "normal": list(p.normal),
                          "offset": p.offset})
        elif isinstance(p, BallPrimitive):
            prims.append({"type": "ball", "center": list(p.center),
                          "radius": p.radius})
        elif isinstance(p, Slab):
            prims.append({"type": "slab", "axis": p.axis,
                          "lower": p.lower, "upper": p.upper})
        elif isinstance(p, BoxPrimitive):
            prims.append({"type": "box", "lower": list(p.lower),
                          "upper": list(p.upper)})
        elif isinstance(p, Polygon):
            prims.append({"type": "polygon",
                          "vertices": [list(v) for v in p.vertices]})
    rems = []
    for r in domain.removals:
        if isinstance(r, RemovedPoint):
            rems.append({"type": "point", "point": list(r.point)})
        elif isinstance(r, RemovedSegment):
            rems.append({"type": "segment", "a": list(r.a), "b": list(r.b)})
        elif isinstance(r, AxisPointFamily):
            rems.append({"type": "axis-point-family", "start_index": r.start_index})
    doc["primitives"] = prims
    doc["removals"] = rems
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
    name, _, param = arg.partition(":")
    if name in PRESETS:
        return _build_preset(name, {"n": param} if param else {})
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
    """Enough to reproduce a command's outputs bit for bit (wall time aside)."""

    command: str
    args: dict
    config: dict
    rng_seed: int
    version: str
    input_hash: str
    outputs: list
    wall_time_s: float = 0.0
    threads: int = 1

    def to_doc(self):
        return {
            "command": self.command,
            "args": _canonical(self.args),
            "config": _canonical(self.config),
            "rng_seed": self.rng_seed,
            "version": self.version,
            "input_hash": self.input_hash,
            "outputs": list(self.outputs),
            "wall_time_s": self.wall_time_s,
            "threads": self.threads,
        }


def write_manifest(path, manifest: RunManifest):
    write_json(path, manifest.to_doc())
