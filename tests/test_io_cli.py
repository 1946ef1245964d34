import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qhtk
from qhtk.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, build_parser, dispatch
from qhtk.geometry import (
    AxisPointFamily,
    BallPrimitive,
    BoxPrimitive,
    DomainSpec,
    HalfSpace,
    InvalidInputError,
    NormSpec,
    Polygon,
    RemovedPoint,
    RemovedSegment,
    Slab,
    StarlikeBody,
    starlike3d,
)
from qhtk.io import (
    PRESETS,
    SchemaError,
    domain_to_doc,
    dumps_json,
    parse_domain_spec,
    resolve_domain,
    spec_hash,
)
from qhtk.svg import RenderError, render_svg


def test_preset_punctured_plane():
    dom = parse_domain_spec({"preset": "punctured-plane"})
    assert not dom.contains([0.0, 0.0])
    assert dom.contains([1.0, 1.0])


def test_preset_omega_n():
    dom = parse_domain_spec({"preset": "omega-n", "n": 5})
    assert dom.name == "omega-5"
    assert not dom.contains([np.sqrt(3.0), 0.0])


def test_all_presets_build():
    for name, (_, params) in PRESETS.items():
        kwargs = {"n": 4} if "n" in params else {}
        dom = parse_domain_spec({"preset": name, **kwargs})
        assert dom.dimension >= 2


def test_schema_rejects_p1():
    with pytest.raises(SchemaError) as e:
        parse_domain_spec({"dimension": 2, "norm": {"kind": "p", "p": 1},
                           "primitives": [{"type": "slab", "axis": 1,
                                           "lower": -1, "upper": 1}]})
    assert any("$.norm.p" in msg for msg in e.value.errors)


def test_schema_rejects_unknown_fields():
    with pytest.raises(SchemaError) as e:
        parse_domain_spec({"dimension": 2, "bogus": 1,
                           "primitives": [{"type": "ball", "center": [0, 0],
                                           "radius": 1}]})
    assert any("$.bogus" in msg for msg in e.value.errors)


def test_schema_rejects_bad_json_text():
    with pytest.raises(SchemaError):
        parse_domain_spec("{not json")


def test_round_trip_identity():
    doc = {
        "dimension": 2,
        "norm": {"kind": "euclidean"},
        "primitives": [
            {"type": "slab", "axis": 1, "lower": -1.0, "upper": 1.0},
            {"type": "ball", "center": [0.0, 0.0], "radius": 2.0},
        ],
        "removals": [{"type": "point", "point": [0.5, 0.0]}],
    }
    dom = parse_domain_spec(doc)
    back = domain_to_doc(dom)
    assert parse_domain_spec(back).primitives == dom.primitives
    assert dumps_json(domain_to_doc(parse_domain_spec(back))) == dumps_json(back)


def test_spec_hash_stable():
    a = parse_domain_spec({"preset": "strip"})
    b = parse_domain_spec({"preset": "strip"})
    assert spec_hash(a) == spec_hash(b)


def test_resolve_domain_file(tmp_path):
    p = tmp_path / "dom.json"
    p.write_text(dumps_json({"preset": "unit-ball"}))
    dom = resolve_domain("@" + str(p))
    assert dom.contains([0.0, 0.0])


@pytest.mark.parametrize("arg", ["box:3", "unit-ball:3", "half-plane:3", "strip:7",
                                 "polygon-P:2", "box:"])
def test_resolve_domain_refuses_a_suffix_the_preset_does_not_read(arg):
    with pytest.raises(SchemaError, match="suffix"):
        resolve_domain(arg)


def test_resolve_domain_suffix_sets_n():
    assert resolve_domain("omega-n:3").name == "omega-3"
    assert resolve_domain("l2-section:3").dimension == 4


# --- the spec format: parent-pinned hashes, round trips, rejections ----------

# spec_hash of every preset and spec document, as the per-field parser and
# serializer wrote them before the format was stated as one table
PINNED_HASHES = {
    "half-plane": "108bfeba4a2f5fd8bf0106b112751efb1ab61e06d3a5d6823d5d918e8c1b6b41",
    "half-plane/3": "498e2b444e5da756cc73696b70a354c549e2ea632b627d9d6bc90ac9dee19a3b",
    "punctured-plane": "56f7d4c3d081a1170ad0711f4156c5d6126764b1db83386c732154e2fc972056",
    "punctured-plane/3": "f69b395cfcf5e7dacd023293bd86e6c8f309306c14b58ad93c36d1ef68fe0396",
    "strip": "a8631d258cfbe14c03ef37bd3f9cb8a71d1ad61693645e2a4f7775f7f7ea2493",
    "slab3d": "b9ae62fa16fc81e91acd5497f0127724ed7e08af430f306412a2bd5d655e3577",
    "unit-ball": "c403d1dd0d8cc3ded7252ad9a955a130c29a88dbc42df8b28efcde2016c2fe08",
    "unit-ball/3": "205c08e737033d4b13b8334cfe4baaa0027337b8356d87553d03f5387c63885d",
    "box": "7665e1b60f8ec248cf73fe1e0041f62c34944776a430ec36c0e6c0d65ae89f9c",
    "box/3": "cdb0ccb54540996388f274cd5551874e00606170d7ca7bcfb24302225502f754",
    "polygon-P": "cb04ee0e85c86c1edcb91f64c327b50d67acef95a1ddadc22e9dbe19bba307c7",
    "omega-n/3": "1465ec1ebedad89d4aba5e64dc6f807a19f75649bfb2ffb8ac9c4eda5dc9d4fb",
    "omega-n/4": "18ada7e55d212b26e0d840b4ee50572dbe820dee97d0820cba91ec6d8a7c1cb8",
    "omega-n/5": "4c8a438401518028f78634c16d5f2f53359069d6055bb8463b7f4f65031809c7",
    "l2-section/3": "f07db8a313f7a9953f1a55efd899b8acef22112ec15ccef13f83799acae61b50",
    "l2-section/6": "348c9ab4ef7842b1b9f398e43fc10db8ccdd7171aa6c062bfe72cdda52863688",
    "starlike3d": "89934b327d6244ddee7bbf5cd58f04feea577516ba4910870dc4866fce435c98",
    "readme": "fe4f62b27e1061bc346bba766eb213ed990bcbd99390e310c4293dfe3e4c6eb0",
    "p4-box-3d": "e13d6ff48546b48e3be570d9e487f8ba739f8d42d8e650d7740db965a1237658",
    "integers": "f3c4bdf403d756c8b8bd7c5dc5ae58d0267b183c322a6fcfd8765cf0c1873aa7",
}

SPEC_DOCS = {
    "readme": {  # the example in README.md
        "dimension": 2,
        "norm": {"kind": "euclidean"},
        "primitives": [
            {"type": "half-space", "normal": [0.0, 1.0], "offset": 0.0},
            {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
            {"type": "slab", "axis": 1, "lower": -1.0, "upper": 1.0},
            {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            {"type": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
        ],
        "removals": [
            {"type": "point", "point": [0.0, 0.0]},
            {"type": "segment", "a": [0.5, 0.5], "b": [0.5, 1.0]},
            {"type": "axis-point-family", "start_index": 2},
        ],
    },
    "p4-box-3d": {
        "dimension": 3, "name": "tilted", "norm": {"kind": "p", "p": 4.0},
        "primitives": [
            {"type": "box", "lower": [-1.0, -1.0, -1.0], "upper": [1.0, 1.0, 2.0]},
            {"type": "half-space", "normal": [1.0, 1.0, 1.0], "offset": -1.0},
            {"type": "slab", "axis": 2, "lower": -0.5, "upper": 1.5},
        ],
        "removals": [{"type": "segment", "a": [0.0, 0.0, 0.0], "b": [0.5, 0.2, 0.9]},
                     {"type": "point", "point": [-0.5, 0.5, 0.0]}],
    },
    "integers": {  # integer coordinates stay integers in the document
        "dimension": 2, "norm": {"kind": "euclidean"},
        "primitives": [{"type": "ball", "center": [0, 1], "radius": 2.0},
                       {"type": "polygon",
                        "vertices": [[-2, -1], [-2, 2], [0, 0.5], [2, 2], [2, -1]]}],
        "removals": [{"type": "axis-point-family", "start_index": 3}],
    },
}


def _preset_doc(key):
    name, _, value = key.partition("/")
    params = {}
    if value:
        params = {"n" if name in ("omega-n", "l2-section") else "dimension": int(value)}
    return {"preset": name, **params}


@pytest.mark.parametrize("key", sorted(PINNED_HASHES))
def test_spec_hash_matches_pinned(key):
    doc = SPEC_DOCS.get(key) or _preset_doc(key)
    domain = parse_domain_spec(doc)
    assert spec_hash(domain) == PINNED_HASHES[key]
    back = domain_to_doc(domain)
    if key in SPEC_DOCS:
        assert dumps_json(back) == dumps_json(doc)
    assert dumps_json(domain_to_doc(parse_domain_spec(back))) == dumps_json(back)


def test_starlike3d_is_written_as_its_preset():
    dom = starlike3d()
    assert dom.primitives == (StarlikeBody(),) and not dom.is_convex
    assert domain_to_doc(dom) == {"preset": "starlike3d"}
    with pytest.raises(InvalidInputError, match="no spec-file form"):
        domain_to_doc(DomainSpec(3, (StarlikeBody(),), name="other"))


NAN = float("nan")
BALL = {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}


def _doc(*prims, removals=(), **top):
    d = {"dimension": 2, "primitives": list(prims) or [BALL]}
    if removals:
        d["removals"] = list(removals)
    d.update(top)
    return d


# malformed documents and the entry paths at which the per-field parser
# rejected them
MALFORMED = {
    "not-an-object": ([1, 2], "$"),
    "bad-json": ("{not json", "$"),
    "unknown-field": (_doc(bogus=1), "$.bogus"),
    "no-dimension": ({"primitives": [BALL]}, "$.dimension"),
    "dimension-1": (_doc(dimension=1), "$.dimension"),
    "dimension-string": (_doc(dimension="2"), "$.dimension"),
    "dimension-float": (_doc(dimension=2.0), "$.dimension"),
    "norm-p-1": (_doc(norm={"kind": "p", "p": 1}), "$.norm"),
    "norm-p-inf": (_doc(norm={"kind": "p", "p": float("inf")}), "$.norm"),
    "norm-p-missing": (_doc(norm={"kind": "p"}), "$.norm"),
    "norm-not-object": (_doc(norm="euclidean"), "$.norm"),
    "norm-unknown-kind": (_doc(norm={"kind": "q"}), "$.norm"),
    "norm-euclidean-with-p": (_doc(norm={"kind": "euclidean", "p": 2}), "$.norm"),
    "norm-extra-key": (_doc(norm={"kind": "euclidean", "q": 1}), "$.norm"),
    "primitive-not-object": (_doc(3), "$.primitives[0]"),
    "primitive-without-type": (_doc({"center": [0.0, 0.0], "radius": 1.0}), "$.primitives[0]"),
    "primitive-unknown-type": (_doc({"type": "cone"}), "$.primitives[0]"),
    "primitive-is-a-removal": (_doc({"type": "point", "point": [0.0, 0.0]}), "$.primitives[0]"),
    "type-not-a-string": (_doc({"type": ["ball"]}), "$.primitives[0]"),
    "half-space-extra-field": (_doc({"type": "half-space", "normal": [0.0, 1.0], "offset": 0.0,
                                     "x": 1}), "$.primitives[0]"),
    "half-space-short-normal": (_doc({"type": "half-space", "normal": [1.0], "offset": 0.0}),
                                "$.primitives[0]"),
    "half-space-string-offset": (_doc({"type": "half-space", "normal": [0.0, 1.0],
                                       "offset": "0"}), "$.primitives[0]"),
    "half-space-no-offset": (_doc({"type": "half-space", "normal": [0.0, 1.0]}),
                             "$.primitives[0]"),
    "ball-zero-radius": (_doc(dict(BALL, radius=0.0)), "$.primitives[0]"),
    "ball-negative-radius": (_doc(dict(BALL, radius=-1.0)), "$.primitives[0]"),
    "ball-string-radius": (_doc(dict(BALL, radius="1")), "$.primitives[0]"),
    "ball-string-center": (_doc(dict(BALL, center=[0.0, "0"])), "$.primitives[0]"),
    "ball-nan-center": (_doc(dict(BALL, center=[NAN, 0.0])), "$.primitives[0]"),
    "ball-center-not-list": (_doc(dict(BALL, center=0.0)), "$.primitives[0]"),
    "slab-axis-out-of-range": (_doc({"type": "slab", "axis": 2, "lower": -1.0, "upper": 1.0}),
                               "$.primitives[0]"),
    "slab-negative-axis": (_doc({"type": "slab", "axis": -1, "lower": -1.0, "upper": 1.0}),
                           "$.primitives[0]"),
    "slab-string-axis": (_doc({"type": "slab", "axis": "1", "lower": -1.0, "upper": 1.0}),
                         "$.primitives[0]"),
    "slab-inverted": (_doc({"type": "slab", "axis": 1, "lower": 1.0, "upper": -1.0}),
                      "$.primitives[0]"),
    "slab-empty": (_doc({"type": "slab", "axis": 1, "lower": 1.0, "upper": 1.0}),
                   "$.primitives[0]"),
    "slab-no-upper": (_doc({"type": "slab", "axis": 1, "lower": 1.0}), "$.primitives[0]"),
    "box-inverted-axis": (_doc({"type": "box", "lower": [-1.0, 1.0], "upper": [1.0, 1.0]}),
                          "$.primitives[0]"),
    "box-short-upper": (_doc({"type": "box", "lower": [-1.0, -1.0], "upper": [1.0]}),
                        "$.primitives[0]"),
    "polygon-in-3d": ({"dimension": 3, "primitives": [
        {"type": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}]},
        "$.primitives[0]"),
    "polygon-two-vertices": (_doc({"type": "polygon", "vertices": [[0.0, 0.0], [1.0, 0.0]]}),
                             "$.primitives[0]"),
    "polygon-3d-vertex": (_doc({"type": "polygon",
                                "vertices": [[0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0]]}),
                          "$.primitives[0]"),
    "polygon-extra-field": (_doc({"type": "polygon", "closed": True,
                                  "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}),
                            "$.primitives[0]"),
    "removal-not-object": (_doc(removals=["point"]), "$.removals[0]"),
    "removal-unknown-type": (_doc(removals=[{"type": "line"}]), "$.removals[0]"),
    "removal-is-a-primitive": (_doc(removals=[BALL]), "$.removals[0]"),
    "point-short": (_doc(removals=[{"type": "point", "point": [0.0]}]), "$.removals[0]"),
    "segment-no-b": (_doc(removals=[{"type": "segment", "a": [0.0, 0.0]}]), "$.removals[0]"),
    "segment-extra-field": (_doc(removals=[{"type": "segment", "a": [0.0, 0.0],
                                            "b": [1.0, 0.0], "c": [0.0, 1.0]}]),
                            "$.removals[0]"),
    "axis-family-start-1": (_doc(removals=[{"type": "axis-point-family", "start_index": 1}]),
                            "$.removals[0]"),
    "axis-family-float-start": (_doc(removals=[{"type": "axis-point-family",
                                                "start_index": 2.5}]), "$.removals[0]"),
    "axis-family-extra-field": (_doc(removals=[{"type": "axis-point-family", "scale": 2}]),
                                "$.removals[0]"),
    "empty-domain": ({"dimension": 2}, "$"),
    "empty-lists": ({"dimension": 2, "primitives": [], "removals": []}, "$"),
    "preset-unknown": ({"preset": "torus"}, "$.preset"),
    "preset-extra-field": ({"preset": "strip", "n": 3}, "$.n"),
    "preset-missing-n": ({"preset": "omega-n"}, "$.n"),
    "preset-dimension-on-strip": ({"preset": "strip", "dimension": 3}, "$.dimension"),
}

# documents that used to be accepted, or failed with another error, and the
# entry paths at which they are rejected now
NOW_REJECTED = {
    "name-not-a-string": (_doc(name=5), "$.name"),
    "ball-nan-radius": (_doc(dict(BALL, radius=NAN)), "$.primitives[0]"),
    "half-space-nan-offset": (_doc({"type": "half-space", "normal": [0.0, 1.0], "offset": NAN}),
                              "$.primitives[0]"),
    "slab-boolean-axis": (_doc({"type": "slab", "axis": True, "lower": -1.0, "upper": 1.0}),
                          "$.primitives[0]"),
    "ball-boolean-center": (_doc(dict(BALL, center=[True, False])), "$.primitives[0]"),
    "half-space-zero-normal": (_doc({"type": "half-space", "normal": [0.0, 0.0],
                                     "offset": 0.0}), "$.primitives[0]"),
    "primitives-not-a-list": ({"dimension": 2, "primitives": 5}, "$.primitives"),
    "axis-family-in-p-norm": (_doc(removals=[{"type": "axis-point-family"}],
                                   norm={"kind": "p", "p": 3}), "$.removals[0]"),
    # preset parameters are JSON integers: no rounding, no strings, no booleans
    "preset-non-integer-n": ({"preset": "omega-n", "n": "x"}, "$.n"),
    "preset-float-n": ({"preset": "omega-n", "n": 3.7}, "$.n"),
    "preset-float-dimension": ({"preset": "box", "dimension": 2.9}, "$.dimension"),
    "preset-string-n": ({"preset": "omega-n", "n": "5"}, "$.n"),
    "preset-boolean-n": ({"preset": "omega-n", "n": True}, "$.n"),
    "preset-huge-float-n": ({"preset": "omega-n", "n": 1e30}, "$.n"),
}


def _entry(message):
    return re.match(r"\$(\.\w+(\[\d+\])?)?", message).group(0)


REJECTED = {**MALFORMED, **NOW_REJECTED}


@pytest.mark.parametrize("key", sorted(REJECTED))
def test_malformed_spec_rejected_at_its_entry(key):
    doc, entry = REJECTED[key]
    for form in (doc, doc if isinstance(doc, str) else json.dumps(doc)):
        with pytest.raises(SchemaError) as e:
            parse_domain_spec(form)
        assert {_entry(m) for m in e.value.errors} == {entry}


BALL_PRIMITIVE = BallPrimitive((0.0, 0.0), 1.0)


@pytest.mark.parametrize("build", [
    lambda: DomainSpec(2, (BallPrimitive((0.0,), 1.0),)),
    lambda: DomainSpec(2, (HalfSpace((0.0, 1.0, 0.0), 0.0),)),
    lambda: DomainSpec(2, (Slab(2, -1.0, 1.0),)),
    lambda: DomainSpec(3, (Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),)),
    lambda: DomainSpec(2, (), (RemovedPoint((0.0, 0.0, 0.0)),)),
    lambda: DomainSpec(2, (), (AxisPointFamily(),), norm=NormSpec("p", 3.0)),
    lambda: DomainSpec(2, (StarlikeBody(),)),
    lambda: DomainSpec(2, (RemovedPoint((0.0, 0.0)),)),
    lambda: DomainSpec(2, (BALL_PRIMITIVE,), name=5),
    lambda: DomainSpec(2.0, (BALL_PRIMITIVE,)),
    lambda: BallPrimitive((0.0, 0.0), -1.0),
    lambda: BallPrimitive((0.0, 0.0), NAN),
    lambda: BallPrimitive((NAN, 0.0), 1.0),
    lambda: Slab(1, 1.0, -1.0),
    lambda: Slab(True, -1.0, 1.0),
    lambda: Slab(-1, -1.0, 1.0),
    lambda: BoxPrimitive((-1.0, 1.0), (1.0, 1.0)),
    lambda: BoxPrimitive((-1.0, -1.0), (1.0,)),
    lambda: HalfSpace((0.0, 1.0), NAN),
    lambda: Polygon(((0.0, 0.0), (1.0, 0.0))),
    lambda: RemovedSegment((0.0, 0.0), (1.0, 0.0, 0.0)),
    lambda: AxisPointFamily(1),
    lambda: NormSpec("euclidean", 2.0),
], ids=["ball-center-1d", "normal-3d", "slab-axis", "polygon-3d", "point-3d", "family-p-norm",
        "starlike-2d", "removal-as-primitive", "name", "dimension-float", "negative-radius",
        "nan-radius", "nan-center", "inverted-slab", "boolean-axis", "negative-axis",
        "inverted-box", "ragged-box", "nan-offset", "two-vertices", "ragged-segment",
        "start-index", "euclidean-with-p"])
def test_domain_types_reject_bad_values(build):
    with pytest.raises(InvalidInputError):
        build()


def test_cli_file_domain_with_a_bad_name_exits_cleanly(tmp_path, capsys):
    spec = tmp_path / "f.json"
    spec.write_text(json.dumps(_doc(name=5)))
    out = tmp_path / "out"
    rc = dispatch(["ball", "--domain", "@" + str(spec), "--center", "0,0", "--r", "0.5",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR
    assert "error:" in err and "internal error" not in err
    assert "$.name" in err
    assert not out.exists()


def test_svg_renders_deterministically():
    dom = resolve_domain("strip")
    svg1 = render_svg(dom, ((-2, 2), (-1, 1)), labels=["demo"])
    svg2 = render_svg(dom, ((-2, 2), (-1, 1)), labels=["demo"])
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert "demo" in svg1


def test_svg_rejects_3d():
    with pytest.raises(RenderError):
        render_svg(starlike3d(), ((-1, 1), (-1, 1)))


def test_cli_dist_pass(tmp_path):
    rc = dispatch(["dist", "--domain", "punctured-plane", "--from", "-1,0",
                   "--to", "1,0", "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    doc = json.load(open(tmp_path / "dist.json"))
    assert doc["qh_distance"] == pytest.approx(np.pi, rel=1e-3)
    assert (tmp_path / "dist-manifest.json").exists()


def test_cli_geodesic_writes_path(tmp_path):
    rc = dispatch(["geodesic", "--domain", "half-plane", "--from", "0,1",
                   "--to", "0,2", "--svg", "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    assert (tmp_path / "geodesic-path.csv").exists()
    assert (tmp_path / "geodesic.svg").exists()


def test_cli_unknown_domain_is_error(tmp_path):
    rc = dispatch(["dist", "--domain", "bogus", "--from", "0,1", "--to", "1,1",
                   "--out", str(tmp_path)])
    assert rc == EXIT_ERROR


def test_cli_usage_code():
    assert dispatch(["not-a-command"]) == EXIT_USAGE


def test_cli_solver_flags_only_where_read(tmp_path):
    # ball runs no qh_distance, so a solver flag there is a usage error
    out = tmp_path / "out"
    rc = dispatch(["ball", "--domain", "strip", "--center", "0,0", "--r", "1",
                   "--budget", "9", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


def test_cli_ball_default_window_holds_the_half_plane_ball(tmp_path):
    # the half-plane ball reaches d(c)(e^r - 1) exactly, so the default
    # window needs its margin for the contour to close
    rc = dispatch(["ball", "--domain", "half-plane", "--center", "0,1", "--r", "1",
                   "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    assert len(json.load(open(tmp_path / "ball.json"))["loops"]) == 1


def test_cli_dist_solves_at_the_library_defaults(tmp_path):
    rc = dispatch(["dist", "--domain", "half-plane", "--from", "-1,0.2", "--to", "1,0.3",
                   "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    want = qhtk.qh_distance(qhtk.half_plane(), [-1.0, 0.2], [1.0, 0.3])
    doc = json.load(open(tmp_path / "dist.json"))
    assert doc["qh_distance"] == want.qh_length
    assert doc["iterations"] == want.iterations


def test_cli_ortho_refuses_a_coarse_field_before_solving_it(tmp_path, monkeypatch, capsys):
    def unreachable(*a, **kw):
        raise AssertionError("distance_field ran")

    monkeypatch.setattr("qhtk.cli.distance_field", unreachable)
    out = tmp_path / "out"
    rc = dispatch(["ortho", "--domain", "half-plane", "--center", "0,1", "--r", "0.5",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_ERROR
    assert "internal error" not in err
    m = re.search(r"contour spacing 0.025 too coarse for separation ([0-9.e-]+): "
                  r"--field-resolution (\d+) would pass", err)
    assert m, err
    # the named resolution is the least that passes the certificate
    need = int(m.group(2))
    assert 1.0 / need <= float(m.group(1)) / 10.0 + 1e-12 < 1.0 / (need - 1)
    assert not out.exists()


# one run of each command that no other test runs, with the files it writes
# and the flags its manifest must echo
RUNNER_CASES = {
    "ball-window": (["ball", "--domain", "strip", "--center", "0,0", "--r", "0.8",
                     "--window", "-1.1,1.1,-0.7,0.7", "--field-resolution", "14"], EXIT_PASS,
                    {"ball.json", "ball-contour.csv"},
                    {"window": [[-1.1, 1.1], [-0.7, 0.7]], "field_resolution": 14.0}),
    "cusp-direction": (["cusp", "--samples", "8", "--z", "0.5", "--direction", "0,1"],
                       EXIT_PASS, {"cusp.json"}, {"direction": [0.0, 1.0], "z": [0.5]}),
    "ortho-center": (["ortho", "--center", "0,0", "--field-resolution", "20",
                      "--tschedule", "0.3,0.5"], EXIT_FAIL, {"ortho.json"},
                     {"center": [0.0, 0.0], "tschedule": [0.3, 0.5]}),
    "smoothcheck": (["smoothcheck", "--probes", "2"], EXIT_PASS,
                    {"smoothcheck.json", "smoothcheck.csv"}, {"probes": 2, "threshold": 0.1}),
    "renorm-hausdorff": (["renorm", "--what", "hausdorff", "--radii", "1,2",
                          "--directions", "16"], EXIT_PASS,
                         {"renorm.json", "renorm-hausdorff.csv"}, {"radii": [1.0, 2.0]}),
    "renorm-minkowski": (["renorm", "--what", "minkowski", "--directions", "8"], EXIT_PASS,
                         {"renorm.json", "renorm-minkowski.csv"}, {"scale": 1.0, "r": 2.0}),
    "all-examples-fast": (["all-examples", "--fast"], EXIT_PASS, {"all-examples.json"},
                          {"fast": True}),
}


@pytest.mark.parametrize("key", sorted(RUNNER_CASES))
def test_cli_runner_writes_results_and_every_argument(key, tmp_path):
    argv, code, results, echoed = RUNNER_CASES[key]
    argv = argv + ["--out", str(tmp_path)]
    assert dispatch(argv) == code
    written = {f.name for f in tmp_path.iterdir()}
    (manifest_name,) = {f for f in written if f.endswith("-manifest.json")}
    assert written - {manifest_name} == results
    manifest = json.load(open(tmp_path / manifest_name))
    assert manifest["outputs"] == sorted(str(tmp_path / f) for f in results)
    namespace = vars(build_parser().parse_args(argv))
    del namespace["handler"]
    assert manifest["args"] == json.loads(dumps_json(namespace))
    assert echoed.items() <= manifest["args"].items()
    assert manifest["command"] == argv[0]


def test_cli_verdict_fail_is_distinct_from_error(tmp_path, monkeypatch):
    # inject a failing verdict: prolongation with impossible tolerance via
    # a stubbed case (exit code 1, not 2)
    import qhtk.cases as cases
    from qhtk.cases import ExampleVerdict

    def fake(t, s=None):
        return ExampleVerdict("prolongation-stub", "stub", {}, {}, passed=False)

    monkeypatch.setattr(cases, "polygon_prolongation_check", fake)
    rc = dispatch(["example", "prolongation", "--t", "0.5", "--out", str(tmp_path)])
    assert rc == EXIT_FAIL


def test_cli_outputs_byte_identical(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    for d in (d1, d2):
        rc = dispatch(["dist", "--domain", "strip", "--from", "0,0",
                       "--to", "1,0", "--out", str(d)])
        assert rc == EXIT_PASS
    b1 = (d1 / "dist.json").read_bytes()
    b2 = (d2 / "dist.json").read_bytes()
    assert b1 == b2


def test_cli_malformed_threads_is_usage_error_before_output(tmp_path, monkeypatch):
    monkeypatch.setenv("QH_THREADS", "abc")
    out = tmp_path / "out"
    rc = dispatch(["dist", "--domain", "strip", "--from", "0,0", "--to", "1,0",
                   "--out", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


def test_cli_manifest_records_effective_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("QH_THREADS", "0")
    rc = dispatch(["dist", "--domain", "strip", "--from", "0,0", "--to", "1,0",
                   "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    assert json.load(open(tmp_path / "dist-manifest.json"))["threads"] == 1


@pytest.mark.parametrize("argv, code", [
    (["dist", "--domain", "strip", "--from", "0,x", "--to", "1,0"], EXIT_USAGE),
    (["dist", "--domain", "strip", "--from", "0,0", "--to", "nan,0"], EXIT_USAGE),
    (["ball", "--domain", "strip", "--center", "0,0", "--r", "1", "--window", "1,2"], EXIT_USAGE),
    (["smoothcheck", "--center", "0;0"], EXIT_USAGE),
    (["ortho", "--direction", "0,0"], EXIT_USAGE),
    (["ortho", "--tschedule", "0.5,,0.9"], EXIT_USAGE),
    (["cusp", "--z", "0.3,abc"], EXIT_USAGE),
    (["cusp", "--x", "0,x"], EXIT_USAGE),
    (["renorm", "--what", "hausdorff", "--radii", "1,x"], EXIT_USAGE),
    (["renorm", "--what", "modulus", "--taus", "x"], EXIT_USAGE),
    # "-1,0" parses as a value; the domain errors come after parsing
    (["dist", "--domain", "omega-n", "--from", "-1,0", "--to", "1,0"], EXIT_ERROR),
    (["dist", "--domain", "omega-n:x", "--from", "0,0", "--to", "1,0"], EXIT_ERROR),
    (["dist", "--domain", "@missing.json", "--from", "0,0", "--to", "1,0"], EXIT_ERROR),
    (["smoothcheck", "--domain", "slab3d", "--center", "0,0,0"], EXIT_ERROR),
    # only omega-n and l2-section read the ':n' suffix
    (["dist", "--domain", "box:3", "--from", "0,0,0", "--to", "0.5,0,0"], EXIT_ERROR),
    (["dist", "--domain", "unit-ball:3", "--from", "0,0,0", "--to", "0.5,0,0"], EXIT_ERROR),
    (["dist", "--domain", "half-plane:3", "--from", "0,1,0", "--to", "0,2,0"], EXIT_ERROR),
    (["dist", "--domain", "strip:7", "--from", "0,0", "--to", "1,0"], EXIT_ERROR),
    # levels and resolutions are finite positive numbers, refused before any solve
    (["ball", "--domain", "strip", "--center", "0,0", "--r", "nan"], EXIT_USAGE),
    (["ball", "--domain", "strip", "--center", "0,0", "--r", "inf"], EXIT_USAGE),
    (["ball", "--domain", "strip", "--center", "0,0", "--r", "0"], EXIT_USAGE),
    (["ball", "--domain", "strip", "--center", "0,0", "--r", "1",
      "--field-resolution", "0"], EXIT_USAGE),
    (["ortho", "--r", "inf"], EXIT_USAGE),
    (["cusp", "--domain", "strip", "--r", "-1"], EXIT_USAGE),
], ids=["from", "to-nan", "window", "center", "direction-zero", "tschedule", "z", "x",
        "radii", "taus", "omega-n-without-n", "omega-n-x", "missing-file", "smoothcheck-3d",
        "box-suffix", "unit-ball-suffix", "half-plane-suffix", "strip-suffix",
        "ball-r-nan", "ball-r-inf", "ball-r-zero", "ball-field-resolution-zero",
        "ortho-r-inf", "cusp-r-negative"])
def test_cli_malformed_values_exit_cleanly(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # @missing.json resolves here
    out = tmp_path / "out"
    assert dispatch(argv + ["--out", str(out)]) == code
    assert "internal error" not in capsys.readouterr().err
    if code == EXIT_USAGE:
        assert not out.exists()


IMPORT_GUARD = """
import sys
import qhtk, qhtk.cli, qhtk.cases, qhtk.renorm
from qhtk.cli import dispatch
from qhtk.geometry import prolongation_polygon, symmetric_box
from qhtk.renorm import InducedNorm
from qhtk.solver import grid_init

assert dispatch(["dist", "--domain", "half-plane", "--from", "0,1", "--to", "1,2",
                 "--out", sys.argv[1]]) == 0
InducedNorm(symmetric_box(), 1.0, table=16)
print(sorted(m for m in ("scipy.sparse", "scipy.spatial", "scipy.interpolate")
             if m in sys.modules))
# the chord leaves polygon-P, so the seed comes from the lattice's Dijkstra
seed = grid_init(prolongation_polygon(), [-1.6, 0.5], [-0.6, 1.6])
print("grid_cost" in seed.meta, "scipy.sparse.csgraph" in sys.modules)
"""


def test_convex_paths_import_no_scipy_stack(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(qhtk.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded, lattice = proc.stdout.strip().splitlines()[-2:]
    assert loaded == "[]"
    assert lattice == "True True"
