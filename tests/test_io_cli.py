import json
import os

import numpy as np
import pytest

from qhtk.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, dispatch
from qhtk.geometry import StarlikeDomain3D
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
    for name in PRESETS:
        kwargs = {"n": 4} if name in ("omega-n", "l2-section") else {}
        dom = PRESETS[name](**kwargs)
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


def test_svg_renders_deterministically():
    dom = resolve_domain("strip")
    svg1 = render_svg(dom, ((-2, 2), (-1, 1)), labels=["demo"])
    svg2 = render_svg(dom, ((-2, 2), (-1, 1)), labels=["demo"])
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert "demo" in svg1


def test_svg_rejects_3d():
    with pytest.raises(RenderError):
        render_svg(StarlikeDomain3D(), ((-1, 1), (-1, 1)))


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
], ids=["from", "to-nan", "window", "center", "direction-zero", "tschedule", "z", "x",
        "radii", "taus", "omega-n-without-n", "omega-n-x", "missing-file", "smoothcheck-3d"])
def test_cli_malformed_values_exit_cleanly(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # @missing.json resolves here
    out = tmp_path / "out"
    assert dispatch(argv + ["--out", str(out)]) == code
    assert "internal error" not in capsys.readouterr().err
    if code == EXIT_USAGE:
        assert not out.exists()
