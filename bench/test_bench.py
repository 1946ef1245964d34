"""The benchmark's own tests: self-time arithmetic on hand-built spans, a
tiny traced pass of every workload, and the contract with BENCHMARK.json."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spans import Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, Tally, _box_radii_ok

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),    # overlaps a on [3, 4]
        Span("c", 8.0, 12.0, parent=0),   # runs past the root; clipped at 10
        Span("a1", 2.0, 3.0, parent=1),
        Span("d", 5.0, 5.0, parent=0),    # empty
    ]
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 0.0])


def test_tracer_nests_spans_and_restores_wrapped_names():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Oracle:
        def depth_many(self, X):
            return X

    owner = Oracle()
    entry = [(Oracle, "depth_many", "geometry", lambda a, k, out: {"points": len(a[1])})]
    original = Oracle.depth_many
    with tracer.installed(entry):
        with tracer.span("bench.pass", "r1"):
            owner.depth_many([1, 2, 3])
    assert Oracle.depth_many is original
    spans = tracer.spans
    assert [(s.name, s.parent, s.request) for s in spans] == [
        ("bench.pass", None, "r1"), ("geometry", 0, "r1")]
    assert spans[1].attrs == {"points": 3}
    m = layer_metrics(spans, [3.0], 2.0)
    assert m["geometry.points"] == 3
    assert m["geometry.self_s"] + m["bench.self_s"] == pytest.approx(m["trace.run_s"])
    assert m["trace.overhead_frac"] == pytest.approx(0.5)


# layers each workload must reach, by a per-layer counter
REACHES = {
    "field": ("batch.solve_batch.paths", "ball.distance_field.nodes"),
    "geodesic": ("solver.grid_init.lattice_builds", "solver.refine_path.calls",
                 "metric.qh_path_length.calls"),
    "radii": ("ball.directional_radii.rounds", "batch.solve_batch.paths"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_traced_pass(name):
    wl = WORKLOADS[name](seed=3, small=True)
    assert WORKLOADS[name](seed=3, small=True).digest == wl.digest
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("bench.pass"):
            out = wl.run_pass(tracer.span)
    tally = Tally()
    wl.check(out, tally)
    assert tally.failed == 0, tally.notes
    assert tally.attempted >= wl.requests > 0
    assert 0 < tally.max_ref_err < 2e-3
    spans = tracer.spans
    root = spans[0].end - spans[0].start
    m = layer_metrics(spans, [root], root)
    assert {p["name"] for p in SPEC["per_layer"]} == set(m)
    for key in REACHES[name]:
        assert m[key] > 0, key
    layer_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layer_self == pytest.approx(m["trace.run_s"], rel=1e-9)


def test_box_radii_check_rejects_shifted_or_asymmetric_radii():
    from qhtk import ball

    wl = WORKLOADS["radii"](seed=3, small=True)
    rho = ball.directional_radii(wl.box, np.zeros(2), wl.box_dirs, wl.box_level)
    assert _box_radii_ok(wl.box, wl.box_dirs, rho, wl.box_level).all()
    # a uniform 1% shift keeps the symmetry but misses the level
    assert not _box_radii_ok(wl.box, wl.box_dirs, 1.01 * rho, wl.box_level).all()
    skewed = rho.copy()
    skewed[1] *= 1.01
    assert not _box_radii_ok(wl.box, wl.box_dirs, skewed, wl.box_level)[1]


def test_punctured_pairs_cross_the_origin_on_an_axis():
    wl = WORKLOADS["geodesic"](seed=1)
    pairs = [(x, y) for label, _, x, y, _ in wl.pairs if label == "punctured-plane"]
    assert len(pairs) == 2
    for x, y in pairs:
        assert np.count_nonzero(x) == 1 and np.array_equal(y, -x)


@pytest.mark.xfail(strict=True, reason="certify_segment certifies a chord through a "
                   "removed point when rounding makes d(a) + d(b) exceed |b - a|")
def test_punctured_antipodal_pair_off_the_axes():
    import math

    from qhtk import solver
    from qhtk.geometry import punctured_space

    x = np.array([math.cos(1.9), math.sin(1.9)])
    assert solver.qh_distance(punctured_space(), x, -x).qh_length == pytest.approx(
        math.pi, rel=1e-3)


def test_benchmark_json_names_match_the_run():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    from run import END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "field", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
