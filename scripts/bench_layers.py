#!/usr/bin/env python3
"""Time the oracle, the descent kernels, the layers above them, the verdicts and start-up into BENCH_16.json.

For each preset, ``DomainSpec.depth_many`` (``depth_many`` of the star-like
set) is timed on N = 49 points, the median point count of a single-path
solver call; on N = 2,632, the nodes of one 49-vertex gradient; on
N = 33,264, one relax parity of a 49-vertex path; and on N = 100,000
points, a large field batch.  Points are drawn uniformly from the
domain's window (unbounded sides at +-3), so some lie outside; the oracle
does the same work there.  Next to each of these rows,
``depth_many_minflt_per_call`` is the process's minor page faults per
call (``getrusage``), the least over rounds: a temporary that glibc hands
back to the system on free is faulted in again on every call.

The fixed-node segment kernel ``_segment_values`` is timed per segment on
the planar presets at n = 48 (one 49-vertex path), 9,600 (600 paths of 17
vertices) and 168,000 segments (the gradient call of a 1,400-path field
chunk at 17 vertices), on straight segments inside the domain.

The descent kernels are timed on straight paths inside the domain: one
objective (fixed-node length), one finite-difference gradient, one relax
sweep and one iteration of the descent loop (``max_iterations=1``, no
relax: the start objective, a gradient and the line search), for one
path of 49 vertices (a single solve's final level) and for 600 paths of
17 vertices (a field batch).  The 600-path rows are taken on the planar
presets only: a relax sweep over 600 paths in 3-D builds about 0.3 GB of
candidate nodes, and no batch caller works in 3-D.

Above the kernels:
- ``grid_dijkstra_ms``: one ``_GridGraph`` build plus its Dijkstra at the
  default lattice resolution, for the benchmark's polygon-P pair and the
  omega-5 axis endpoints;
- ``qh_path_length_ms``: one adaptive-quadrature length of a straight
  49-vertex path inside each planar preset;
- ``ball_contour_ms``: one marching-squares contour of the strip field of
  the benchmark's ``field`` workload on seed 1 (``bench/workloads.py``);
- ``ray_limits_us``: the boundary ray limits of 64 directions from the
  centre of the unit ball and of the box;
- ``induced_norm_build_s``: one ``InducedNorm`` construction on the box
  at r = 1 with a 16-knot table and 10 precheck pairs, as the benchmark's
  ``radii`` workload builds it.

Each figure is the minimum over rounds of the mean time per call (about
0.2 s of calls per round, at least one call); every round sweeps all
cases.  Figures keep four significant digits.

``--verdicts`` adds the process CPU seconds (user plus system) of the
multiplicity verdicts (acceptance criteria 3 and 4):
``enumerate_sign_geodesics(n)`` and ``verify_intersection_count(n)`` for
n = 3, 4, 5, and ``polygon_prolongation_check(0.5)``.  Each verdict runs
once in each of ``VERDICT_REPEAT`` fresh interpreters, as ``qh example``
runs it, and the fastest run is kept with its system seconds.  A fresh
process spends much of a verdict's time in the system: it keeps returning
the solver's large temporaries to the system and page-faulting them back
in.  Inside the Tier-1 suite, where earlier tests have already allocated
larger blocks, it does not, so the suite's durations of criteria 3 and 4
are the in-process figure.  ``--tier1`` runs the Tier-1 suite of the tree
that holds the imported ``qhtk`` (``python -m pytest -q
--continue-on-collection-errors --durations=0`` from its root) and keeps
its summary line, its wall time and the seconds of every setup, call and
teardown.  Run with BLAS held to one thread (``OPENBLAS_NUM_THREADS=1``
and its MKL and OpenMP twins), as the benchmark does.  The rows go under
``--label`` in the output file, next to the rows of other labels already
there, so one file holds a before and an after run on the same machine.
The relax kernel is called by parameter name and the ray limits fall back
to the one-ray ``_boundary_ray_limit``, so the script also runs against
older trees.

``--startup`` adds the cost of starting the library in a fresh
interpreter: the process CPU seconds (user plus system) and the maximum
resident set of ``import qhtk``, ``import qhtk.cli``, and two ``qh dist``
commands as the ``qh`` script runs them, fastest of ``STARTUP_REPEAT``
runs.  ``qh dist`` on the half-plane loads numpy alone; on polygon-P the
chord leaves the domain, so the command also pays for scipy's sparse
graph modules and the lattice seed.

Usage:
    PYTHONPATH=src python3 scripts/bench_layers.py [--label change]
        [--out BENCH_16.json] [--repeat 7] [--verdicts] [--tier1] [--startup]
"""

import argparse
import hashlib
import inspect
import json
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import qhtk
from qhtk import ball, renorm, solver
from qhtk.cases import omega_endpoints
from qhtk.geometry import Polyline
from qhtk.io import resolve_domain
from qhtk.metric import qh_path_length
from qhtk.solver import DEFAULT_SOLVER, RefinementConfig

PRESETS = ("half-plane", "strip", "slab3d", "unit-ball", "box", "punctured-plane",
           "polygon-P", "omega-n:3", "omega-n:5", "l2-section:6", "starlike3d")
SIZES = (49, 2_632, 33_264, 100_000)
SEGMENTS = (48, 9_600, 168_000)
PATHS = ((1, 49), (600, 17))  # (paths, vertices per path)
VERDICT_REPEAT = 3  # fresh interpreters per verdict; the fastest is kept
STARTUP_REPEAT = 5  # fresh interpreters per start-up row; the fastest is kept
QH = "from qhtk.cli import main; main()"  # what the qh script runs
STARTUP = {  # row: interpreter arguments; qh commands get --out appended
    "import qhtk": ["-c", "import qhtk"],
    "import qhtk.cli": ["-c", "import qhtk.cli"],
    "qh dist half-plane": ["-c", QH, "dist", "--domain", "half-plane", "--from", "0,1",
                           "--to", "1,2"],
    "qh dist polygon-P": ["-c", QH, "dist", "--domain", "polygon-P", "--from", "-1.6,0.5",
                          "--to", "-0.6,1.6"],
}
GRID_PAIRS = {  # lattice seeds: the benchmark's polygon-P pair, omega-5's axis ends
    "polygon-P": (np.array([-1.6, 0.5]), np.array([-0.6, 1.6])),
    "omega-n:5": omega_endpoints(5),
}


def machine_facts():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    src = Path(qhtk.__file__).resolve().parent
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], capture_output=True,
                              text=True, timeout=10, cwd=src)
        if proc.returncode == 0:
            commit = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for f in sorted(src.glob("*.py")):
        digest.update(f.name.encode() + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "qhtk_sha256": digest.hexdigest()[:16],
    }


def sample_points(domain, n, rng):
    lo, hi = domain.window_hint()
    lo = [-3.0 if b is None else b for b in lo]
    hi = [3.0 if b is None else b for b in hi]
    return rng.uniform(lo, hi, size=(n, domain.dimension))


def inside_paths(domain, count, vertices, rng):
    """Straight paths from interior points, each shorter than its start's
    boundary distance, so every path lies inside the domain."""
    starts = np.empty((0, domain.dimension))
    while starts.shape[0] < count:
        X = sample_points(domain, 4 * count, rng)
        starts = np.concatenate([starts, X[domain.depth_many(X) > 0.05]])
    starts = starts[:count]
    u = rng.normal(size=starts.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    ends = starts + 0.8 * domain.depth_many(starts)[:, None] * u
    t = np.linspace(0.0, 1.0, vertices)
    return starts[:, None, :] + t[None, :, None] * (ends - starts)[:, None, :]


def kernel_calls(domain, Vs):
    """Zero-argument callables for the descent kernels and one loop
    iteration on Vs."""
    _, vals = solver._batch_objective(domain, Vs)
    relax_params = inspect.signature(solver._batch_relax).parameters
    one_iteration = RefinementConfig(max_iterations=1)

    def relax_sweep():
        kw = {"domain": domain, "Vs": Vs.copy(), "vals": vals.copy(),
              "active": np.ones(Vs.shape[0], dtype=bool),
              "ref": DEFAULT_SOLVER.refinement, "sweeps": 1}
        solver._batch_relax(**{k: v for k, v in kw.items() if k in relax_params})

    return {
        "objective": lambda: solver._batch_objective(domain, Vs),
        "gradient": lambda: solver._batch_gradient(domain, Vs, vals),
        "relax_sweep": relax_sweep,
        "descent_iteration": lambda: solver._descend(domain, Vs, one_iteration),
    }


def ray_limits(domain, origin, U):
    if hasattr(ball, "_boundary_ray_limits"):
        return ball._boundary_ray_limits(domain, origin, U)
    return np.array([ball._boundary_ray_limit(domain, origin, u) for u in U])


def layer_calls(name, domain, rng):
    """(size, key, zero-argument callable, divisor to ns) above the kernels."""
    out = []
    if name in GRID_PAIRS:
        x, y = GRID_PAIRS[name]
        res = DEFAULT_SOLVER.grid_resolution
        out.append((f"res={res:g}", "grid_dijkstra_ms",
                    lambda: solver._GridGraph(domain, x, y, res).shortest_path(), 1e6))
    if domain.dimension == 2:
        path = Polyline(inside_paths(domain, 1, 49, rng)[0])
        out.append(("m=49", "qh_path_length_ms", lambda: qh_path_length(domain, path), 1e6))
    if name in ("unit-ball", "box"):
        th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        U = np.stack([np.cos(th), np.sin(th)], axis=1)
        out.append(("K=64", "ray_limits_us", lambda: ray_limits(domain, np.zeros(2), U), 1e3))
    if name == "box":
        out.append(("r=1,table=16,pairs=10", "induced_norm_build_s",
                    lambda: renorm.InducedNorm(domain, 1.0, table=16, precheck_pairs=10), 1e9))
    if name == "strip":
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
        from workloads import Field

        p = next(p for p in Field(1).pieces if p.label == "strip")
        field = ball.distance_field(p.domain, p.center, p.window, p.resolution)
        out.append((f"res={p.resolution}", "ball_contour_ms",
                    lambda: ball.ball_contour(field, p.level), 1e6))
    return out


VERDICT_CALL = """
import resource, sys
from qhtk import cases
arg = float(sys.argv[2])
r0 = resource.getrusage(resource.RUSAGE_SELF)
verdict = getattr(cases, sys.argv[1])(int(arg) if arg.is_integer() else arg)
r1 = resource.getrusage(resource.RUSAGE_SELF)
system = r1.ru_stime - r0.ru_stime
print(r1.ru_utime - r0.ru_utime + system, system, int(verdict.passed))
"""


def verdict_cpu_seconds():
    """CPU seconds of each multiplicity verdict in a fresh interpreter,
    fastest of ``VERDICT_REPEAT`` runs."""
    env = dict(os.environ, PYTHONPATH=str(Path(qhtk.__file__).resolve().parents[1]))
    calls = [(fn, n) for n in (3, 4, 5)
             for fn in ("enumerate_sign_geodesics", "verify_intersection_count")]
    rows = {}
    for fn, arg in calls + [("polygon_prolongation_check", 0.5)]:
        runs = []
        for _ in range(VERDICT_REPEAT):
            proc = subprocess.run([sys.executable, "-c", VERDICT_CALL, fn, str(arg)], env=env,
                                  capture_output=True, text=True, check=True)
            runs.append([float(v) for v in proc.stdout.split()])
        cpu, system, passed = min(runs)
        rows[f"{fn}({arg})"] = {"cpu_s": float(f"{cpu:.4g}"), "sys_s": float(f"{system:.4g}"),
                                "passed": bool(passed)}
        print(f"{fn}({arg})", rows[f"{fn}({arg})"])
    return rows


STARTUP_PROBE = """
import json, os, subprocess, sys
proc = subprocess.Popen(json.loads(sys.argv[1]), stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps([status, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0]))
"""


def startup_costs():
    """CPU seconds and peak RSS of each start-up row in a fresh interpreter,
    fastest of ``STARTUP_REPEAT`` runs.

    A child's peak RSS counts the memory of the process it was forked
    from, so each row starts from a small probe interpreter, not from
    this one.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(qhtk.__file__).resolve().parents[1]))
    rows = {}
    with tempfile.TemporaryDirectory() as out:
        for name, argv in STARTUP.items():
            cmd = [sys.executable] + argv + (["--out", out] if argv[1] == QH else [])
            runs = []
            for _ in range(STARTUP_REPEAT):
                proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, json.dumps(cmd)],
                                      env=env, capture_output=True, text=True, check=True)
                status, cpu, rss = json.loads(proc.stdout)
                if status != 0:
                    raise SystemExit(f"start-up row {name!r} exited with status {status}")
                runs.append((cpu, rss))
            cpu, rss = min(runs)
            rows[name] = {"cpu_s": float(f"{cpu:.4g}"), "max_rss_mb": float(f"{rss:.4g}")}
            print(name, rows[name])
    return rows


DURATION_LINE = re.compile(r"^([0-9.]+)s (setup|call|teardown)\s+(\S+)$")


def tier1_durations():
    """Run the Tier-1 suite of the tree holding qhtk; per-test phase seconds."""
    root = Path(qhtk.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=0", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    durations = {}
    for line in lines:
        m = DURATION_LINE.match(line.strip())
        if m:
            durations.setdefault(m.group(3), {})[m.group(2)] = float(m.group(1))
    summary = next((line.strip("= ") for line in reversed(lines) if " in " in line), None)
    print("tier1:", summary)
    return {"command": " ".join(cmd[1:]), "summary": summary, "wall_s": round(wall, 1),
            "exit_code": proc.returncode, "durations_s": durations}


def calls_per_sample(fn):
    """Calls that take about 0.2 s, at least one."""
    t0 = time.perf_counter()
    fn()
    return max(1, int(0.2 / max(time.perf_counter() - t0, 1e-7)))


def time_per_call(fn, calls):
    """Seconds and minor page faults per call."""
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    t = time.perf_counter() - t0
    return t / calls, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / calls


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_16.json")
    ap.add_argument("--label", default="change", help="key of this run's rows in the file")
    ap.add_argument("--repeat", type=int, default=7, help="rounds over all cases")
    ap.add_argument("--verdicts", action="store_true",
                    help="add the CPU time of the multiplicity verdicts")
    ap.add_argument("--tier1", action="store_true",
                    help="add the Tier-1 per-test durations (runs the whole suite)")
    ap.add_argument("--startup", action="store_true",
                    help="add the CPU time and peak RSS of starting qhtk and qh dist")
    args = ap.parse_args()
    rng = np.random.default_rng(2)
    cases = []  # (preset, size, key, function, calls, divisor)
    for name in PRESETS:
        domain = resolve_domain(name)
        for n in SIZES:
            X = sample_points(domain, n, rng)
            fn = lambda d=domain, X=X: d.depth_many(X)  # noqa: E731
            cases.append((name, f"N={n}", "depth_many_ns_per_point", fn, calls_per_sample(fn), n))
        if domain.dimension == 2:
            for n in SEGMENTS:
                S = inside_paths(domain, n, 2, rng)
                A, B = np.ascontiguousarray(S[:, 0]), np.ascontiguousarray(S[:, 1])
                fn = lambda d=domain, A=A, B=B: solver._segment_values(d, A, B)  # noqa: E731
                cases.append((name, f"n={n}", "segment_values_ns_per_segment", fn,
                              calls_per_sample(fn), n))
        for paths, vertices in PATHS:
            if paths > 1 and domain.dimension != 2:
                continue
            Vs = inside_paths(domain, paths, vertices, rng)
            for key, fn in kernel_calls(domain, Vs).items():
                cases.append((name, f"P={paths},m={vertices}", key + "_us",
                              fn, calls_per_sample(fn), 1e3))
        for size, key, fn, div in layer_calls(name, domain, rng):
            cases.append((name, size, key, fn, calls_per_sample(fn), div))
    # rounds sweep every case, so a slow spell of the machine hits all alike
    best, faults = {}, {}
    for _ in range(args.repeat):
        for name, size, key, fn, calls, _ in cases:
            t, f = time_per_call(fn, calls)
            best[name, size, key] = min(best.get((name, size, key), np.inf), t)
            faults[name, size, key] = min(faults.get((name, size, key), np.inf), f)
    rows = {name: {} for name in PRESETS}
    for name, size, key, _, _, div in cases:
        row = rows[name].setdefault(size, {})
        row[key] = float(f"{1e9 * best[name, size, key] / div:.4g}")
        if key == "depth_many_ns_per_point":
            row["depth_many_minflt_per_call"] = float(f"{faults[name, size, key]:.4g}")
    for name in PRESETS:
        print(name, rows[name])
    run = {"repeat": args.repeat, "machine": machine_facts(), "rows": rows}
    if args.verdicts:
        run["verdict_cpu_s"] = verdict_cpu_seconds()
    if args.tier1:
        run["tier1"] = tier1_durations()
    if args.startup:
        run["startup"] = startup_costs()
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            doc = json.load(f)
    doc["statistic"] = "minimum over rounds of the mean per call"
    doc.setdefault("runs", {})[args.label] = run
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
