#!/usr/bin/env python3
"""Time the boundary-distance oracle per preset domain and write BENCH_2.json.

For each preset, ``DomainSpec.depth_many`` (``depth_many`` of the star-like
set) is timed on N = 49 points, the median point count of a single-path
solver call, and on N = 100,000 points, a large field batch.  Points are
drawn uniformly from the domain's window (unbounded sides at +-3), so
some lie outside; the oracle does the same work there.  Each figure is
the minimum over rounds of the mean time per call (about 0.2 s of calls
per round), in ns per point; every round sweeps all cases.

Usage:
    PYTHONPATH=src python3 scripts/bench_layers.py [--out BENCH_2.json] [--repeat 7]
"""

import argparse
import json
import os
import platform
import subprocess
import time

import numpy as np
import scipy

from qhtk.io import resolve_domain

PRESETS = ("half-plane", "strip", "slab3d", "unit-ball", "box", "punctured-plane",
           "polygon-P", "omega-n:3", "omega-n:5", "l2-section:6", "starlike3d")
SIZES = (49, 100_000)


def machine_facts():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], capture_output=True,
                              text=True, timeout=10,
                              cwd=os.path.dirname(os.path.abspath(__file__)))
        if proc.returncode == 0:
            commit = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def sample_points(domain, n, rng):
    lo, hi = domain.window_hint()
    lo = [-3.0 if b is None else b for b in lo]
    hi = [3.0 if b is None else b for b in hi]
    return rng.uniform(lo, hi, size=(n, domain.dimension))


def calls_per_sample(domain, X):
    """Calls that take about 0.2 s, at least one."""
    t0 = time.perf_counter()
    domain.depth_many(X)
    return max(1, int(0.2 / max(time.perf_counter() - t0, 1e-7)))


def time_per_call(domain, X, calls):
    t0 = time.perf_counter()
    for _ in range(calls):
        domain.depth_many(X)
    return (time.perf_counter() - t0) / calls


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_2.json")
    ap.add_argument("--repeat", type=int, default=7, help="rounds over all cases")
    args = ap.parse_args()
    rng = np.random.default_rng(2)
    cases = []
    for name in PRESETS:
        domain = resolve_domain(name)
        for n in SIZES:
            X = sample_points(domain, n, rng)
            cases.append((name, f"N={n}", domain, X, calls_per_sample(domain, X)))
    # rounds sweep every case, so a slow spell of the machine hits all alike
    best = {}
    for _ in range(args.repeat):
        for name, size, domain, X, calls in cases:
            t = time_per_call(domain, X, calls)
            best[name, size] = min(best.get((name, size), np.inf), t)
    rows = {name: {} for name in PRESETS}
    for name, size, _, X, _ in cases:
        rows[name][size] = round(1e9 * best[name, size] / X.shape[0], 1)
    for name in PRESETS:
        print(name, rows[name])
    doc = {
        "layer": "geometry.depth_many",
        "unit": "ns per point",
        "statistic": f"minimum over {args.repeat} rounds of the mean per call",
        "machine": machine_facts(),
        "depth_many": rows,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
