"""qhtk benchmark: seeded workloads timed end to end, plus a traced run that
splits the time by layer.

    python3 bench/run.py --workload field --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, both modes

Run it from anywhere inside a source checkout: it imports qhtk from the
checkout's ``src`` directory and refuses to run without it.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The load is one process on one core: qhtk runs its default of 1 worker
# (QH_THREADS unset) and BLAS is held to one thread.  Multithreaded BLAS
# spreads the field workload's large products over both cores of a
# 2-CPU machine, which makes pass times follow whatever else runs there.
# The variables must be set before numpy is imported, so the modules that
# import it (spans, workloads, qhtk) are imported inside the functions.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 7
MIN_WARM = 2
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_run_s": "s",
    "run_s": "s",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "max_ref_err": "1",
}


def load_program():
    """Import qhtk from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import qhtk
    except ImportError as e:
        raise SystemExit(f"bench: cannot import qhtk from {SRC}: {e}")
    if Path(qhtk.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: qhtk was imported from {qhtk.__file__}, not {SRC}")


def machine_facts():
    import numpy
    import scipy
    from qhtk import ball

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qhtk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "QH_THREADS": os.environ.get("QH_THREADS"),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "effective_threads": ball._worker_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def setup_time(workload, seed):
    """Median CPU time of fresh interpreters from start to 'ready'.

    Each probe reports its own process CPU time when it is ready, so time
    the probe spends waiting for a CPU that other load holds is left out.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S)
        word, _, value = proc.stdout.strip().partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise SystemExit(f"bench: set-up probe failed (exit {proc.returncode})")
        times.append(float(value))
    return statistics.median(times)


def timed_pass(wl, tracer=None):
    """One pass; returns (process CPU seconds, wall seconds, outputs).

    The load is one thread, so CPU time is the pass's cost without the
    time it waited for a CPU that other load held.
    """
    c0, w0 = time.process_time(), time.perf_counter()
    if tracer is None:
        out = wl.run_pass()
    else:
        with tracer.installed(), tracer.span("bench.pass"):
            out = wl.run_pass(tracer.span)
    return time.process_time() - c0, time.perf_counter() - w0, out


def measure(wl, seconds, traced):
    """Cold pass, then warm passes until the next would overrun ``seconds``
    of wall time.

    Traced runs alternate untraced and traced warm passes so the overhead
    is measured in one process under the same conditions.  Returns the
    tally, the cold pass's CPU time, the warm and traced passes' CPU times,
    every pass's wall time and the tracer.
    """
    from spans import Tracer
    from workloads import Tally

    tally = Tally()
    tracer = Tracer() if traced else None
    t_start = time.perf_counter()
    cold, last, out = timed_pass(wl)
    wl.check(out, tally)
    warm, traced_times, walls = [], [], [last]
    while True:
        elapsed = time.perf_counter() - t_start
        need_more = len(warm) < MIN_WARM or (traced and len(traced_times) < 1)
        if not need_more and elapsed + last > seconds:
            break
        use_tracer = traced and len(traced_times) < len(warm)
        dt, last, out = timed_pass(wl, tracer if use_tracer else None)
        wl.check(out, tally)
        (traced_times if use_tracer else warm).append(dt)
        walls.append(last)
    return tally, cold, warm, traced_times, walls, tracer


def run_one(args):
    from spans import layer_metrics, layer_unit
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(f"ready {time.process_time()!r}", flush=True)
        return 0
    facts = machine_facts()
    setup_s = None if args.trace else setup_time(args.workload, args.seed)
    tally, cold, warm, traced_times, walls, tracer = measure(wl, args.seconds, bool(args.trace))
    run_s = statistics.median(warm)
    header = {"workload": wl.name, "seed": args.seed, "inputs_sha256": wl.digest,
              "requests_per_pass": wl.requests, "cold_passes": 1,
              "warm_passes": len(warm), "traced_passes": len(traced_times),
              "warm_cpu_s": [round(t, 6) for t in warm],
              "wall_s": [round(t, 6) for t in walls], "machine": facts}
    print(json.dumps(header, sort_keys=True))
    if args.trace:
        metrics = layer_metrics(tracer.spans, traced_times, run_s)
        write_trace(args.workload, args.seed, header, tracer.spans)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "cold_run_s": cold,
            "run_s": run_s,
            "solves_per_s": wl.requests / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "max_ref_err": tally.max_ref_err,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    print(f"{'failed / attempted':36s} {tally.failed} / {tally.attempted}")
    for note in tally.notes[:20]:
        print(f"FAILED {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_trace(workload, seed, header, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    rows = [[s.name, s.start, s.end, s.parent, s.request, s.attrs] for s in spans]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"header": header,
                   "columns": ["name", "start", "end", "parent", "request", "attrs"],
                   "spans": rows}, f, separators=(",", ":"))
    print(f"trace written to {path.relative_to(ROOT)} ({len(rows)} spans)")


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[1:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"bench: workload {name} exited {proc.returncode}")
            res = json.loads(lines[-1])
            if trace == 0:
                summary["correct"] &= res["correct"]
                summary["attempted"] += res["attempted"]
                summary["failed"] += res["failed"]
            for k, v in res["metrics"].items():
                summary["metrics"][f"{name}.{k}"] = v
    print(json.dumps(summary))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.exit(main())
