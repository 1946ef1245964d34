#!/usr/bin/env python3
"""Record the solver calls of a run, then replay them through another tree.

Recording wraps ``refine_path``, ``refine_paths`` (where the tree has it) and
``solve_batch`` in every loaded ``qhtk`` module.  Each outermost call (one
made while no other wrapped call is running) keeps its pickled arguments
and its outcome: every field of a ``GeodesicResult`` (vertices, length,
gap, ``converged``, iterations, history, meta), the lengths, vertices and
gradient norms of ``solve_batch``, or the type and message of a
``QHError``.  ``compare`` unpickles the arguments in the tree on
``PYTHONPATH``, calls the same entry point there and lists every field
whose bits differ; a call whose arguments use a class that tree lacks is
counted as skipped.  A tree without ``refine_paths`` replays such a call
seed by seed through ``refine_path``, so a batch recorded in one tree is
checked against one-seed solves in an older one.

The file is a pytest plugin (``-p replay_solves``) and a command line tool.
Run from the repository root:

    # the test suite's calls
    PYTHONPATH=src:scripts python -m pytest -q -p replay_solves \\
        --replay-record calls-tests.pkl tests/
    # one qh command, e.g. all-examples
    PYTHONPATH=src python scripts/replay_solves.py record calls-examples.pkl \\
        -- all-examples --out qh-out
    # one pass of a benchmark workload
    PYTHONPATH=src python scripts/replay_solves.py record calls-geodesic.pkl \\
        --workload geodesic --seed 1
    # replay through another checkout; exit code 1 when any bit differs
    PYTHONPATH=../parent/src python scripts/replay_solves.py compare calls-tests.pkl

Recorded pickles hold plain arrays and the library's own dataclasses, so
record and replay must run on the same Python and numpy.
"""

from __future__ import annotations

import argparse
import io
import os
import pickle
import sys
import threading
from pathlib import Path

import numpy as np

ENTRY_POINTS = ("refine_path", "refine_paths", "solve_batch")


# ---------------------------------------------------------------------------
# outcomes as plain values
# ---------------------------------------------------------------------------

def _plain(out):
    """The outcome of one call as nested dicts, lists and arrays."""
    from qhtk.geometry import QHError
    from qhtk.solver import GeodesicResult

    if isinstance(out, QHError):
        return {"error": type(out).__name__, "message": str(out)}
    if isinstance(out, GeodesicResult):
        return {
            "vertices": None if out.path is None else np.array(out.path.vertices),
            "qh_length": out.qh_length,
            "lower_bound_gap": out.lower_bound_gap,
            "converged": out.converged,
            "iterations": out.iterations,
            "refinement_history": np.array(out.refinement_history, dtype=float),
            "meta": dict(out.meta),
        }
    if isinstance(out, tuple):  # solve_batch: lengths, vertices, gradient norms
        return dict(zip(("lengths", "vertices", "gradient_norms"),
                        (np.array(a) for a in out)))
    return [_plain(r) for r in out]


def _diff(a, b, where=""):
    """Paths of the fields whose bits differ between two plain outcomes."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{where or '.'}: keys {sorted(a)} != {sorted(b)}"]
        return [d for k in a for d in _diff(a[k], b[k], f"{where}.{k}")]
    if isinstance(a, list) and isinstance(b, list):  # refine_paths: one entry per seed
        if len(a) != len(b):
            return [f"{where}: {len(a)} entries != {len(b)}"]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _diff(x, y, f"{where}[{i}]")]
    if a is None or b is None or isinstance(a, str) or isinstance(b, str):
        return [] if a == b else [f"{where}: {a!r} != {b!r}"]
    x, y = np.asarray(a), np.asarray(b)
    if x.shape != y.shape or x.dtype != y.dtype:
        return [f"{where}: shape/dtype {x.shape} {x.dtype} != {y.shape} {y.dtype}"]
    if x.tobytes() == y.tobytes():
        return []
    if x.dtype.kind == "f":
        gap = np.nanmax(np.abs(x - y)) if x.size else 0.0
        return [f"{where}: {int((x != y).sum())} of {x.size} values differ, max |diff| {gap:.3e}"]
    return [f"{where}: {x.tolist()} != {y.tolist()}"]


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

class _Pickler(pickle.Pickler):
    """Pickles a ``DomainSpec`` by its fields; its compiled kernels are
    closures, rebuilt by ``__post_init__`` on load."""

    def reducer_override(self, obj):
        from qhtk.geometry import DomainSpec

        if type(obj) is DomainSpec:
            return DomainSpec, (obj.dimension, obj.primitives, obj.removals, obj.norm, obj.name)
        return NotImplemented


def _dumps(obj):
    buf = io.BytesIO()
    _Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


class Recorder:
    def __init__(self):
        self.calls = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def _wrap(self, name, fn):
        from qhtk.geometry import QHError

        def wrapper(*args, **kwargs):
            if getattr(self._local, "depth", 0):
                return fn(*args, **kwargs)
            entry = {"func": name, "where": os.environ.get("PYTEST_CURRENT_TEST", "")}
            try:
                entry["args"] = _dumps((args, kwargs))
            except Exception as err:  # noqa: BLE001 - reported by compare
                entry["unpicklable"] = repr(err)
            self._local.depth = 1
            try:
                out = fn(*args, **kwargs)
                entry["outcome"] = _plain(out)
                return out
            except QHError as err:
                entry["outcome"] = _plain(err)
                raise
            finally:
                self._local.depth = 0
                with self._lock:
                    self.calls.append(entry)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the entry points in every loaded qhtk module."""
        import qhtk.ball  # noqa: F401 - load every module that imports an entry point
        import qhtk.batch
        import qhtk.cases  # noqa: F401
        import qhtk.renorm  # noqa: F401
        import qhtk.solver

        originals = {name: getattr(mod, name) for mod in (qhtk.solver, qhtk.batch)
                     for name in ENTRY_POINTS if hasattr(mod, name)}
        wrapped = {name: self._wrap(name, fn) for name, fn in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "qhtk" and not modname.startswith("qhtk."):
                continue
            for name, fn in originals.items():
                if getattr(mod, name, None) is fn:
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, wrapped[name])

    def uninstall(self):
        for mod, name, fn in self._saved:
            setattr(mod, name, fn)
        self._saved = []

    def dump(self, path, source):
        with open(path, "wb") as f:
            pickle.dump({"source": source, "calls": self.calls}, f,
                        protocol=pickle.HIGHEST_PROTOCOL)
        print(f"replay_solves: {len(self.calls)} calls recorded to {path}", file=sys.stderr)


# pytest plugin hooks --------------------------------------------------------

def pytest_addoption(parser):
    parser.addoption("--replay-record", metavar="FILE",
                     help="pickle every refine_path/refine_paths/solve_batch call to FILE")


def pytest_configure(config):
    path = config.getoption("--replay-record")
    if path:
        config._replay_recorder = Recorder()
        config._replay_recorder.install()


def pytest_unconfigure(config):
    rec = getattr(config, "_replay_recorder", None)
    if rec is not None:
        rec.uninstall()
        rec.dump(config.getoption("--replay-record"), "pytest " + " ".join(config.args))


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _call(func, args, kwargs):
    """Run one recorded call in the tree on PYTHONPATH; returns its plain outcome."""
    from qhtk import batch, solver
    from qhtk.geometry import QHError

    try:
        if func == "solve_batch":
            return _plain(batch.solve_batch(*args, **kwargs))
        if func == "refine_paths" and not hasattr(solver, "refine_paths"):
            domain, inits, *rest = args
            out = []
            for init in inits:
                try:
                    out.append(solver.refine_path(domain, init, *rest, **kwargs))
                except QHError as err:
                    out.append(err)
            return _plain(out)
        return _plain(getattr(solver, func)(*args, **kwargs))
    except QHError as err:
        return _plain(err)


def compare(path, limit=20):
    with open(path, "rb") as f:
        doc = pickle.load(f)
    calls = doc["calls"]
    bad = skipped = 0
    counts = {}
    for i, entry in enumerate(calls):
        counts[entry["func"]] = counts.get(entry["func"], 0) + 1
        if "unpicklable" in entry:
            diffs = [f"arguments were not recorded: {entry['unpicklable']}"]
        else:
            try:
                args, kwargs = pickle.loads(entry["args"])
            except AttributeError:  # a class this tree does not have
                skipped += 1
                continue
            diffs = _diff(entry["outcome"], _call(entry["func"], args, kwargs))
        if diffs:
            bad += 1
            if bad <= limit:
                print(f"call {i} {entry['func']} {entry['where']}")
                for d in diffs[:10]:
                    print(f"    {d}")
    summary = ", ".join(f"{n} {name}" for name, n in sorted(counts.items()))
    print(f"{path}: {len(calls)} calls ({summary}) recorded by {doc['source']!r}; "
          f"{len(calls) - bad - skipped} bit-identical, {bad} differ, "
          f"{skipped} skipped (arguments use a class this tree lacks)")
    return 1 if bad else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    qh_args = []
    if "--" in argv:  # everything after -- goes to qh
        cut = argv.index("--")
        argv, qh_args = argv[:cut], argv[cut + 1:]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record a workload pass, or the qh command after --")
    rec.add_argument("out", help="pickle to write")
    rec.add_argument("--workload", help="record one pass of this benchmark workload")
    rec.add_argument("--seed", type=int, default=1, help="workload seed")
    cmp_ = sub.add_parser("compare", help="replay a recording through the tree on PYTHONPATH")
    cmp_.add_argument("recording")
    cmp_.add_argument("--limit", type=int, default=20, help="differing calls to list")
    args = ap.parse_args(argv)
    if args.command == "compare":
        return compare(args.recording, args.limit)
    if bool(args.workload) == bool(qh_args):
        ap.error("record needs either --workload NAME or -- QH_ARGS")
    recorder = Recorder()
    if args.workload:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed)
        recorder.install()
        workload.run_pass()
        source = f"workload {args.workload} seed {args.seed}"
        code = 0
    else:
        from qhtk.cli import dispatch

        recorder.install()
        code = dispatch(qh_args)
        source = "qh " + " ".join(qh_args)
    recorder.uninstall()
    recorder.dump(args.out, source)
    return code


if __name__ == "__main__":
    sys.exit(main())
