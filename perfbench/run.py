"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload cora_train --seed 1 --seconds 25 --trace 0

With --trace 0 the last stdout line is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run. See perfbench/README.md.
"""

import os

# BLAS reads its thread count when numpy is first imported. One thread keeps
# reductions in a fixed order, so accuracies and counts repeat exactly.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mrfgcn  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# set-up runs at least MIN_SETUPS times and until SETUP_SECONDS have passed
MIN_SETUPS = 3
MAX_SETUPS = 50
SETUP_SECONDS = 1.0

# (name, unit): every --trace 0 run reports all of these
END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("test_accuracy", "ratio"),
    ("evaluate_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)


# ---- where the run happened

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by each loaded OpenBLAS, or None if unreadable."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append(fn())
                break
    return max(found) if found else None


def _git(*args):
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30, check=True, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record(workload, seed):
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS, "blas_threads": _blas_threads(),
        "git_revision": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_repo else None,
        "source_sha256": _source_digest(),
    }


def calibrate(reps=7):
    """Seconds for a fixed BLAS-plus-interpreter kernel (median of reps).

    A diagnostic of host speed only; it never rescales a metric.
    """
    a = np.random.default_rng(0).random((200, 200))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(10):
            a @ a
        total = 0.0
        for i in range(100_000):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---- measurement

def _generate(workload, seed, work_dir):
    # a child process, so the generator's memory stays out of peak_rss_mb
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    subprocess.run([sys.executable, "-m", "workloads", json.dumps(dataclasses.asdict(workload)),
                    str(seed), str(work_dir)], env=env, check=True, timeout=170)


def _attempt(workload, prep, index, work_dir):
    """Run one operation; a raised error is a failed operation, not an abort."""
    start = time.perf_counter()
    try:
        return workloads.operation(workload, prep, index, work_dir)
    except Exception:  # noqa: BLE001 - the loop must keep counting failures
        traceback.print_exc(file=sys.stderr)
        return workloads.Outcome(time.perf_counter() - start, 0.0, 0.0, ["raised"])


def _setups(workload, seed, work_dir, tracer):
    times, prep, began = [], None, time.perf_counter()
    while len(times) < MIN_SETUPS or (time.perf_counter() - began < SETUP_SECONDS
                                      and len(times) < MAX_SETUPS):
        prep = None   # the previous set-up's arrays are freed before the next
        start = time.perf_counter()
        if tracer is None:
            prep = workloads.setup(workload, seed, work_dir)
        else:
            with spans.installed(tracer), tracer.span("bench.setup"):
                prep = workloads.setup(workload, seed, work_dir)
        times.append(time.perf_counter() - start)
    return prep, times


def _record(outcomes, index, outcome, first):
    """Keep an outcome; a result that differs from an earlier run of the same
    split breaks determinism and fails the operation."""
    if index in first:
        earlier = first[index]
        for name in ("test_accuracy", "evaluate_accuracy"):
            if getattr(outcome, name) != getattr(earlier, name):
                outcome.problems.append(f"{name} differs from an earlier run of split {index}")
    else:
        first[index] = outcome
    for problem in outcome.problems:
        print(f"operation {len(outcomes)} (split {index}): {problem}", file=sys.stderr)
    outcomes.append(outcome)


def _loop(workload, prep, seconds, work_dir):
    """At least one operation per split, then more until time is up."""
    outcomes, first, began = [], {}, time.perf_counter()
    while len(outcomes) < workloads.SPLITS or time.perf_counter() - began < seconds:
        index = len(outcomes) % workloads.SPLITS
        _record(outcomes, index, _attempt(workload, prep, index, work_dir), first)
    return outcomes, first


def _traced_loop(workload, prep, seconds, work_dir, tracer):
    """Pairs of an untraced and a traced operation on one split, in
    alternating order, until time is up; returns the outcomes, the
    per-pair overheads (traced minus untraced seconds) and the layers
    that could not be wrapped."""
    outcomes, first, overheads, unmeasured = [], {}, [], set()
    began = time.perf_counter()
    while not overheads or time.perf_counter() - began < seconds:
        index = len(overheads) % workloads.SPLITS
        wall = {}
        for traced in (False, True) if len(overheads) % 2 == 0 else (True, False):
            start = time.perf_counter()
            if traced:
                with spans.installed(tracer) as unmeasured, tracer.span("bench.op"):
                    outcome = _attempt(workload, prep, index, work_dir)
            else:
                outcome = _attempt(workload, prep, index, work_dir)
            wall[traced] = time.perf_counter() - start
            _record(outcomes, index, outcome, first)
        overheads.append(wall[True] - wall[False])
    return outcomes, overheads, unmeasured


def measure(workload, seed, seconds, traced, work_dir):
    """Generate inputs, set up, run the closed loop; returns the result object."""
    work_dir = Path(work_dir)
    _generate(workload, seed, work_dir)
    tracer = spans.Tracer() if traced else None
    prep, setup_times = _setups(workload, seed, work_dir, tracer)

    if traced:
        outcomes, overheads, unmeasured = _traced_loop(workload, prep, seconds, work_dir, tracer)
        metrics = {}
        values = spans.layer_metrics(tracer.spans, unmeasured)
        for layer, stat, unit in spans.LAYER_METRICS:
            value, measured = values[f"{layer}.{stat}"]
            metrics[f"{layer}.{stat}"] = {"value": value, "unit": unit}
            if not measured:
                metrics[f"{layer}.{stat}"]["unmeasured"] = True
        metrics["trace.coverage"] = {"value": spans.coverage(tracer.spans), "unit": "ratio"}
        metrics["trace.overhead"] = {"value": statistics.median(overheads), "unit": "s"}
        extra = {"spans": tracer.spans}
    else:
        outcomes, first = _loop(workload, prep, seconds, work_dir)
        by_split = [first[i] for i in range(workloads.SPLITS)]
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(o.op_s for o in outcomes),
            "test_accuracy": statistics.fmean(o.test_accuracy for o in by_split),
            "evaluate_accuracy": statistics.fmean(o.evaluate_accuracy for o in by_split),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": sum(1 for o in outcomes if not o.problems) / len(outcomes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        extra = {"samples": {"setup_s": setup_times, "op_s": [o.op_s for o in outcomes]}}

    failed = sum(1 for o in outcomes if o.problems)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": metrics, **extra}


def _write_spans(path, span_list):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(span_list):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "counts": s.counts}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = Path(mrfgcn.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"mrfgcn imported from {package}, not from this checkout", file=sys.stderr)
        return 2

    host = host_record(args.workload, args.seed)
    host["calibration_before_s"] = calibrate()
    work_dir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    host["calibration_after_s"] = calibrate()

    print("# host " + json.dumps(host))
    if "samples" in result:
        print("# samples " + json.dumps(result.pop("samples")))
    if "spans" in result:
        path = HERE / "_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        _write_spans(path, result.pop("spans"))
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
