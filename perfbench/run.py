"""Run one posetransfer benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-small --seed 0 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository: it imports the
package from the checkout's ``src/`` and writes only under
``.perfbench/`` at the checkout's root.  The workload runs in this one
process as a single closed-loop client: the next operation starts only
after the previous one has returned and been checked.

Standard output ends with two JSON lines: a detail object (environment,
sample counts, tail percentiles, the per-workload metrics by name, the
error rate) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run, which also reports tracing overhead.
"""
from __future__ import annotations

import os
import sys
import time

PROCESS_START = time.perf_counter()
#: BLAS threads.  The benchmark is one closed-loop client that starts no
#: threads or processes; OpenBLAS's default (one thread per core) is not
#: inherited.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
#: Set-up repetitions per run; ``setup_s`` uses their median.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-small", "eval-small", "retarget-large")


def import_package():
    """Import the checkout's package; exits 2 when the checkout has none."""
    if not os.path.isfile(os.path.join(SRC, "posetransfer", "__init__.py")):
        print(f"error: no posetransfer package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import posetransfer

    if os.path.dirname(os.path.dirname(os.path.abspath(posetransfer.__file__))) != SRC:
        print(f"error: imported posetransfer from {posetransfer.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import tracing
    import workloads

    return workloads, tracing


def blas_threads():
    """Thread count reported by the OpenBLAS library NumPy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
    }


def summary(values, unit: str) -> dict:
    """Median with its sample count, plus the highest percentile that has
    at least ten samples beyond it when there are enough samples."""
    xs = sorted(values)
    n = len(xs)
    out = {"value": statistics.median(xs) if xs else float("nan"), "unit": unit, "n": n}
    if n > 20:
        q = math.floor(100 * (n - 10) / n)
        out[f"p{q}"] = xs[math.ceil(q * n / 100) - 1]
    return out


class Checker:
    """Expected outputs: recorded for this seed, or else the first
    correct output of each key seen in this run (a determinism check)."""

    def __init__(self, workload, recorded):
        self.workload = workload
        self.recorded = recorded
        self.seen: dict = {}

    def __call__(self, i: int, outputs) -> list[str]:
        key = self.workload.reference_key(i)
        source = self.recorded if self.recorded is not None else self.seen
        problems = self.workload.check(i, outputs, source.get(key))
        if not problems and self.recorded is None and key not in self.seen:
            self.seen[key] = self.workload.reference_value(i, outputs)
        return problems


def timed_loop(workload, check, seconds: float, tracer=None) -> dict:
    """Closed loop of operations for ``seconds``, and at least one.

    With a tracer, every other operation is traced, so that traced and
    untraced operations see the same machine conditions; the difference
    of their medians is the tracing overhead.
    """
    times = {"plain": [], "traced": []}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            tracer.op = i
            tracer.pass_id = (i // 2) // workload.ops_per_pass
        elapsed = None
        try:
            start = time.perf_counter()
            outputs = tracer.span("op", workload.op, i) if traced else workload.op(i)
            elapsed = time.perf_counter() - start
            if traced:
                tracer.op = None
            problems = check(i, outputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            if traced:
                tracer.op = None
                tracer.uninstall()
        attempted += 1
        if problems:
            failed += 1
            print(f"{workload.name} op {i}: {'; '.join(problems)}", file=sys.stderr)
        if elapsed is not None:
            times["traced" if traced else "plain"].append(elapsed)
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or times["traced"]):
            return dict(times, attempted=attempted, failed=failed)


def set_up(workload, work: str, tracer=None) -> tuple[float, float]:
    """Repeated input generation; returns (median repetition, warm-up) in s."""
    times = []
    for r in range(SETUP_REPEATS):
        directory = os.path.join(work, f"setup{r}")
        os.makedirs(directory)
        if tracer is not None:
            tracer.op = "setup"
        start = time.perf_counter()
        workload.set_up(directory)
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.op = None
    start = time.perf_counter()
    workload.warm_up()
    return statistics.median(times), time.perf_counter() - start


def workload_metrics(workload, loop: dict) -> dict:
    """Each workload's own metrics by name, for the detail line."""
    op_s = loop["plain"]
    out = {}
    if workload.name == "train-small":
        out["train_samples_per_s"] = {
            "value": workload.samples_per_op * len(op_s) / sum(op_s), "unit": "samples/s"}
        for mode in ("paired", "unpaired"):
            out[f"train_{mode}_step_ms_p50"] = summary(workload.step_ms[mode], "ms")
    elif workload.name == "eval-small":
        out["eval_s"] = summary(op_s, "s")
    else:
        out["transfer_ms_p50"] = summary([t * 1e3 for t in op_s], "ms")
    out["error_rate"] = {"value": loop["failed"] / loop["attempted"], "unit": "failed/attempted"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke test); no recorded references")
    args = parser.parse_args(argv)

    workloads, tracing = import_package()
    import_s = time.perf_counter() - PROCESS_START
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    recorded = None
    if not args.tiny:
        with open(REFERENCE) as fh:
            recorded = json.load(fh)["workloads"].get(args.workload, {}).get(str(args.seed))
    check = Checker(workload, recorded)

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        setup_median, warm_up = set_up(workload, work, tracer)
        if tracer is not None:
            tracer.uninstall()
            tracer.reset_counts()
        loop = timed_loop(workload, check, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if not loop["plain"] or (tracer is not None and not loop["traced"]):
        print("error: no operation completed", file=sys.stderr)
        return 1
    plain_ms = [t * 1e3 for t in loop["plain"]]
    detail = {"workload": args.workload, "trace": args.trace, "tiny": args.tiny,
              "reference": "in-run" if recorded is None else "recorded",
              "environment": environment(args.seed),
              "setup": {"imports_s": import_s, "repetition_s_p50": setup_median,
                        "warm_up_s": warm_up},
              "op_ms": dict(summary(plain_ms, "ms"), all=[round(t, 1) for t in plain_ms])}
    if tracer is None:
        metrics = {
            "op_ms_p50": {"value": statistics.median(plain_ms), "unit": "ms"},
            "setup_s": {"value": import_s + setup_median + warm_up, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        detail["metrics"] = workload_metrics(workload, loop)
    else:
        traced_ms = [t * 1e3 for t in loop["traced"]]
        overhead = statistics.median(traced_ms) - statistics.median(plain_ms)
        metrics = tracer.metrics(n_ops=len(traced_ms), n_setups=SETUP_REPEATS,
                                 samples_per_op=workload.samples_per_op,
                                 overhead_ms=overhead)
        trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_file)
        detail["traced_op_ms"] = dict(summary(traced_ms, "ms"),
                                      all=[round(t, 1) for t in traced_ms])
        detail["tracing"] = {"overhead_ms": overhead, "spans": len(tracer.spans),
                             "span_file": trace_file}
    attempted, failed = loop["attempted"], loop["failed"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
