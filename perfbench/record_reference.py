"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py --first 0 --last 63

For each workload and seed this sets the inputs up once, runs one pass of
operations (one ``fit``, one ``eval``, or every frame of the animation),
checks them without a reference, and stores what the benchmark compares:
the loss rows, the eval report rows, and each frame's PMD to the
ground-truth posed target.  Entries of ``reference.json`` for other
workloads and seeds are kept.  Re-record only when a change is meant to
alter the program's outputs, and say so in that change.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run  # pins BLAS threads before NumPy loads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=63)
    parser.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES,
                        help="workload to record (repeatable; default all)")
    args = parser.parse_args(argv)
    workloads, _ = run.import_package()

    recorded: dict = {}
    work = os.path.join(run.OUT_DIR, f"record-{os.getpid()}")
    try:
        for name in args.workload or run.WORKLOAD_NAMES:
            for seed in range(args.first, args.last + 1):
                workload = workloads.WORKLOADS[name](seed, tiny=False)
                directory = os.path.join(work, f"{name}-{seed}")
                os.makedirs(directory)
                workload.set_up(directory)
                refs = {}
                for i in range(workload.ops_per_pass):
                    outputs = workload.op(i)
                    problems = workload.check(i, outputs, None)
                    if problems:
                        print(f"{name} seed {seed} op {i}: {'; '.join(problems)}",
                              file=sys.stderr)
                        return 1
                    refs[workload.reference_key(i)] = workload.reference_value(i, outputs)
                recorded.setdefault(name, {})[str(seed)] = refs
                shutil.rmtree(directory)
                print(f"{name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # merge at the end, so runs recording other workloads can overlap
    data = {"workloads": {}}
    if os.path.exists(run.REFERENCE):
        with open(run.REFERENCE) as fh:
            data = json.load(fh)
    for name, seeds in recorded.items():
        data["workloads"].setdefault(name, {}).update(seeds)
    data["recorded_with"] = {k: v for k, v in run.environment(None).items()
                             if k in ("python", "numpy", "scipy", "blas", "blas_version")}
    with open(run.REFERENCE, "w") as fh:
        fh.write(dumps(data))
    return 0


def dumps(data: dict) -> str:
    """JSON with one line per (workload, seed) entry."""
    blocks = []
    for name, seeds in sorted(data["workloads"].items()):
        rows = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(refs)}"
                          for seed, refs in sorted(seeds.items(), key=lambda kv: int(kv[0])))
        blocks.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    return (f'{{\n "recorded_with": {json.dumps(data["recorded_with"], sort_keys=True)},\n'
            f' "workloads": {{\n' + ",\n".join(blocks) + "\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
