"""The three benchmark workloads: input generation, one operation, output checks.

Every workload drives the program only through its public entry points
(``posetransfer.train.fit`` and ``posetransfer.cli.main``) and is timed
from outside.  Inputs come from ``gen-data`` with the workload seed; the
program sees only the generated files and, for ``eval`` and ``transfer``,
a checkpoint holding ``init_params(seed)`` with a live (non-zero) decoder
output layer.

Each workload defines:

* ``set_up(directory)`` -- one set-up repetition: generate inputs, write
  the checkpoint, load what the timed loop needs;
* ``warm_up()`` -- one untimed operation that pays first-call costs;
* ``op(i)`` -- the timed operation, returning its raw outputs;
* ``check(i, outputs, expected)`` -- a list of problems (empty when
  correct); ``expected`` is the reference value, or ``None`` for none;
* ``reference_key(i)`` / ``reference_value(i, outputs)`` -- the entry
  the reference file keeps for this seed.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import replace

import numpy as np

from posetransfer import articulation, cli, evaluation, mesh, networks, synth, train

#: Relative tolerance against recorded reference values.
REL_TOL = 1e-6
#: Rebuilt vs written vertices, as a share of the target's height.
REBUILD_TOL = 1e-5
#: Orthonormality and determinant tolerance for dumped rotations.
ROTATION_TOL = 1e-6

LOSS_COLUMNS = ("total", "rec", "trans", "cyc", "skin", "edge", "pmd_probe")


def run_cli(argv) -> tuple[int, str]:
    """``cli.main`` in-process with its console output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def gen_data(out_dir: str, seed: int, sizes: dict) -> None:
    """``posetransfer gen-data`` with a ``key = value`` size config."""
    config = out_dir + ".cfg"
    with open(config, "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in sizes.items())
    code, text = run_cli(["gen-data", "--out", out_dir, "--config", config,
                          "--seed", str(seed)])
    if code != 0:
        raise RuntimeError(f"gen-data exited {code}: {text.strip()}")


def write_checkpoint(path: str, seed: int) -> None:
    """Untrained default-architecture weights with a live decoder output."""
    config = train.TrainConfig(seed=seed)
    params = networks.init_params(config.pipeline_config(), seed=seed,
                                  zero_decoder_out=False)
    train.save_checkpoint(path, params, None, 0, config)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def read_obj_arrays(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Minimal OBJ reader (``v`` and triangle ``f`` lines) kept apart from
    the program's own loader, so output checks do not trust it."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(line.split()[1:4])
            elif line.startswith("f "):
                faces.append([tok.split("/")[0] for tok in line.split()[1:4]])
    return np.array(verts, dtype=np.float64), np.array(faces, dtype=np.int64) - 1


class Workload:
    name = ""
    #: Source/target samples transferred by one operation.
    samples_per_op = 1
    #: Operations per pass over the workload's input set.
    ops_per_pass = 1

    def __init__(self, seed: int):
        self.seed = seed

    def reference_key(self, i: int) -> str:
        return "op"


class TrainSmall(Workload):
    """``fit`` at default character sizes and default ``TrainConfig``."""

    name = "train-small"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.sizes = (dict(n_paired=2, n_static=2, n_held=2, n_poses=2) if tiny
                      else {})
        # 10 steps: five paired and five unpaired, and the probe fires at
        # step 9 as well as at start-up.  The config keeps its default seed:
        # batch sampling then picks the same characters (whose sizes differ)
        # on every dataset seed, so step cost does not depend on the seed.
        self.config = train.TrainConfig(steps=2 if tiny else 10)
        self.samples_per_op = self.config.steps * self.config.accum_pairs
        self.step_ms = {"paired": [], "unpaired": []}

    def set_up(self, directory: str) -> None:
        data = os.path.join(directory, "data")
        gen_data(data, self.seed, self.sizes)
        self.dataset = synth.load_dataset(data)

    def warm_up(self) -> None:
        train.fit(self.dataset, replace(self.config, steps=2))

    def op(self, i: int):
        stamps = []
        result = train.fit(self.dataset, self.config,
                           log=lambda row: stamps.append((time.perf_counter(), row["mode"])))
        # a step is the interval between consecutive log callbacks
        for (t0, _), (t1, mode) in zip(stamps, stamps[1:]):
            self.step_ms[mode].append((t1 - t0) * 1e3)
        return [[float(row[c]) for c in LOSS_COLUMNS] for row in result.metrics]

    def reference_value(self, i: int, rows):
        return rows

    def check(self, i: int, rows, expected) -> list[str]:
        problems = []
        if len(rows) != self.config.steps:
            problems.append(f"{len(rows)} loss rows for {self.config.steps} steps")
        if not all(math.isfinite(v) for row in rows for v in row):
            problems.append("non-finite loss row")
        if expected is not None and (
                len(expected) != len(rows) or
                not all(close(a, b) for ra, rb in zip(rows, expected) for a, b in zip(ra, rb))):
            problems.append("loss rows differ from the reference")
        return problems


class EvalSmall(Workload):
    """One ``posetransfer eval`` pass: 4 held + 4 paired characters, 2 poses."""

    name = "eval-small"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        n_chars, n_poses = (2, 1) if tiny else (4, 2)
        self.sizes = dict(n_paired=n_chars, n_static=n_chars, n_held=n_chars,
                          n_poses=n_poses)
        # every ordered (source, target) pair of each split, in every pose
        self.samples_per_op = 2 * n_chars * (n_chars - 1) * n_poses

    def set_up(self, directory: str) -> None:
        self.data = os.path.join(directory, "data")
        gen_data(self.data, self.seed, self.sizes)
        self.ckpt = os.path.join(directory, "ckpt.npz")
        write_checkpoint(self.ckpt, self.seed)
        self.report = os.path.join(directory, "report.csv")

    def warm_up(self) -> None:
        self.op(0)

    def op(self, i: int):
        if os.path.exists(self.report):
            os.remove(self.report)
        code, text = run_cli(["eval", "--ckpt", self.ckpt, "--data", self.data,
                              "--report", self.report])
        return code, text

    def report_rows(self) -> list:
        with open(self.report, newline="") as fh:
            return [[m, s, float(v)] for m, s, v in list(csv.reader(fh))[1:]]

    def reference_value(self, i: int, outputs):
        return self.report_rows()

    def check(self, i: int, outputs, expected) -> list[str]:
        code, text = outputs
        if code != 0:
            return [f"eval exited {code}: {text.strip()[-200:]}"]
        rows = self.report_rows()
        if not rows or not all(math.isfinite(v) for _, _, v in rows):
            return ["empty or non-finite eval report"]
        if expected is not None and (
                [r[:2] for r in rows] != [e[:2] for e in expected] or
                not all(close(r[2], e[2]) for r, e in zip(rows, expected))):
            return ["eval report differs from the reference"]
        return []


class RetargetLarge(Workload):
    """Per-frame ``posetransfer transfer`` of a ~5k-vertex animation."""

    name = "retarget-large"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.frames = 2 if tiny else 8
        ring, rings = (6, 3) if tiny else (32, 16)  # 32 x 16 gives 4970 vertices
        # two paired characters share every pose: the source is animated,
        # the second one's posed meshes are the ground truth for the target
        self.sizes = dict(n_paired=2, n_static=0, n_held=0, n_poses=self.frames,
                          ring_verts=ring, rings_per_segment=rings)
        self.ops_per_pass = self.frames

    def set_up(self, directory: str) -> None:
        self.data = os.path.join(directory, "data")
        gen_data(self.data, self.seed, self.sizes)
        self.ckpt = os.path.join(directory, "ckpt.npz")
        write_checkpoint(self.ckpt, self.seed)
        self.out = {k: os.path.join(directory, f"out_{k}")
                    for k in ("mesh.obj", "skinning.txt", "transforms.txt")}
        self.target_rest = os.path.join(self.data, "paired01_rest.obj")
        self.target_v, self.target_f = read_obj_arrays(self.target_rest)

    def warm_up(self) -> None:
        self.op(0)

    def reference_key(self, i: int) -> str:
        return str(i % self.frames)

    def op(self, i: int):
        for path in self.out.values():
            if os.path.exists(path):
                os.remove(path)
        frame = i % self.frames
        return run_cli([
            "transfer", "--ckpt", self.ckpt,
            "--source-posed", os.path.join(self.data, f"paired00_pose{frame}.obj"),
            "--source-rest", os.path.join(self.data, "paired00_rest.obj"),
            "--target-rest", self.target_rest,
            "--out", self.out["mesh.obj"],
            "--dump-skinning", self.out["skinning.txt"],
            "--dump-transforms", self.out["transforms.txt"],
        ])

    def pmd_to_truth(self, i: int, written: np.ndarray) -> float:
        truth, _ = read_obj_arrays(
            os.path.join(self.data, f"paired01_pose{i % self.frames}.obj"))
        return evaluation.pmd(written, truth)

    def reference_value(self, i: int, outputs):
        return self.pmd_to_truth(i, read_obj_arrays(self.out["mesh.obj"])[0])

    def check(self, i: int, outputs, expected) -> list[str]:
        code, text = outputs
        if code != 0:
            return [f"transfer exited {code}: {text.strip()[-200:]}"]
        written, faces = read_obj_arrays(self.out["mesh.obj"])
        if written.shape != self.target_v.shape or not np.array_equal(faces, self.target_f):
            return ["output OBJ does not match the target's topology"]
        with open(self.out["skinning.txt"]) as fh:
            tokens = fh.read().split()
        n, k = int(tokens[0]), int(tokens[1])
        w = np.array(tokens[2:], dtype=np.float64).reshape(n, k)
        flat = np.loadtxt(self.out["transforms.txt"], dtype=np.float64, ndmin=2)
        rotations = flat[:, :9].reshape(-1, 3, 3)
        gram = np.einsum("kji,kjl->kil", rotations, rotations)
        if (np.abs(gram - np.eye(3)).max() > ROTATION_TOL or
                np.abs(np.linalg.det(rotations) - 1.0).max() > ROTATION_TOL):
            return ["a dumped rotation is not proper"]
        # Independent rebuild: LBS of the normalized target about the part
        # centers of the dumped skinning, with the dumped transforms.
        center = self.target_v.mean(axis=0)
        height = float(np.ptp(self.target_v[:, 1]))
        rest = mesh.Mesh((self.target_v - center) / height, self.target_f)
        transforms = [articulation.RigidTransform(r, t)
                      for r, t in zip(rotations, flat[:, 9:])]
        rebuilt = articulation.lbs_deform(rest, w, transforms,
                                          articulation.part_centers(rest, w))
        problems = []
        error = np.abs(rebuilt.vertices * height + center - written).max()
        if error > REBUILD_TOL * height:
            problems.append(f"output differs from the LBS rebuild by {error:.3g}")
        if expected is not None and not close(self.pmd_to_truth(i, written), expected):
            problems.append("frame PMD differs from the reference")
        return problems


WORKLOADS = {w.name: w for w in (TrainSmall, EvalSmall, RetargetLarge)}
