"""Command-line entry point.

Subcommands: gen-data, train, transfer, eval, gradcheck, skinning.
Exit codes: 0 success, 2 user/config error, 3 I/O error, 4 numerical-
check failure; ``main`` maps each error type to one (``EXIT_CODES``).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .articulation import ArticulationError, save_skinning, save_transforms
from .autodiff import AutodiffError
from .evaluation import consistency_scores, pmd, save_part_colored_obj, write_report
from .gradsuite import run_gradient_suite
from .mesh import MeshError, load_obj, save_obj
from .networks import (
    char_context,
    encode_character,
    encode_source_frame,
    pose_transfer,
    predict_skinning,
    transfer_pose_graph,
)
from .synth import DatasetConfig, SynthError, load_dataset, make_dataset, save_dataset
from .train import (
    CheckpointError,
    ConfigError,
    TrainingDiverged,
    fit,
    load_checkpoint,
    parse_config,
    read_config_file,
)

EXIT_OK = 0
EXIT_USER = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

#: Exit code of each error type that ``main`` reports as one ``error:`` line
#: (a ``CliError`` carries its own); any other exception is a bug and propagates.
EXIT_CODES = {
    **dict.fromkeys((ConfigError, CheckpointError, MeshError, ArticulationError,
                     SynthError, AutodiffError), EXIT_USER),
    OSError: EXIT_IO,
    TrainingDiverged: EXIT_NUMERIC,
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetransfer",
        description="Skeleton-free pose transfer between 3D characters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic character dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="dataset config file (key = value)")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train the pose-transfer networks")
    p.add_argument("--data", required=True, help="dataset directory from gen-data")
    p.add_argument("--config", default=None, help="training config file (key = value)")
    p.add_argument("--out", required=True, help="checkpoint + metrics directory")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--ablate", action="append", default=[],
                   choices=["edge", "pseudo", "skinning"],
                   help="zero a loss component's weight (repeatable)")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("transfer", help="transfer a pose onto a target mesh")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--source-posed", required=True)
    p.add_argument("--source-rest", required=True)
    p.add_argument("--target-rest", required=True)
    p.add_argument("--out", required=True, help="output OBJ")
    p.add_argument("--dump-skinning", default=None,
                   help="write predicted target skinning to this file")
    p.add_argument("--dump-transforms", default=None,
                   help="write predicted part transforms to this file")

    p = sub.add_parser("eval", help="evaluate PMD and part consistency")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="output CSV")

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("skinning", help="export part-colored skinning for a mesh")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", required=True, help="output OBJ with vertex colors")
    return parser


def _load_mesh(path):
    if not os.path.isfile(path):
        raise CliError(f"no such file: {path}", EXIT_USER)
    try:
        return load_obj(path)
    except MeshError as exc:
        raise CliError(f"{path}: {exc}", EXIT_USER)


def cmd_gen_data(args) -> int:
    values = {}
    if args.config:
        values = read_config_file(args.config, dataclasses.asdict(DatasetConfig()))
    if args.seed is not None:
        values["seed"] = args.seed
    dataset = make_dataset(DatasetConfig(**values))
    save_dataset(dataset, args.out)
    n = len(dataset.all_characters)
    print(f"wrote {n} characters to {args.out} "
          f"({len(dataset.paired)} paired, {len(dataset.static)} static, "
          f"{len(dataset.held)} held-out)")
    return EXIT_OK


def cmd_train(args) -> int:
    overrides = {}
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.seed is not None:
        overrides["seed"] = args.seed
    for name in args.ablate:
        overrides[{"edge": "lambda_edge", "pseudo": "w_pseudo",
                   "skinning": "lambda_skin"}[name]] = 0.0
    config = parse_config(args.config, overrides=overrides)
    dataset = load_dataset(args.data)

    def log(row):
        if not args.quiet:
            print(f"step {row['step']:5d} [{row['mode']:8s}] "
                  f"total {row['total']:.5f} pmd {row['pmd_probe']:.3f}")

    result = fit(dataset, config, out_dir=args.out, resume_from=args.resume, log=log)
    print(f"final checkpoint: {result.final_checkpoint}")
    return EXIT_OK


def cmd_transfer(args) -> int:
    params = load_checkpoint(args.ckpt)[0]
    source_posed = _load_mesh(args.source_posed)
    source_rest = _load_mesh(args.source_rest)
    target_rest = _load_mesh(args.target_rest)
    result = pose_transfer(source_posed, source_rest, target_rest, params)
    save_obj(result.mesh, args.out)
    if args.dump_skinning:
        save_skinning(result.w_target, args.dump_skinning)
    if args.dump_transforms:
        save_transforms(result.transforms, args.dump_transforms)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params = load_checkpoint(args.ckpt)[0].frozen()
    dataset = load_dataset(args.data)
    # each character is encoded once and each posed source frame once;
    # every (source, target, pose) triple decodes one frame onto one encoding
    splits = [(split, chars, [encode_character(char_context(ch.rest), params)
                              for ch in chars])
              for split, chars in (("held", dataset.held), ("paired", dataset.paired))
              if len(chars) >= 2]

    rows = []
    for split, chars, encs in splits:
        if not chars[0].poses:
            continue
        frames = [[encode_source_frame(enc.ctx.normalize(posed.vertices), enc, params)
                   for _, posed in ch.poses] for ch, enc in zip(chars, encs)]
        values = []
        for si, src_frames in enumerate(frames):
            for ti, tgt in enumerate(chars):
                if si == ti:
                    continue
                for p, frame in enumerate(src_frames):
                    graph = transfer_pose_graph(frame, encs[ti], params)
                    values.append(pmd(encs[ti].ctx.denormalize(graph.deformed.data),
                                      tgt.poses[p][1].vertices))
        rows.append(("pmd", split, float(np.mean(values))))

    if splits:  # consistency on the held-out split when it has two characters
        split, chars, encs = splits[0]
        report = consistency_scores(
            [np.argmax(enc.w.data, axis=1) for enc in encs],
            [np.array(ch.part_names)[np.argmax(ch.gt_skinning, axis=1)] for ch in chars])
        rows.append(("consistency_pred_to_gt", split, report.pred_to_gt))
        rows.append(("consistency_gt_to_pred", split, report.gt_to_pred))

    write_report(args.report, rows)
    for metric, split, value in rows:
        print(f"{metric:26s} {split:8s} {value:.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}", EXIT_USER)
    reports = run_gradient_suite(seed=args.seed)
    failed = [name for name, rep in reports if not rep.passed]
    for name, rep in reports:
        status = "ok" if rep.passed else "FAIL"
        print(f"{status:4s} {name:42s} max_rel_err {rep.max_rel_err:.3e} "
              f"({rep.n_checked} coords, {rep.n_kink_suspect} kink-suspect)")
    if failed:
        print(f"{len(failed)} gradient check(s) failed")
        return EXIT_NUMERIC
    print(f"all {len(reports)} gradient checks passed")
    return EXIT_OK


def cmd_skinning(args) -> int:
    params = load_checkpoint(args.ckpt)[0].frozen()
    mesh = _load_mesh(args.mesh)
    ctx = char_context(mesh)
    w = predict_skinning(ctx.features, ctx.graph, params)
    labels = np.argmax(w.data, axis=1)
    save_part_colored_obj(mesh, labels, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "transfer": cmd_transfer,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "skinning": cmd_skinning,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (CliError, *EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return next(EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
