import json
import shutil

import numpy as np
import pytest

from posetransfer import cli, networks
from posetransfer.articulation import load_skinning, load_transforms, validate_skinning
from posetransfer.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USER, main
from posetransfer.evaluation import pmd
from posetransfer.mesh import load_obj
from posetransfer.networks import init_params, pose_transfer
from posetransfer.synth import load_dataset
from posetransfer.train import TrainConfig, load_checkpoint, save_checkpoint


DATA_CFG = ("n_paired = 2\nn_static = 2\nn_held = 2\nn_poses = 2\n"
            "ring_verts = 3\nrings_per_segment = 2\nlimb_count = 2\n"
            "segments_per_limb = 1\ntorso_segments = 1\n")
TRAIN_CFG = ("steps = 2\naccum_pairs = 1\nckpt_every = 0\nprobe_every = 0\n"
             "k_parts = 6\nlatent = 8\nskin_hidden = 8,8\nenc_hidden = 8,8\n"
             "dec_hidden = 12\nn_skin_pairs = 32\n")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated dataset plus a short training run shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data_cfg = root / "data.cfg"
    data_cfg.write_text(DATA_CFG)
    train_cfg = root / "train.cfg"
    train_cfg.write_text(TRAIN_CFG)
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--out", str(data), "--config", str(data_cfg),
                 "--seed", "21"]) == EXIT_OK
    assert main(["train", "--data", str(data), "--config", str(train_cfg),
                 "--out", str(run), "--quiet"]) == EXIT_OK
    return root


def test_gen_data_counts_and_manifest(workspace):
    manifest = (workspace / "data" / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 6
    splits = [line.split("\t")[1] for line in manifest]
    assert splits.count("paired") == splits.count("static") == splits.count("held") == 2


def test_gen_data_rerun_is_identical(workspace, tmp_path):
    again = tmp_path / "data2"
    assert main(["gen-data", "--out", str(again),
                 "--config", str(workspace / "data.cfg"), "--seed", "21"]) == EXIT_OK
    orig = (workspace / "data" / "paired00_rest.obj").read_text()
    assert (again / "paired00_rest.obj").read_text() == orig


def test_gen_data_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    assert main(["gen-data", "--out", str(tmp_path / "d"),
                 "--config", str(cfg)]) == EXIT_USER
    assert "unknown key" in capsys.readouterr().err


def test_gen_data_config_errors_name_the_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# sizes\nn_paired = 2\nn_poses = many\n")
    assert main(["gen-data", "--out", str(tmp_path / "d"),
                 "--config", str(cfg)]) == EXIT_USER
    assert f"{cfg}:3:" in capsys.readouterr().err


def test_missing_config_exit_codes(workspace, tmp_path):
    missing = str(tmp_path / "missing.cfg")
    assert main(["gen-data", "--out", str(tmp_path / "d"), "--config", missing]) == EXIT_IO
    assert main(["train", "--data", str(workspace / "data"), "--config", missing,
                 "--out", str(tmp_path / "r")]) == EXIT_USER


def test_train_writes_checkpoint_and_metrics(workspace):
    assert (workspace / "run" / "ckpt_final.npz").is_file()
    metrics = (workspace / "run" / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("step,mode,")
    assert len(metrics) == 3  # header + 2 steps


def test_train_rejects_unknown_config_key(workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    assert main(["train", "--data", str(workspace / "data"),
                 "--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_USER
    assert "unknown key" in capsys.readouterr().err


def test_transfer_writes_obj_and_sidecars(workspace, tmp_path):
    data = workspace / "data"
    out = tmp_path / "out.obj"
    skin = tmp_path / "skin.txt"
    trans = tmp_path / "trans.txt"
    assert main(["transfer", "--ckpt", str(workspace / "run" / "ckpt_final.npz"),
                 "--source-posed", str(data / "paired00_pose0.obj"),
                 "--source-rest", str(data / "paired00_rest.obj"),
                 "--target-rest", str(data / "paired01_rest.obj"),
                 "--out", str(out), "--dump-skinning", str(skin),
                 "--dump-transforms", str(trans)]) == EXIT_OK
    target = load_obj(data / "paired01_rest.obj")
    result = load_obj(out)
    assert result.n_vertices == target.n_vertices
    assert (result.faces == target.faces).all()
    w = load_skinning(skin)
    validate_skinning(w, target.n_vertices)
    transforms = load_transforms(trans)
    assert len(transforms) == w.shape[1]


def test_transfer_missing_input_is_user_error(workspace, tmp_path, capsys):
    assert main(["transfer", "--ckpt", str(workspace / "run" / "ckpt_final.npz"),
                 "--source-posed", str(tmp_path / "missing.obj"),
                 "--source-rest", str(workspace / "data" / "paired00_rest.obj"),
                 "--target-rest", str(workspace / "data" / "paired01_rest.obj"),
                 "--out", str(tmp_path / "o.obj")]) == EXIT_USER
    assert "no such file" in capsys.readouterr().err


def test_transfer_non_finite_obj_is_user_error(workspace, tmp_path, capsys):
    data = workspace / "data"
    lines = (data / "paired01_rest.obj").read_text().splitlines()
    first_v = next(i for i, line in enumerate(lines) if line.startswith("v "))
    lines[first_v] = "v nan 0 0"
    target = tmp_path / "target.obj"
    target.write_text("\n".join(lines) + "\n")
    assert main(["transfer", "--ckpt", str(workspace / "run" / "ckpt_final.npz"),
                 "--source-posed", str(data / "paired00_pose0.obj"),
                 "--source-rest", str(data / "paired00_rest.obj"),
                 "--target-rest", str(target),
                 "--out", str(tmp_path / "o.obj")]) == EXIT_USER
    err = capsys.readouterr().err
    assert f"line {first_v + 1}: non-finite vertex coordinate" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o.obj").exists()


def test_tampered_config_checkpoint_is_user_error(workspace, tmp_path, capsys):
    with np.load(workspace / "run" / "ckpt_final.npz") as data:
        arrays = dict(data)
    config = json.loads(bytes(arrays["config_json"]).decode())
    config["lr"] = 5.0
    arrays["config_json"] = np.frombuffer(json.dumps(config).encode(), dtype=np.uint8)
    tampered = tmp_path / "tampered.npz"
    np.savez(tampered, **arrays)
    data = workspace / "data"
    assert main(["transfer", "--ckpt", str(tampered),
                 "--source-posed", str(data / "paired00_pose0.obj"),
                 "--source-rest", str(data / "paired00_rest.obj"),
                 "--target-rest", str(data / "paired01_rest.obj"),
                 "--out", str(tmp_path / "o.obj")]) == EXIT_USER
    err = capsys.readouterr().err
    assert "config_hash" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o.obj").exists()


def test_eval_writes_report(workspace, tmp_path):
    report = tmp_path / "report.csv"
    assert main(["eval", "--ckpt", str(workspace / "run" / "ckpt_final.npz"),
                 "--data", str(workspace / "data"),
                 "--report", str(report)]) == EXIT_OK
    lines = report.read_text().splitlines()
    assert lines[0] == "metric,split,value"
    metrics = {line.split(",")[0] for line in lines[1:]}
    assert {"pmd", "consistency_pred_to_gt", "consistency_gt_to_pred"} <= metrics


def test_eval_pmd_rows_match_per_triple_transfers(workspace, tmp_path):
    ckpt = workspace / "run" / "ckpt_final.npz"
    report = tmp_path / "report.csv"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "data"),
                 "--report", str(report)]) == EXIT_OK
    rows = [line.split(",") for line in report.read_text().splitlines()[1:]]
    params = load_checkpoint(ckpt)[0]
    dataset = load_dataset(workspace / "data")
    expected = []
    for split, chars in (("held", dataset.held), ("paired", dataset.paired)):
        values = [pmd(pose_transfer(posed, src.rest, tgt.rest, params).mesh,
                      tgt.poses[p][1])
                  for src in chars for tgt in chars if src is not tgt
                  for p, (_, posed) in enumerate(src.poses)]
        expected.append(["pmd", split, f"{np.mean(values):.6g}"])
    assert [row for row in rows if row[0] == "pmd"] == expected


def test_eval_encodes_each_character_and_source_frame_once(tmp_path, monkeypatch):
    """Three characters per split: the encoder runs once per rest character
    and once per (source, pose) frame, not once per (source, target, pose)
    triple, and each split's PMD mean is bitwise the mean of per-triple
    ``pose_transfer`` runs."""
    cfg = tmp_path / "data.cfg"
    cfg.write_text("n_paired = 3\nn_static = 0\nn_held = 3\nn_poses = 1\n"
                   "ring_verts = 3\nrings_per_segment = 2\nlimb_count = 2\n"
                   "segments_per_limb = 1\ntorso_segments = 1\n")
    assert main(["gen-data", "--out", str(tmp_path / "data"), "--config", str(cfg),
                 "--seed", "4"]) == EXIT_OK
    config = TrainConfig(k_parts=6, latent=8, skin_hidden=(8, 8), enc_hidden=(8, 8),
                         dec_hidden=(12,))
    params = init_params(config.pipeline_config(), seed=3, zero_decoder_out=False)
    save_checkpoint(tmp_path / "ckpt.npz", params, None, 0, config)

    calls = []
    encode = networks.encode
    monkeypatch.setattr(networks, "encode", lambda *a: calls.append(1) or encode(*a))
    rows = []
    monkeypatch.setattr(cli, "write_report", lambda path, report: rows.extend(report))
    assert main(_eval(tmp_path, tmp_path, ckpt=str(tmp_path / "ckpt.npz"),
                      data=str(tmp_path / "data"))) == EXIT_OK
    assert len(calls) == 6 + 6  # 2 splits x 3 characters, rest + one pose each

    dataset = load_dataset(tmp_path / "data")
    for split, chars in (("held", dataset.held), ("paired", dataset.paired)):
        values = [pmd(pose_transfer(posed, src.rest, tgt.rest, params).mesh,
                      tgt.poses[p][1])
                  for src in chars for tgt in chars if src is not tgt
                  for p, (_, posed) in enumerate(src.poses)]
        assert ("pmd", split, float(np.mean(values))) in rows


def test_tampered_checkpoint_is_user_error(workspace, tmp_path, capsys):
    with np.load(workspace / "run" / "ckpt_final.npz") as data:
        arrays = dict(data)
    arrays["param/dec.fc0.w"] = arrays["param/dec.fc0.w"][:, :5]
    tampered = tmp_path / "tampered.npz"
    np.savez(tampered, **arrays)
    data = workspace / "data"
    assert main(["transfer", "--ckpt", str(tampered),
                 "--source-posed", str(data / "paired00_pose0.obj"),
                 "--source-rest", str(data / "paired00_rest.obj"),
                 "--target-rest", str(data / "paired01_rest.obj"),
                 "--out", str(tmp_path / "o.obj")]) == EXIT_USER
    err = capsys.readouterr().err
    assert "param/dec.fc0.w" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o.obj").exists()


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gradient checks passed" in out
    assert "FAIL" not in out


def test_gradcheck_pins_the_trans_truth(capsys):
    # seed 2's paired-wrt-skinning check fails unless the trans loss's
    # ground truth is held at the base point like the other stop-gradients
    assert main(["gradcheck", "--seed", "2"]) == EXIT_OK
    assert "all 32 gradient checks passed" in capsys.readouterr().out


def test_skinning_export(workspace, tmp_path):
    out = tmp_path / "parts.obj"
    assert main(["skinning", "--ckpt", str(workspace / "run" / "ckpt_final.npz"),
                 "--mesh", str(workspace / "data" / "held00_rest.obj"),
                 "--out", str(out)]) == EXIT_OK
    v_lines = [l for l in out.read_text().splitlines() if l.startswith("v ")]
    mesh = load_obj(workspace / "data" / "held00_rest.obj")
    assert len(v_lines) == mesh.n_vertices
    assert all(len(l.split()) == 7 for l in v_lines)


def test_missing_checkpoint_is_user_error(workspace, tmp_path, capsys):
    assert main(["skinning", "--ckpt", str(tmp_path / "nope.npz"),
                 "--mesh", str(workspace / "data" / "held00_rest.obj"),
                 "--out", str(tmp_path / "o.obj")]) == EXIT_USER
    assert "no such checkpoint" in capsys.readouterr().err


# ---- malformed inputs: one table over every subcommand -----------------

def _write(path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(path)


def _dataset(ws, tmp, edit=None):
    """A copy of the shared dataset, with ``edit(data_dir)`` applied."""
    data = tmp / "data"
    shutil.copytree(ws / "data", data)
    if edit:
        edit(data)
    return str(data)


def _corrupt_first_vertex(data, name):
    lines = (data / name).read_text().splitlines()
    first_v = next(i for i, line in enumerate(lines) if line.startswith("v "))
    lines[first_v] = "v 1 2 x"
    (data / name).write_text("\n".join(lines) + "\n")


def _truncated_ckpt(ws, tmp):
    return _write(tmp / "trunc.npz", (ws / "run" / "ckpt_final.npz").read_bytes()[:500])


def _transfer(ws, tmp, ckpt=None, posed=None, target=None, out=None):
    data = ws / "data"
    return ["transfer", "--ckpt", ckpt or str(ws / "run" / "ckpt_final.npz"),
            "--source-posed", posed or str(data / "paired00_pose0.obj"),
            "--source-rest", str(data / "paired00_rest.obj"),
            "--target-rest", target or str(data / "paired01_rest.obj"),
            "--out", out or str(tmp / "o.obj")]


def _train(ws, tmp, *extra, data=None, config=None):
    return ["train", "--data", data or str(ws / "data"),
            "--config", config or str(ws / "train.cfg"),
            "--out", str(tmp / "run"), "--quiet", *extra]


def _eval(ws, tmp, ckpt=None, data=None, report=None):
    return ["eval", "--ckpt", ckpt or str(ws / "run" / "ckpt_final.npz"),
            "--data", data or str(ws / "data"),
            "--report", report or str(tmp / "report.csv")]


def _skinning(ws, tmp, mesh=None, out=None):
    return ["skinning", "--ckpt", str(ws / "run" / "ckpt_final.npz"),
            "--mesh", mesh or str(ws / "data" / "held00_rest.obj"),
            "--out", out or str(tmp / "o.obj")]


BINARY_OBJ = b"v 0 0 0\nv 1 0 0\n\xff\xfe\x00binary\n"
TRIANGLE_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"

#: (id, expected exit code, text the one error line must contain,
#:  argv builder taking the shared workspace and a fresh directory)
MALFORMED = [
    ("gen-data-missing-config", EXIT_IO, "missing.cfg",
     lambda ws, t: ["gen-data", "--out", str(t / "d"), "--config", str(t / "missing.cfg")]),
    ("gen-data-negative-seed", EXIT_USER, "seed",
     lambda ws, t: ["gen-data", "--out", str(t / "d"), "--seed", "-1"]),
    ("gen-data-bad-value", EXIT_USER, "limb_count",
     lambda ws, t: ["gen-data", "--out", str(t / "d"),
                    "--config", _write(t / "d.cfg", "limb_count = 9\n")]),
    ("gen-data-binary-config", EXIT_USER, "bin.cfg:1",
     lambda ws, t: ["gen-data", "--out", str(t / "d"),
                    "--config", _write(t / "bin.cfg", b"\xff\xfe\x00\x01")]),
    ("gen-data-negative-paired", EXIT_USER, "n_paired",
     lambda ws, t: ["gen-data", "--out", str(t / "d"),
                    "--config", _write(t / "d.cfg", "n_paired = -1\n")]),
    ("gen-data-negative-poses", EXIT_USER, "n_poses",
     lambda ws, t: ["gen-data", "--out", str(t / "d"),
                    "--config", _write(t / "d.cfg", "n_poses = -3\n")]),
    ("gen-data-out-is-file", EXIT_IO, "taken",
     lambda ws, t: ["gen-data", "--out", _write(t / "taken", "x"), "--config",
                    str(ws / "data.cfg")]),
    ("train-missing-config", EXIT_USER, "missing.cfg",
     lambda ws, t: _train(ws, t, config=str(t / "missing.cfg"))),
    ("train-binary-config", EXIT_USER, "bin.cfg:1",
     lambda ws, t: _train(ws, t, config=_write(t / "bin.cfg", b"\xff\xfe\x00\x01"))),
    ("train-negative-loss-weight", EXIT_USER, "loss weight rec",
     lambda ws, t: _train(ws, t, config=_write(
         t / "t.cfg", (ws / "train.cfg").read_text() + "lambda_rec = -1\n"))),
    ("train-negative-pseudo-weight", EXIT_USER, "loss weight w_pseudo",
     lambda ws, t: _train(ws, t, config=_write(
         t / "t.cfg", (ws / "train.cfg").read_text() + "w_pseudo = -1\n"))),
    ("train-removed-ablation-key", EXIT_USER, "unknown key 'use_pseudo'",
     lambda ws, t: _train(ws, t, config=_write(
         t / "t.cfg", (ws / "train.cfg").read_text() + "use_pseudo = false\n"))),
    ("train-negative-seed", EXIT_USER, "seed",
     lambda ws, t: _train(ws, t, "--seed", "-1")),
    ("train-negative-steps", EXIT_USER, "steps",
     lambda ws, t: _train(ws, t, "--steps", "-1")),
    ("train-negative-ckpt-every", EXIT_USER, "ckpt_every",
     lambda ws, t: _train(ws, t, config=_write(t / "t.cfg", (ws / "train.cfg").read_text()
                                               .replace("ckpt_every = 0", "ckpt_every = -1")))),
    ("train-negative-skin-pairs", EXIT_USER, "n_skin_pairs",
     lambda ws, t: _train(ws, t, config=_write(t / "t.cfg", (ws / "train.cfg").read_text()
                                               .replace("n_skin_pairs = 32", "n_skin_pairs = -1")))),
    ("train-missing-dataset", EXIT_USER, "manifest.txt",
     lambda ws, t: _train(ws, t, data=str(t))),
    ("train-malformed-obj", EXIT_USER, "paired00_rest.obj",
     lambda ws, t: _train(ws, t, data=_dataset(
         ws, t, lambda d: _corrupt_first_vertex(d, "paired00_rest.obj")))),
    ("train-bad-skinning", EXIT_USER, "paired01_skinning.txt",
     lambda ws, t: _train(ws, t, data=_dataset(
         ws, t, lambda d: _write(d / "paired01_skinning.txt", "3 2\n0.5 0.5\n")))),
    ("train-missing-parts", EXIT_USER, "static00_parts.txt",
     lambda ws, t: _train(ws, t, data=_dataset(
         ws, t, lambda d: (d / "static00_parts.txt").unlink()))),
    ("train-short-manifest-line", EXIT_USER, "manifest.txt:2",
     lambda ws, t: _train(ws, t, data=_dataset(
         ws, t, lambda d: _write(d / "manifest.txt", "paired00\tpaired\t-\npaired01\n")))),
    ("train-diverging-lr", EXIT_NUMERIC, "diverged at step 2: loss is inf",
     lambda ws, t: _train(ws, t, "--steps", "8", config=_write(
         t / "t.cfg", (ws / "train.cfg").read_text() + "lr = 1e30\n"))),
    ("train-overflowing-update", EXIT_NUMERIC, "step 1: non-finite parameter",
     lambda ws, t: _train(ws, t, "--steps", "8", config=_write(
         t / "t.cfg", (ws / "train.cfg").read_text() + "lr = 1e100\n"))),
    ("train-overflowing-lr", EXIT_NUMERIC, "diverged at step 1: SVD",
     lambda ws, t: _train(ws, t, "--steps", "8", config=_write(
         t / "t.cfg", (ws / "train.cfg").read_text() + "lr = 1e200\n"))),
    ("train-resume-truncated", EXIT_USER, "trunc.npz",
     lambda ws, t: _train(ws, t, "--resume", _truncated_ckpt(ws, t))),
    ("train-resume-missing", EXIT_USER, "no such checkpoint",
     lambda ws, t: _train(ws, t, "--resume", str(t / "nope.npz"))),
    ("transfer-missing-ckpt", EXIT_USER, "no such checkpoint",
     lambda ws, t: _transfer(ws, t, ckpt=str(t / "nope.npz"))),
    ("transfer-truncated-ckpt", EXIT_USER, "trunc.npz",
     lambda ws, t: _transfer(ws, t, ckpt=_truncated_ckpt(ws, t))),
    ("transfer-binary-obj", EXIT_USER, "bin.obj",
     lambda ws, t: _transfer(ws, t, target=_write(t / "bin.obj", BINARY_OBJ))),
    ("transfer-posed-rest-mismatch", EXIT_USER, "vertices",
     lambda ws, t: _transfer(ws, t, posed=_write(t / "tri.obj", TRIANGLE_OBJ))),
    ("transfer-unwritable-out", EXIT_IO, "no_dir",
     lambda ws, t: _transfer(ws, t, out=str(t / "no_dir" / "o.obj"))),
    ("eval-missing-ckpt", EXIT_USER, "no such checkpoint",
     lambda ws, t: _eval(ws, t, ckpt=str(t / "nope.npz"))),
    ("eval-malformed-obj", EXIT_USER, "held01_pose1.obj",
     lambda ws, t: _eval(ws, t, data=_dataset(
         ws, t, lambda d: _corrupt_first_vertex(d, "held01_pose1.obj")))),
    ("eval-pose-vertex-count", EXIT_USER, "held01",
     lambda ws, t: _eval(ws, t, data=_dataset(
         ws, t, lambda d: _write(d / "held01_pose1.obj", TRIANGLE_OBJ)))),
    ("eval-unequal-pose-counts", EXIT_USER, "pose count",
     lambda ws, t: _eval(ws, t, data=_dataset(
         ws, t, lambda d: _write(d / "manifest.txt", (d / "manifest.txt").read_text().replace(
             "held01_pose0.obj,held01_pose1.obj", "held01_pose0.obj"))))),
    ("eval-unwritable-report", EXIT_IO, "no_dir",
     lambda ws, t: _eval(ws, t, report=str(t / "no_dir" / "r.csv"))),
    ("gradcheck-negative-seed", EXIT_USER, "--seed",
     lambda ws, t: ["gradcheck", "--seed", "-1"]),
    ("skinning-binary-obj", EXIT_USER, "bin.obj",
     lambda ws, t: _skinning(ws, t, mesh=_write(t / "bin.obj", BINARY_OBJ))),
    ("skinning-missing-mesh", EXIT_USER, "no such file",
     lambda ws, t: _skinning(ws, t, mesh=str(t / "nope.obj"))),
    ("skinning-unwritable-out", EXIT_IO, "no_dir",
     lambda ws, t: _skinning(ws, t, out=str(t / "no_dir" / "o.obj"))),
]


def _files(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_malformed_input_exits_with_one_error_line(case, workspace, tmp_path, capsys):
    _, code, named, build = case
    argv = build(workspace, tmp_path)
    before = _files(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert named in err[0]
    assert _files(tmp_path) == before  # no output written
