import json

import numpy as np
import pytest

from posetransfer.articulation import load_skinning, load_transforms, validate_skinning
from posetransfer.cli import EXIT_IO, EXIT_OK, EXIT_USER, main
from posetransfer.evaluation import pmd
from posetransfer.mesh import load_obj
from posetransfer.networks import pose_transfer
from posetransfer.synth import load_dataset
from posetransfer.train import load_checkpoint


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
