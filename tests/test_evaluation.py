import numpy as np
import pytest

from posetransfer.evaluation import (
    consistency_scores,
    pmd,
    save_part_colored_obj,
    write_report,
)
from posetransfer.mesh import load_obj, mesh_height


# ---- point-wise mesh distance ------------------------------------------

def test_pmd_zero_on_identical():
    v = np.random.default_rng(0).normal(size=(8, 3))
    assert pmd(v, v) == 0.0


def test_pmd_uniform_offset_on_unit_height():
    v = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.5, 0.0]])
    d = np.array([0.03, 0.0, 0.04])  # length 0.05 on a height-1 mesh
    assert abs(pmd(v + d, v) - 5.0) < 1e-9


def test_pmd_height_normalization():
    v = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 0.0]])
    # same relative deformation at double height gives the same score
    assert abs(pmd(v + [0.1, 0.0, 0.0], v) - pmd(v / 2.0 + [0.05, 0.0, 0.0], v / 2.0)) < 1e-9


def test_pmd_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(10, 3))
    b = rng.normal(size=(10, 3))
    ha, hb = mesh_height(a), mesh_height(b)
    expected = 0.0
    for i in range(10):
        expected += np.sqrt(((a[i] / ha - b[i] / hb) ** 2).sum())
    expected = expected / 10.0 * 100.0
    assert abs(pmd(a, b) - expected) < 1e-9


def test_pmd_shape_mismatch():
    with pytest.raises(ValueError):
        pmd(np.zeros((4, 3)), np.zeros((5, 3)))


# ---- semantic consistency ----------------------------------------------

def test_consistency_identical_labelings_score_one():
    rng = np.random.default_rng(2)
    labels = [rng.integers(0, 4, size=20) for _ in range(5)]
    report = consistency_scores(labels, labels)
    assert report.pred_to_gt == 1.0
    assert report.gt_to_pred == 1.0


def test_consistency_constructed_half_agreement():
    # two characters; predicted part 0 maps to gt "a" on the first but
    # to gt "b" on the second (and symmetrically for part 1), so every
    # part agrees on exactly half the characters: score 0.5 both ways
    pred = [np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1])]
    gt = [np.array(["a", "a", "b", "b"]), np.array(["b", "b", "a", "a"])]
    report = consistency_scores(pred, gt)
    assert report.pred_to_gt == 0.5
    assert report.gt_to_pred == 0.5


def test_consistency_single_character_is_one():
    pred = [np.array([0, 0, 1, 2])]
    gt = [np.array(["x", "x", "y", "z"])]
    report = consistency_scores(pred, gt)
    assert report.pred_to_gt == 1.0
    assert report.gt_to_pred == 1.0


def test_consistency_invariant_to_global_gt_renaming():
    rng = np.random.default_rng(3)
    pred = [rng.integers(0, 3, size=15) for _ in range(4)]
    gt = [rng.integers(0, 3, size=15) for _ in range(4)]
    renamed = [np.array([f"part{v}" for v in g]) for g in gt]
    a = consistency_scores(pred, [g.astype(str) for g in gt])
    b = consistency_scores(pred, renamed)
    assert a.pred_to_gt == b.pred_to_gt
    assert a.gt_to_pred == b.gt_to_pred


def test_consistency_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        consistency_scores([], [])
    with pytest.raises(ValueError):
        consistency_scores([np.zeros(3, dtype=int)], [np.zeros(4, dtype=int)])


def test_consistency_tables_report_modal_labels():
    pred = [np.array([0, 0, 1, 1])]
    gt = [np.array(["arm", "arm", "leg", "leg"])]
    report = consistency_scores(pred, gt)
    assert report.pred_part_table[0] == ("arm", 1.0)
    assert report.gt_part_table["leg"] == (1, 1.0)


# ---- reporting and export ----------------------------------------------

def test_write_report_csv(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path, [("pmd", "held", 1.234567), ("consistency", "held", 0.9)])
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,split,value"
    assert lines[1] == "pmd,held,1.23457"
    assert lines[2] == "consistency,held,0.9"


def test_save_part_colored_obj(tmp_path, tetrahedron):
    path = tmp_path / "parts.obj"
    save_part_colored_obj(tetrahedron, np.array([0, 0, 1, 2]), path)
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    assert len(v_lines) == 4
    assert all(len(l.split()) == 7 for l in v_lines)  # xyz + rgb
    # same part, same color; different parts, different colors
    assert v_lines[0].split()[4:] == v_lines[1].split()[4:]
    assert v_lines[2].split()[4:] != v_lines[3].split()[4:]
    back = load_obj(path)  # extended lines still parse as a mesh
    assert back.n_vertices == 4
    assert (back.faces == tetrahedron.faces).all()


def test_save_part_colored_obj_label_count_mismatch(tmp_path, tetrahedron):
    with pytest.raises(ValueError):
        save_part_colored_obj(tetrahedron, np.array([0, 1]), tmp_path / "x.obj")
