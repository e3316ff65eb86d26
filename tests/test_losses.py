import numpy as np
import pytest

from posetransfer import autodiff as ad
from posetransfer.articulation import RigidTransform, lbs_deform, part_centers
from posetransfer.losses import (
    loss_cycle,
    loss_edge,
    loss_rec,
    loss_skin,
    loss_trans,
    skin_loss_pairs,
    total_loss,
    transform_truth,
)
from posetransfer.mesh import Mesh, edge_set
from posetransfer.networks import (
    char_context,
    encode_character,
    encode_source_frame,
    init_params,
    transfer_pose_graph,
)
from posetransfer.synth import pose_character, sample_pose

from conftest import random_rotation


def _cloud_mesh(rng, n=10):
    v = rng.normal(size=(n, 3))
    faces = [[i, (i + 1) % n, (i + 2) % n] for i in range(n)]
    return Mesh(vertices=v, faces=faces)


# ---- reconstruction ----------------------------------------------------

def test_loss_rec_zero_on_identical():
    v = np.random.default_rng(0).normal(size=(6, 3))
    assert loss_rec(ad.constant(v), v).item() == 0.0


def test_loss_rec_uniform_offset():
    v = np.zeros((5, 3))
    shifted = v + np.array([1.0, 0.0, 0.0])
    # mean over all 15 coordinates: 5 coordinates differ by 1 -> 1/3
    assert abs(loss_rec(ad.constant(shifted), v).item() - 1.0 / 3.0) < 1e-12


def test_loss_rec_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(7, 3))
    b = rng.normal(size=(7, 3))
    expected = 0.0
    for i in range(7):
        for d in range(3):
            expected += abs(a[i, d] - b[i, d])
    expected /= 21.0
    assert abs(loss_rec(ad.constant(a), b).item() - expected) < 1e-12


def test_loss_rec_shape_mismatch():
    with pytest.raises(ValueError):
        loss_rec(ad.constant(np.zeros((4, 3))), np.zeros((5, 3)))


# ---- transformation regression ----------------------------------------

def test_loss_trans_zero_when_prediction_matches_ground_truth():
    rng = np.random.default_rng(2)
    mesh = _cloud_mesh(rng, n=12)
    n = mesh.n_vertices
    labels = rng.integers(0, 2, size=n)
    w = np.zeros((n, 2))
    w[np.arange(n), labels] = 1.0
    transforms = [RigidTransform(rotation=random_rotation(rng),
                                 translation=rng.normal(size=3)) for _ in range(2)]
    posed = lbs_deform(mesh, w, transforms)
    pred = np.stack([tf.flat() for tf in transforms])
    val = loss_trans(ad.constant(pred), transform_truth(mesh, posed, w)).item()
    assert val < 1e-6


def test_loss_trans_rest_pose_targets_rest_preserving_transforms():
    rng = np.random.default_rng(3)
    mesh = _cloud_mesh(rng, n=12)
    w = np.zeros((12, 2))
    w[:6, 0] = 1.0
    w[6:, 1] = 1.0
    pc = part_centers(mesh, w)
    pred = np.stack([RigidTransform.identity(c).flat() for c in pc.centers])
    val = loss_trans(ad.constant(pred), transform_truth(mesh, mesh, w)).item()
    assert val < 1e-9


def test_loss_trans_penalizes_translation_error():
    rng = np.random.default_rng(4)
    mesh = _cloud_mesh(rng, n=12)
    w = np.zeros((12, 2))
    w[:6, 0] = 1.0
    w[6:, 1] = 1.0
    pc = part_centers(mesh, w)
    good = np.stack([RigidTransform.identity(c).flat() for c in pc.centers])
    bad = good.copy()
    bad[0, 9:] += 0.6  # shift part-0 translation by 0.6 in every axis
    # mean L1 over 2 parts x 12 numbers: 3 entries off by 0.6 -> 1.8 / 24
    diff = loss_trans(ad.constant(bad), transform_truth(mesh, mesh, w)).item()
    assert abs(diff - 1.8 / 24.0) < 1e-9


# ---- edge preservation -------------------------------------------------

def test_loss_edge_zero_under_rigid_motion():
    rng = np.random.default_rng(5)
    mesh = _cloud_mesh(rng)
    r = random_rotation(rng)
    moved = mesh.vertices @ r.T + rng.normal(size=3)
    assert loss_edge(ad.constant(moved), mesh).item() < 1e-9


def test_loss_edge_uniform_scale_doubling():
    rng = np.random.default_rng(6)
    mesh = _cloud_mesh(rng)
    edges = edge_set(mesh)
    rest_len = np.linalg.norm(
        mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
    val = loss_edge(ad.constant(mesh.vertices * 2.0), mesh).item()
    assert abs(val - rest_len.mean()) < 1e-9


def test_loss_edge_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    mesh = _cloud_mesh(rng)
    pred = mesh.vertices + 0.1 * rng.normal(size=mesh.vertices.shape)
    edges = edge_set(mesh)
    expected = 0.0
    for i, j in edges:
        rest = np.linalg.norm(mesh.vertices[i] - mesh.vertices[j])
        now = np.linalg.norm(pred[i] - pred[j])
        expected += abs(now - rest)
    expected /= len(edges)
    assert abs(loss_edge(ad.constant(pred), mesh).item() - expected) < 1e-9


# ---- contrastive skinning ----------------------------------------------

def test_skin_loss_pairs_signs_and_pool():
    gt = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    i, j, sign = skin_loss_pairs(gt, 64, np.random.default_rng(0))
    assert set(np.concatenate([i, j])) <= {0, 1, 2}  # 3 is not confident
    labels = gt.argmax(axis=1)
    assert (sign == np.where(labels[i] == labels[j], 1.0, -1.0)).all()


def test_skin_loss_pairs_empty_without_confident_vertices():
    gt = np.full((6, 4), 0.25)
    i, j, sign = skin_loss_pairs(gt, 32, np.random.default_rng(1))
    assert i.size == j.size == sign.size == 0
    assert loss_skin(ad.constant(gt), gt).item() == 0.0


def test_loss_skin_zero_when_same_part_rows_identical():
    gt = np.zeros((6, 3))
    gt[:3, 0] = 1.0
    gt[3:, 1] = 1.0
    pred = np.zeros((6, 3))
    pred[:3] = [0.7, 0.2, 0.1]
    pred[3:] = [0.1, 0.8, 0.1]
    rng = np.random.default_rng(2)
    i, j, sign = skin_loss_pairs(gt, 500, rng)
    same = sign > 0
    # same-part rows are identical so their KL contribution is exactly 0;
    # cross-part pairs contribute the negated (clamped) KL
    val = loss_skin(ad.constant(pred), gt, n_pairs=500, rng_seed=2).item()
    kl = np.zeros(500)
    for p in range(500):
        wi, wj = pred[i[p]], pred[j[p]]
        kl[p] = (wi * (np.log(wi) - np.log(wj))).sum()
    expected = np.maximum(sign * kl, -5.0).mean()
    assert abs(val - expected) < 1e-9
    assert np.abs(kl[same]).max() < 1e-12


def test_loss_skin_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    gt = np.zeros((8, 3))
    gt[np.arange(8), rng.integers(0, 3, size=8)] = 1.0
    pred = rng.uniform(0.05, 1.0, size=(8, 3))
    pred /= pred.sum(axis=1, keepdims=True)
    i, j, sign = skin_loss_pairs(gt, 100, np.random.default_rng(9))
    expected = 0.0
    for p in range(i.size):
        wi = np.clip(pred[i[p]], 1e-8, 1.0)
        wj = np.clip(pred[j[p]], 1e-8, 1.0)
        kl = (wi * (np.log(wi) - np.log(wj))).sum()
        expected += max(sign[p] * kl, -5.0)
    expected /= i.size
    val = loss_skin(ad.constant(pred), gt, n_pairs=100, rng_seed=9).item()
    assert abs(val - expected) < 1e-9


# ---- cycle consistency -------------------------------------------------

def test_loss_cycle_near_zero_for_rest_pose_at_identity_init(small_char, tiny_config):
    params = init_params(tiny_config, seed=0)  # zero decoder output layer
    src = encode_character(char_context(small_char.rest), params)
    tgt = encode_character(char_context(small_char.rest), params)
    fwd = transfer_pose_graph(encode_source_frame(src.ctx.norm_vertices, src, params), tgt,
                              params)
    out = loss_cycle(params, fwd, w_pseudo=0.3)
    assert out.total.item() < 1e-6
    assert out.cycle_term.item() < 1e-6
    assert out.pseudo_term.item() < 1e-6


def test_loss_cycle_recomposes_from_two_transfers(small_char, tiny_params):
    rng = np.random.default_rng(4)
    pose = sample_pose(small_char.n_joints, rng)
    posed = pose_character(small_char, pose)
    src = encode_character(char_context(small_char.rest), tiny_params)
    tgt = encode_character(char_context(small_char.rest), tiny_params)
    posed_norm = src.ctx.normalize(posed.vertices)
    fwd = transfer_pose_graph(encode_source_frame(posed_norm, src, tiny_params), tgt,
                              tiny_params)
    out = loss_cycle(tiny_params, fwd, w_pseudo=0.3)
    # rebuild both terms from the graphs the loss returns
    cyc = np.abs(out.backward.deformed.data - posed_norm).mean()
    pseudo = np.abs(out.forward.deformed.data - out.pseudo_target).mean()
    assert abs(out.cycle_term.item() - cyc) < 1e-9
    assert abs(out.pseudo_term.item() - pseudo) < 1e-9
    assert abs(out.total.item() - (cyc + 0.3 * pseudo)) < 1e-9
    assert out.total.item() >= 0.0


def test_loss_cycle_pseudo_disabled(small_char, tiny_params):
    rng = np.random.default_rng(5)
    pose = sample_pose(small_char.n_joints, rng)
    posed = pose_character(small_char, pose)
    src = encode_character(char_context(small_char.rest), tiny_params)
    posed_norm = src.ctx.normalize(posed.vertices)
    fwd = transfer_pose_graph(encode_source_frame(posed_norm, src, tiny_params), src,
                              tiny_params)
    out = loss_cycle(tiny_params, fwd, w_pseudo=0.0)
    assert out.pseudo_term.item() == 0.0
    assert out.pseudo_target.size == 0  # not computed
    assert abs(out.total.item() - out.cycle_term.item()) < 1e-12


def test_loss_cycle_backward_reuses_forward_skinnings(small_char, tiny_params):
    rng = np.random.default_rng(6)
    pose = sample_pose(small_char.n_joints, rng)
    posed = pose_character(small_char, pose)
    src = encode_character(char_context(small_char.rest), tiny_params)
    tgt = encode_character(char_context(small_char.rest), tiny_params)
    frame = encode_source_frame(src.ctx.normalize(posed.vertices), src, tiny_params)
    out = loss_cycle(tiny_params, transfer_pose_graph(frame, tgt, tiny_params), w_pseudo=0.3)
    assert out.forward.frame.source is out.backward.target is src
    assert out.forward.target is out.backward.frame.source is tgt


# ---- total objective ---------------------------------------------------

def test_total_loss_weighted_sum():
    comps = {"rec": ad.Tensor(2.0), "trans": ad.Tensor(3.0),
             "skin": ad.Tensor(1.0), "edge": ad.Tensor(4.0)}
    w = {"rec": 1.0, "trans": 0.5, "cyc": 1.0, "skin": 0.1, "edge": 0.25}
    assert abs(total_loss(comps, w).item() - (2.0 + 1.5 + 0.1 + 1.0)) < 1e-12


def test_total_loss_missing_components_count_as_zero():
    comps = {"cyc": ad.Tensor(5.0)}
    w = {"rec": 1.0, "trans": 1.0, "cyc": 0.5, "skin": 0.1, "edge": 0.5}
    assert total_loss(comps, w).item() == 2.5


def test_total_loss_halved_weight_halves_term():
    comps = {"rec": ad.Tensor(4.0)}
    full = total_loss(comps, {"rec": 1.0}).item()
    half = total_loss(comps, {"rec": 0.5}).item()
    assert abs(half - 0.5 * full) < 1e-12
