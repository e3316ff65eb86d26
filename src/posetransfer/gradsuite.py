"""Finite-difference verification suite for the reverse-mode engine.

Covers every primitive op, the network building blocks, the loss
terms, and the training objective end to end.  Each entry checks the
analytic gradient of a scalar function against central differences; the
pipeline entries subsample coordinates to stay fast.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .losses import loss_edge, loss_rec, loss_skin, loss_trans, total_loss, transform_truth
from .mesh import edge_set, graph_operator, vertex_features
from .networks import (
    PipelineConfig,
    attend,
    centers_tensor,
    char_context,
    encode,
    encode_character,
    encode_source_frame,
    init_params,
    lbs_tensor,
    predict_skinning,
    rotations_from_6d,
    source_transforms,
    transfer_pose_graph,
)
from .synth import CharacterSpec, generate_character, pose_character, sample_pose
from .train import TrainConfig, loss_components, trans_truth

#: Tolerance for the element-wise / linear-algebra op checks.
OP_TOL = 1e-4
#: Tolerance for the assembled pipeline (longer chains, more rounding).
PIPELINE_TOL = 1e-3
#: Coordinates each pipeline check samples (each costs two full objectives).
PIPELINE_COORDS = 24


def _t(rng, shape, lo=-1.0, hi=1.0) -> ad.Tensor:
    return ad.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _away_from_zero(rng, shape, margin=0.2) -> ad.Tensor:
    """Random values with |x| >= margin, keeping kinks out of FD reach."""
    x = rng.uniform(margin, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    return ad.Tensor(x, requires_grad=True)


def _op_checks(seed: int):
    rng = np.random.default_rng(seed)
    checks = []

    x = _t(rng, (4, 5))
    a = rng.uniform(0.5, 1.5, size=(4, 5))
    checks.append(("arith/add-sub-mul-div", x,
                   lambda t: ad.mean(t * ad.constant(a) + t - t / ad.constant(a))))

    x = _away_from_zero(rng, (6, 3))
    checks.append(("abs", x, lambda t: ad.mean(ad.abs_(t))))

    x = _away_from_zero(rng, (6, 3))
    checks.append(("leaky-relu", x,
                   lambda t: ad.mean(ad.leaky_relu(t, alpha=0.2))))

    x = _t(rng, (3, 4), lo=0.3, hi=2.0)
    checks.append(("log-sqrt", x,
                   lambda t: ad.mean(ad.log(t) + ad.sqrt(t))))

    x = _t(rng, (5, 2), lo=-0.4, hi=0.4)
    checks.append(("clip-interior", x,
                   lambda t: ad.mean(ad.clip(t, -1.0, 1.0) * ad.clip(t, -1.0, 1.0))))

    lhs = _t(rng, (4, 6))
    rhs_c = rng.normal(size=(6, 3))
    checks.append(("matmul/left", lhs,
                   lambda t: ad.mean(t @ ad.constant(rhs_c))))
    rhs = _t(rng, (6, 3))
    lhs_c = rng.normal(size=(4, 6))
    checks.append(("matmul/right", rhs,
                   lambda t: ad.mean(ad.constant(lhs_c) @ t)))

    spec = CharacterSpec(seed=seed, limb_count=2, segments_per_limb=1,
                         torso_segments=1, ring_verts=3, rings_per_segment=2)
    char = generate_character(spec)
    graph = graph_operator(char.rest)
    n = char.rest.n_vertices
    conv = [rng.normal(size=shape) for shape in ((n, 4), (4, 3), (4, 3), (3,))]
    conv_coeff = rng.normal(size=(n, 3))
    for i, name in enumerate(("h", "w-neigh", "w-self", "bias")):
        def conv_objective(t, i=i):
            args = [t if j == i else ad.constant(a) for j, a in enumerate(conv)]
            return ad.mean(ad.graph_conv(graph, *args, alpha=0.2)
                           * ad.constant(conv_coeff))
        checks.append((f"graph-conv/{name}", ad.Tensor(conv[i].copy(), requires_grad=True),
                       conv_objective))

    x = _t(rng, (3, 5))
    other = rng.normal(size=(3, 5))
    checks.append(("transpose-reshape-concat", x,
                   lambda t, c=other: ad.mean(ad.concat(
                       [ad.transpose(t).reshape(3, 5), ad.constant(c)], axis=0))))

    x = _t(rng, (7, 3))
    idx = rng.integers(0, 7, size=9)
    checks.append(("rows-gather", x,
                   lambda t: ad.mean(ad.rows(t, idx) * ad.rows(t, idx))))
    y = _t(rng, (9, 3))
    checks.append(("rows-scatter", y,
                   lambda t: ad.mean(ad.scatter_rows(t, idx, 7)
                                     * ad.scatter_rows(t, idx, 7))))
    x = _t(rng, (4, 6))
    checks.append(("slice", x, lambda t: ad.mean(t[1:3, 2:5] * t[1:3, 2:5])))

    x = _t(rng, (5, 4))
    checks.append(("sum-mean-axes", x,
                   lambda t: ad.mean(ad.sum_(t, axis=0, keepdims=True)
                                     * ad.mean(t, axis=1, keepdims=True))))

    x = _away_from_zero(rng, (6, 3), margin=0.3)
    checks.append(("norm-rows", x,
                   lambda t: ad.mean(t / ad.norm_rows(t, 1e-12))))

    x = _t(rng, (5, 7))
    target = rng.dirichlet(np.ones(7), size=5)
    checks.append(("softmax-cross-entropy", x,
                   lambda t: -ad.mean(ad.constant(target)
                                      * ad.log(ad.clip(ad.softmax_rows(t), 1e-12, 1.0)))))

    x = _t(rng, (6, 3))
    other2 = rng.normal(size=(6, 3))
    checks.append(("cross-rows", x,
                   lambda t, c=other2: ad.mean(ad.cross_rows(t, ad.constant(c)) * t)))

    x = _t(rng, (4, 3, 2))
    batch_rhs = rng.normal(size=(4, 2, 5))
    checks.append(("einsum/left", x,
                   lambda t: ad.mean(ad.einsum("kij,kjl->kil", t, ad.constant(batch_rhs)))))
    x = _t(rng, (4, 2, 5))
    batch_lhs = rng.normal(size=(4, 3, 2))
    checks.append(("einsum/right", x,
                   lambda t: ad.mean(ad.einsum("kij,kjl->kil", ad.constant(batch_lhs), t))))

    return checks


def _network_checks(seed: int):
    rng = np.random.default_rng(seed + 1)
    config = PipelineConfig(k_parts=5, latent=6, skin_hidden=(7, 6),
                            enc_hidden=(7, 6), dec_hidden=(8,))
    params = init_params(config, seed=seed, zero_decoder_out=False)

    spec = CharacterSpec(seed=seed, limb_count=2, segments_per_limb=1,
                         torso_segments=1, ring_verts=3, rings_per_segment=2)
    char = generate_character(spec)
    ctx = char_context(char.rest)
    n = char.rest.n_vertices
    checks = []

    feats = ad.Tensor(ctx.features.copy(), requires_grad=True)
    coeff0 = rng.normal(size=(n, config.k_parts))
    checks.append(("net/skinning-wrt-features", feats,
                   lambda t, c=coeff0: ad.mean(
                       predict_skinning(t, ctx.graph, params)
                       * ad.constant(c))))

    w_conv = params["skin.conv0.w_neigh"]
    coeff = rng.normal(size=(n, config.k_parts))
    checks.append(("net/skinning-wrt-weights", w_conv,
                   lambda t: ad.mean(
                       predict_skinning(ctx.features, ctx.graph, params)
                       * ad.constant(coeff))))

    enc_w = params["enc.out.w"]
    w_fixed = rng.dirichlet(np.ones(config.k_parts), size=n)
    coeff2 = rng.normal(size=(config.k_parts, config.latent))
    checks.append(("net/encode-attend-wrt-weights", enc_w,
                   lambda t: ad.mean(attend(
                       ad.constant(w_fixed),
                       encode(ctx.features, ctx.graph, params),
                       params) * ad.constant(coeff2))))

    raw = _t(rng, (4, 6), lo=-0.5, hi=0.5)
    rot_coeff = rng.normal(size=(4, 3, 3))
    checks.append(("net/rotations-6d", raw,
                   lambda t: ad.sum_(rotations_from_6d(t) * ad.constant(rot_coeff))
                   * (1.0 / 12.0)))

    w_logits = _t(rng, (n, config.k_parts))
    verts = ctx.norm_vertices
    rot_fixed = np.tile(np.eye(3), (config.k_parts, 1, 1))
    rot_fixed[:4] = rotations_from_6d(
        ad.constant(rng.uniform(-0.4, 0.4, size=(4, 6)))).data
    rot_fixed = ad.constant(rot_fixed)
    trans_fixed = ad.constant(rng.normal(0, 0.2, size=(config.k_parts, 3)))

    def lbs_scalar(t):
        w = ad.softmax_rows(t)
        centers = centers_tensor(w, verts)
        return ad.mean(ad.abs_(lbs_tensor(verts, w, rot_fixed, trans_fixed, centers)))

    checks.append(("net/centers-lbs-wrt-skinning", w_logits, lbs_scalar))

    v = ad.Tensor(ctx.norm_vertices.copy(), requires_grad=True)
    coeff3 = rng.normal(size=(n, 6))
    checks.append(("net/vertex-features", v,
                   lambda t: ad.mean(vertex_features(char.rest.faces, t)
                                     * ad.constant(coeff3))))
    return checks


def _loss_checks(seed: int):
    rng = np.random.default_rng(seed + 2)
    spec = CharacterSpec(seed=seed + 7, limb_count=2, segments_per_limb=1,
                         torso_segments=1, ring_verts=3, rings_per_segment=2)
    char = generate_character(spec)
    n = char.rest.n_vertices
    checks = []

    pred = ad.Tensor(char.rest.vertices + rng.normal(0, 0.05, size=(n, 3)),
                     requires_grad=True)
    gt = char.rest.vertices + rng.normal(0, 0.05, size=(n, 3))
    checks.append(("loss/reconstruction", pred, lambda t: loss_rec(t, gt)))

    pred2 = ad.Tensor(char.rest.vertices + rng.normal(0, 0.05, size=(n, 3)),
                      requires_grad=True)
    edges = edge_set(char.rest)
    checks.append(("loss/edge-length", pred2,
                   lambda t: loss_edge(t, char.rest, edges=edges)))

    k = char.gt_skinning.shape[1]
    logits = _t(rng, (n, k))
    checks.append(("loss/contrastive-skinning", logits,
                   lambda t: loss_skin(ad.softmax_rows(t), char.gt_skinning,
                                       n_pairs=64, rng_seed=seed)))

    posed = pose_character(
        char, sample_pose(char.n_joints, np.random.default_rng(seed + 3)))
    flat = ad.Tensor(rng.normal(0, 0.3, size=(k, 12)), requires_grad=True)
    truth = transform_truth(char.rest, posed, char.gt_skinning)
    checks.append(("loss/transform-regression", flat, lambda t: loss_trans(t, truth)))
    return checks


def _pipeline_checks(seed: int):
    """Training-objective gradients, one per parameter group: the total
    loss of a paired and of a cycle sample as ``train.loss_components``
    computes it under a small ``TrainConfig``.

    The objective's three stop-gradients (the source transforms, the
    cycle's backward transforms and the trans loss's ground truth) are
    computed once at the base point and pinned, so the finite-difference
    probe sees the same constants the backward pass implements.
    """
    config = TrainConfig(k_parts=5, latent=6, skin_hidden=(7, 6), enc_hidden=(7, 6),
                         dec_hidden=(8,), n_skin_pairs=64)
    params = init_params(config.pipeline_config(), seed=seed, zero_decoder_out=False)

    mesh_kw = dict(limb_count=2, segments_per_limb=1, torso_segments=1,
                   ring_verts=3, rings_per_segment=2)
    src_char = generate_character(CharacterSpec(seed=seed + 11, **mesh_kw))
    tgt_char = generate_character(CharacterSpec(seed=seed + 12, **mesh_kw))
    pose = sample_pose(src_char.n_joints, np.random.default_rng(seed + 13))
    src, tgt = char_context(src_char.rest), char_context(tgt_char.rest)
    posed_norm = src.normalize(pose_character(src_char, pose).vertices)
    gt_norm = tgt.normalize(pose_character(tgt_char, pose).vertices)

    src_enc, tgt_enc = encode_character(src, params), encode_character(tgt, params)
    t_source = source_transforms(src_enc, posed_norm)
    base = transfer_pose_graph(encode_source_frame(posed_norm, src_enc, params, t_source),
                               tgt_enc, params)
    t_backward = source_transforms(tgt_enc, base.deformed.data)
    t_truth = trans_truth(base, gt_norm)

    def objective(truth):
        # encodes afresh: each probe perturbs the params
        def f(_):
            src_enc, tgt_enc = encode_character(src, params), encode_character(tgt, params)
            frame = encode_source_frame(posed_norm, src_enc, params, t_source)
            skinned = [(src_enc, src_char.gt_skinning), (tgt_enc, tgt_char.gt_skinning)]
            components = loss_components(frame, tgt_enc, truth, skinned, params, config,
                                         seed, t_backward=t_backward, t_truth=t_truth)
            return total_loss(components, config.loss_weights())
        return f

    checks = []
    picks = {"skinning": "skin.conv0.w_neigh", "encoder": "enc.out.w",
             "decoder": "dec.fc0.w"}
    for group, name in picks.items():
        checks.append((f"pipeline/paired-wrt-{group}", params[name], objective(gt_norm)))
    checks.append(("pipeline/cycle-wrt-decoder", params["dec.fc1.w"], objective(None)))
    return checks


def run_gradient_suite(seed: int = 0):
    """Run every gradient check; returns [(name, GradcheckReport), ...]."""
    results = []
    rng = np.random.default_rng(seed + 99)
    for name, x, f in _op_checks(seed) + _network_checks(seed) + _loss_checks(seed):
        results.append((name, ad.gradcheck(f, x, tol=OP_TOL,
                                           max_coords=120, rng=rng)))
    for name, x, f in _pipeline_checks(seed):
        results.append((name, ad.gradcheck(f, x, tol=PIPELINE_TOL,
                                           max_coords=PIPELINE_COORDS, rng=rng)))
    return results
