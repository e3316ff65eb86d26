"""Training objectives: reconstruction, transformation regression, cycle
consistency with a pseudo-ground-truth guard, contrastive skinning, and
edge-length preservation.

All losses are means (not sums) so values are comparable across meshes
of different sizes, and all return scalar autodiff tensors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .articulation import hard_assignment, hard_part_transforms, part_centers
from .mesh import Mesh, edge_set
from .networks import (
    PoseTransferParams,
    TransferGraph,
    _renormalized,
    encode_source_frame,
    lbs_tensor,
    transfer_pose_graph,
)


def _mean_l1(a, b) -> ad.Tensor:
    return ad.mean(ad.abs_(ad.as_tensor(a) - ad.as_tensor(b)))


def loss_rec(pred, gt) -> ad.Tensor:
    """Per-vertex L1 between predicted and ground-truth vertex positions."""
    pred = pred.vertices if isinstance(pred, Mesh) else pred
    gt = gt.vertices if isinstance(gt, Mesh) else gt
    pred_t = ad.as_tensor(pred)
    gt_arr = gt.data if isinstance(gt, ad.Tensor) else np.asarray(gt)
    if pred_t.shape != gt_arr.shape:
        raise ValueError(f"vertex count mismatch: {pred_t.shape} vs {gt_arr.shape}")
    return _mean_l1(pred_t, ad.constant(gt_arr))


def transform_truth(rest: Mesh, gt_posed: Mesh, w: np.ndarray,
                    centers: np.ndarray | None = None) -> list:
    """Analytic ground truth of the part transforms from ``rest`` to
    ``gt_posed``, one 12-value row per part: unweighted Kabsch on
    argmax-assigned vertex groups of ``w``, about the (K, 3) ``centers``
    (by default the renormalized ``w``'s).  Parts with fewer than
    ``MIN_HARD_VERTICES`` assigned vertices are None.
    """
    w = _renormalized(np.asarray(w, dtype=np.float64))
    if centers is None:
        centers = part_centers(rest, w)
    return hard_part_transforms(rest, gt_posed, hard_assignment(w), centers)


def loss_trans(pred_flat, truth: list) -> ad.Tensor:
    """L1 between predicted part transforms and their analytic ground truth.

    ``pred_flat`` is the (K, 12) flattened transform tensor and ``truth``
    the per-part list of ``transform_truth``; skipped parts do not count.
    """
    pred_flat = ad.as_tensor(pred_flat)
    keep = [k for k, row in enumerate(truth) if row is not None]
    if not keep:
        return ad.Tensor(0.0)
    gt_rows = ad.constant(np.stack([truth[k] for k in keep]))
    return _mean_l1(ad.rows(pred_flat, np.array(keep)), gt_rows)


def loss_edge(pred, target_rest: Mesh, edges: np.ndarray | None = None) -> ad.Tensor:
    """Mean absolute change of edge lengths against the rest target."""
    pred_v = ad.as_tensor(pred.vertices if isinstance(pred, Mesh) else pred)
    if edges is None:
        edges = edge_set(target_rest)
    if pred_v.shape[0] != target_rest.n_vertices:
        raise ValueError("predicted vertices do not match target mesh")
    rest_len = np.linalg.norm(
        target_rest.vertices[edges[:, 0]] - target_rest.vertices[edges[:, 1]], axis=1)
    d = ad.rows(pred_v, edges[:, 0]) - ad.rows(pred_v, edges[:, 1])
    pred_len = ad.norm_rows(d, 1e-18)
    return ad.mean(ad.abs_(pred_len - ad.constant(rest_len[:, None])))


def skin_loss_pairs(gt_skinning: np.ndarray, n_pairs: int,
                    rng: np.random.Generator, threshold: float = 0.9):
    """Sample contrastive vertex pairs from confidently-skinned vertices.

    Returns (i, j, sign) index arrays; empty when fewer than 2 vertices
    exceed the ground-truth confidence threshold.
    """
    gt = np.asarray(gt_skinning, dtype=np.float64)
    confident = np.flatnonzero(gt.max(axis=1) > threshold)
    if confident.size < 2:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0)
    gt_labels = gt.argmax(axis=1)
    i = rng.choice(confident, size=n_pairs)
    j = rng.choice(confident, size=n_pairs)
    sign = np.where(gt_labels[i] == gt_labels[j], 1.0, -1.0)
    return i, j, sign


def loss_skin(w_pred, gt_skinning: np.ndarray, n_pairs: int = 256,
              rng_seed: int = 0, clamp: float = 5.0) -> ad.Tensor:
    """Contrastive KL divergence between predicted skinning rows.

    Vertices whose ground-truth row is confident (max weight > 0.9) form
    the candidate pool; same-part pairs are pulled together (KL >= 0)
    and different-part pairs pushed apart (negated KL, clamped at
    ``-clamp`` per pair to keep the objective bounded).
    """
    w_pred = ad.as_tensor(w_pred)
    rng = np.random.default_rng(rng_seed)
    i, j, sign = skin_loss_pairs(gt_skinning, n_pairs, rng)
    if i.size == 0:
        return ad.Tensor(0.0)
    wi = ad.clip(ad.rows(w_pred, i), 1e-8, 1.0)
    wj = ad.clip(ad.rows(w_pred, j), 1e-8, 1.0)
    kl = ad.sum_(wi * (ad.log(wi) - ad.log(wj)), axis=1, keepdims=True)
    signed = ad.constant(sign[:, None]) * kl
    return ad.mean(ad.clip(signed, -clamp, np.inf))


@dataclass
class CycleResult:
    total: ad.Tensor
    cycle_term: ad.Tensor
    pseudo_term: ad.Tensor
    forward: TransferGraph
    backward: TransferGraph
    pseudo_target: np.ndarray


def loss_cycle(params: PoseTransferParams, fwd: TransferGraph, w_pseudo: float,
               t_backward=None) -> CycleResult:
    """Source -> target -> source round trip of the forward transfer
    ``fwd``, plus pseudo-ground truth weighted by ``w_pseudo``.

    All geometry lives in the normalized per-character frames.  The
    backward pass runs between the same two encodings, from a frame of
    the live predicted target; its analytic transforms are recomputed
    from the (detached) prediction and enter the graph as constants
    unless ``t_backward`` pins them (gradient checking does, so both
    stop-gradients stay fixed).  At ``w_pseudo = 0`` the pseudo term is
    not computed and reads 0.
    """
    frame, target = fwd.frame, fwd.target
    bwd = transfer_pose_graph(
        encode_source_frame(fwd.deformed, target, params, t_backward), frame.source, params)
    cycle_term = loss_rec(bwd.deformed, ad.constant(frame.posed.data))

    pseudo = np.zeros(0)
    pseudo_term = ad.Tensor(0.0)
    total = cycle_term
    if w_pseudo:
        k = frame.t_stack.shape[0]
        pseudo = lbs_tensor(target.ctx.norm_vertices, ad.constant(target.w.data),
                            ad.constant(frame.t_stack[:, :9].reshape(k, 3, 3)),
                            ad.constant(frame.t_stack[:, 9:]),
                            ad.constant(target.centers.data)).data
        pseudo_term = loss_rec(fwd.deformed, ad.constant(pseudo))
        total = cycle_term + w_pseudo * pseudo_term
    return CycleResult(total=total, cycle_term=cycle_term, pseudo_term=pseudo_term,
                       forward=fwd, backward=bwd, pseudo_target=pseudo)


def total_loss(components: dict, weights: dict) -> ad.Tensor:
    """Weighted sum of whatever components the batch supplies, in the
    order of ``weights`` (term name -> weight).

    Paired batches carry rec + trans, unpaired batches carry cyc; skin
    and edge apply in both when present.  Missing components count as 0.
    """
    out = ad.Tensor(0.0)
    for name, lam in weights.items():
        term = components.get(name)
        if term is not None:
            out = out + lam * ad.as_tensor(term)
    return out
