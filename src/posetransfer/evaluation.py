"""Quantitative evaluation: point-wise mesh distance and the cross-
character semantic-consistency protocol for deformation parts."""
from __future__ import annotations

import colorsys
import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, mesh_height
from .networks import encode_source_frame, transfer_pose_graphs


def pmd(pred, gt) -> float:
    """Point-wise mesh Euclidean distance.

    Mean per-vertex distance between index-corresponded meshes, each
    scaled to unit height first, reported x 100 (dimensionless).  No
    centering is applied, so global offsets count.
    """
    pred = pred.vertices if isinstance(pred, Mesh) else np.asarray(pred)
    gt = gt.vertices if isinstance(gt, Mesh) else np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"vertex shape mismatch: {pred.shape} vs {gt.shape}")
    a = pred / mesh_height(pred)
    b = gt / mesh_height(gt)
    return float(np.linalg.norm(a - b, axis=1).mean() * 100.0)


def cross_pmd(chars: list, encodings: list, params):
    """Yield the PMD of every ordered (source, target, pose) triple of
    ``chars`` with source != target, in that order: the source's pose p
    transferred onto the target's rest, against the target's own pose p.

    ``encodings[i]`` is ``chars[i]``'s ``CharEncoding`` under ``params``.
    Each posed source is encoded once, and all of one source's frames are
    decoded onto all its targets in one pass.
    """
    for si, (src, enc) in enumerate(zip(chars, encodings)):
        others = [ti for ti in range(len(chars)) if ti != si]
        frames = [encode_source_frame(enc.ctx.normalize(posed.vertices), enc, params)
                  for _, posed in src.poses]
        graphs = transfer_pose_graphs(frames, [encodings[ti] for ti in others], params)
        for t, ti in enumerate(others):
            for p, row in enumerate(graphs):
                yield pmd(encodings[ti].ctx.denormalize(row[t].deformed.data),
                          chars[ti].poses[p][1].vertices)


@dataclass(frozen=True)
class ConsistencyReport:
    """Semantic-consistency scores between predicted and ground-truth parts.

    For each part on the "from" side, the correlated part on the "to"
    side is the one with the most overlapping vertices per character;
    the part's score is the fraction of characters agreeing on the modal
    correlated label, and the final score averages over non-empty parts.
    """

    pred_to_gt: float
    gt_to_pred: float
    pred_part_table: dict  # pred part -> (modal gt label, score)
    gt_part_table: dict  # gt label -> (modal pred part, score)


def _directional_score(from_labels: list, to_labels: list):
    correlations: dict = {}
    for fl, tl in zip(from_labels, to_labels):
        fl = np.asarray(fl)
        tl = np.asarray(tl)
        if fl.shape != tl.shape:
            raise ValueError("label arrays must align per vertex")
        for part in np.unique(fl):
            mask = fl == part
            counts = Counter(tl[mask].tolist())
            top = max(counts.values())
            # deterministic tie-break: smallest label among the maxima
            modal = min(lbl for lbl, c in counts.items() if c == top)
            correlations.setdefault(part, []).append(modal)
    table = {}
    for part, modals in correlations.items():
        counts = Counter(modals)
        top = max(counts.values())
        modal = min(lbl for lbl, c in counts.items() if c == top)
        table[part] = (modal, top / len(modals))
    score = float(np.mean([s for _, s in table.values()])) if table else 0.0
    return score, table


def consistency_scores(pred_labels: list, gt_labels: list) -> ConsistencyReport:
    """Evaluate part consistency over a set of characters.

    ``pred_labels[c]`` and ``gt_labels[c]`` are per-vertex label arrays
    for character c; predicted labels are part indices, ground-truth
    labels are the generator's canonical part names (comparable across
    characters).
    """
    if len(pred_labels) != len(gt_labels) or not pred_labels:
        raise ValueError("need matching, non-empty label lists")
    p2g, p_table = _directional_score(pred_labels, gt_labels)
    g2p, g_table = _directional_score(gt_labels, pred_labels)
    return ConsistencyReport(pred_to_gt=p2g, gt_to_pred=g2p,
                             pred_part_table=p_table, gt_part_table=g_table)


def write_report(path, rows) -> None:
    """CSV report: one (metric, split, value) row per entry."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "split", "value"])
        for metric, split, value in rows:
            writer.writerow([metric, split, f"{value:.6g}"])


def part_palette(n: int) -> np.ndarray:
    """n visually-distinct RGB colors (golden-ratio hue walk)."""
    colors = []
    for i in range(n):
        h = (i * 0.61803398875) % 1.0
        colors.append(colorsys.hsv_to_rgb(h, 0.65, 0.95))
    return np.array(colors)


def save_part_colored_obj(mesh: Mesh, labels: np.ndarray, path) -> None:
    """OBJ export with one per-vertex color extension line per vertex."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != mesh.n_vertices:
        raise ValueError("one label per vertex required")
    palette = part_palette(int(labels.max()) + 1)
    with open(path, "w") as fh:
        for (x, y, z), (r, g, b) in zip(mesh.vertices, palette[labels]):
            fh.write(f"v {x:.9g} {y:.9g} {z:.9g} {r:.4f} {g:.4f} {b:.4f}\n")
        for i, j, k in mesh.faces + 1:
            fh.write(f"f {i} {j} {k}\n")
