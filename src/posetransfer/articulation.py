"""Character articulation: deformation parts, part centers, LBS, and
analytic per-part rigid registration.

A character is articulated by K soft vertex groups ("deformation parts"),
each moved by its own rigid transform about the part's weighted center.
There is no kinematic chain; parts are independent.  The convention for a
transform is ``T(x) = R x + t`` applied to the center-relative offset, so
the pose-neutral transform of part k is ``(I, C_k)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

#: Parts whose total skinning coverage falls below this are degenerate:
#: they get zero centers and rest-preserving transforms and are excluded
#: from fitting and losses.
COVERAGE_EPS = 1e-8
#: Argmax vertex groups smaller than this get no hard part transform.
MIN_HARD_VERTICES = 3

_EYE3 = np.eye(3)


class ArticulationError(ValueError):
    """Dimension mismatch or invalid skinning data."""


def validate_skinning(w: np.ndarray, n_vertices: int | None = None, tol: float = 1e-6) -> np.ndarray:
    """Check the partition-of-unity contract on an (N, K) weight matrix."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ArticulationError(f"skinning weights must be 2-D, got shape {w.shape}")
    if n_vertices is not None and w.shape[0] != n_vertices:
        raise ArticulationError(
            f"skinning rows ({w.shape[0]}) do not match vertex count ({n_vertices})"
        )
    if w.min() < -tol or w.max() > 1.0 + tol:
        raise ArticulationError("skinning weights outside [0, 1]")
    sums = w.sum(axis=1)
    if np.abs(sums - 1.0).max() > tol:
        raise ArticulationError("skinning rows do not sum to 1")
    return w


def _check_rotations(r: np.ndarray) -> None:
    """Raise unless every rotation in the (..., 3, 3) stack is proper."""
    if np.abs(np.swapaxes(r, -1, -2) @ r - _EYE3).max() > 1e-6:
        raise ArticulationError("rotation is not orthonormal")
    if np.abs(np.linalg.det(r) - 1.0).max() > 1e-6:
        raise ArticulationError("rotation determinant is not +1")


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion: orthonormal rotation (det +1) plus translation.

    Only the NumPy LBS oracle ``lbs_deform`` takes these; everywhere else
    a part transform is a 12-value row (row-major rotation, then
    translation).
    """

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = np.ascontiguousarray(np.asarray(self.rotation, dtype=np.float64))
        t = np.ascontiguousarray(np.asarray(self.translation, dtype=np.float64)).reshape(3)
        if r.shape != (3, 3):
            raise ArticulationError(f"rotation must be 3x3, got {r.shape}")
        _check_rotations(r)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points: np.ndarray, center: np.ndarray) -> np.ndarray:
        """R (p - C) + t for each point p."""
        return (points - center) @ self.rotation.T + self.translation


def part_centers(rest: Mesh, w: np.ndarray) -> np.ndarray:
    """(K, 3) skinning-weighted mean vertex position per part.

    Degenerate parts (coverage below COVERAGE_EPS) get the zero center.
    """
    w = validate_skinning(w, rest.n_vertices)
    coverage = w.sum(axis=0)
    centers = np.zeros((w.shape[1], 3))
    ok = coverage >= COVERAGE_EPS
    centers[ok] = (w.T[ok] @ rest.vertices) / coverage[ok, None]
    return centers


def lbs_deform(rest: Mesh, w: np.ndarray, transforms: list[RigidTransform],
               centers: np.ndarray | None = None) -> Mesh:
    """Linear blend skinning: V_i = sum_k w_ik [R_k (Vbar_i - C_k) + t_k]."""
    w = validate_skinning(w, rest.n_vertices)
    if len(transforms) != w.shape[1]:
        raise ArticulationError(
            f"{len(transforms)} transforms for {w.shape[1]} parts"
        )
    if centers is None:
        centers = part_centers(rest, w)
    out = np.zeros_like(rest.vertices)
    for k, tf in enumerate(transforms):
        out += w[:, k, None] * tf.apply(rest.vertices, centers[k])
    return rest.with_vertices(out)


def hard_assignment(w: np.ndarray) -> np.ndarray:
    """Per-vertex part label: smallest index attaining the row maximum."""
    w = validate_skinning(w)
    return np.argmax(w, axis=1)


def _kabsch(rest_pts: np.ndarray, posed_pts: np.ndarray, weights: np.ndarray,
            centers: np.ndarray, fit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least-squares rigid fits min sum_i w_ki ||R_k (p_i - C_k) + t_k - q_i||^2
    for the parts flagged in ``fit``; (I, C_k) for the others.

    ``weights`` is (K, N) with positive sums on the fitted rows and
    ``centers`` (K, 3); returns the (K, 3, 3) rotations and (K, 3)
    translations.  Centred weighted cross-covariance + SVD with
    det-correction.  Rank-deficient point sets fall through the SVD
    naturally: fully ambiguous axes come out as identity.
    """
    r = np.tile(np.eye(3), (centers.shape[0], 1, 1))
    t = centers.copy()
    if not fit.any():
        return r, t
    w = weights[fit]
    wsum = w.sum(axis=1, keepdims=True)
    mu_rest = w @ rest_pts / wsum
    mu_posed = w @ posed_pts / wsum
    weighted = w[:, :, None] * (posed_pts[None] - mu_posed[:, None])
    h = np.matmul(weighted.transpose(0, 2, 1), rest_pts[None] - mu_rest[:, None])
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(u @ vt))
    u[:, :, 2] *= np.where(d == 0.0, 1.0, d)[:, None]
    r[fit] = u @ vt
    t[fit] = mu_posed - np.einsum("kij,kj->ki", r[fit], mu_rest - centers[fit])
    return r, t


def _rows(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(K, 12) rows of checked rotations ``r`` and translations ``t``."""
    _check_rotations(r)
    return np.concatenate([r.reshape(-1, 9), t], axis=1)


def estimate_part_transforms(rest: Mesh, posed: Mesh, w: np.ndarray) -> np.ndarray:
    """Per-part weighted rigid registration between rest and posed vertices.

    Returns the (K, 12) rows of the K transforms, each the row-major
    rotation then the translation; every rotation is checked to be
    proper at once.  Degenerate parts get the rest-preserving transform
    (I, C_k).
    """
    w = validate_skinning(w, rest.n_vertices)
    if posed.n_vertices != rest.n_vertices:
        raise ArticulationError("rest and posed vertex counts differ")
    # a NaN coverage is fitted, so that the SVD reports it
    fit = ~(w.sum(axis=0) < COVERAGE_EPS)
    return _rows(*_kabsch(rest.vertices, posed.vertices, w.T, part_centers(rest, w), fit))


def hard_part_transforms(rest: Mesh, posed: Mesh, labels: np.ndarray,
                         centers: np.ndarray) -> list[np.ndarray | None]:
    """Unweighted per-part Kabsch on argmax-assigned vertex groups, about
    the (K, 3) ``centers``: one 12-value row per part.

    Parts with fewer than ``MIN_HARD_VERTICES`` assigned vertices yield
    None; the transform-regression loss skips them.
    """
    members = (labels[None, :] == np.arange(len(centers))[:, None]).astype(np.float64)
    kept = members.sum(axis=1) >= MIN_HARD_VERTICES
    rows = _rows(*_kabsch(rest.vertices, posed.vertices, members, centers, kept))
    return [row if keep else None for row, keep in zip(rows, kept)]


def save_skinning(w: np.ndarray, path) -> None:
    """Text format: line 1 ``N K``; then N lines of K floats."""
    w = validate_skinning(w)
    n, k = w.shape
    row = " ".join(["%.10g"] * k) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{n} {k}\n")
        fh.write((row * n) % tuple(w.ravel().tolist()))


def load_skinning(path) -> np.ndarray:
    with open(path, "r") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ArticulationError(f"{path}: bad skinning header")
        n, k = int(header[0]), int(header[1])
        w = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if w.shape != (n, k):
        raise ArticulationError(f"{path}: expected {(n, k)} weights, got {w.shape}")
    if not np.isfinite(w).all():
        raise ArticulationError(f"{path}: non-finite skinning weight")
    return validate_skinning(w)


def save_transforms(rows: np.ndarray, path) -> None:
    """Text format: K lines of 12 floats (row-major rotation, translation)."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 12)
    line = " ".join(["%.17g"] * 12) + "\n"
    with open(path, "w") as fh:
        fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))
