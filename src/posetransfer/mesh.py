"""Triangle mesh container, OBJ I/O, and differentiable per-vertex features.

The mesh is the common currency of the whole pipeline: the articulation
model deforms it, the networks consume its vertex features and graph
operator, and the losses compare vertex positions and edge lengths.
Meshes may be non-manifold and multi-component; no repair is attempted.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad


class MeshError(ValueError):
    """Invalid mesh data (bad indices, degenerate topology, ...)."""


class ObjParseError(MeshError):
    """OBJ file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh: (N, 3) float vertices, (M, 3) int faces."""

    vertices: np.ndarray
    faces: np.ndarray
    name: str = ""

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.faces, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError(f"vertices must be (N, 3), got {v.shape}")
        if f.ndim != 2 or f.shape[1] != 3:
            raise MeshError(f"faces must be (M, 3), got {f.shape}")
        if v.shape[0] < 3:
            raise MeshError(f"need at least 3 vertices, got {v.shape[0]}")
        if f.shape[0] < 1:
            raise MeshError("need at least 1 face")
        if f.min() < 0 or f.max() >= v.shape[0]:
            raise MeshError(
                f"face index out of range [0, {v.shape[0]}): "
                f"min {f.min()}, max {f.max()}"
            )
        if ((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])).any():
            raise MeshError("face references the same vertex twice")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def with_vertices(self, vertices: np.ndarray) -> "Mesh":
        """Same connectivity, new vertex positions."""
        return Mesh(vertices=vertices, faces=self.faces, name=self.name)


@dataclass(frozen=True)
class GraphOperator:
    """Row-normalized adjacency-with-self-loop and the undirected edge list."""

    matrix: sp.csr_matrix
    edges: np.ndarray  # (E, 2) with edges[:, 0] < edges[:, 1]

    @cached_property
    def transpose(self) -> sp.csr_matrix:
        """``matrix``'s transpose as CSR, built on first use: only backward
        passes read it."""
        return self.matrix.T.tocsr()


def load_obj(path) -> Mesh:
    """Read a Wavefront OBJ file.

    Supported: ``v x y z`` with finite coordinates, ``f i j k ...``
    (polygons fan-triangulated, ``/``-attributes ignored, negative indices
    resolved relative to the vertices seen so far).  ``vn`` and everything
    else is skipped; normals are always recomputed.

    Lines are split once and collected; coordinates and indices are then
    converted and checked in bulk.  Bytes that are not UTF-8 raise for
    their line; other errors for the first bad line (``_first_bad_line``).
    """
    coords: list[str] = []  # 3 tokens per vertex line
    v_lines: list[int] = []
    heads: list[str] = []  # index tokens of every face line
    f_lines: list[int] = []
    f_sizes: list[int] = []
    f_seen: list[int] = []  # vertices seen before each face line
    shape_error = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                tokens = raw.split()
                if not tokens or tokens[0].startswith("#"):
                    continue
                tag = tokens[0]
                if tag == "v":
                    if len(tokens) < 4:
                        shape_error = ObjParseError("vertex needs 3 coordinates", lineno)
                        break
                    coords += tokens[1:4]
                    v_lines.append(lineno)
                elif tag == "f":
                    if len(tokens) < 4:
                        shape_error = ObjParseError("face needs at least 3 indices", lineno)
                        break
                    heads += [t.split("/")[0] for t in tokens[1:]] if "/" in raw else tokens[1:]
                    f_lines.append(lineno)
                    f_sizes.append(len(tokens) - 1)
                    f_seen.append(len(v_lines))
                # anything else (vn, vt, o, g, s, mtllib, ...) is ignored
    except UnicodeDecodeError as exc:  # exc.object is the chunk of the file that failed
        with open(path, "rb") as fh:
            data = fh.read()
        line = data.count(b"\n", 0, data.find(exc.object) + exc.start) + 1
        raise ObjParseError(f"not UTF-8 text ({exc.reason})", line) from None
    try:
        vertices = np.array(coords, dtype=np.float64).reshape(-1, 3)
        coords_ok = bool(np.isfinite(vertices).all())
    except ValueError:
        coords_ok = False
    sizes = np.array(f_sizes, dtype=np.int64)
    seen = np.repeat(np.array(f_seen, dtype=np.int64), sizes)
    try:
        given = np.array(heads, dtype=np.int64)
        idx = np.where(given > 0, given - 1, seen + given)
        faces_ok = bool(((idx >= 0) & (idx < seen)).all())  # index 0 lands on seen
    except (ValueError, OverflowError):
        faces_ok = False
    if not coords_ok or not faces_ok or shape_error is not None:
        raise _first_bad_line(coords, v_lines, heads, f_lines, f_sizes, f_seen,
                              shape_error)
    if len(v_lines) < 3:
        raise MeshError(f"{path}: fewer than 3 vertices")
    if not f_lines:
        raise MeshError(f"{path}: no faces")
    # fan-triangulate: polygon p with corners c_0..c_{n-1} gives (c_0, c_j, c_{j+1})
    first = np.cumsum(sizes) - sizes
    per_poly = sizes - 2
    poly = np.repeat(np.arange(len(sizes)), per_poly)
    j = np.arange(poly.size) - np.repeat(np.cumsum(per_poly) - per_poly, per_poly) + 1
    corners = np.stack([first[poly], first[poly] + j, first[poly] + j + 1], axis=1)
    return Mesh(vertices=vertices, faces=idx[corners])


def _first_bad_line(coords, v_lines, heads, f_lines, f_sizes, f_seen,
                    shape_error) -> ObjParseError:
    """The error of the earliest bad line that ``load_obj`` collected,
    or ``shape_error`` (the line that stopped collection) if none is."""
    errors = [shape_error] if shape_error is not None else []
    for i, lineno in enumerate(v_lines):
        message = _vertex_error(coords[3 * i:3 * i + 3])
        if message is not None:
            errors.append(ObjParseError(message, lineno))
            break
    offsets = np.cumsum([0] + f_sizes)
    for lineno, start, stop, n_seen in zip(f_lines, offsets[:-1], offsets[1:], f_seen):
        message = _face_error(heads[start:stop], n_seen)
        if message is not None:
            errors.append(ObjParseError(message, lineno))
            break
    return min(errors, key=lambda e: e.line)


def _vertex_error(tokens):
    for t in tokens:
        try:
            x = float(t)
        except ValueError as exc:
            return f"bad vertex coordinate: {exc}"
        if not np.isfinite(x):
            return f"non-finite vertex coordinate {t!r}"
    return None


def _face_error(poly_heads, n_seen: int):
    for head in poly_heads:
        try:
            idx = int(head)
        except ValueError:
            return f"bad face index {head!r}"
        if idx == 0:
            return "OBJ indices are 1-based; 0 invalid"
        idx = idx - 1 if idx > 0 else n_seen + idx
        if not 0 <= idx < n_seen:
            return f"face index {head} out of range (have {n_seen} vertices)"
    return None


def save_obj(mesh: Mesh, path) -> None:
    """Write a Mesh as OBJ.  Coordinates keep 9 significant digits so a
    round-trip reproduces vertices well below the 1e-6 contract."""
    v, f = mesh.vertices, mesh.faces + 1
    with open(path, "w") as fh:
        if mesh.name:
            fh.write(f"o {mesh.name}\n")
        fh.write(("v %.9g %.9g %.9g\n" * len(v)) % tuple(v.ravel().tolist()))
        fh.write(("f %d %d %d\n" * len(f)) % tuple(f.ravel().tolist()))


def vertex_features(faces: np.ndarray, vertices) -> ad.Tensor:
    """(N, 6) features: columns 0-2 position, columns 3-5 the area-weighted
    average of incident face normals, unit length.

    ``vertices`` is an (N, 3) array or a live tensor (the cycle pass feeds
    the predicted target back in); the result is differentiable in it.
    Corners are accumulated in ``faces.T.ravel()`` order and rows are
    divided by their exact norm, so the values equal the plain NumPy
    ``acc / |acc|`` bit for bit.  Vertices with no incident non-degenerate
    face get the zero normal.
    """
    v = ad.as_tensor(vertices)
    v0, v1, v2 = (ad.rows(v, faces[:, c]) for c in range(3))
    fn = ad.cross_rows(v1 - v0, v2 - v0)  # length is twice the face area
    acc = ad.scatter_rows(ad.concat([fn, fn, fn], axis=0), faces.T.ravel(), v.shape[0])
    sq = ad.sum_(acc * acc, axis=1, keepdims=True)
    normals = acc / ad.sqrt(sq + ad.constant(sq.data == 0.0))
    return ad.concat([v, normals], axis=1)


def edge_set(mesh: Mesh) -> np.ndarray:
    """Undirected unique edges (i < j) from all face sides, sorted."""
    f = mesh.faces
    pairs = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [0, 2]]])
    pairs = np.sort(pairs, axis=1)
    n = mesh.n_vertices
    keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
    return np.stack([keys // n, keys % n], axis=1)


def graph_operator(mesh: Mesh) -> GraphOperator:
    """A = D^-1 (Adj + I): row-normalized one-ring averaging with self-loop.

    Built as CSR straight from the edge list.  Each row lists its columns
    in descending order, the order the sparse product ``D^-1 @ (Adj + I)``
    left them in, so every ``A h`` sums its terms in that order.
    """
    n = mesh.n_vertices
    edges = edge_set(mesh)
    i = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    j = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    order = np.lexsort((-j, i))
    degree = np.bincount(i, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    matrix = sp.csr_matrix(((1.0 / degree)[i[order]], j[order], indptr), shape=(n, n))
    return GraphOperator(matrix=matrix, edges=edges)


def mesh_height(vertices: np.ndarray) -> float:
    """Vertical (y) extent; falls back to the largest extent for flat data."""
    ext = np.ptp(vertices, axis=0)
    h = float(ext[1])
    if h < 1e-12:
        h = float(ext.max())
    if h < 1e-12:
        h = 1.0
    return h


def normalize_vertices(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Center at the centroid and scale to unit height.

    Returns (normalized vertices, center, scale); the inverse map is
    ``v * scale + center``.
    """
    center = vertices.mean(axis=0)
    scale = mesh_height(vertices)
    return (vertices - center) / scale, center, scale
