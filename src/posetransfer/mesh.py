"""Triangle mesh container, OBJ I/O, and per-vertex geometric features.

The mesh is the common currency of the whole pipeline: the articulation
model deforms it, the networks consume its vertex features and graph
operator, and the losses compare vertex positions and edge lengths.
Meshes may be non-manifold and multi-component; no repair is attempted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


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

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def with_vertices(self, vertices: np.ndarray) -> "Mesh":
        """Same connectivity, new vertex positions."""
        return Mesh(vertices=vertices, faces=self.faces, name=self.name)


@dataclass(frozen=True)
class GraphOperator:
    """Row-normalized adjacency-with-self-loop and the undirected edge list."""

    matrix: sp.csr_matrix
    edges: np.ndarray  # (E, 2) with edges[:, 0] < edges[:, 1]


def load_obj(path) -> Mesh:
    """Read a Wavefront OBJ file.

    Supported: ``v x y z``, ``f i j k ...`` (polygons fan-triangulated,
    ``/``-attributes ignored, negative indices resolved relative to the
    vertices seen so far).  ``vn`` and everything else is skipped; normals
    are always recomputed.
    """
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            tag = tokens[0]
            if tag == "v":
                if len(tokens) < 4:
                    raise ObjParseError("vertex needs 3 coordinates", lineno)
                try:
                    vertices.append([float(t) for t in tokens[1:4]])
                except ValueError as exc:
                    raise ObjParseError(f"bad vertex coordinate: {exc}", lineno)
            elif tag == "f":
                if len(tokens) < 4:
                    raise ObjParseError("face needs at least 3 indices", lineno)
                poly = []
                for tok in tokens[1:]:
                    head = tok.split("/")[0]
                    try:
                        idx = int(head)
                    except ValueError:
                        raise ObjParseError(f"bad face index {head!r}", lineno)
                    if idx == 0:
                        raise ObjParseError("OBJ indices are 1-based; 0 invalid", lineno)
                    idx = idx - 1 if idx > 0 else len(vertices) + idx
                    if not 0 <= idx < len(vertices):
                        raise ObjParseError(
                            f"face index {head} out of range (have {len(vertices)} vertices)",
                            lineno,
                        )
                    poly.append(idx)
                for a, b in zip(poly[1:-1], poly[2:]):
                    faces.append([poly[0], a, b])
            # anything else (vn, vt, o, g, s, mtllib, ...) is ignored
    if len(vertices) < 3:
        raise MeshError(f"{path}: fewer than 3 vertices")
    if not faces:
        raise MeshError(f"{path}: no faces")
    return Mesh(vertices=np.array(vertices), faces=np.array(faces))


def save_obj(mesh: Mesh, path) -> None:
    """Write a Mesh as OBJ.  Coordinates keep 9 significant digits so a
    round-trip reproduces vertices well below the 1e-6 contract."""
    with open(path, "w") as fh:
        if mesh.name:
            fh.write(f"o {mesh.name}\n")
        for x, y, z in mesh.vertices:
            fh.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for i, j, k in mesh.faces + 1:
            fh.write(f"f {i} {j} {k}\n")


def face_normals(mesh: Mesh) -> np.ndarray:
    """Unnormalized face normals; length equals twice the face area."""
    v = mesh.vertices
    f = mesh.faces
    return np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])


def vertex_normals(mesh: Mesh) -> np.ndarray:
    """Area-weighted average of incident face normals, unit length.

    Vertices with no incident non-degenerate face get the zero vector.
    """
    fn = face_normals(mesh)
    acc = np.zeros_like(mesh.vertices)
    for c in range(3):
        np.add.at(acc, mesh.faces[:, c], fn)
    norms = np.linalg.norm(acc, axis=1)
    out = np.zeros_like(acc)
    nz = norms > 0.0
    out[nz] = acc[nz] / norms[nz, None]
    return out


def vertex_features(mesh: Mesh) -> np.ndarray:
    """(N, 6) features: columns 0-2 position, columns 3-5 unit normal."""
    return np.hstack([mesh.vertices, vertex_normals(mesh)])


def edge_set(mesh: Mesh) -> np.ndarray:
    """Undirected unique edges (i < j) from all face sides, sorted."""
    f = mesh.faces
    pairs = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [0, 2]]])
    pairs = np.sort(pairs, axis=1)
    return np.unique(pairs, axis=0)


def graph_operator(mesh: Mesh) -> GraphOperator:
    """A = D^-1 (Adj + I): row-normalized one-ring averaging with self-loop."""
    n = mesh.n_vertices
    edges = edge_set(mesh)
    i = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    j = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    adj = sp.csr_matrix((np.ones_like(i, dtype=np.float64), (i, j)), shape=(n, n))
    degree = np.asarray(adj.sum(axis=1)).ravel()
    inv = sp.diags(1.0 / degree)
    return GraphOperator(matrix=(inv @ adj).tocsr(), edges=edges)


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
