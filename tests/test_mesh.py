import numpy as np
import pytest

from posetransfer import autodiff as ad
from posetransfer.mesh import (
    Mesh,
    MeshError,
    ObjParseError,
    edge_set,
    graph_operator,
    load_obj,
    mesh_height,
    normalize_vertices,
    save_obj,
    vertex_features,
)
from posetransfer.synth import CharacterSpec, generate_character

from conftest import random_rotation


# ---- container validation ---------------------------------------------

def test_mesh_rejects_out_of_range_face():
    with pytest.raises(MeshError):
        Mesh(vertices=np.zeros((3, 3)), faces=[[0, 1, 3]])


def test_mesh_rejects_repeated_vertex_in_face():
    with pytest.raises(MeshError):
        Mesh(vertices=np.eye(3), faces=[[0, 1, 1]])


def test_mesh_rejects_empty_faces():
    with pytest.raises(MeshError):
        Mesh(vertices=np.eye(3), faces=np.zeros((0, 3), dtype=int))


def test_mesh_rejects_too_few_vertices():
    with pytest.raises(MeshError):
        Mesh(vertices=np.zeros((2, 3)), faces=[[0, 1, 0]])


# ---- OBJ I/O -----------------------------------------------------------

def test_load_obj_minimal(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    m = load_obj(p)
    assert m.n_vertices == 3
    assert m.faces.shape[0] == 1
    assert m.faces.tolist() == [[0, 1, 2]]


def test_load_obj_fan_triangulates_quad(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    m = load_obj(p)
    assert m.faces.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_load_obj_out_of_range_index(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 5\n")
    with pytest.raises(ObjParseError) as exc:
        load_obj(p)
    assert exc.value.line == 4


def test_load_obj_negative_and_slash_indices(tmp_path):
    p = tmp_path / "rel.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf -3/1/1 -2/2/1 -1/3/1\n")
    m = load_obj(p)
    assert m.faces.tolist() == [[0, 1, 2]]


def test_load_obj_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(ObjParseError) as exc:
        load_obj(p)
    assert exc.value.line == 2


@pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
def test_load_obj_rejects_non_finite_coordinate(tmp_path, token):
    p = tmp_path / "bad.obj"
    p.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 {token}\nf 1 2 3\nv 0 x 0\n")
    with pytest.raises(ObjParseError) as exc:
        load_obj(p)
    assert exc.value.line == 3
    assert str(exc.value) == f"line 3: non-finite vertex coordinate {token!r}"


@pytest.mark.parametrize("lines_before", [1, 3000])
def test_load_obj_rejects_undecodable_bytes(tmp_path, lines_before):
    p = tmp_path / "bad.obj"
    p.write_bytes(b"v 0 0 0\n" * lines_before + b"# caf\xe9\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(ObjParseError) as exc:
        load_obj(p)
    assert exc.value.line == lines_before + 1
    assert str(exc.value).startswith(f"line {lines_before + 1}: not UTF-8 text")


def test_obj_round_trip(tmp_path, tetrahedron):
    rng = np.random.default_rng(0)
    mesh = tetrahedron.with_vertices(rng.normal(size=(4, 3)))
    p = tmp_path / "m.obj"
    save_obj(mesh, p)
    back = load_obj(p)
    assert np.abs(back.vertices - mesh.vertices).max() < 1e-6
    assert (back.faces == mesh.faces).all()


def test_save_obj_precision(tmp_path, triangle):
    mesh = triangle.with_vertices([[0.1234567, 0, 0], [1, 0, 0], [0, 1, 0]])
    p = tmp_path / "m.obj"
    save_obj(mesh, p)
    assert "0.1234567" in p.read_text()


def _load_obj_lines(path):
    """The line-by-line OBJ reader that ``load_obj`` replaced, kept as an
    oracle: it returns the Mesh or raises for the first bad line."""
    vertices, faces = [], []
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if tokens[0] == "v":
                if len(tokens) < 4:
                    raise ObjParseError("vertex needs 3 coordinates", lineno)
                try:
                    vertices.append([float(t) for t in tokens[1:4]])
                except ValueError as exc:
                    raise ObjParseError(f"bad vertex coordinate: {exc}", lineno)
            elif tokens[0] == "f":
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
                            lineno)
                    poly.append(idx)
                for a, b in zip(poly[1:-1], poly[2:]):
                    faces.append([poly[0], a, b])
    if len(vertices) < 3:
        raise MeshError(f"{path}: fewer than 3 vertices")
    if not faces:
        raise MeshError(f"{path}: no faces")
    return Mesh(vertices=np.array(vertices), faces=np.array(faces))


def _save_obj_lines(mesh, path):
    """The per-line OBJ writer that ``save_obj`` replaced (byte oracle)."""
    with open(path, "w") as fh:
        if mesh.name:
            fh.write(f"o {mesh.name}\n")
        for x, y, z in mesh.vertices:
            fh.write(f"v {x:.9g} {y:.9g} {z:.9g}\n")
        for i, j, k in mesh.faces + 1:
            fh.write(f"f {i} {j} {k}\n")


MIXED_OBJ = """# exported
mtllib scene.mtl
o body
v 0 0 0
v 1.5 0 0  # trailing comment
v 1 1 0 1.0
  v   0 1 0
vn 0 0 1
vt 0.5 0.5
g part
s off
f 1/1/1 2/2/1 3/3/1 4/4/1
f -4//1 -3//1 -1//1

v 2 0 1
v 2 1 1
f 2 5 6 3
f -1 -2 -4 -5 -3
"""


def test_load_obj_matches_line_oracle_on_mixed_file(tmp_path):
    p = tmp_path / "mixed.obj"
    p.write_text(MIXED_OBJ)
    got, want = load_obj(p), _load_obj_lines(p)
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.faces, want.faces)
    assert got.faces.dtype == want.faces.dtype and got.vertices.dtype == want.vertices.dtype
    assert got.faces.tolist()[:3] == [[0, 1, 2], [0, 2, 3], [0, 1, 3]]


@pytest.mark.parametrize("text", [
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 0 x\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -4\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 # note\n",
    "v 0 0 0\nf 1 2 3\nv 1 0 0\nv 0 1 0\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 nope\nf 1 2 4\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\nv 0 1 nope\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\nv 0 1\n",
    "v 0 0 0\nv 1 x 0\nv 0 1 0\nf 1 2\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2\nf 1 2 9\n",
    "v 0 0 0\nv 1 0 0\nf 1 2 -1\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 2\n",
])
def test_load_obj_errors_match_line_oracle(tmp_path, text):
    p = tmp_path / "bad.obj"
    p.write_text(text)
    with pytest.raises(MeshError) as want:
        _load_obj_lines(p)
    with pytest.raises(MeshError) as got:
        load_obj(p)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "line", None) == getattr(want.value, "line", None)


def _grid_obj_text(n_side):
    """A flat n_side x n_side vertex grid, two triangles per cell."""
    lines = [f"v {i} {j} 0" for i in range(n_side) for j in range(n_side)]
    for i in range(n_side - 1):
        for j in range(n_side - 1):
            a = i * n_side + j + 1
            lines += [f"f {a} {a + 1} {a + n_side}", f"f {a + 1} {a + n_side + 1} {a + n_side}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("last, message", [
    ("v 0.5 oops 0", "bad vertex coordinate"),
    ("f 1 2 5042", "face index 5042 out of range (have 5041 vertices)"),
])
def test_load_obj_large_file_reports_last_line(tmp_path, last, message):
    text = _grid_obj_text(71)  # 5041 vertices, 9800 faces
    p = tmp_path / "big.obj"
    p.write_text(text + last + "\n")
    with pytest.raises(ObjParseError) as exc:
        load_obj(p)
    assert exc.value.line == text.count("\n") + 1
    assert message in str(exc.value)


def test_save_obj_bytes_match_line_oracle(tmp_path):
    rng = np.random.default_rng(4)
    v = rng.normal(size=(60, 3)) * np.array([1e-7, 1.0, 3e5])
    v[:4] = [[0.0, -0.0, 1e-300], [1e16, -1e-5, 0.1], [123456789.123, 2.5, -7.0],
             [np.pi, -np.e, 1.0 / 3.0]]
    faces = np.stack([np.arange(58), np.arange(1, 59), np.arange(2, 60)], axis=1)
    for name in ("", "body"):
        mesh = Mesh(vertices=v, faces=faces, name=name)
        save_obj(mesh, tmp_path / "bulk.obj")
        _save_obj_lines(mesh, tmp_path / "lines.obj")
        assert (tmp_path / "bulk.obj").read_bytes() == (tmp_path / "lines.obj").read_bytes()
    big = generate_character(CharacterSpec(seed=2))
    save_obj(big.rest, tmp_path / "bulk.obj")
    _save_obj_lines(big.rest, tmp_path / "lines.obj")
    assert (tmp_path / "bulk.obj").read_bytes() == (tmp_path / "lines.obj").read_bytes()


# ---- normals and features ---------------------------------------------

def _face_normals(mesh):
    """Oracle: the NumPy face normals ``vertex_features`` replaced."""
    v, f = mesh.vertices, mesh.faces
    return np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])


def _vertex_features_oracle(mesh):
    """Oracle: the NumPy features ``vertex_features`` replaced, with three
    ``np.add.at`` passes and a masked division by the row norm."""
    fn = _face_normals(mesh)
    acc = np.zeros_like(mesh.vertices)
    for c in range(3):
        np.add.at(acc, mesh.faces[:, c], fn)
    norms = np.linalg.norm(acc, axis=1)
    out = np.zeros_like(acc)
    nz = norms > 0.0
    out[nz] = acc[nz] / norms[nz, None]
    return np.hstack([mesh.vertices, out])


def _degenerate_mesh():
    """Tetrahedron plus vertex 4 on the midpoint of edge 0-1, whose face
    (0, 1, 4) has zero area but which also has the non-degenerate face
    (4, 1, 3); vertex 5 is isolated."""
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                  [0.5, 0.0, 0.0], [5.0, 5.0, 5.0]])
    faces = [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3], [0, 1, 4], [4, 1, 3]]
    return Mesh(vertices=v, faces=faces)


def test_planar_triangle_normals(triangle):
    n = vertex_features(triangle.faces, triangle.vertices).data[:, 3:]
    assert np.abs(n - [0.0, 0.0, 1.0]).max() < 1e-12


def test_isolated_vertex_gets_zero_normal(triangle):
    mesh = Mesh(vertices=np.vstack([triangle.vertices, [5.0, 5.0, 5.0]]),
                faces=triangle.faces)
    n = vertex_features(mesh.faces, mesh.vertices).data[:, 3:]
    assert (n[3] == 0.0).all()


def test_cube_corner_normal_equal_area_weighting():
    # Three unit squares forming the corner of a cube at the origin, each
    # split into two triangles whose shared diagonal passes through the
    # corner vertex.  Every incident triangle has area 1/2 and the three
    # face normals are the coordinate axes, so the area-weighted average
    # at the corner normalizes to (1,1,1)/sqrt(3).
    v = np.array([
        [0, 0, 0],                        # corner
        [1, 0, 0], [1, 1, 0], [0, 1, 0],  # z=0 square
        [0, 0, 1], [1, 0, 1],             # y=0 square (with 0 and 1)
        [0, 1, 1],                        # x=0 square (with 0, 3, 4)
    ], dtype=float)
    faces = np.array([
        [0, 1, 2], [0, 2, 3],
        [0, 4, 5], [0, 5, 1],
        [0, 3, 6], [0, 6, 4],
    ])
    mesh = Mesh(vertices=v, faces=faces)
    fn = _face_normals(mesh)
    areas = np.linalg.norm(fn, axis=1) / 2.0
    assert np.abs(areas - areas[0]).max() < 1e-12
    expected = fn.sum(axis=0)
    expected /= np.linalg.norm(expected)
    got = vertex_features(mesh.faces, mesh.vertices).data[0, 3:]
    assert np.abs(got - expected).max() < 1e-12
    assert np.abs(np.abs(expected) - 1.0 / np.sqrt(3.0)).max() < 1e-12


def test_vertex_features_layout(triangle):
    f = vertex_features(triangle.faces, triangle.vertices).data
    assert f.shape == (3, 6)
    assert np.allclose(f[:, :3], triangle.vertices)
    assert np.abs(f[:, 3:] - [0.0, 0.0, 1.0]).max() < 1e-12


def test_vertex_features_translation_equivariance(tetrahedron):
    shifted = tetrahedron.vertices + [2.0, -1.0, 0.5]
    f0 = vertex_features(tetrahedron.faces, tetrahedron.vertices).data
    f1 = vertex_features(tetrahedron.faces, shifted).data
    assert np.abs(f1[:, :3] - f0[:, :3] - [2.0, -1.0, 0.5]).max() < 1e-12
    assert np.abs(f1[:, 3:] - f0[:, 3:]).max() < 1e-12


def test_vertex_features_rotation_equivariance(tetrahedron):
    r = random_rotation(np.random.default_rng(7))
    rotated = tetrahedron.vertices @ r.T
    f0 = vertex_features(tetrahedron.faces, tetrahedron.vertices).data
    f1 = vertex_features(tetrahedron.faces, rotated).data
    assert np.abs(f1[:, :3] - f0[:, :3] @ r.T).max() < 1e-9
    assert np.abs(f1[:, 3:] - f0[:, 3:] @ r.T).max() < 1e-9


def test_vertex_normals_permutation_invariance(small_char):
    mesh = small_char.rest
    rng = np.random.default_rng(1)
    perm = rng.permutation(mesh.n_vertices)
    inv = np.argsort(perm)
    permuted = Mesh(vertices=mesh.vertices[perm], faces=inv[mesh.faces])
    n0 = vertex_features(mesh.faces, mesh.vertices).data[:, 3:]
    n1 = vertex_features(permuted.faces, permuted.vertices).data[:, 3:]
    assert np.abs(n1 - n0[perm]).max() < 1e-12


@pytest.mark.parametrize("spec", [
    CharacterSpec(seed=0),
    CharacterSpec(seed=3, limb_count=2, segments_per_limb=1, torso_segments=1,
                  ring_verts=3, rings_per_segment=2),
    CharacterSpec(seed=5, ring_verts=32, rings_per_segment=16),
], ids=["default", "tiny", "4970-vertices"])
def test_vertex_features_match_numpy_oracle_bitwise(spec):
    mesh = generate_character(spec).rest
    for vertices in (mesh.vertices, normalize_vertices(mesh.vertices)[0]):
        expected = _vertex_features_oracle(mesh.with_vertices(vertices))
        for given in (vertices, ad.Tensor(vertices, requires_grad=True)):
            assert np.array_equal(vertex_features(mesh.faces, given).data, expected)


def test_vertex_features_degenerate_rows_match_numpy_oracle_bitwise():
    full = _degenerate_mesh()
    # without face (4, 1, 3), vertex 4 touches only the zero-area face
    zero_only = Mesh(vertices=full.vertices, faces=full.faces[:5])
    for mesh in (full, zero_only):
        assert np.array_equal(vertex_features(mesh.faces, mesh.vertices).data,
                              _vertex_features_oracle(mesh))
    normals = vertex_features(zero_only.faces, zero_only.vertices).data[:, 3:]
    assert (normals[4:] == 0.0).all()  # vertex 4 and the isolated vertex 5


def test_vertex_features_gradient_through_degenerate_rows():
    mesh = _degenerate_mesh()
    coeff = np.random.default_rng(4).normal(size=(mesh.n_vertices, 6))
    x = ad.Tensor(mesh.vertices.copy(), requires_grad=True)
    report = ad.gradcheck(
        lambda t: ad.mean(vertex_features(mesh.faces, t) * ad.constant(coeff)), x)
    assert report.passed and report.n_kink_suspect == 0, report
    assert np.isfinite(x.grad).all()


# ---- edges and graph operator -----------------------------------------

def test_edge_set_counts(triangle, tetrahedron):
    assert edge_set(triangle).shape == (3, 2)
    assert edge_set(tetrahedron).shape == (6, 2)
    two = Mesh(vertices=np.zeros((4, 3)) + np.arange(4)[:, None],
               faces=[[0, 1, 2], [1, 2, 3]])
    assert edge_set(two).shape == (5, 2)


def test_edge_set_ordering(tetrahedron):
    e = edge_set(tetrahedron)
    assert (e[:, 0] < e[:, 1]).all()
    assert len({tuple(r) for r in e.tolist()}) == len(e)


def test_edge_set_matches_row_unique(triangle):
    """The 1-D key ``unique`` gives exactly the old ``unique(axis=0)`` rows."""
    def rows_unique(mesh):
        f = mesh.faces
        pairs = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [0, 2]]])
        return np.unique(np.sort(pairs, axis=1), axis=0)

    isolated = Mesh(vertices=np.vstack([triangle.vertices, [[5.0, 5.0, 5.0]]]),
                    faces=triangle.faces)
    shuffled = Mesh(vertices=np.zeros((9, 3)) + np.arange(9)[:, None],
                    faces=[[8, 0, 4], [4, 0, 2], [7, 8, 4], [2, 0, 8]])
    meshes = [isolated, shuffled] + [generate_character(CharacterSpec(seed=s)).rest
                                     for s in range(3)]
    for mesh in meshes:
        got, want = edge_set(mesh), rows_unique(mesh)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype and got.shape == want.shape


def test_graph_operator_triangle(triangle):
    a = graph_operator(triangle).matrix.toarray()
    assert np.abs(a - 1.0 / 3.0).max() < 1e-12


def test_graph_operator_isolated_vertex(triangle):
    mesh = Mesh(vertices=np.vstack([triangle.vertices, [9.0, 9.0, 9.0]]),
                faces=triangle.faces)
    a = graph_operator(mesh).matrix.toarray()
    assert np.abs(a[3] - [0.0, 0.0, 0.0, 1.0]).max() < 1e-12


def test_graph_operator_rows_sum_to_one_and_symmetric_pattern():
    for seed in range(5):
        mesh = generate_character(CharacterSpec(seed=seed)).rest
        g = graph_operator(mesh)
        rows = np.asarray(g.matrix.sum(axis=1)).ravel()
        assert np.abs(rows - 1.0).max() < 1e-6
        pattern = (g.matrix != 0)
        assert (pattern != pattern.T).nnz == 0


# ---- normalization helpers --------------------------------------------

def test_mesh_height_y_extent():
    v = np.array([[0.0, -1.0, 0.0], [0.0, 3.0, 0.0], [2.0, 0.0, 0.0]])
    assert mesh_height(v) == 4.0


def test_mesh_height_flat_fallback():
    v = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert mesh_height(v) == 2.0


def test_normalize_vertices_round_trip():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(10, 3)) * 4.0
    normed, center, scale = normalize_vertices(v)
    assert np.abs(normed.mean(axis=0)).max() < 1e-12
    assert abs(np.ptp(normed[:, 1]) - 1.0) < 1e-12
    assert np.abs(normed * scale + center - v).max() < 1e-12
