import numpy as np
import pytest

from posetransfer import articulation
from posetransfer.articulation import (
    ArticulationError,
    RigidTransform,
    estimate_part_transforms,
    hard_assignment,
    hard_part_transforms,
    lbs_deform,
    load_skinning,
    part_centers,
    save_skinning,
    save_transforms,
    validate_skinning,
)
from posetransfer.mesh import Mesh

from conftest import as_rigid, random_rotation, random_rows, rest_rows


def _random_skinning(rng, n, k):
    w = rng.uniform(size=(n, k))
    return w / w.sum(axis=1, keepdims=True)


def _cloud_mesh(rng, n=12):
    """Generic non-degenerate point cloud wrapped in a Mesh."""
    v = rng.normal(size=(n, 3))
    faces = [[i, (i + 1) % n, (i + 2) % n] for i in range(n)]
    return Mesh(vertices=v, faces=faces)


# ---- validation and containers ----------------------------------------

def test_validate_skinning_rejects_bad_rows():
    with pytest.raises(ArticulationError):
        validate_skinning(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ArticulationError):
        validate_skinning(np.array([[1.2, -0.2]]))


def test_rigid_transform_validation():
    with pytest.raises(ArticulationError, match="not orthonormal"):
        RigidTransform(rotation=np.eye(3) * 2.0, translation=np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ArticulationError, match="determinant is not"):
        RigidTransform(rotation=reflection, translation=np.zeros(3))
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = random_rotation(rng)
        assert RigidTransform(rotation=r, translation=np.zeros(3)).rotation.tobytes() == \
            np.ascontiguousarray(r).tobytes()
        with pytest.raises(ArticulationError, match="determinant is not"):
            RigidTransform(rotation=r @ reflection, translation=np.zeros(3))


def test_estimated_rows_are_checked_at_once(monkeypatch):
    """Both Kabsch producers return one 12-value row per part (row-major
    rotation, then translation) and reject an improper rotation among
    them with the ``RigidTransform`` errors."""
    rng = np.random.default_rng(17)
    mesh = _cloud_mesh(rng)
    w = _random_skinning(rng, mesh.n_vertices, 4)
    posed = mesh.with_vertices(mesh.vertices @ random_rotation(rng).T)
    producers = (lambda: estimate_part_transforms(mesh, posed, w),
                 lambda: hard_part_transforms(mesh, posed, np.arange(mesh.n_vertices) % 4,
                                              part_centers(mesh, w)))
    kabsch = articulation._kabsch
    for produce in producers:
        rows = np.stack(produce())
        assert rows.shape == (4, 12)
        r = rows[:, :9].reshape(4, 3, 3)
        assert np.abs(np.linalg.det(r) - 1.0).max() < 1e-9
    for scale, message in ((np.diag([1.0, 1.0, -1.0]), "determinant is not"),
                           (np.eye(3) * 1.1, "not orthonormal")):
        def broken(*args, scale=scale):
            r, t = kabsch(*args)
            r[2] = r[2] @ scale
            return r, t
        monkeypatch.setattr(articulation, "_kabsch", broken)
        for produce in producers:
            with pytest.raises(ArticulationError, match=message):
                produce()


# ---- part centers ------------------------------------------------------

def test_part_centers_uniform_weights_give_centroid(tetrahedron):
    k = 5
    w = np.full((4, k), 1.0 / k)
    centers = part_centers(tetrahedron, w)
    assert centers.shape == (k, 3)
    assert np.abs(centers - tetrahedron.vertices.mean(axis=0)).max() < 1e-12


def test_part_centers_one_hot_selects_vertex(tetrahedron):
    w = np.zeros((4, 2))
    w[:, 0] = 1.0
    w[2, 0] = 0.0
    w[2, 1] = 1.0
    centers = part_centers(tetrahedron, w)
    assert np.abs(centers[1] - tetrahedron.vertices[2]).max() < 1e-12


def test_part_centers_zero_column_is_degenerate(tetrahedron):
    w = np.zeros((4, 3))
    w[:, 0] = 1.0
    centers = part_centers(tetrahedron, w)
    assert np.abs(centers[0] - tetrahedron.vertices.mean(axis=0)).max() < 1e-12
    assert (centers[1:] == 0.0).all()


# ---- LBS ---------------------------------------------------------------

def test_lbs_rest_preserving_identity():
    rng = np.random.default_rng(2)
    mesh = _cloud_mesh(rng)
    w = _random_skinning(rng, mesh.n_vertices, 6)
    out = lbs_deform(mesh, w, as_rigid(rest_rows(part_centers(mesh, w))))
    assert np.abs(out.vertices - mesh.vertices).max() < 1e-6


def test_lbs_single_part_rigid_motion():
    rng = np.random.default_rng(3)
    mesh = _cloud_mesh(rng)
    w = np.ones((mesh.n_vertices, 1))
    r = random_rotation(rng)
    t = rng.normal(size=3)
    out = lbs_deform(mesh, w, [RigidTransform(rotation=r, translation=t)])
    c = mesh.vertices.mean(axis=0)
    expected = (mesh.vertices - c) @ r.T + t
    assert np.abs(out.vertices - expected).max() < 1e-9


def test_lbs_matches_scalar_loop_oracle():
    rng = np.random.default_rng(4)
    mesh = _cloud_mesh(rng)
    n = mesh.n_vertices
    w = np.full((n, 2), 0.5)
    centers = part_centers(mesh, w)
    transforms = [
        RigidTransform(rotation=np.eye(3), translation=centers[0] + [0.3, 0.0, 0.0]),
        RigidTransform(rotation=np.eye(3), translation=centers[1] + [0.0, -0.2, 0.1]),
    ]
    out = lbs_deform(mesh, w, transforms)
    expected = np.zeros((n, 3))
    for i in range(n):
        for k, tf in enumerate(transforms):
            expected[i] += w[i, k] * (
                tf.rotation @ (mesh.vertices[i] - centers[k]) + tf.translation)
    assert np.abs(out.vertices - expected).max() < 1e-12


def test_lbs_global_rotation_equivariance():
    rng = np.random.default_rng(5)
    mesh = _cloud_mesh(rng)
    w = _random_skinning(rng, mesh.n_vertices, 3)
    transforms = as_rigid(random_rows(rng, 3))
    g = random_rotation(rng)
    out = lbs_deform(mesh, w, transforms)
    rotated_mesh = mesh.with_vertices(mesh.vertices @ g.T)
    conjugated = [RigidTransform(rotation=g @ tf.rotation @ g.T,
                                 translation=g @ tf.translation) for tf in transforms]
    out_rot = lbs_deform(rotated_mesh, w, conjugated)
    assert np.abs(out_rot.vertices - out.vertices @ g.T).max() < 1e-6


def test_lbs_dimension_mismatch():
    rng = np.random.default_rng(6)
    mesh = _cloud_mesh(rng)
    w = _random_skinning(rng, mesh.n_vertices, 3)
    with pytest.raises(ArticulationError):
        lbs_deform(mesh, w, as_rigid(rest_rows(np.zeros((2, 3)))))


# ---- hard assignment ---------------------------------------------------

def test_hard_assignment_examples():
    one_hot = np.eye(4)
    assert hard_assignment(one_hot).tolist() == [0, 1, 2, 3]
    tie = np.array([[0.5, 0.5, 0.0]])
    assert hard_assignment(tie).tolist() == [0]
    uniform = np.full((1, 5), 0.2)
    assert hard_assignment(uniform).tolist() == [0]


def test_hard_assignment_rescale_invariance():
    rng = np.random.default_rng(7)
    w = _random_skinning(rng, 20, 4)
    scaled = w * 3.7
    scaled /= scaled.sum(axis=1, keepdims=True)
    assert (hard_assignment(w) == hard_assignment(scaled)).all()


# ---- rigid registration ------------------------------------------------

def test_estimate_identity_when_posed_equals_rest():
    rng = np.random.default_rng(8)
    mesh = _cloud_mesh(rng)
    w = _random_skinning(rng, mesh.n_vertices, 4)
    rows = estimate_part_transforms(mesh, mesh, w)
    assert np.abs(rows - rest_rows(part_centers(mesh, w))).max() < 1e-6


def test_estimate_recovers_global_rigid_motion():
    rng = np.random.default_rng(9)
    mesh = _cloud_mesh(rng)
    w = _random_skinning(rng, mesh.n_vertices, 4)
    r_star = random_rotation(rng)
    t_star = rng.normal(size=3)
    posed = mesh.with_vertices(mesh.vertices @ r_star.T + t_star)
    rows = estimate_part_transforms(mesh, posed, w)
    assert np.abs(rows[:, :9] - r_star.ravel()).max() < 1e-6
    back = lbs_deform(mesh, w, as_rigid(rows))
    assert np.abs(back.vertices - posed.vertices).max() < 1e-6


def test_estimate_one_hot_90_degree_rotation():
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    mesh = Mesh(vertices=v, faces=[[0, 1, 2], [0, 2, 3], [1, 2, 4]])
    r90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    posed = mesh.with_vertices(v @ r90.T)
    w = np.zeros((5, 2))
    w[:4, 0] = 1.0
    w[4, 1] = 1.0
    row = estimate_part_transforms(mesh, posed, w)[0]
    assert np.abs(row[:9] - r90.ravel()).max() < 1e-6


def test_estimate_degenerate_part_gets_rest_preserving_transform():
    rng = np.random.default_rng(10)
    mesh = _cloud_mesh(rng)
    w = np.zeros((mesh.n_vertices, 2))
    w[:, 0] = 1.0
    row = estimate_part_transforms(mesh, mesh, w)[1]
    assert np.array_equal(row, rest_rows(np.zeros((1, 3)))[0])


def test_one_hot_round_trip_deform_estimate_deform():
    rng = np.random.default_rng(11)
    mesh = _cloud_mesh(rng, n=18)
    n = mesh.n_vertices
    labels = rng.integers(0, 3, size=n)
    w = np.zeros((n, 3))
    w[np.arange(n), labels] = 1.0
    deformed = lbs_deform(mesh, w, as_rigid(random_rows(rng, 3)))
    recovered = estimate_part_transforms(mesh, deformed, w)
    again = lbs_deform(mesh, w, as_rigid(recovered))
    assert np.abs(again.vertices - deformed.vertices).max() < 1e-5


def test_hard_part_transforms_skips_small_parts():
    rng = np.random.default_rng(12)
    mesh = _cloud_mesh(rng)
    n = mesh.n_vertices
    labels = np.zeros(n, dtype=int)
    labels[0] = 1  # part 1 has a single vertex
    w = np.zeros((n, 2))
    w[np.arange(n), labels] = 1.0
    out = hard_part_transforms(mesh, mesh, labels, part_centers(mesh, w))
    assert out[1] is None
    assert out[0].shape == (12,)


def _kabsch_oracle(rest_pts, posed_pts, weights, center):
    """Scalar weighted Kabsch for one part, the per-part loop formulation."""
    wsum = weights.sum()
    mu_rest = weights @ rest_pts / wsum
    mu_posed = weights @ posed_pts / wsum
    h = (weights[:, None] * (posed_pts - mu_posed)).T @ (rest_pts - mu_rest)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(u @ vt))
    if d == 0.0:
        d = 1.0
    r = u @ np.diag([1.0, 1.0, d]) @ vt
    return r, mu_posed - r @ (mu_rest - center), d


def _oracle_case(rng):
    """Five parts on a cloud: part 2 has no weight (degenerate), part 3 is
    posed as a mirror image, part 4 owns one vertex under argmax."""
    n, k = 30, 5
    rest = rng.normal(size=(n, 3))
    labels = np.arange(n) % 4
    labels[labels == 2] = 0
    labels[7] = 4
    posed = np.empty_like(rest)
    for part in range(k):
        mask = labels == part
        if part == 3:
            posed[mask] = rest[mask] * np.array([-1.0, 1.0, 1.0])
        else:
            posed[mask] = rest[mask] @ random_rotation(rng).T + rng.normal(size=3)
    w = np.eye(k)[labels] + rng.uniform(0.0, 0.05, size=(n, k))
    w[:, 2] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    faces = [[i, (i + 1) % n, (i + 2) % n] for i in range(n)]
    return Mesh(vertices=rest, faces=faces), Mesh(vertices=posed, faces=faces), w, labels


def _assert_matches_oracle(row, r, t):
    assert np.abs(row[:9] - r.ravel()).max() < 1e-9
    assert np.abs(row[9:] - t).max() < 1e-9


def test_estimate_matches_scalar_kabsch_oracle():
    mesh, posed, w, _ = _oracle_case(np.random.default_rng(15))
    centers = part_centers(mesh, w)
    out = estimate_part_transforms(mesh, posed, w)
    assert (w.sum(axis=0) == 0.0).tolist() == [False, False, True, False, False]
    _assert_matches_oracle(out[2], np.eye(3), centers[2])
    for k in (0, 1, 3, 4):
        r, t, d = _kabsch_oracle(mesh.vertices, posed.vertices, w[:, k], centers[k])
        _assert_matches_oracle(out[k], r, t)
        if k == 3:
            assert d < 0


def test_hard_part_transforms_match_scalar_kabsch_oracle():
    mesh, posed, w, labels = _oracle_case(np.random.default_rng(16))
    centers = part_centers(mesh, w)
    out = hard_part_transforms(mesh, posed, labels, centers)
    assert [tf is None for tf in out] == [False, False, True, False, True]
    for k in (0, 1, 3):
        mask = labels == k
        r, t, d = _kabsch_oracle(mesh.vertices[mask], posed.vertices[mask],
                                 np.ones(int(mask.sum())), centers[k])
        _assert_matches_oracle(out[k], r, t)
        assert (d < 0) == (k == 3)


# ---- file formats ------------------------------------------------------

def test_skinning_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    w = _random_skinning(rng, 7, 4)
    p = tmp_path / "w.txt"
    save_skinning(w, p)
    header = p.read_text().splitlines()[0]
    assert header == "7 4"
    back = load_skinning(p)
    assert np.abs(back - w).max() < 1e-9


def _save_skinning_lines(w, path):
    """The per-row skinning writer that ``save_skinning`` replaced (byte oracle)."""
    with open(path, "w") as fh:
        fh.write(f"{w.shape[0]} {w.shape[1]}\n")
        for row in w:
            fh.write(" ".join(f"{x:.10g}" for x in row) + "\n")


def test_skinning_file_bytes_match_row_oracle(tmp_path):
    rng = np.random.default_rng(15)
    peaked = _random_skinning(rng, 50, 40) ** 8
    for w in (_random_skinning(rng, 9, 3), peaked / peaked.sum(axis=1, keepdims=True),
              np.eye(5), np.full((3, 4), 0.25)):
        save_skinning(w, tmp_path / "bulk.txt")
        _save_skinning_lines(w, tmp_path / "rows.txt")
        assert (tmp_path / "bulk.txt").read_bytes() == (tmp_path / "rows.txt").read_bytes()


def test_transform_file_bytes_match_value_oracle(tmp_path):
    """``save_transforms`` writes each value as ``f"{x:.17g}"``, 12 to a
    line, which reads back exactly."""
    rng = np.random.default_rng(14)
    extremes = np.array([[-0.0, 5e-324, 1e308, 1.0] * 3])
    p = tmp_path / "t.txt"
    for rows in (random_rows(rng, 3), extremes, np.vstack([extremes, -extremes]),
                 np.zeros((0, 12))):
        save_transforms(rows, p)
        assert p.read_text() == "".join(" ".join(f"{x:.17g}" for x in row) + "\n"
                                        for row in rows)
        if len(rows):
            assert np.array_equal(np.loadtxt(p, ndmin=2), rows)
