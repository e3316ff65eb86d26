import numpy as np
import pytest

from posetransfer.articulation import validate_skinning
from posetransfer.synth import (
    CharacterSpec,
    DatasetConfig,
    PoseSpec,
    SynthError,
    character_seed,
    generate_character,
    load_dataset,
    make_dataset,
    part_world_transforms,
    pose_character,
    sample_pose,
    save_dataset,
)


SMALL = DatasetConfig(n_paired=3, n_static=2, n_held=2, n_poses=2, seed=11,
                      ring_verts=4, rings_per_segment=2)


# ---- character generation ----------------------------------------------

def test_same_seed_is_bit_identical():
    spec = CharacterSpec(seed=42)
    a = generate_character(spec)
    b = generate_character(spec)
    assert (a.rest.vertices == b.rest.vertices).all()
    assert (a.rest.faces == b.rest.faces).all()
    assert (a.gt_skinning == b.gt_skinning).all()


def test_different_seeds_differ():
    a = generate_character(CharacterSpec(seed=0))
    b = generate_character(CharacterSpec(seed=1))
    assert a.rest.vertices.shape == b.rest.vertices.shape
    assert np.abs(a.rest.vertices - b.rest.vertices).max() > 1e-6


def _chain_vertex_count(spec, n_segments):
    """One welded chain: its rings, shared at the joints, plus two apex caps."""
    rings = spec.rings_per_segment + (n_segments - 1) * (spec.rings_per_segment - 1)
    return rings * spec.ring_verts + 2


def test_vertex_count_closed_form():
    for spec in (CharacterSpec(seed=0),
                 CharacterSpec(seed=1, limb_count=2, segments_per_limb=1),
                 CharacterSpec(seed=2, ring_verts=3, rings_per_segment=2,
                               torso_segments=3)):
        expected = (_chain_vertex_count(spec, spec.torso_segments)
                    + spec.limb_count * _chain_vertex_count(spec, spec.segments_per_limb))
        assert generate_character(spec).rest.n_vertices == expected


def test_ground_truth_skinning_is_valid():
    for seed in range(4):
        char = generate_character(CharacterSpec(seed=seed))
        validate_skinning(char.gt_skinning, char.rest.n_vertices)
        assert char.gt_skinning.shape[1] == len(char.part_names)


def test_part_count_matches_segments():
    spec = CharacterSpec(seed=5, limb_count=3, segments_per_limb=2,
                         torso_segments=2)
    char = generate_character(spec)
    assert len(char.part_names) == 2 + 3 * 2
    assert char.n_joints == len(char.part_names) - 1


# ---- posing ------------------------------------------------------------

def test_rest_pose_is_bitwise_rest(small_char):
    pose = PoseSpec(angles=np.zeros((small_char.n_joints, 3)))
    posed = pose_character(small_char, pose)
    assert (posed.vertices == small_char.rest.vertices).all()


def test_single_joint_quarter_turn_analytic(small_char):
    # rotate only the first limb joint by 90 degrees about z; vertices
    # fully owned by that limb must rotate rigidly about the joint
    k = 1  # first limb segment (index 0 is the torso root)
    seg = small_char.segments[k]
    angles = np.zeros((small_char.n_joints, 3))
    angles[k - 1] = [0.0, 0.0, np.pi / 2.0]
    posed = pose_character(small_char, PoseSpec(angles=angles, max_angle=np.pi / 2.0))
    r90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    owned = small_char.gt_skinning[:, k] == 1.0
    assert owned.any()
    expected = (small_char.rest.vertices[owned] - seg.start) @ r90.T + seg.start
    assert np.abs(posed.vertices[owned] - expected).max() < 1e-9
    torso_owned = small_char.gt_skinning[:, 0] == 1.0
    assert np.abs(posed.vertices[torso_owned]
                  - small_char.rest.vertices[torso_owned]).max() < 1e-12


def test_parent_rotation_carries_child_segment():
    char = generate_character(CharacterSpec(seed=7, limb_count=2,
                                            segments_per_limb=2,
                                            torso_segments=1,
                                            ring_verts=4, rings_per_segment=2))
    parent = 1  # limb0 proximal segment; its child is index 2
    assert char.segments[2].parent == parent
    angles = np.zeros((char.n_joints, 3))
    angles[parent - 1] = [0.0, 0.0, np.pi / 3.0]
    posed = pose_character(char, PoseSpec(angles=angles))
    j = char.segments[parent].start
    c, s = np.cos(np.pi / 3.0), np.sin(np.pi / 3.0)
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    owned = char.gt_skinning[:, 2] == 1.0
    expected = (char.rest.vertices[owned] - j) @ r.T + j
    assert np.abs(posed.vertices[owned] - expected).max() < 1e-9


def test_posing_preserves_rigid_edge_lengths():
    char = generate_character(CharacterSpec(seed=8))
    rng = np.random.default_rng(0)
    posed = pose_character(char, sample_pose(char.n_joints, rng))
    from posetransfer.mesh import edge_set

    edges = edge_set(char.rest)
    labels = char.gt_skinning.argmax(axis=1)
    rigid = (char.gt_skinning.max(axis=1) == 1.0)
    keep = rigid[edges[:, 0]] & rigid[edges[:, 1]] & (
        labels[edges[:, 0]] == labels[edges[:, 1]])
    assert keep.sum() > 0
    rest_len = np.linalg.norm(
        char.rest.vertices[edges[keep, 0]] - char.rest.vertices[edges[keep, 1]], axis=1)
    posed_len = np.linalg.norm(
        posed.vertices[edges[keep, 0]] - posed.vertices[edges[keep, 1]], axis=1)
    assert np.abs(posed_len - rest_len).max() < 1e-9


def _pose_character_oracle(sample, pose):
    """Oracle: the per-part posing loop ``pose_character`` replaced."""
    v = sample.rest.vertices
    out = np.zeros_like(v)
    for k, (r, t) in enumerate(part_world_transforms(sample, pose)):
        wk = sample.gt_skinning[:, k]
        if not wk.any():
            continue
        out += wk[:, None] * (v @ r.T + t)
    return out


@pytest.mark.parametrize("spec", [
    CharacterSpec(seed=0),
    CharacterSpec(seed=3, limb_count=2, segments_per_limb=1, torso_segments=1,
                  ring_verts=3, rings_per_segment=2),
    CharacterSpec(seed=5, ring_verts=32, rings_per_segment=16),
], ids=["default", "tiny", "4970-vertices"])
def test_pose_character_matches_loop_oracle_bitwise(spec):
    char = generate_character(spec)
    rng = np.random.default_rng(spec.seed)
    for _ in range(3):
        pose = sample_pose(char.n_joints, rng)
        assert np.array_equal(pose_character(char, pose).vertices,
                              _pose_character_oracle(char, pose))


def test_pose_character_rejects_wrong_joint_count(small_char):
    angles = np.full((small_char.n_joints + 1, 3), 0.2)
    with pytest.raises(SynthError):
        pose_character(small_char, PoseSpec(angles=angles))


def test_sample_pose_magnitudes_bounded():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pose = sample_pose(5, rng, max_angle=1.2)
        mags = np.linalg.norm(pose.angles, axis=1)
        assert (mags >= 0.3 * 1.2 - 1e-12).all()
        assert (mags <= 1.2 + 1e-12).all()


# ---- dataset assembly --------------------------------------------------

def test_character_seed_disjoint():
    seeds = {character_seed(0, split, i)
             for split in ("paired", "static", "held") for i in range(8)}
    assert len(seeds) == 24


def test_make_dataset_counts_and_poses():
    ds = make_dataset(SMALL)
    assert len(ds.paired) == 3
    assert len(ds.static) == 2
    assert len(ds.held) == 2
    for ch in ds.paired + ds.held:
        assert len(ch.poses) == 2
    for ch in ds.static:
        assert ch.poses == []


def test_paired_characters_share_pose_specs():
    ds = make_dataset(SMALL)
    for split in (ds.paired, ds.held):
        joint_counts = {ch.n_joints for ch in split}
        assert len(joint_counts) == 1
        for p in range(SMALL.n_poses):
            ref = split[0].poses[p][0].angles
            for ch in split[1:]:
                assert (ch.poses[p][0].angles == ref).all()


def test_held_poses_differ_from_paired_poses():
    ds = make_dataset(SMALL)
    assert np.abs(ds.paired[0].poses[0][0].angles
                  - ds.held[0].poses[0][0].angles).max() > 1e-6


def test_make_dataset_deterministic():
    a = make_dataset(SMALL)
    b = make_dataset(SMALL)
    for ca, cb in zip(a.all_characters, b.all_characters):
        assert (ca.rest.vertices == cb.rest.vertices).all()
        for (_, ma), (_, mb) in zip(ca.poses, cb.poses):
            assert (ma.vertices == mb.vertices).all()


def test_static_characters_vary_topology():
    ds = make_dataset(SMALL)
    assert ds.static[0].rest.n_vertices != ds.static[1].rest.n_vertices


# ---- persistence -------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    ds = make_dataset(SMALL)
    save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    assert len(back.paired) == len(ds.paired)
    assert len(back.static) == len(ds.static)
    assert len(back.held) == len(ds.held)
    for orig, loaded in zip(ds.all_characters, back.all_characters):
        assert np.abs(loaded.rest.vertices - orig.rest.vertices).max() < 1e-6
        assert (loaded.rest.faces == orig.rest.faces).all()
        assert np.abs(loaded.gt_skinning - orig.gt_skinning).max() < 1e-9
        assert loaded.part_names == orig.part_names
        assert len(loaded.poses) == len(orig.poses)
        for (_, mo), (_, ml) in zip(orig.poses, loaded.poses):
            assert np.abs(ml.vertices - mo.vertices).max() < 1e-6


def test_load_dataset_requires_manifest(tmp_path):
    with pytest.raises(SynthError):
        load_dataset(tmp_path)


def test_dataset_config_rejects_negative_seed():
    with pytest.raises(SynthError, match="seed"):
        DatasetConfig(seed=-1)


def test_dataset_config_rejects_negative_counts():
    for name in ("n_paired", "n_static", "n_held", "n_poses"):
        with pytest.raises(SynthError, match=name):
            DatasetConfig(**{name: -1})
        DatasetConfig(**{name: 0})


@pytest.fixture
def saved_small(tmp_path):
    save_dataset(make_dataset(SMALL), tmp_path)
    return tmp_path


@pytest.mark.parametrize("edit, line, named", [
    (lambda d: (d / "paired01_rest.obj").write_text("v 0 0 x\n"), 2, "paired01_rest.obj"),
    (lambda d: (d / "static00_skinning.txt").write_text("bad\n"), 4, "static00_skinning.txt"),
    (lambda d: (d / "held00_parts.txt").write_bytes(b"\xff\n"), 6, "held00_parts.txt"),
    (lambda d: (d / "paired00_pose1.obj").unlink(), 1, "paired00_pose1.obj"),
    (lambda d: (d / "paired02_pose0.obj").write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"), 3, "paired02"),
    (lambda d: (d / "manifest.txt").write_text("paired00\tpaired\n"), 1, "paired|static|held"),
])
def test_load_dataset_names_manifest_line_and_file(saved_small, edit, line, named):
    edit(saved_small)
    with pytest.raises(SynthError) as exc:
        load_dataset(saved_small)
    assert f"manifest.txt:{line}: " in str(exc.value)
    assert named in str(exc.value)


def test_load_dataset_rejects_unequal_pose_counts(saved_small):
    manifest = saved_small / "manifest.txt"
    lines = manifest.read_text().splitlines()
    lines[0] = lines[0].rsplit(",", 1)[0]  # paired00 loses its last pose
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(SynthError, match="paired characters differ in pose count"):
        load_dataset(saved_small)
