import numpy as np
import pytest

from posetransfer import articulation
from posetransfer import autodiff as ad
from posetransfer.articulation import RigidTransform, lbs_deform, part_centers
from posetransfer.mesh import Mesh
from posetransfer.networks import (
    PipelineConfig,
    attend,
    centers_tensor,
    char_context,
    decode_transforms,
    empty_params,
    encode,
    encode_character,
    encode_source_frame,
    init_params,
    lbs_tensor,
    pose_transfer,
    predict_skinning,
    rotations_from_6d,
    transfer_pose_graph,
    transfer_pose_graphs,
)
from posetransfer.synth import CharacterSpec, generate_character, pose_character, sample_pose

from conftest import random_rotation, random_rows, rest_rows


def _permuted(mesh, perm):
    inv = np.argsort(perm)
    return Mesh(vertices=mesh.vertices[perm], faces=inv[mesh.faces])


# ---- skinning predictor ------------------------------------------------

def test_predicted_skinning_partition_of_unity(small_char, tiny_params):
    ctx = char_context(small_char.rest)
    w = predict_skinning(ctx.features, ctx.graph, tiny_params)
    sums = w.data.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-6
    assert w.data.min() >= 0.0


def test_zero_output_layer_gives_uniform_rows(small_char, tiny_params):
    tiny_params["skin.out.w"].data[:] = 0.0
    tiny_params["skin.out.b"].data[:] = 0.0
    ctx = char_context(small_char.rest)
    w = predict_skinning(ctx.features, ctx.graph, tiny_params)
    k = tiny_params.config.k_parts
    assert np.abs(w.data - 1.0 / k).max() < 1e-12


def test_skinning_permutation_equivariance(small_char, tiny_params):
    mesh = small_char.rest
    rng = np.random.default_rng(0)
    perm = rng.permutation(mesh.n_vertices)
    permuted = _permuted(mesh, perm)
    ctx0, ctx1 = char_context(mesh), char_context(permuted)
    w0 = predict_skinning(ctx0.features, ctx0.graph, tiny_params).data
    w1 = predict_skinning(ctx1.features, ctx1.graph, tiny_params).data
    assert np.abs(w1 - w0[perm]).max() < 1e-9


# ---- encoder and attention --------------------------------------------

def test_encode_zero_parameters_gives_zero(small_char, tiny_config):
    params = init_params(tiny_config, seed=0)
    for name, t in params.named_tensors():
        if name.startswith(("enc.conv", "enc.out.")):
            t.data[:] = 0.0
    ctx = char_context(small_char.rest)
    y = encode(ctx.features, ctx.graph, params)
    assert (y.data == 0.0).all()


def test_encode_permutation_equivariance(small_char, tiny_params):
    mesh = small_char.rest
    perm = np.random.default_rng(1).permutation(mesh.n_vertices)
    permuted = _permuted(mesh, perm)
    ctx0, ctx1 = char_context(mesh), char_context(permuted)
    y0 = encode(ctx0.features, ctx0.graph, tiny_params).data
    y1 = encode(ctx1.features, ctx1.graph, tiny_params).data
    assert np.abs(y1 - y0[perm]).max() < 1e-9


def test_attend_one_hot_selects_latent_row(tiny_params):
    c = tiny_params.config.latent
    k = tiny_params.config.k_parts
    rng = np.random.default_rng(2)
    y = rng.normal(size=(9, c))
    w = np.zeros((9, k))
    w[:, 0] = 1.0
    w[4, 0] = 0.0
    w[4, 2] = 1.0  # part 2 owns exactly vertex 4
    tiny_params["enc.attend.w"].data[:] = np.eye(c)
    tiny_params["enc.attend.b"].data[:] = 0.0
    z = attend(ad.constant(w), ad.constant(y), tiny_params)
    assert np.abs(z.data[2] - y[4]).max() < 1e-12


def test_attend_uniform_weights_pool_equally(tiny_params):
    c = tiny_params.config.latent
    k = tiny_params.config.k_parts
    rng = np.random.default_rng(3)
    y = rng.normal(size=(6, c))
    w = np.full((6, k), 1.0 / k)
    tiny_params["enc.attend.w"].data[:] = np.eye(c)
    tiny_params["enc.attend.b"].data[:] = 0.0
    z = attend(ad.constant(w), ad.constant(y), tiny_params)
    assert np.abs(z.data - z.data[0]).max() < 1e-12


# ---- transformation decoder -------------------------------------------

def test_rotations_from_6d_zero_input_is_identity():
    rots = rotations_from_6d(ad.constant(np.zeros((3, 6))))
    assert rots.shape == (3, 3, 3)
    assert np.abs(rots.data - np.eye(3)).max() < 1e-9


def test_rotations_from_6d_always_valid():
    rng = np.random.default_rng(4)
    m = rotations_from_6d(ad.constant(rng.normal(size=(8, 6)))).data
    assert np.abs(m.transpose(0, 2, 1) @ m - np.eye(3)).max() < 1e-9
    assert np.abs(np.linalg.det(m) - 1.0).max() < 1e-9


def test_decoder_zero_output_reproduces_source_transforms(tiny_params):
    """At a zero output layer every (frame, target) row of one decoder pass
    is its frame's source transform, whatever the latents."""
    rng = np.random.default_rng(5)
    k = tiny_params.config.k_parts
    c = tiny_params.config.latent
    t_source = np.stack([random_rows(rng, k) for _ in range(2)])
    w, b = tiny_params["dec.fc1.w"], tiny_params["dec.fc1.b"]
    w.data[:] = 0.0
    b.data[:] = 0.0
    rots, trans, flat = decode_transforms(
        [ad.constant(rng.normal(size=(k, c))) for _ in range(3)],
        [ad.constant(rng.normal(size=(k, c))) for _ in range(2)],
        t_source, tiny_params)
    expected = np.concatenate([frame for frame in t_source for _ in range(3)])
    assert np.abs(rots.data - expected[:, :9].reshape(-1, 3, 3)).max() < 1e-12
    assert np.abs(trans.data - expected[:, 9:]).max() < 1e-12
    assert np.abs(flat.data - expected).max() < 1e-12


def test_decoded_rotations_valid_for_random_params(tiny_params):
    rng = np.random.default_rng(6)
    k = tiny_params.config.k_parts
    c = tiny_params.config.latent
    t_src = rest_rows(np.stack([rng.normal(size=3) for _ in range(k)]))
    rots, _, _ = decode_transforms(
        [ad.constant(rng.normal(size=(k, c)))], [ad.constant(rng.normal(size=(k, c)))],
        t_src[None], tiny_params)
    m = rots.data
    assert np.abs(m.transpose(0, 2, 1) @ m - np.eye(3)).max() < 1e-6
    assert np.abs(np.linalg.det(m) - 1.0).max() < 1e-6


def test_factored_first_layer_matches_the_concatenated_input(tiny_params):
    """Splitting the first layer by input block reassociates one sum:
    rows stay within 1e-12 of ``[z_target, z_delta, t_src] @ W0 + b0``."""
    rng = np.random.default_rng(7)
    p = tiny_params
    k, c = p.config.k_parts, p.config.latent
    z_t, z_d = rng.normal(size=(k, c)), rng.normal(size=(k, c))
    t_src = random_rows(rng, k)
    h = np.concatenate([z_t, z_d, t_src], axis=1) @ p["dec.fc0.w"].data + p["dec.fc0.b"].data
    for i in range(1, len(p.config.dec_hidden) + 1):
        h = np.where(h > 0.0, h, p.config.leak * h) @ p[f"dec.fc{i}.w"].data
        h = h + p[f"dec.fc{i}.b"].data
    _, trans, _ = decode_transforms([ad.constant(z_t)], [ad.constant(z_d)], t_src[None], p)
    expected = h[:, 6:9] + t_src[:, 9:]
    assert np.abs(trans.data - expected).max() <= 1e-12 * np.abs(expected).max()


# ---- linear blend skinning ---------------------------------------------

def test_lbs_tensor_matches_lbs_deform(small_char):
    rng = np.random.default_rng(8)
    rest = small_char.rest
    k = 6
    w = rng.uniform(size=(rest.n_vertices, k))
    w /= w.sum(axis=1, keepdims=True)
    rotations = np.stack([random_rotation(rng) for _ in range(k)])
    translations = rng.normal(size=(k, 3))
    expected = lbs_deform(rest, w, [RigidTransform(rotation=r, translation=t)
                                    for r, t in zip(rotations, translations)])
    centers = centers_tensor(ad.constant(w), rest.vertices)
    assert np.abs(centers.data - part_centers(rest, w)).max() < 1e-12
    out = lbs_tensor(rest.vertices, ad.constant(w), ad.constant(rotations),
                     ad.constant(translations), centers)
    assert np.abs(out.data - expected.vertices).max() < 1e-9


# ---- composed pipeline -------------------------------------------------

def _tape_size(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent, _ in stack.pop()._vjps:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_default_transfer_graph_is_small():
    """Batched K-part algebra: one K=40 transfer between 160-vertex characters
    builds at most 250 tape nodes (per-part loops built 829)."""
    source = generate_character(CharacterSpec(seed=1))
    target = generate_character(CharacterSpec(seed=2))
    assert source.rest.n_vertices == target.rest.n_vertices == 160
    posed = pose_character(source, sample_pose(source.n_joints, np.random.default_rng(0)))
    params = init_params(PipelineConfig(), seed=0, zero_decoder_out=False)
    src = encode_character(char_context(source.rest), params)
    tgt = encode_character(char_context(target.rest), params)
    frame = encode_source_frame(src.ctx.normalize(posed.vertices), src, params)
    graph = transfer_pose_graph(frame, tgt, params)
    assert _tape_size(graph.deformed) <= 250


def test_frames_against_one_pair_of_encodings_match_pose_transfer(small_char, tiny_params):
    """Encoding each character once changes no output bit."""
    target = generate_character(CharacterSpec(
        seed=4, limb_count=2, segments_per_limb=1, torso_segments=1,
        ring_verts=4, rings_per_segment=2))
    src = encode_character(char_context(small_char.rest), tiny_params)
    tgt = encode_character(char_context(target.rest), tiny_params)
    rng = np.random.default_rng(8)
    for _ in range(2):
        posed = pose_character(small_char, sample_pose(small_char.n_joints, rng))
        frame = encode_source_frame(src.ctx.normalize(posed.vertices), src, tiny_params)
        graph = transfer_pose_graph(frame, tgt, tiny_params)
        expected = pose_transfer(posed, small_char.rest, target.rest, tiny_params)
        assert np.array_equal(tgt.ctx.denormalize(graph.deformed.data),
                              expected.mesh.vertices)
        assert np.array_equal(graph.t_flat.data, expected.transforms)


def test_frozen_params_share_arrays_and_record_no_tape(small_char, tiny_params):
    frozen = tiny_params.frozen()
    for (name, t), (_, f) in zip(tiny_params.named_tensors(), frozen.named_tensors()):
        assert f.data is t.data, name
        assert t.requires_grad and not f.requires_grad
    enc = encode_character(char_context(small_char.rest), frozen)
    assert enc.w._vjps == [] and enc.z._vjps == []
    assert not enc.w.requires_grad and not enc.z.requires_grad


def test_pose_transfer_equals_taped_run(small_char, tiny_params):
    """The frozen (tape-free) transfer is bitwise the taped graph's values."""
    target = generate_character(CharacterSpec(
        seed=4, limb_count=2, segments_per_limb=1, torso_segments=1,
        ring_verts=4, rings_per_segment=2))
    posed = pose_character(small_char, sample_pose(small_char.n_joints,
                                                   np.random.default_rng(6)))
    src = encode_character(char_context(small_char.rest), tiny_params)
    tgt = encode_character(char_context(target.rest), tiny_params)
    frame = encode_source_frame(src.ctx.normalize(posed.vertices), src, tiny_params)
    graph = transfer_pose_graph(frame, tgt, tiny_params)
    assert _tape_size(graph.deformed) > 1
    out = pose_transfer(posed, small_char.rest, target.rest, tiny_params)
    assert np.array_equal(out.mesh.vertices, tgt.ctx.denormalize(graph.deformed.data))
    assert np.array_equal(out.w_source, src.w.data / src.w.data.sum(axis=1, keepdims=True))
    assert np.array_equal(out.w_target, tgt.w.data / tgt.w.data.sum(axis=1, keepdims=True))
    assert np.array_equal(out.transforms[:, :9].reshape(-1, 3, 3), graph.rotations.data)
    assert np.array_equal(out.transforms[:, 9:], graph.translations.data)
    assert np.array_equal(out.t_source, frame.t_stack)


def test_one_frame_decoded_onto_two_targets_matches_separate_frames(small_char, tiny_params):
    """Reusing a source frame across targets changes no output bit."""
    targets = [encode_character(char_context(generate_character(CharacterSpec(
        seed=seed, limb_count=2, segments_per_limb=1, torso_segments=1,
        ring_verts=4, rings_per_segment=2)).rest), tiny_params) for seed in (4, 5)]
    src = encode_character(char_context(small_char.rest), tiny_params)
    posed = pose_character(small_char, sample_pose(small_char.n_joints,
                                                   np.random.default_rng(9)))
    posed_norm = src.ctx.normalize(posed.vertices)
    shared = encode_source_frame(posed_norm, src, tiny_params)
    for tgt in targets:
        reused = transfer_pose_graph(shared, tgt, tiny_params)
        fresh = transfer_pose_graph(encode_source_frame(posed_norm, src, tiny_params),
                                    tgt, tiny_params)
        for name in ("deformed", "rotations", "translations"):
            assert np.array_equal(getattr(reused, name).data, getattr(fresh, name).data), name


def test_frames_decoded_onto_targets_in_one_pass_match_each_pair(small_char, tiny_params):
    """``transfer_pose_graphs`` decodes 2 frames onto 3 targets in one pass;
    each pair's outputs are the one-pair graph's within 1e-12 relative."""
    targets = [encode_character(char_context(generate_character(CharacterSpec(
        seed=seed, limb_count=2, segments_per_limb=1, torso_segments=1,
        ring_verts=3 + seed % 2, rings_per_segment=2)).rest), tiny_params)
        for seed in (4, 5, 6)]
    src = encode_character(char_context(small_char.rest), tiny_params)
    rng = np.random.default_rng(10)
    frames = [encode_source_frame(src.ctx.normalize(pose_character(
        small_char, sample_pose(small_char.n_joints, rng)).vertices), src, tiny_params)
        for _ in range(2)]
    graphs = transfer_pose_graphs(frames, targets, tiny_params)
    assert [len(row) for row in graphs] == [3, 3]
    for frame, row in zip(frames, graphs):
        for tgt, graph in zip(targets, row):
            single = transfer_pose_graph(frame, tgt, tiny_params)
            assert graph.frame is frame and graph.target is tgt
            for name in ("deformed", "rotations", "translations", "t_flat"):
                got, want = getattr(graph, name).data, getattr(single, name).data
                assert got.shape == want.shape, name
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def test_source_frame_builds_no_rigid_transform(small_char, tiny_params, monkeypatch):
    """Part transforms stay (K, 12) arrays: encoding a frame, decoding it
    and a whole ``pose_transfer`` build no per-part ``RigidTransform``,
    and the rotations are checked once per stack."""
    posed = pose_character(small_char, sample_pose(small_char.n_joints,
                                                   np.random.default_rng(11)))
    built = []
    check = RigidTransform.__post_init__
    monkeypatch.setattr(RigidTransform, "__post_init__",
                        lambda self: built.append(1) or check(self))
    src = encode_character(char_context(small_char.rest), tiny_params)
    frame = encode_source_frame(src.ctx.normalize(posed.vertices), src, tiny_params)
    transfer_pose_graph(frame, src, tiny_params)
    assert frame.t_stack.shape == (tiny_params.config.k_parts, 12)
    checked = []
    check_rotations = articulation._check_rotations
    monkeypatch.setattr(articulation, "_check_rotations",
                        lambda r: checked.append(r.shape) or check_rotations(r))
    out = pose_transfer(posed, small_char.rest, small_char.rest, tiny_params)
    assert out.transforms.shape == out.t_source.shape == (tiny_params.config.k_parts, 12)
    assert checked == [(tiny_params.config.k_parts, 3, 3)]
    assert built == []


def test_identity_pipeline_at_zero_init(small_char, tiny_config):
    params = init_params(tiny_config, seed=1)  # zero decoder output layer
    rest = small_char.rest
    out = pose_transfer(rest, rest, rest, params)
    assert np.abs(out.mesh.vertices - rest.vertices).max() < 1e-6


def test_pipeline_permutation_equivariance(small_char, tiny_params):
    rng = np.random.default_rng(7)
    from posetransfer.synth import pose_character, sample_pose

    pose = sample_pose(small_char.n_joints, rng)
    posed = pose_character(small_char, pose)
    target = small_char.rest
    perm = rng.permutation(target.n_vertices)
    out0 = pose_transfer(posed, small_char.rest, target, tiny_params)
    out1 = pose_transfer(posed, small_char.rest, _permuted(target, perm), tiny_params)
    assert np.abs(out1.mesh.vertices - out0.mesh.vertices[perm]).max() < 1e-8


def test_pipeline_rejects_mismatched_source(small_char, tiny_params):
    bigger = Mesh(vertices=np.vstack([small_char.rest.vertices, [[0, 0, 9.0]]]),
                  faces=small_char.rest.faces)
    with pytest.raises(ValueError):
        pose_transfer(bigger, small_char.rest, small_char.rest, tiny_params)


def test_init_params_seeded_deterministic(tiny_config):
    a = init_params(tiny_config, seed=9)
    b = init_params(tiny_config, seed=9)
    for (na, ta), (nb, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert na == nb
        assert (ta.data == tb.data).all()


def test_empty_params_have_the_init_names_and_shapes(tiny_config):
    drawn = [(n, t.shape, t.requires_grad) for n, t in init_params(tiny_config).named_tensors()]
    empty = [(n, t.shape, t.requires_grad) for n, t in empty_params(tiny_config).named_tensors()]
    assert empty == drawn


def test_init_params_layout_is_pinned(tiny_config):
    """Checkpoint names, their order and the seeded draws are a format."""
    params = init_params(tiny_config, seed=0)
    assert [n for n, _ in params.named_tensors()] == [
        "skin.conv0.w_neigh", "skin.conv0.w_self", "skin.conv0.bias",
        "skin.conv1.w_neigh", "skin.conv1.w_self", "skin.conv1.bias",
        "skin.out.w", "skin.out.b",
        "enc.conv0.w_neigh", "enc.conv0.w_self", "enc.conv0.bias",
        "enc.conv1.w_neigh", "enc.conv1.w_self", "enc.conv1.bias",
        "enc.out.w", "enc.out.b", "enc.attend.w", "enc.attend.b",
        "dec.fc0.w", "dec.fc0.b", "dec.fc1.w", "dec.fc1.b",
    ]
    assert params["dec.fc0.w"].data[0].tolist() == [
        0.08880176887212352, 0.44616555198212, 0.019164913353116073,
        0.5850620819413805, 0.2758821721514294, -0.16710088056090322,
        -0.29485994340264965, -0.13858645952237092]
    assert params["skin.conv1.w_self"].data[0].tolist() == [
        0.6277114151448795, 0.3950641539369304, -0.31691713184036596,
        -0.085397413650547, 0.2820840316600393, 0.16759710137289294]
    assert params["dec.fc1.w"].shape == (8, 9) and not params["dec.fc1.w"].data.any()
    assert params["dec.fc0.w"].shape == (2 * 6 + 12, 8)
