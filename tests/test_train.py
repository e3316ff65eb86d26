import dataclasses
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from posetransfer import autodiff as ad
from posetransfer import train
from posetransfer.gradsuite import PIPELINE_COORDS, PIPELINE_TOL, _pipeline_checks
from posetransfer.losses import total_loss
from posetransfer.networks import (
    char_context,
    encode_character,
    encode_source_frame,
    init_params,
    pose_transfer,
)
from posetransfer.synth import CharacterSpec, DatasetConfig, generate_character, make_dataset
from posetransfer.train import (
    Adam,
    CheckpointError,
    ConfigError,
    TrainConfig,
    _CharacterCache,
    _probe_pmd,
    _step_batches,
    fit,
    load_checkpoint,
    loss_components,
    parse_config,
    sample_paired_batch,
    save_checkpoint,
)


TINY = TrainConfig(steps=6, accum_pairs=1, ckpt_every=0, probe_every=0,
                   k_parts=6, latent=8, skin_hidden=(8, 8), enc_hidden=(8, 8),
                   dec_hidden=(12,), n_skin_pairs=32)


@pytest.fixture(scope="module")
def tiny_dataset():
    return make_dataset(DatasetConfig(
        n_paired=2, n_static=2, n_held=2, n_poses=2, seed=21,
        ring_verts=3, rings_per_segment=2, limb_count=2, segments_per_limb=1,
        torso_segments=1))


# ---- configuration -----------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(accum_pairs=0)
    with pytest.raises(ConfigError):
        TrainConfig(paired_ratio=0, unpaired_ratio=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_schedule="linear")
    with pytest.raises(ConfigError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError, match="loss weight rec"):
        TrainConfig(lambda_rec=-1.0)
    with pytest.raises(ConfigError, match="loss weight w_pseudo"):
        TrainConfig(w_pseudo=-1.0)
    for name in ("steps", "ckpt_every", "probe_every", "n_skin_pairs"):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: -1})
        TrainConfig(**{name: 0})


def test_lr_schedule_endpoints():
    cfg = TrainConfig(steps=100, lr=1e-3, lr_schedule="cosine", lr_floor=0.05)
    assert abs(cfg.lr_at(0) - 1e-3) < 1e-15
    assert abs(cfg.lr_at(99) - 0.05e-3) < 1e-15
    mid = cfg.lr_at(49)
    assert 0.05e-3 < mid < 1e-3
    const = TrainConfig(steps=100, lr=1e-3, lr_schedule="constant")
    assert const.lr_at(0) == const.lr_at(99) == 1e-3


def test_parse_config_file_and_overrides(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("steps = 50\nlr = 0.01  # comment\nlambda_edge = 0\n"
                 "dec_hidden = 32,16\n")
    cfg = parse_config(p, overrides={"steps": 7})
    assert cfg.steps == 7  # override wins over file
    assert cfg.lr == 0.01
    assert cfg.lambda_edge == 0.0
    assert cfg.dec_hidden == (32, 16)


def test_parse_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "cfg.txt"
    for line in ("not_a_key = 3\n", "use_edge = false\n"):
        p.write_text(line)
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(p)


def test_ablation_flags_zero_loss_weights(tiny_dataset):
    cfg = dataclasses.replace(TINY, steps=2, lambda_edge=0.0, lambda_skin=0.0)
    w = cfg.loss_weights()
    assert w["edge"] == 0.0
    assert w["skin"] == 0.0
    assert w["rec"] == 1.0
    # a term whose weight is 0 is not computed and reads 0.0
    paired, unpaired = fit(tiny_dataset, cfg).metrics
    assert paired["edge"] == paired["skin"] == unpaired["edge"] == unpaired["skin"] == 0.0
    assert paired["rec"] > 0.0 and unpaired["cyc"] > 0.0


def test_training_objective_gradients_match_finite_differences():
    """The gradient suite's pipeline checks differentiate the training
    objective with every stop-gradient pinned; they hold on seeds 0-19."""
    failed = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, x, f in _pipeline_checks(seed):
            report = ad.gradcheck(f, x, tol=PIPELINE_TOL, max_coords=PIPELINE_COORDS, rng=rng)
            if not report.passed:
                failed.append((seed, name, report.max_rel_err))
    assert failed == []


# ---- optimizer ---------------------------------------------------------

def test_adam_single_step_oracle(tiny_config):
    params = init_params(tiny_config, seed=0)
    opt = Adam(params, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    name, tensor = next(iter(params.named_tensors()))
    before = tensor.data.copy()
    g = np.ones_like(tensor.data)
    tensor.grad = g
    opt.step()
    # first step: m-hat = g, v-hat = g*g -> update is lr * g / (|g| + eps)
    expected = before - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.abs(tensor.data - expected).max() < 1e-12


def test_adam_skips_parameters_without_grads(tiny_config):
    params = init_params(tiny_config, seed=0)
    opt = Adam(params, lr=0.1)
    snapshot = [(n, t.data.copy()) for n, t in params.named_tensors()]
    opt.step()
    for (n, before), (_, t) in zip(snapshot, params.named_tensors()):
        assert (t.data == before).all(), n


# ---- batch sampling ----------------------------------------------------

def test_paired_batches_prefer_cross_pairs(tiny_dataset):
    rng = np.random.default_rng(0)
    for _ in range(50):
        src, tgt, pose = sample_paired_batch(tiny_dataset, rng)
        assert src is not tgt
        assert 0 <= pose < len(src.poses)


def test_context_cache_never_returns_a_stale_entry():
    """A freed sample's id is often reused by the next object; the cache
    must still answer for the object it is given."""
    meshes = [generate_character(CharacterSpec(
        seed=s, limb_count=2, segments_per_limb=1, torso_segments=1,
        ring_verts=3, rings_per_segment=2)).rest for s in range(2)]
    cache = _CharacterCache()
    for i in range(20):
        sample = SimpleNamespace(rest=meshes[i % 2])
        assert cache.context(sample).mesh is sample.rest
        assert cache.context(sample) is cache.context(sample)
        del sample


def test_fit_encodes_each_sampled_character_once_per_step(tiny_dataset, monkeypatch):
    cfg = dataclasses.replace(TINY, steps=4, accum_pairs=4)
    calls = []

    def counting(ctx, params):
        calls.append(ctx)
        return encode_character(ctx, params)

    monkeypatch.setattr(train, "encode_character", counting)
    fit(tiny_dataset, cfg)
    expected = [len({id(ch) for _, src, tgt, _ in _step_batches(tiny_dataset, cfg, step, mode)
                     for ch in (src, tgt)})
                for step, mode in enumerate("pupu")]
    assert len(calls) == sum(expected) < 2 * cfg.accum_pairs * cfg.steps


def _reencoded_gradient(dataset, config, params, step, mode) -> dict:
    """The gradient of one ``fit`` step with both characters of every
    sample encoded afresh for that sample."""
    for skin_seed, src_s, tgt_s, pose in _step_batches(dataset, config, step, mode):
        src = encode_character(char_context(src_s.rest), params)
        tgt = encode_character(char_context(tgt_s.rest), params)
        frame = encode_source_frame(src.ctx.normalize(src_s.poses[pose][1].vertices),
                                    src, params)
        truth = tgt.ctx.normalize(tgt_s.poses[pose][1].vertices) if mode == "p" else None
        skinned = [(src, src_s.gt_skinning), (tgt, tgt_s.gt_skinning)]
        components = loss_components(frame, tgt, truth, skinned, params, config, skin_seed)
        (total_loss(components, config.loss_weights()) * (1.0 / config.accum_pairs)).backward()
    return {name: t.grad for name, t in params.named_tensors()}


@pytest.mark.parametrize("mode", ["p", "u"])
def test_moments_are_the_per_sample_reencoded_gradients(tiny_dataset, mode):
    """Sharing one encoding per character across a step's samples gives the
    gradient of encoding afresh for every sample, up to summation order.

    Step 0 starts from a zero decoder output layer, so no gradient reaches
    the rest part latents ``z`` there; step 1 checks that path."""
    cfg = dataclasses.replace(TINY, steps=2, accum_pairs=4, lr_schedule="constant",
                              paired_ratio=int(mode == "p"), unpaired_ratio=int(mode == "u"))
    first = fit(tiny_dataset, dataclasses.replace(cfg, steps=1))
    second = fit(tiny_dataset, cfg)
    start = init_params(cfg.pipeline_config(), seed=cfg.seed)
    zeros = {name: 0.0 for name, _ in start.named_tensors()}
    for step, params, before, after in ((0, start, zeros, first.optimizer.m),
                                        (1, first.params, first.optimizer.m,
                                         second.optimizer.m)):
        grads = _reencoded_gradient(tiny_dataset, cfg, params, step, mode)
        for name, g in grads.items():
            expected = cfg.beta1 * before[name] + (1.0 - cfg.beta1) * g
            assert np.abs(after[name] - expected).max() <= \
                1e-12 * np.abs(expected).max(), (step, name)


def test_probe_leaves_training_params_differentiable(tiny_dataset):
    params = init_params(TINY.pipeline_config(), seed=TINY.seed)
    assert np.isfinite(_probe_pmd(tiny_dataset, params))
    for name, t in params.named_tensors():
        assert t.requires_grad and t.grad is None, name


# ---- training loop -----------------------------------------------------

def test_fit_zero_steps_returns_initial_params(tiny_dataset):
    cfg = dataclasses.replace(TINY, steps=0)
    result = fit(tiny_dataset, cfg)
    fresh = init_params(cfg.pipeline_config(), seed=cfg.seed)
    for (na, ta), (_, tb) in zip(result.params.named_tensors(),
                                 fresh.named_tensors()):
        assert (ta.data == tb.data).all(), na
    assert result.metrics == []


def test_fit_decreases_loss(tiny_dataset):
    cfg = dataclasses.replace(TINY, steps=40, unpaired_ratio=0)
    result = fit(tiny_dataset, cfg)
    first = result.metrics[0]["total"]
    last = np.mean([m["total"] for m in result.metrics[-5:]])
    assert last < first


def test_fit_deterministic(tiny_dataset):
    a = fit(tiny_dataset, TINY)
    b = fit(tiny_dataset, TINY)
    assert a.metrics == b.metrics
    for (na, ta), (_, tb) in zip(a.params.named_tensors(), b.params.named_tensors()):
        assert (ta.data == tb.data).all(), na


def test_resume_replays_identical_trajectory(tiny_dataset, tmp_path):
    cfg = dataclasses.replace(TINY, steps=6, ckpt_every=3, probe_every=1)
    full = fit(tiny_dataset, cfg, out_dir=tmp_path / "full")
    resumed = fit(tiny_dataset, cfg, out_dir=tmp_path / "resumed",
                  resume_from=tmp_path / "full" / "ckpt_000003.npz")
    for (na, ta), (_, tb) in zip(full.params.named_tensors(),
                                 resumed.params.named_tensors()):
        assert (ta.data == tb.data).all(), na
    assert resumed.metrics == full.metrics[3:]


def test_checkpoint_round_trip_is_bitwise(tiny_dataset, tmp_path):
    result = fit(tiny_dataset, TINY)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, result.params, result.optimizer, TINY.steps, TINY)
    params, opt, step, config = load_checkpoint(path)
    assert step == TINY.steps
    assert config == TINY
    assert opt.t == result.optimizer.t
    for (na, ta), (_, tb) in zip(result.params.named_tensors(),
                                 params.named_tensors()):
        assert (ta.data == tb.data).all(), na
    src, tgt = tiny_dataset.held[0], tiny_dataset.held[1]
    before = pose_transfer(src.poses[0][1], src.rest, tgt.rest, result.params)
    after = pose_transfer(src.poses[0][1], src.rest, tgt.rest, params)
    assert (before.mesh.vertices == after.mesh.vertices).all()


def test_checkpoint_with_wrong_shape_parameter_is_rejected(tmp_path):
    params = init_params(TINY.pipeline_config(), seed=TINY.seed)
    dec = params["dec.fc0.w"]
    dec.data = dec.data[:, :5]
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, None, 0, TINY)
    with pytest.raises(CheckpointError, match="dec.fc0.w"):
        load_checkpoint(path)


def test_checkpoint_with_edited_config_is_rejected(tmp_path):
    params = init_params(TINY.pipeline_config(), seed=TINY.seed)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, None, 0, TINY)
    with np.load(path) as data:
        arrays = dict(data)
    arrays["config_json"] = np.frombuffer(json.dumps(
        dataclasses.asdict(dataclasses.replace(TINY, lr=5.0))).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match="config_hash"):
        load_checkpoint(path)


def _npz_bytes(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _with_config_json(arrays: dict, payload: bytes) -> bytes:
    return _npz_bytes(**{**arrays, "config_json": np.frombuffer(payload, dtype=np.uint8)})


#: Files that are not checkpoints, each from a good checkpoint's arrays.
BAD_CHECKPOINTS = {
    "empty": lambda arrays: b"",
    "random-bytes": lambda arrays: np.random.default_rng(0).bytes(4096),
    "truncated": lambda arrays: _npz_bytes(**arrays)[:1000],
    "npy": lambda arrays: _npy_bytes(np.zeros(3)),
    "no-config": lambda arrays: _npz_bytes(
        **{k: v for k, v in arrays.items() if k != "config_json"}),
    "unknown-config-key": lambda arrays: _with_config_json(
        arrays, json.dumps({**dataclasses.asdict(TINY), "bogus": 1}).encode()),
    "malformed-json": lambda arrays: _with_config_json(arrays, b"{not json"),
    "non-object-json": lambda arrays: _with_config_json(arrays, b"[1, 2]"),
}


@pytest.mark.parametrize("kind", list(BAD_CHECKPOINTS))
def test_bad_checkpoint_file_raises_checkpoint_error(tmp_path, kind):
    params = init_params(TINY.pipeline_config(), seed=TINY.seed)
    save_checkpoint(tmp_path / "good.npz", params, None, 0, TINY)
    with np.load(tmp_path / "good.npz") as data:
        arrays = dict(data)
    path = tmp_path / "bad.npz"
    path.write_bytes(BAD_CHECKPOINTS[kind](arrays))
    with pytest.raises(CheckpointError, match="cannot load checkpoint .*bad.npz"):
        load_checkpoint(path)


def test_missing_checkpoint_raises_checkpoint_error(tmp_path):
    for path in (tmp_path / "nope.npz", tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            load_checkpoint(path)


def test_fit_writes_metrics_and_final_checkpoint(tiny_dataset, tmp_path):
    result = fit(tiny_dataset, TINY, out_dir=tmp_path)
    assert (tmp_path / "metrics.csv").is_file()
    assert (tmp_path / "ckpt_final.npz").is_file()
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert header == "step,mode,total,rec,trans,cyc,skin,edge,pmd_probe"
    assert result.final_checkpoint == str(tmp_path / "ckpt_final.npz")
