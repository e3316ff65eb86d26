"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion.  The training
criteria run real (scaled-down) training and together take on the order
of ten minutes single-threaded.
"""
import time

import numpy as np
import pytest

from posetransfer.articulation import (
    estimate_part_transforms,
    lbs_deform,
    part_centers,
    validate_skinning,
)
from posetransfer.evaluation import consistency_scores, cross_pmd
from posetransfer.gradsuite import run_gradient_suite
from posetransfer.mesh import Mesh
from posetransfer.networks import (
    PipelineConfig,
    char_context,
    encode_character,
    init_params,
    pose_transfer,
    predict_skinning,
)
from posetransfer.synth import (
    CharacterSpec,
    DatasetConfig,
    generate_character,
    make_dataset,
)
from posetransfer.train import TrainConfig, fit, load_checkpoint, save_checkpoint

from conftest import as_rigid, random_rotation, random_rows, rest_rows


def _status(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _cross_pmd(chars, params) -> float:
    """Mean PMD over all ordered cross-character pairs and shared poses."""
    params = params.frozen()
    encodings = [encode_character(char_context(ch.rest), params) for ch in chars]
    return float(np.mean(list(cross_pmd(chars, encodings, params))))


def _zero_decoder_params(config: TrainConfig):
    """The analytic-retarget-only baseline: untrained identity-at-init model."""
    return init_params(config.pipeline_config(), seed=config.seed)


@pytest.fixture(scope="module")
def default_dataset():
    return make_dataset(DatasetConfig(seed=0))


@pytest.fixture(scope="module")
def seeded_runs(default_dataset):
    """Three seeded default trainings plus their no-pseudo ablations."""
    runs = {}
    for seed in (0, 1, 2):
        full = fit(default_dataset, TrainConfig(seed=seed, probe_every=0))
        ablated = fit(default_dataset,
                      TrainConfig(seed=seed, probe_every=0, w_pseudo=0.0))
        runs[seed] = (full.params, ablated.params)
    return runs


# ---- criterion 1: gradient suite ---------------------------------------

def test_gradient_suite():
    start = time.time()
    reports = run_gradient_suite(seed=0)
    elapsed = time.time() - start
    failed = [name for name, rep in reports if not rep.passed]
    worst = max(rep.max_rel_err for _, rep in reports)
    ok = not failed and elapsed < 60.0
    _status("criterion 1 (gradient suite)", ok,
            f"{len(reports)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert not failed, f"gradient checks failed: {failed}"
    assert elapsed < 60.0


# ---- criterion 2: articulation oracles ---------------------------------

def test_articulation_oracles():
    rng = np.random.default_rng(0)
    n = 20
    v = rng.normal(size=(n, 3))
    mesh = Mesh(vertices=v, faces=[[i, (i + 1) % n, (i + 2) % n] for i in range(n)])
    w = rng.uniform(size=(n, 5))
    w /= w.sum(axis=1, keepdims=True)
    rest_identity = lbs_deform(mesh, w, as_rigid(rest_rows(part_centers(mesh, w))))
    err_identity = np.abs(rest_identity.vertices - v).max()

    r_star = random_rotation(rng)
    t_star = rng.normal(size=3)
    posed = mesh.with_vertices(v @ r_star.T + t_star)
    recovered = estimate_part_transforms(mesh, posed, w)
    err_rot = np.abs(recovered[:, :9] - r_star.ravel()).max()
    err_round = np.abs(lbs_deform(mesh, w, as_rigid(recovered)).vertices - posed.vertices).max()

    labels = rng.integers(0, 3, size=n)
    hot = np.zeros((n, 3))
    hot[np.arange(n), labels] = 1.0
    deformed = lbs_deform(mesh, hot, as_rigid(random_rows(rng, 3)))
    again = lbs_deform(mesh, hot, as_rigid(estimate_part_transforms(mesh, deformed, hot)))
    err_hot = np.abs(again.vertices - deformed.vertices).max()

    ok = err_identity <= 1e-6 and err_rot < 1e-6 and err_round < 1e-6 and err_hot <= 1e-5
    _status("criterion 2 (articulation oracles)", ok,
            f"identity {err_identity:.1e}, rotation {err_rot:.1e}, "
            f"round-trip {err_round:.1e}, one-hot {err_hot:.1e}")
    assert err_identity <= 1e-6
    assert err_rot < 1e-6
    assert err_round < 1e-6
    assert err_hot <= 1e-5


# ---- criterion 3: partition of unity -----------------------------------

def test_partition_of_unity_100_random():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(i)
        spec = CharacterSpec(seed=i,
                             limb_count=2 + int(rng.integers(0, 4)),
                             segments_per_limb=1 + int(rng.integers(0, 2)),
                             torso_segments=1 + int(rng.integers(0, 2)),
                             ring_verts=3, rings_per_segment=2)
        char = generate_character(spec)
        config = PipelineConfig(k_parts=3 + int(rng.integers(0, 8)), latent=6,
                                skin_hidden=(7, 6), enc_hidden=(7, 6), dec_hidden=(8,))
        params = init_params(config, seed=i, zero_decoder_out=False)
        ctx = char_context(char.rest)
        w = predict_skinning(ctx.features, ctx.graph, params)
        validate_skinning(w.data, char.rest.n_vertices)
        worst = max(worst, float(np.abs(w.data.sum(axis=1) - 1.0).max()))
    ok = worst <= 1e-6
    _status("criterion 3 (partition of unity)", ok,
            f"100 meshes/parameter draws, worst row-sum deviation {worst:.1e}")
    assert ok


# ---- criterion 4: identity at initialization ---------------------------

def test_identity_at_init_matches_analytic_retarget():
    ds = make_dataset(DatasetConfig(n_paired=2, n_static=0, n_held=0, n_poses=1,
                                    seed=7, ring_verts=4, rings_per_segment=2))
    src, tgt = ds.paired
    config = PipelineConfig(k_parts=8, latent=12, skin_hidden=(12, 12),
                            enc_hidden=(12, 12), dec_hidden=(16,))
    params = init_params(config, seed=0)  # decoder output layer zeroed
    posed = src.poses[0][1]
    result = pose_transfer(posed, src.rest, tgt.rest, params)

    # analytic retarget: LBS the normalized target with the source part
    # transforms under the predicted target skinning, then denormalize
    tgt_ctx = char_context(tgt.rest)
    norm_target = tgt.rest.with_vertices(tgt_ctx.norm_vertices)
    analytic = lbs_deform(norm_target, result.w_target, as_rigid(result.t_source))
    expected = tgt_ctx.denormalize(analytic.vertices)
    err = np.abs(result.mesh.vertices - expected).max()
    ok = err <= 1e-6
    _status("criterion 4 (identity at init)", ok, f"max vertex deviation {err:.1e}")
    assert ok


# ---- criterion 5: overfit convergence ----------------------------------

def test_overfit_two_characters():
    start = time.time()
    ds = make_dataset(DatasetConfig(n_paired=2, n_static=0, n_held=0,
                                    n_poses=8, seed=5))
    config = TrainConfig(steps=2000, lr=1e-3, accum_pairs=4, seed=0,
                         ckpt_every=0, probe_every=0)
    baseline = _cross_pmd(ds.paired, _zero_decoder_params(config))
    result = fit(ds, config)
    trained = _cross_pmd(ds.paired, result.params)
    elapsed = time.time() - start
    ok = trained < 1.0 and trained * 10.0 <= baseline and elapsed < 900.0
    _status("criterion 5 (overfit convergence)", ok,
            f"PMD {trained:.3f} vs baseline {baseline:.3f} "
            f"({baseline / trained:.1f}x), {elapsed:.0f}s")
    assert trained < 1.0
    assert trained * 10.0 <= baseline
    assert elapsed < 900.0


# ---- criterion 6: generalization smoke test ----------------------------

def test_generalization_majority_direction(default_dataset, seeded_runs):
    held = default_dataset.held
    beats_baseline = beats_ablation = 0
    details = []
    for seed, (full_params, ablated_params) in seeded_runs.items():
        full = _cross_pmd(held, full_params)
        ablated = _cross_pmd(held, ablated_params)
        baseline = _cross_pmd(held, _zero_decoder_params(
            TrainConfig(seed=seed, probe_every=0)))
        beats_baseline += full < baseline
        beats_ablation += full < ablated
        details.append(f"seed {seed}: {full:.2f} vs base {baseline:.2f} "
                       f"/ no-pseudo {ablated:.2f}")
    ok = beats_baseline >= 2 and beats_ablation >= 2
    _status("criterion 6 (generalization direction)", ok,
            f"beats baseline {beats_baseline}/3, beats ablation {beats_ablation}/3; "
            + "; ".join(details))
    assert beats_baseline >= 2
    assert beats_ablation >= 2


# ---- criterion 7: consistency protocol ---------------------------------

def test_consistency_protocol(default_dataset, seeded_runs):
    held = default_dataset.held
    gt_labels = [np.array(ch.part_names)[ch.gt_skinning.argmax(axis=1)]
                 for ch in held]
    gt_vs_gt = consistency_scores(gt_labels, gt_labels)

    constructed = consistency_scores(
        [np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1])],
        [np.array(["a", "a", "b", "b"]), np.array(["b", "b", "a", "a"])])

    params, _ = seeded_runs[0]
    pred_labels = []
    for ch in held:
        ctx = char_context(ch.rest)
        w = predict_skinning(ctx.features, ctx.graph, params)
        pred_labels.append(w.data.argmax(axis=1))
    trained = consistency_scores(pred_labels, gt_labels)

    ok = (gt_vs_gt.pred_to_gt == 1.0 and gt_vs_gt.gt_to_pred == 1.0
          and constructed.pred_to_gt == 0.5 and constructed.gt_to_pred == 0.5
          and trained.pred_to_gt > 0.8)
    _status("criterion 7 (consistency protocol)", ok,
            f"gt-vs-gt {gt_vs_gt.pred_to_gt:.3f}, constructed "
            f"{constructed.pred_to_gt:.3f}, trained pred-to-gt "
            f"{trained.pred_to_gt:.3f}")
    assert gt_vs_gt.pred_to_gt == 1.0
    assert gt_vs_gt.gt_to_pred == 1.0
    assert constructed.pred_to_gt == 0.5
    assert constructed.gt_to_pred == 0.5
    assert trained.pred_to_gt > 0.8


# ---- criterion 8: determinism and persistence --------------------------

def test_determinism_and_persistence(tmp_path):
    ds = make_dataset(DatasetConfig(n_paired=2, n_static=2, n_held=2, n_poses=2,
                                    seed=13, ring_verts=3, rings_per_segment=2,
                                    limb_count=2, segments_per_limb=1,
                                    torso_segments=1))
    config = TrainConfig(steps=8, accum_pairs=1, ckpt_every=0, probe_every=2,
                         k_parts=6, latent=8, skin_hidden=(8, 8),
                         enc_hidden=(8, 8), dec_hidden=(12,), n_skin_pairs=32)
    fit(ds, config, out_dir=tmp_path / "a")
    fit(ds, config, out_dir=tmp_path / "b")
    csv_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    same_csv = csv_a == csv_b

    params, opt, _, _ = load_checkpoint(tmp_path / "a" / "ckpt_final.npz")
    save_checkpoint(tmp_path / "again.npz", params, opt, config.steps, config)
    reloaded, _, _, _ = load_checkpoint(tmp_path / "again.npz")
    src, tgt = ds.held
    before = pose_transfer(src.poses[0][1], src.rest, tgt.rest, params)
    after = pose_transfer(src.poses[0][1], src.rest, tgt.rest, reloaded)
    bitwise = (before.mesh.vertices == after.mesh.vertices).all()

    ok = same_csv and bitwise
    _status("criterion 8 (determinism + persistence)", ok,
            f"metrics CSV identical: {same_csv}, forward bitwise: {bool(bitwise)}")
    assert same_csv
    assert bitwise
