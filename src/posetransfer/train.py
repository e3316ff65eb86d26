"""Semi-supervised training: paired batches (reconstruction + transform
regression) interleaved with static-target batches (cycle consistency +
pseudo-ground truth), with skinning and edge losses throughout.

The reference loop is single-threaded and fully deterministic: batch
sampling derives a fresh rng from (seed, step, substep), so resuming
from a checkpoint replays the identical trajectory.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .articulation import PartCenters
from .evaluation import pmd
from .losses import (
    loss_cycle,
    loss_edge,
    loss_rec,
    loss_skin,
    loss_trans,
    total_loss,
    transform_truth,
)
from .networks import (
    CharContext,
    CharEncoding,
    PipelineConfig,
    PoseTransferParams,
    SourceFrame,
    TransferGraph,
    char_context,
    empty_params,
    encode_character,
    encode_source_frame,
    init_params,
    transfer_pose_graph,
)
from .synth import Dataset

#: The loss terms; term ``name`` has the weight ``TrainConfig.lambda_<name>``.
LOSS_TERMS = ("rec", "trans", "cyc", "skin", "edge")
METRICS_HEADER = ["step", "mode", "total", *LOSS_TERMS, "pmd_probe"]


class ConfigError(ValueError):
    pass


class CheckpointError(ValueError):
    """A checkpoint is missing, is not a checkpoint, or mismatches its config."""


class TrainingDiverged(ArithmeticError):
    """A training step produced a non-finite loss, gradient, parameter or
    activation."""


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 240
    lr: float = 1e-3
    lr_schedule: str = "cosine"  # "cosine" (decay to lr_floor * lr) or "constant"
    lr_floor: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    paired_ratio: int = 1
    unpaired_ratio: int = 1
    accum_pairs: int = 4
    seed: int = 0
    ckpt_every: int = 100
    probe_every: int = 10
    lambda_rec: float = 1.0
    lambda_trans: float = 1.0
    lambda_cyc: float = 1.0
    lambda_skin: float = 0.1
    lambda_edge: float = 0.5
    w_pseudo: float = 0.3
    n_skin_pairs: int = 256
    skin_clamp: float = 5.0
    k_parts: int = 40
    latent: int = 128
    skin_hidden: tuple = (64, 128, 128)
    enc_hidden: tuple = (64, 128, 128)
    dec_hidden: tuple = (256, 128)
    leak: float = 0.2

    def __post_init__(self):
        if self.lr <= 0 or self.adam_eps <= 0:
            raise ConfigError("rates must be positive")
        if self.paired_ratio < 0 or self.unpaired_ratio < 0 or \
                self.paired_ratio + self.unpaired_ratio == 0:
            raise ConfigError("batch ratio weights must be >= 0 and not both zero")
        if self.accum_pairs < 1:
            raise ConfigError("accum_pairs must be >= 1")
        if self.lr_schedule not in ("cosine", "constant"):
            raise ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")
        if not 0.0 <= self.lr_floor <= 1.0:
            raise ConfigError("lr_floor must be in [0, 1]")
        for name in ("seed", "steps", "ckpt_every", "probe_every", "n_skin_pairs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name, weight in {**self.loss_weights(), "w_pseudo": self.w_pseudo}.items():
            if weight < 0:
                raise ConfigError(f"loss weight {name} must be non-negative, got {weight}")

    def lr_at(self, step: int) -> float:
        """Learning rate for a given step under the configured schedule."""
        if self.lr_schedule == "constant" or self.steps <= 1:
            return self.lr
        frac = min(max(step / (self.steps - 1), 0.0), 1.0)
        lo = self.lr * self.lr_floor
        return lo + 0.5 * (self.lr - lo) * (1.0 + np.cos(np.pi * frac))

    def loss_weights(self) -> dict:
        """Loss term name -> its ``lambda_*`` weight, in ``LOSS_TERMS`` order."""
        return {name: getattr(self, f"lambda_{name}") for name in LOSS_TERMS}

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(k_parts=self.k_parts, latent=self.latent,
                              skin_hidden=tuple(self.skin_hidden),
                              enc_hidden=tuple(self.enc_hidden),
                              dec_hidden=tuple(self.dec_hidden), leak=self.leak)


def _coerce(value: str, default):
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    if isinstance(default, tuple):
        return tuple(int(v) for v in value.split(",") if v.strip())
    return value


def read_config_file(path, defaults: dict) -> dict:
    """The ``key = value`` lines of ``path`` (``#`` starts a comment),
    coerced to the types in ``defaults``.

    A malformed line, an unknown key or a bad value raises
    ``ConfigError`` naming ``path:line``; bytes that are not UTF-8 read
    as U+FFFD and fail the same way.  ``OSError`` propagates.
    """
    values = {}
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in defaults:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _coerce(val, defaults[key])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}")
    return values


def parse_config(path, base: TrainConfig | None = None,
                 overrides: dict | None = None) -> TrainConfig:
    """Line-based ``key = value`` config; CLI overrides win over the file."""
    merged = dataclasses.asdict(base or TrainConfig())
    if path is not None:
        try:
            merged.update(read_config_file(path, dataclasses.asdict(TrainConfig())))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
    if overrides:
        merged.update(overrides)
    return TrainConfig(**merged)


def config_hash(config: TrainConfig) -> str:
    import hashlib

    payload = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Adam:
    """Adaptive-moment optimizer over the named parameter tensors."""

    def __init__(self, params: PoseTransferParams, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.named_tensors()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.named_tensors()}

    @classmethod
    def from_config(cls, params: PoseTransferParams, config: TrainConfig) -> "Adam":
        return cls(params, lr=config.lr, beta1=config.beta1, beta2=config.beta2,
                   eps=config.adam_eps)

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, tensor in self.params.named_tensors():
            if tensor.grad is None:
                continue
            g = tensor.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            tensor.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


# ---- checkpointing -----------------------------------------------------

def save_checkpoint(path, params: PoseTransferParams, opt: Adam | None,
                    step: int, config: TrainConfig) -> None:
    arrays = {f"param/{n}": t.data for n, t in params.named_tensors()}
    if opt is not None:
        arrays.update({f"adam_m/{n}": a for n, a in opt.m.items()})
        arrays.update({f"adam_v/{n}": a for n, a in opt.v.items()})
        arrays["adam_t"] = np.array(opt.t)
    arrays["step"] = np.array(step)
    arrays["config_json"] = np.frombuffer(
        json.dumps(dataclasses.asdict(config)).encode(), dtype=np.uint8)
    arrays["config_hash"] = np.frombuffer(config_hash(config).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Returns (params, optimizer-or-None, step, config).

    Parameter arrays round-trip bitwise through the npz container.  The
    stored config must match its stored hash, and every array must have
    the name and shape the config's architecture gives it.  Any other
    file raises ``CheckpointError`` naming ``path``; ``OSError`` propagates.
    """
    if not os.path.isfile(path):
        raise CheckpointError(f"no such checkpoint: {path}")
    try:
        with np.load(path) as data:
            config = TrainConfig(**{
                k: tuple(v) if isinstance(v, list) else v
                for k, v in dict(json.loads(bytes(data["config_json"]).decode())).items()
            })
            saved_hash = bytes(data["config_hash"]).decode() if "config_hash" in data else None
            if saved_hash != config_hash(config):
                raise CheckpointError("config_json does not match config_hash")

            def stored(key, like):
                array = data[key]  # a missing key raises KeyError
                if array.shape != like.shape:
                    raise CheckpointError(f"{key} has shape {array.shape}, "
                                          f"the config needs {like.shape}")
                return array

            params = empty_params(config.pipeline_config())
            for name, tensor in params.named_tensors():
                tensor.data = stored(f"param/{name}", tensor.data)
            opt = None
            if "adam_t" in data:
                opt = Adam.from_config(params, config)
                opt.t = int(data["adam_t"])
                for name in opt.m:
                    opt.m[name] = stored(f"adam_m/{name}", opt.m[name])
                    opt.v[name] = stored(f"adam_v/{name}", opt.v[name])
            step = int(data["step"])
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot load checkpoint {path}: {exc}") from exc
    return params, opt, step, config


# ---- batch construction ------------------------------------------------

class _ContextCache:
    """Per-character pipeline precomputation, keyed by sample identity.

    Each entry keeps its sample alive and is returned only for that very
    object, so a recycled ``id`` can never hit a stale entry.
    """

    def __init__(self):
        self._entries: dict = {}

    def context(self, sample) -> CharContext:
        entry = self._entries.get(id(sample))
        if entry is None or entry[0] is not sample:
            entry = self._entries[id(sample)] = (sample, char_context(sample.rest))
        return entry[1]


def trans_truth(graph: TransferGraph, posed) -> list:
    """The trans loss's ground truth for ``graph``: the target's rest onto
    ``posed`` (normalized) under its detached skinning and part centers."""
    target = graph.target
    rest = target.ctx.mesh.with_vertices(target.ctx.norm_vertices)
    w = target.w.data
    return transform_truth(rest, rest.with_vertices(posed), w,
                           centers=PartCenters(centers=graph.target_centers.data,
                                               coverage=w.sum(axis=0)))


def loss_components(frame: SourceFrame, target: CharEncoding, truth, skinned: list,
                    params: PoseTransferParams, config: TrainConfig, skin_seed: int,
                    t_backward=None, t_truth=None) -> dict:
    """Loss components of one sample: ``frame`` decoded onto ``target``.

    A paired sample (``truth`` holds the target's posed vertices,
    normalized) carries rec + trans, a cycle sample (``truth`` is None)
    carries cyc (cycle + pseudo); skin, averaged over the ``(encoding, gt
    skinning)`` pairs of ``skinned``, and edge apply to both.  A term
    whose weight in ``config`` is 0 is not computed.

    ``t_backward`` and ``t_truth`` pin the stop-gradients that the
    objective derives from the live prediction, the cycle's backward
    transforms and the trans loss's ground truth: gradient checking fills
    them once at its base point, training leaves them empty.
    """
    graph = transfer_pose_graph(frame, target, params)
    if truth is not None:
        terms = {"rec": lambda: loss_rec(graph.deformed, truth),
                 "trans": lambda: loss_trans(graph.t_flat, t_truth if t_truth is not None
                                             else trans_truth(graph, truth))}
    else:
        terms = {"cyc": lambda: loss_cycle(params, graph, config.w_pseudo, t_backward).total}
    if skinned:
        def skin():
            parts = [loss_skin(enc.w, gt, n_pairs=config.n_skin_pairs, rng_seed=skin_seed,
                               clamp=config.skin_clamp) for enc, gt in skinned]
            return sum(parts[1:], parts[0]) * (1.0 / len(parts))
        terms["skin"] = skin
    terms["edge"] = lambda: loss_edge(
        graph.deformed, target.ctx.mesh.with_vertices(target.ctx.norm_vertices),
        edges=target.ctx.graph.edges)
    weights = config.loss_weights()
    return {name: term() for name, term in terms.items() if weights[name]}


def batch_components(src_sample, tgt_sample, pose_idx: int, paired: bool,
                     cache: _ContextCache, params: PoseTransferParams,
                     config: TrainConfig, seed: int) -> dict:
    """Loss components for one batch sample: a paired batch (both
    characters share the pose) or a static-target batch."""
    src = encode_character(cache.context(src_sample), params)
    tgt = encode_character(cache.context(tgt_sample), params)
    frame = encode_source_frame(src.ctx.normalize(src_sample.poses[pose_idx][1].vertices),
                                src, params)
    truth = tgt.ctx.normalize(tgt_sample.poses[pose_idx][1].vertices) if paired else None
    skinned = [(enc, sample.gt_skinning)
               for enc, sample in ((src, src_sample), (tgt, tgt_sample))
               if sample.gt_skinning is not None]
    return loss_components(frame, tgt, truth, skinned, params, config, seed)


def _component_report(components: dict) -> dict:
    return {name: float(components[name].data) if name in components else 0.0
            for name in LOSS_TERMS}


def _batch_rng(seed: int, step: int, substep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, step, substep]))


def sample_paired_batch(dataset: Dataset, rng: np.random.Generator):
    """Sample a (source, target, pose) paired batch.

    Source and target are distinct whenever possible: self-pairs need no
    residual correction and carry little training signal.
    """
    chars = dataset.paired
    si = int(rng.integers(len(chars)))
    ti = int(rng.integers(len(chars)))
    if len(chars) > 1 and ti == si:
        ti = (si + 1 + int(rng.integers(len(chars) - 1))) % len(chars)
    pose = int(rng.integers(len(chars[si].poses)))
    return chars[si], chars[ti], pose


def sample_unpaired_batch(dataset: Dataset, rng: np.random.Generator):
    """Sample a (posed source, static target, pose) batch."""
    src = dataset.paired[int(rng.integers(len(dataset.paired)))]
    pose = int(rng.integers(len(src.poses)))
    tgt = dataset.static[int(rng.integers(len(dataset.static)))]
    return src, tgt, pose


def _mode_pattern(dataset: Dataset, config: TrainConfig) -> str:
    if not dataset.paired or not dataset.paired[0].poses:
        raise ConfigError("training requires paired characters with poses")
    pattern = "p" * config.paired_ratio + "u" * config.unpaired_ratio
    if not dataset.static:
        pattern = pattern.replace("u", "") or "p"
    return pattern


def _probe_pmd(dataset: Dataset, params: PoseTransferParams) -> float:
    from .networks import pose_transfer

    probe = dataset.held if len(dataset.held) >= 2 else dataset.paired
    if len(probe) < 2 or not probe[0].poses:
        return float("nan")
    src, tgt = probe[0], probe[1]
    result = pose_transfer(src.poses[0][1], src.rest, tgt.rest, params)
    return pmd(result.mesh, tgt.poses[0][1])


@contextlib.contextmanager
def _diverged_at(step: int):
    """Report a forward pass that fails on overflowed activations (Kabsch's
    SVD does not converge on non-finite input) as divergence at ``step``."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise TrainingDiverged(f"training diverged at step {step}: {exc}") from exc


def _require_finite(step: int, what: str, named_arrays) -> None:
    for name, array in named_arrays:
        if array is not None and not np.isfinite(array).all():
            raise TrainingDiverged(f"training diverged at step {step}: "
                                   f"non-finite {what} {name}")


@dataclass
class FitResult:
    params: PoseTransferParams
    optimizer: Adam
    metrics: list
    final_checkpoint: str | None


@np.errstate(over="ignore", invalid="ignore")
def fit(dataset: Dataset, config: TrainConfig, out_dir=None,
        resume_from=None, log=None) -> FitResult:
    """Run the training loop; optionally write checkpoints + metrics CSV.

    A non-finite loss, gradient or updated parameter, or a forward pass
    that overflows, raises ``TrainingDiverged`` naming the step before
    any checkpoint or metrics row is written from the poisoned params.
    Those checks are how divergence surfaces, so NumPy's overflow and
    invalid-value warnings are silenced for the run.
    """
    if resume_from is not None:
        params, opt, start_step, config = load_checkpoint(resume_from)
        if opt is None:
            opt = Adam.from_config(params, config)
    else:
        params = init_params(config.pipeline_config(), seed=config.seed)
        opt = Adam.from_config(params, config)
        start_step = 0
    cache = _ContextCache()
    pattern = _mode_pattern(dataset, config)
    weights = config.loss_weights()
    metrics: list = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    last_probe = _probe_pmd(dataset, params)

    for step in range(start_step, config.steps):
        opt.lr = config.lr_at(step)
        mode = pattern[step % len(pattern)]
        accum_reports = []
        for sub in range(config.accum_pairs):
            rng = _batch_rng(config.seed, step, sub)
            skin_seed = int(rng.integers(2 ** 31))
            sample = sample_paired_batch if mode == "p" else sample_unpaired_batch
            src, tgt, pose_idx = sample(dataset, rng)
            with _diverged_at(step):
                components = batch_components(src, tgt, pose_idx, mode == "p", cache,
                                              params, config, skin_seed)
            total = total_loss(components, weights)
            if not np.isfinite(total.data):
                raise TrainingDiverged(f"training diverged at step {step}: "
                                       f"loss is {float(total.data)}")
            (total * (1.0 / config.accum_pairs)).backward()
            report = _component_report(components)
            report["total"] = float(total.data)
            accum_reports.append(report)
        _require_finite(step, "gradient", ((n, t.grad) for n, t in params.named_tensors()))
        opt.step()
        _require_finite(step, "parameter", ((n, t.data) for n, t in params.named_tensors()))
        params.zero_grads()

        row = {k: float(np.mean([r[k] for r in accum_reports]))
               for k in ("total", *LOSS_TERMS)}
        if config.probe_every and (step + 1) % config.probe_every == 0:
            with _diverged_at(step):
                last_probe = _probe_pmd(dataset, params)
        row.update(step=step, mode="paired" if mode == "p" else "unpaired",
                   pmd_probe=last_probe)
        metrics.append(row)
        if log:
            log(row)
        if out_dir is not None and config.ckpt_every and \
                (step + 1) % config.ckpt_every == 0:
            save_checkpoint(os.path.join(out_dir, f"ckpt_{step + 1:06d}.npz"),
                            params, opt, step + 1, config)

    final = None
    if out_dir is not None:
        final = os.path.join(out_dir, "ckpt_final.npz")
        save_checkpoint(final, params, opt, config.steps, config)
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"), metrics)
    return FitResult(params=params, optimizer=opt, metrics=metrics,
                     final_checkpoint=final)


def write_metrics_csv(path, metrics: list) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRICS_HEADER)
        writer.writeheader()
        for row in metrics:
            writer.writerow({k: row[k] for k in METRICS_HEADER})
