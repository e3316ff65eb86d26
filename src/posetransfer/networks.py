"""Learned pose-transfer modules and the composed pipeline.

Three networks cooperate:

* a skinning weight predictor (graph convolutions + row softmax) that
  softly segments any mesh into K corresponding deformation parts,
* a mesh encoder (graph convolutions) whose per-vertex features are
  aggregated into per-part latents through the skinning weights acting
  as an attention map,
* a per-part transformation decoder (shared MLP) that turns the target
  part latent, the source pose delta, and the analytic source transform
  into a residual rigid transform for each part.

A transfer runs in three stages, each reusable by the next:

1. character encoding (``encode_character``): the skinning weights,
   rest part latents and part centers of one rest mesh, shared by every
   frame;
2. source frame (``encode_source_frame``): the pose delta and the
   analytic source transforms of one posed source, shared by every
   target;
3. decode (``transfer_pose_graphs``): one decoder pass over several
   frames against several targets, then LBS of each frame onto each
   target.  The decoder's first layer acts on [target latent, pose
   delta, source transform], so it splits into a product per target and
   a product per frame, and each (frame, target) pair pays only their
   sum.  ``transfer_pose_graph`` is the one-frame, one-target case.

The decoder output parameterizes rotations with the continuous 6D
representation and is composed onto the analytic source transform, so a
zero-initialized output layer reproduces the analytic retarget exactly.

The analytic registration (weighted Kabsch) is treated as a constant
with respect to gradients: transforms enter the graph as fixed inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .articulation import COVERAGE_EPS, estimate_part_transforms
from .mesh import (
    GraphOperator,
    Mesh,
    MeshError,
    graph_operator,
    normalize_vertices,
    vertex_features,
)

#: Bias added to the raw 6D rotation output so that a zero network output
#: orthonormalizes to the identity rotation.
ROT6D_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


@dataclass(frozen=True)
class PipelineConfig:
    """Architecture hyperparameters shared by all three networks."""

    k_parts: int = 40
    latent: int = 128
    feature_dim: int = 6
    skin_hidden: tuple = (64, 128, 128)
    enc_hidden: tuple = (64, 128, 128)
    dec_hidden: tuple = (256, 128)
    leak: float = 0.2


@dataclass
class PoseTransferParams:
    """Every parameter tensor of the three networks under its checkpoint
    name, in ``_layout`` order."""

    config: PipelineConfig
    tensors: dict

    def __getitem__(self, name: str) -> ad.Tensor:
        return self.tensors[name]

    def named_tensors(self):
        return self.tensors.items()

    def frozen(self) -> PoseTransferParams:
        """The same arrays, not copies, wrapped as constants.  A forward
        pass on frozen params records no autodiff tape, so each activation
        is freed as soon as it is dead; inference runs on these."""
        return PoseTransferParams(self.config, {name: ad.constant(t)
                                                for name, t in self.tensors.items()})

    def zero_grads(self):
        for t in self.tensors.values():
            t.zero_grad()


def _layout(config: PipelineConfig) -> list:
    """The architecture: ``(name, shape, scale)`` for every parameter in
    draw order.  A weight is drawn from N(0, scale^2); a ``None`` scale
    (every bias) starts at zero.  The names are the checkpoint keys."""
    c = config
    layout = []

    def dense(name, d_in, d_out, scale):
        layout.extend([(f"{name}.w", (d_in, d_out), scale), (f"{name}.b", (d_out,), None)])

    for prefix, hidden, d_out in (("skin", c.skin_hidden, c.k_parts),
                                  ("enc", c.enc_hidden, c.latent)):
        dims = (c.feature_dim,) + tuple(hidden)
        for i, (d_in, d_hid) in enumerate(zip(dims[:-1], dims[1:])):
            s = np.sqrt(1.0 / d_in)
            layout.extend([(f"{prefix}.conv{i}.w_neigh", (d_in, d_hid), s),
                           (f"{prefix}.conv{i}.w_self", (d_in, d_hid), s),
                           (f"{prefix}.conv{i}.bias", (d_hid,), None)])
        dense(f"{prefix}.out", dims[-1], d_out, np.sqrt(1.0 / dims[-1]))
    dense("enc.attend", c.latent, c.latent, np.sqrt(1.0 / c.latent))
    # final decoder layer maps to 9 = 6D rotation + translation
    dims = (2 * c.latent + 12,) + tuple(c.dec_hidden) + (9,)
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        dense(f"dec.fc{i}", d_in, d_out, np.sqrt(2.0 / d_in))
    return layout


def _params(config: PipelineConfig, make) -> PoseTransferParams:
    """One leaf tensor per ``_layout`` entry, ``make(name, shape, scale)``
    called in draw order."""
    return PoseTransferParams(config, {
        name: ad.Tensor(make(name, shape, scale), requires_grad=True)
        for name, shape, scale in _layout(config)})


def init_params(config: PipelineConfig = PipelineConfig(), seed: int = 0,
                zero_decoder_out: bool = True) -> PoseTransferParams:
    """Seeded parameter initialization.

    The decoder output layer starts at zero by default so that the whole
    pipeline initially applies the analytic source transforms unchanged.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9e3779b9]))
    dec_out = f"dec.fc{len(config.dec_hidden)}.w" if zero_decoder_out else None

    def draw(name, shape, scale):
        if scale is None or name == dec_out:
            return np.zeros(shape)
        return rng.normal(0.0, scale, size=shape)

    return _params(config, draw)


def empty_params(config: PipelineConfig) -> PoseTransferParams:
    """Params of ``config``'s architecture with unset arrays and no random
    draws, for a loader that overwrites every array."""
    return _params(config, lambda name, shape, scale: np.empty(shape))


# ---- forward passes ----------------------------------------------------

def _conv_stack(x, graph: GraphOperator, params: PoseTransferParams, prefix: str,
                depth: int) -> ad.Tensor:
    """``depth`` graph convolutions h' = leaky(A h W_neigh + h W_self + b),
    A the graph operator (Kipf & Welling, ICLR 2017, with a separate self
    weight), with the weights stored under ``prefix``."""
    h = ad.as_tensor(x)
    for i in range(depth):
        layer = f"{prefix}.conv{i}."
        h = ad.graph_conv(graph, h, params[layer + "w_neigh"],
                          params[layer + "w_self"], params[layer + "bias"],
                          alpha=params.config.leak)
    return h


def predict_skinning(features, graph: GraphOperator,
                     params: PoseTransferParams) -> ad.Tensor:
    """(N, 6) features -> (N, K) row-stochastic skinning weights."""
    h = _conv_stack(features, graph, params, "skin", len(params.config.skin_hidden))
    return ad.softmax_rows(h @ params["skin.out.w"] + params["skin.out.b"])


def encode(features, graph: GraphOperator, params: PoseTransferParams) -> ad.Tensor:
    """(N, 6) features -> (N, C) per-vertex latent."""
    h = _conv_stack(features, graph, params, "enc", len(params.config.enc_hidden))
    return h @ params["enc.out.w"] + params["enc.out.b"]


def attend(w, y, params: PoseTransferParams) -> ad.Tensor:
    """Aggregate per-vertex latents into per-part latents: conv1d(W^T Y)."""
    pooled = ad.transpose(ad.as_tensor(w)) @ ad.as_tensor(y)
    return pooled @ params["enc.attend.w"] + params["enc.attend.b"]


def rotations_from_6d(raw: ad.Tensor) -> ad.Tensor:
    """(K, 6) -> (K, 3, 3) rotations via Gram-Schmidt of two 3-vectors.

    The identity bias is added first, so zero input gives the identity.
    Columns of each rotation are the two orthonormalized vectors and
    their cross product.
    """
    biased = raw + ad.constant(ROT6D_IDENTITY[None, :])
    a, b = biased[:, 0:3], biased[:, 3:6]
    b1 = a / ad.norm_rows(a, 1e-12)
    dot = ad.sum_(b * b1, axis=1, keepdims=True)
    u = b - dot * b1
    b2 = u / ad.norm_rows(u, 1e-12)
    b3 = ad.cross_rows(b1, b2)
    k = raw.shape[0]
    return ad.concat([col.reshape(k, 3, 1) for col in (b1, b2, b3)], axis=2)


def decode_transforms(z_targets: list, z_deltas: list, t_src: np.ndarray,
                      params: PoseTransferParams) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
    """Predict target part transforms as residuals on the source transforms,
    for F frames against T targets in one pass.

    ``z_targets`` holds the T targets' (K, C) part latents, ``z_deltas``
    the F frames' (K, C) pose deltas and ``t_src`` (F, K, 12) their
    source transforms, row-major flattened.  The first layer is computed
    by input block: ``z_target @ W0[:C]`` once per target, ``z_delta @
    W0[C:2C] + t_src @ W0[2C:]`` once per frame, and their sum per pair.

    Returns (rotations, translations, flat) with one row per (frame,
    target, part), in that order: the (FTK, 3, 3) rotations, the (FTK, 3)
    translations, and the (FTK, 12) row-major flattening of both that the
    transformation-regression loss uses.
    """
    n_frames, k = t_src.shape[:2]
    n_targets, c = len(z_targets), params.config.latent
    w0 = params["dec.fc0.w"]
    per_target = ad.concat(z_targets, axis=0) @ w0[:c]
    per_frame = (ad.concat(z_deltas, axis=0) @ w0[c:2 * c]
                 + ad.constant(t_src.reshape(-1, 12)) @ w0[2 * c:] + params["dec.fc0.b"])
    width = per_frame.shape[1]
    h = (per_frame.reshape(n_frames, 1, k, width)
         + per_target.reshape(1, n_targets, k, width)).reshape(-1, width)
    n_layers = len(params.config.dec_hidden) + 1
    for i in range(1, n_layers):
        h = ad.leaky_relu(h, alpha=params.config.leak)
        h = h @ params[f"dec.fc{i}.w"] + params[f"dec.fc{i}.b"]
    rows = np.broadcast_to(t_src[:, None], (n_frames, n_targets, k, 12)).reshape(-1, 12)
    n = rows.shape[0]
    rotations = ad.einsum("kij,kjl->kil", rotations_from_6d(h[:, 0:6]),
                          ad.constant(rows[:, :9].reshape(n, 3, 3)))
    translations = h[:, 6:9] + ad.constant(rows[:, 9:])
    flat = ad.concat([rotations.reshape(n, 9), translations], axis=1)
    return rotations, translations, flat


def centers_tensor(w: ad.Tensor, vertices) -> ad.Tensor:
    """Differentiable part centers: (W^T V) / column sums, (K, 3)."""
    v = ad.as_tensor(vertices)
    num = ad.transpose(w) @ v
    cov = ad.transpose(ad.sum_(w, axis=0, keepdims=True))
    return num / ad.clip(cov, COVERAGE_EPS, np.inf)


def lbs_tensor(vertices, w: ad.Tensor, rotations: ad.Tensor, translations: ad.Tensor,
               centers: ad.Tensor) -> ad.Tensor:
    """Differentiable LBS: V_i = sum_k w_ik [R_k (Vbar_i - C_k) + t_k].

    ``vertices`` (N, 3), ``w`` (N, K), ``rotations`` (K, 3, 3),
    ``translations`` and ``centers`` (K, 3).  Evaluated as the blended
    rotation sum_k w_ik R_k applied to Vbar_i plus sum_k w_ik (t_k - R_k C_k).
    """
    blended = ad.einsum("nk,kij->nij", w, rotations)
    offsets = translations - ad.einsum("kij,kj->ki", rotations, centers)
    return ad.einsum("nij,nj->ni", blended, vertices) + ad.matmul(w, offsets)


# ---- composed pipeline -------------------------------------------------

@dataclass
class CharContext:
    """Per-character precomputation in the unit-height normalized frame."""

    mesh: Mesh
    norm_vertices: np.ndarray
    center: np.ndarray
    scale: float
    graph: GraphOperator
    features: np.ndarray

    def normalize(self, vertices: np.ndarray) -> np.ndarray:
        return (vertices - self.center) / self.scale

    def denormalize(self, vertices: np.ndarray) -> np.ndarray:
        return vertices * self.scale + self.center


def char_context(mesh: Mesh) -> CharContext:
    norm, center, scale = normalize_vertices(mesh.vertices)
    return CharContext(mesh=mesh, norm_vertices=norm, center=center, scale=scale,
                       graph=graph_operator(mesh),
                       features=vertex_features(mesh.faces, norm).data)


@dataclass
class CharEncoding:
    """A character as the networks see it at rest.

    The skinning weights and the rest part latents depend only on the
    rest mesh and the params, so inference encodes each character once
    and reuses the encoding for every frame.  ``z`` is always attended
    through ``w``.
    """

    ctx: CharContext
    w: ad.Tensor  # (N, K) skinning weights
    z: ad.Tensor  # (K, C) rest part latents

    @cached_property
    def centers(self) -> ad.Tensor:
        """(K, 3) part centers under ``w``, computed on first use."""
        return centers_tensor(self.w, self.ctx.norm_vertices)


def encode_character(ctx: CharContext, params: PoseTransferParams) -> CharEncoding:
    w = predict_skinning(ctx.features, ctx.graph, params)
    y = encode(ctx.features, ctx.graph, params)
    return CharEncoding(ctx=ctx, w=w, z=attend(w, y, params))


def source_transforms(source: CharEncoding, posed_vertices) -> np.ndarray:
    """Analytic part transforms of the posed source (normalized frame), as
    (K, 12) rows: weighted Kabsch from rest to ``posed_vertices`` under the
    source's renormalized skinning."""
    ctx = source.ctx
    return estimate_part_transforms(ctx.mesh.with_vertices(ctx.norm_vertices),
                                    ctx.mesh.with_vertices(posed_vertices),
                                    _renormalized(source.w.data))


@dataclass
class SourceFrame:
    """One posed source as the decoder sees it (source rest frame).

    The pose delta and the analytic source transforms depend only on the
    source and its pose, so one frame is decoded onto every target.
    """

    source: CharEncoding
    posed: ad.Tensor  # (N_s, 3)
    z_delta: ad.Tensor  # (K, C) posed minus rest part latents
    t_stack: np.ndarray  # (K, 12) source transforms, row-major rotation then translation


def encode_source_frame(posed_vertices, source: CharEncoding, params: PoseTransferParams,
                        t_stack: np.ndarray | None = None) -> SourceFrame:
    """Encode one posed source against its rest encoding.

    ``posed_vertices`` must already be in the source rest frame; it may
    be a plain array or a live tensor (the cycle pass feeds the predicted
    target back in).  The analytic source transforms enter as constants;
    pass their (K, 12) rows as ``t_stack`` to pin them (gradient checking
    does).
    """
    posed = ad.as_tensor(posed_vertices)
    ctx = source.ctx
    y_posed = encode(vertex_features(ctx.mesh.faces, posed), ctx.graph, params)
    z_posed = attend(source.w, y_posed, params)
    if t_stack is None:
        t_stack = source_transforms(source, posed.data)
    return SourceFrame(source=source, posed=posed, z_delta=z_posed - source.z,
                       t_stack=t_stack)


@dataclass
class TransferGraph:
    """All live tensors of one source-to-target transfer (normalized frame)."""

    deformed: ad.Tensor  # (N_t, 3), target frame
    frame: SourceFrame
    target: CharEncoding
    rotations: ad.Tensor  # (K, 3, 3)
    translations: ad.Tensor  # (K, 3)
    t_flat: ad.Tensor  # (K, 12)


def transfer_pose_graphs(frames: list[SourceFrame], targets: list[CharEncoding],
                         params: PoseTransferParams) -> list[list[TransferGraph]]:
    """Decode every frame onto every target in one decoder pass, then LBS
    each about its target's part centers; ``[f][t]`` is frame f's transfer
    onto target t."""
    rotations, translations, t_flat = decode_transforms(
        [t.z for t in targets], [f.z_delta for f in frames],
        np.stack([f.t_stack for f in frames]), params)
    k = frames[0].t_stack.shape[0]
    graphs = []
    for p, (frame, target) in enumerate((f, t) for f in frames for t in targets):
        part = slice(p * k, (p + 1) * k)
        rot, trans, flat = rotations[part], translations[part], t_flat[part]
        graphs.append(TransferGraph(
            deformed=lbs_tensor(target.ctx.norm_vertices, target.w, rot, trans, target.centers),
            frame=frame, target=target, rotations=rot, translations=trans, t_flat=flat))
    return [graphs[i:i + len(targets)] for i in range(0, len(graphs), len(targets))]


def transfer_pose_graph(frame: SourceFrame, target: CharEncoding,
                        params: PoseTransferParams) -> TransferGraph:
    """Build the differentiable graph of one frame's transfer onto ``target``:
    decoder and LBS about the target's part centers."""
    return transfer_pose_graphs([frame], [target], params)[0][0]


def _renormalized(w: np.ndarray) -> np.ndarray:
    # softmax rows sum to 1 only up to float error; tighten for validation
    return w / w.sum(axis=1, keepdims=True)


@dataclass
class TransferResult:
    mesh: Mesh
    w_source: np.ndarray
    w_target: np.ndarray
    transforms: np.ndarray  # (K, 12) predicted part transforms
    t_source: np.ndarray  # (K, 12) analytic source transforms


def pose_transfer(source_posed: Mesh, source_rest: Mesh, target_rest: Mesh,
                  params: PoseTransferParams) -> TransferResult:
    """Full transfer on plain meshes: returns the deformed target in model
    units plus the predicted skinnings and part transforms.  Runs on
    ``params.frozen()``, so it records no autodiff tape."""
    if source_posed.n_vertices != source_rest.n_vertices:
        raise MeshError(f"posed and rest source must share vertices, got "
                        f"{source_posed.n_vertices} and {source_rest.n_vertices}")
    params = params.frozen()
    src = encode_character(char_context(source_rest), params)
    tgt = encode_character(char_context(target_rest), params)
    frame = encode_source_frame(src.ctx.normalize(source_posed.vertices), src, params)
    graph = transfer_pose_graph(frame, tgt, params)
    return TransferResult(
        mesh=target_rest.with_vertices(tgt.ctx.denormalize(graph.deformed.data)),
        w_source=_renormalized(src.w.data),
        w_target=_renormalized(tgt.w.data),
        transforms=graph.t_flat.data,
        t_source=frame.t_stack,
    )
