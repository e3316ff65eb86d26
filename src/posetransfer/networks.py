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

The decoder output parameterizes rotations with the continuous 6D
representation and is composed onto the analytic source transform, so a
zero-initialized output layer reproduces the analytic retarget exactly.

The analytic registration (weighted Kabsch) is treated as a constant
with respect to gradients: transforms enter the graph as fixed inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .articulation import (
    COVERAGE_EPS,
    RigidTransform,
    estimate_part_transforms,
)
from .mesh import (
    GraphOperator,
    Mesh,
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
class GraphConvLayer:
    """h' = leaky(A h W_neigh + h W_self + b) with A the graph operator."""

    w_neigh: ad.Tensor
    w_self: ad.Tensor
    bias: ad.Tensor


@dataclass
class SkinningPredictorParams:
    layers: list
    out_w: ad.Tensor
    out_b: ad.Tensor


@dataclass
class EncoderParams:
    layers: list
    out_w: ad.Tensor
    out_b: ad.Tensor
    conv_w: ad.Tensor  # per-part kernel-size-1 conv on attended features
    conv_b: ad.Tensor


@dataclass
class DecoderParams:
    layers: list  # list of (w, b); final layer maps to 9 = 6D rotation + translation


@dataclass
class PoseTransferParams:
    config: PipelineConfig
    skinning: SkinningPredictorParams
    encoder: EncoderParams
    decoder: DecoderParams

    def named_tensors(self):
        for i, layer in enumerate(self.skinning.layers):
            yield f"skin.conv{i}.w_neigh", layer.w_neigh
            yield f"skin.conv{i}.w_self", layer.w_self
            yield f"skin.conv{i}.bias", layer.bias
        yield "skin.out.w", self.skinning.out_w
        yield "skin.out.b", self.skinning.out_b
        for i, layer in enumerate(self.encoder.layers):
            yield f"enc.conv{i}.w_neigh", layer.w_neigh
            yield f"enc.conv{i}.w_self", layer.w_self
            yield f"enc.conv{i}.bias", layer.bias
        yield "enc.out.w", self.encoder.out_w
        yield "enc.out.b", self.encoder.out_b
        yield "enc.attend.w", self.encoder.conv_w
        yield "enc.attend.b", self.encoder.conv_b
        for i, (w, b) in enumerate(self.decoder.layers):
            yield f"dec.fc{i}.w", w
            yield f"dec.fc{i}.b", b

    def frozen(self) -> PoseTransferParams:
        """The same arrays, not copies, wrapped as constants.  A forward
        pass on frozen params records no autodiff tape, so each activation
        is freed as soon as it is dead; inference runs on these."""
        c = ad.constant

        def convs(layers):
            return [GraphConvLayer(w_neigh=c(layer.w_neigh), w_self=c(layer.w_self),
                                   bias=c(layer.bias)) for layer in layers]

        skin, enc = self.skinning, self.encoder
        return PoseTransferParams(
            config=self.config,
            skinning=SkinningPredictorParams(layers=convs(skin.layers),
                                             out_w=c(skin.out_w), out_b=c(skin.out_b)),
            encoder=EncoderParams(layers=convs(enc.layers), out_w=c(enc.out_w),
                                  out_b=c(enc.out_b), conv_w=c(enc.conv_w),
                                  conv_b=c(enc.conv_b)),
            decoder=DecoderParams(layers=[(c(w), c(b)) for w, b in self.decoder.layers]),
        )

    def zero_grads(self):
        for _, t in self.named_tensors():
            t.zero_grad()

    def groups(self) -> dict:
        """Parameter tensors bucketed by module, for gradient checking."""
        out = {"skinning": [], "encoder": [], "decoder": []}
        for name, t in self.named_tensors():
            key = {"skin": "skinning", "enc": "encoder", "dec": "decoder"}[name.split(".")[0]]
            out[key].append((name, t))
        return out


def _leaf(draw, shape, scale: float) -> ad.Tensor:
    return ad.Tensor(draw(shape, scale), requires_grad=True)


def _conv_stack_params(draw, dims) -> list:
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        s = np.sqrt(1.0 / d_in)
        layers.append(GraphConvLayer(
            w_neigh=_leaf(draw, (d_in, d_out), s),
            w_self=_leaf(draw, (d_in, d_out), s),
            bias=ad.Tensor(np.zeros(d_out), requires_grad=True),
        ))
    return layers


def init_params(config: PipelineConfig = PipelineConfig(), seed: int = 0,
                zero_decoder_out: bool = True) -> PoseTransferParams:
    """Seeded parameter initialization.

    The decoder output layer starts at zero by default so that the whole
    pipeline initially applies the analytic source transforms unchanged.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9e3779b9]))
    return _build_params(config, lambda shape, scale: rng.normal(0.0, scale, size=shape),
                         zero_decoder_out)


def empty_params(config: PipelineConfig) -> PoseTransferParams:
    """Params of ``config``'s architecture with unset arrays and no random
    draws, for a loader that overwrites every array."""
    return _build_params(config, lambda shape, scale: np.empty(shape), True)


def _build_params(config: PipelineConfig, draw, zero_decoder_out: bool) -> PoseTransferParams:
    """The architecture: ``draw(shape, scale)`` makes each random weight,
    in a fixed order; biases start at zero."""
    c = config
    skin_dims = (c.feature_dim,) + tuple(c.skin_hidden)
    enc_dims = (c.feature_dim,) + tuple(c.enc_hidden)
    skinning = SkinningPredictorParams(
        layers=_conv_stack_params(draw, skin_dims),
        out_w=_leaf(draw, (skin_dims[-1], c.k_parts), np.sqrt(1.0 / skin_dims[-1])),
        out_b=ad.Tensor(np.zeros(c.k_parts), requires_grad=True),
    )
    encoder = EncoderParams(
        layers=_conv_stack_params(draw, enc_dims),
        out_w=_leaf(draw, (enc_dims[-1], c.latent), np.sqrt(1.0 / enc_dims[-1])),
        out_b=ad.Tensor(np.zeros(c.latent), requires_grad=True),
        conv_w=_leaf(draw, (c.latent, c.latent), np.sqrt(1.0 / c.latent)),
        conv_b=ad.Tensor(np.zeros(c.latent), requires_grad=True),
    )
    dec_dims = (2 * c.latent + 12,) + tuple(c.dec_hidden) + (9,)
    dec_layers = []
    for i, (d_in, d_out) in enumerate(zip(dec_dims[:-1], dec_dims[1:])):
        last = i == len(dec_dims) - 2
        if last and zero_decoder_out:
            w = ad.Tensor(np.zeros((d_in, d_out)), requires_grad=True)
        else:
            w = _leaf(draw, (d_in, d_out), np.sqrt(2.0 / d_in))
        dec_layers.append((w, ad.Tensor(np.zeros(d_out), requires_grad=True)))
    decoder = DecoderParams(layers=dec_layers)
    return PoseTransferParams(config=config, skinning=skinning,
                              encoder=encoder, decoder=decoder)


# ---- forward passes ----------------------------------------------------

def _conv_stack(x, graph: GraphOperator, layers, leak: float):
    h = ad.as_tensor(x)
    for layer in layers:
        h = ad.leaky_relu(
            ad.sparse_matmul(graph.matrix, h) @ layer.w_neigh
            + h @ layer.w_self + layer.bias,
            alpha=leak,
        )
    return h


def predict_skinning(features, graph: GraphOperator, params: SkinningPredictorParams,
                     leak: float = 0.2) -> ad.Tensor:
    """(N, 6) features -> (N, K) row-stochastic skinning weights."""
    h = _conv_stack(features, graph, params.layers, leak)
    return ad.softmax_rows(h @ params.out_w + params.out_b)


def encode(features, graph: GraphOperator, params: EncoderParams,
           leak: float = 0.2) -> ad.Tensor:
    """(N, 6) features -> (N, C) per-vertex latent."""
    h = _conv_stack(features, graph, params.layers, leak)
    return h @ params.out_w + params.out_b


def attend(w, y, params: EncoderParams) -> ad.Tensor:
    """Aggregate per-vertex latents into per-part latents: conv1d(W^T Y)."""
    pooled = ad.transpose(ad.as_tensor(w)) @ ad.as_tensor(y)
    return pooled @ params.conv_w + params.conv_b


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


def decode_transforms(z_target, z_pose_delta, t_source: list[RigidTransform],
                      params: DecoderParams,
                      leak: float = 0.2) -> tuple[ad.Tensor, ad.Tensor, ad.Tensor]:
    """Predict target part transforms as residuals on the source transforms.

    Returns (rotations, translations, flat): the (K, 3, 3) rotations, the
    (K, 3) translations, and the (K, 12) row-major flattening of both
    that the transformation-regression loss uses.
    """
    t_src = np.stack([tf.flat() for tf in t_source])
    k = t_src.shape[0]
    h = ad.concat([ad.as_tensor(z_target), ad.as_tensor(z_pose_delta),
                   ad.constant(t_src)], axis=1)
    for i, (w, b) in enumerate(params.layers):
        h = h @ w + b
        if i < len(params.layers) - 1:
            h = ad.leaky_relu(h, alpha=leak)
    rotations = ad.einsum("kij,kjl->kil", rotations_from_6d(h[:, 0:6]),
                          ad.constant(t_src[:, :9].reshape(k, 3, 3)))
    translations = h[:, 6:9] + ad.constant(t_src[:, 9:])
    flat = ad.concat([rotations.reshape(k, 9), translations], axis=1)
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


def vertex_features_tensor(v: ad.Tensor, faces: np.ndarray) -> ad.Tensor:
    """Differentiable [position | area-weighted unit normal] features."""
    n = v.shape[0]
    v0, v1, v2 = (ad.rows(v, faces[:, c]) for c in range(3))
    fn = ad.cross_rows(v1 - v0, v2 - v0)
    acc = None
    for c in range(3):
        s = ad.scatter_rows(fn, faces[:, c], n)
        acc = s if acc is None else acc + s
    normals = acc / ad.norm_rows(acc, 1e-12)
    return ad.concat([v, normals], axis=1)


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
    normed = mesh.with_vertices(norm)
    return CharContext(mesh=mesh, norm_vertices=norm, center=center, scale=scale,
                       graph=graph_operator(mesh), features=vertex_features(normed))


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


def encode_character(ctx: CharContext, params: PoseTransferParams) -> CharEncoding:
    leak = params.config.leak
    w = predict_skinning(ctx.features, ctx.graph, params.skinning, leak)
    y = encode(ctx.features, ctx.graph, params.encoder, leak)
    return CharEncoding(ctx=ctx, w=w, z=attend(w, y, params.encoder))


def source_transforms(source: CharEncoding, posed_vertices) -> list[RigidTransform]:
    """Analytic part transforms of the posed source (normalized frame):
    weighted Kabsch from rest to ``posed_vertices`` under the source's
    renormalized skinning."""
    ctx = source.ctx
    return estimate_part_transforms(ctx.mesh.with_vertices(ctx.norm_vertices),
                                    ctx.mesh.with_vertices(posed_vertices),
                                    _renormalized(source.w.data))


@dataclass
class TransferGraph:
    """All live tensors of one source-to-target transfer (normalized frame)."""

    deformed: ad.Tensor  # (N_t, 3), target frame
    source: CharEncoding
    target: CharEncoding
    t_source: list[RigidTransform]
    rotations: ad.Tensor  # (K, 3, 3)
    translations: ad.Tensor  # (K, 3)
    t_flat: ad.Tensor  # (K, 12)
    target_centers: ad.Tensor  # (K, 3)


def transfer_pose_graph(posed_source_vertices, source: CharEncoding, target: CharEncoding,
                        params: PoseTransferParams,
                        t_source: list[RigidTransform] | None = None) -> TransferGraph:
    """Build the differentiable graph of one frame's transfer.

    ``posed_source_vertices`` must already be in the source rest frame;
    it may be a plain array or a live tensor (the cycle pass feeds the
    predicted target back in).  The analytic source transforms enter as
    constants; pass ``t_source`` to pin them (gradient checking does).
    """
    leak = params.config.leak
    src, tgt = source.ctx, target.ctx
    if isinstance(posed_source_vertices, ad.Tensor):
        posed_feats = vertex_features_tensor(posed_source_vertices, src.mesh.faces)
        posed_np = posed_source_vertices.data
    else:
        posed_np = np.asarray(posed_source_vertices, dtype=np.float64)
        posed_feats = ad.constant(vertex_features(src.mesh.with_vertices(posed_np)))

    y_posed = encode(posed_feats, src.graph, params.encoder, leak)
    z_posed = attend(source.w, y_posed, params.encoder)
    if t_source is None:
        t_source = source_transforms(source, posed_np)

    rotations, translations, t_flat = decode_transforms(
        target.z, z_posed - source.z, t_source, params.decoder, leak)

    target_centers = centers_tensor(target.w, tgt.norm_vertices)
    deformed = lbs_tensor(tgt.norm_vertices, target.w, rotations,
                          translations, target_centers)
    return TransferGraph(deformed=deformed, source=source, target=target,
                         t_source=t_source, rotations=rotations,
                         translations=translations, t_flat=t_flat,
                         target_centers=target_centers)


def _renormalized(w: np.ndarray) -> np.ndarray:
    # softmax rows sum to 1 only up to float error; tighten for validation
    return w / w.sum(axis=1, keepdims=True)


@dataclass
class TransferResult:
    mesh: Mesh
    w_source: np.ndarray
    w_target: np.ndarray
    transforms: list[RigidTransform]
    t_source: list[RigidTransform]


def pose_transfer(source_posed: Mesh, source_rest: Mesh, target_rest: Mesh,
                  params: PoseTransferParams) -> TransferResult:
    """Full transfer on plain meshes: returns the deformed target in model
    units plus the predicted skinnings and part transforms.  Runs on
    ``params.frozen()``, so it records no autodiff tape."""
    if source_posed.n_vertices != source_rest.n_vertices:
        raise ValueError("posed and rest source must share vertices")
    params = params.frozen()
    src = encode_character(char_context(source_rest), params)
    tgt = encode_character(char_context(target_rest), params)
    graph = transfer_pose_graph(src.ctx.normalize(source_posed.vertices), src, tgt, params)
    transforms = [RigidTransform(rotation=r, translation=t)
                  for r, t in zip(graph.rotations.data, graph.translations.data)]
    return TransferResult(
        mesh=target_rest.with_vertices(tgt.ctx.denormalize(graph.deformed.data)),
        w_source=_renormalized(src.w.data),
        w_target=_renormalized(tgt.w.data),
        transforms=transforms,
        t_source=graph.t_source,
    )
