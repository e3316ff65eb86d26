"""Procedural articulated tube-limb characters with ground-truth skinning.

A character is a torso chain of capsule-like tube segments plus a ring
of limbs, each limb its own chain of segments.  Every segment is one
ground-truth deformation part with a cosine skinning falloff into its
parent near the joint, so every vertex keeps a dominant part (max weight
0.6 at the blend boundary).  Posing runs an internal forward-kinematics
chain over the joint tree and applies ground-truth LBS; the pose-transfer
engine itself never sees the joint tree.

Characters in the paired split share the joint layout (so one pose spec
poses all of them, joint for joint) and differ in proportions; static
characters vary limb count and segment count as well.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .articulation import RigidTransform, lbs_deform, load_skinning, save_skinning
from .mesh import Mesh, load_obj, save_obj

#: Fraction of a segment's length over which skinning blends into the parent.
BLEND_SPAN = 0.35
#: Maximum weight the parent part receives inside the blend zone.
BLEND_DEPTH = 0.4


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class CharacterSpec:
    seed: int
    limb_count: int = 4
    segments_per_limb: int = 2
    torso_segments: int = 2
    ring_verts: int = 6
    rings_per_segment: int = 3
    proportion_jitter: float = 0.25  # relative spread of limb/torso proportions
    topology_variant: int = 0  # folded into the proportion rng stream

    def __post_init__(self):
        if not 2 <= self.limb_count <= 6:
            raise SynthError(f"limb_count must be in [2, 6], got {self.limb_count}")
        if not 1 <= self.segments_per_limb <= 3:
            raise SynthError("segments_per_limb must be in [1, 3]")
        if self.ring_verts < 3 or self.rings_per_segment < 2:
            raise SynthError("need >= 3 ring vertices and >= 2 rings per segment")
        if not 1 <= self.torso_segments <= 3:
            raise SynthError("torso_segments must be in [1, 3]")


@dataclass(frozen=True)
class PoseSpec:
    """Axis-angle rotation per joint, bounded by max_angle (radians)."""

    angles: np.ndarray  # (J, 3)
    max_angle: float = 1.2

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.angles, dtype=np.float64))
        if a.ndim != 2 or a.shape[1] != 3:
            raise SynthError(f"pose angles must be (J, 3), got {a.shape}")
        if np.linalg.norm(a, axis=1).max(initial=0.0) > self.max_angle + 1e-9:
            raise SynthError("pose angle magnitude exceeds max_angle")
        object.__setattr__(self, "angles", a)

    @property
    def is_rest(self) -> bool:
        return not self.angles.any()


@dataclass
class Segment:
    """One tube segment = one ground-truth deformation part."""

    name: str
    parent: int | None  # index into the segment list
    start: np.ndarray  # joint position (rest)
    end: np.ndarray
    radius: float
    vertex_ids: list = field(default_factory=list)
    vertex_params: list = field(default_factory=list)  # axial t in [0, 1]


@dataclass
class CharacterSample:
    spec: CharacterSpec
    rest: Mesh
    gt_skinning: np.ndarray  # (N, P) over the character's own parts
    part_names: list
    segments: list  # generator-internal joint tree
    poses: list = field(default_factory=list)  # [(PoseSpec, Mesh)]

    @property
    def n_joints(self) -> int:
        # every segment except the fixed torso root has a joint
        return len(self.segments) - 1


def _ring_frame(direction: np.ndarray):
    d = direction / np.linalg.norm(direction)
    ref = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 0.0, 1.0])
    u = np.cross(d, ref)
    u /= np.linalg.norm(u)
    v = np.cross(d, u)
    return u, v


def _build_chain(segments_def, ring_verts, rings_per_segment, vertices, faces,
                 all_segments, parent_of_chain):
    """Emit one welded tube chain; returns the segment indices created.

    ``segments_def`` is a list of (name, start, end, radius).  The chain
    gets an apex cap at both free ends.
    """
    chain_ids = []
    prev_ring = None
    for s_i, (name, start, end, radius) in enumerate(segments_def):
        parent = parent_of_chain if s_i == 0 else chain_ids[-1]
        seg = Segment(name=name, parent=parent, start=np.asarray(start, dtype=np.float64),
                      end=np.asarray(end, dtype=np.float64), radius=radius)
        seg_index = len(all_segments)
        all_segments.append(seg)
        chain_ids.append(seg_index)
        axis = seg.end - seg.start
        u, v = _ring_frame(axis)
        t_values = np.linspace(0.0, 1.0, rings_per_segment)
        start_ring = 0 if s_i == 0 else 1  # weld: reuse parent's last ring
        if s_i > 0:
            # weld-ring vertices belong to the child segment only
            par = all_segments[parent]
            for vid in prev_ring:
                pos = par.vertex_ids.index(vid)
                del par.vertex_ids[pos]
                del par.vertex_params[pos]
            seg.vertex_ids.extend(prev_ring)
            seg.vertex_params.extend([0.0] * len(prev_ring))
        for r_i in range(start_ring, rings_per_segment):
            t = t_values[r_i]
            center = seg.start + t * axis
            ring = []
            for a_i in range(ring_verts):
                ang = 2.0 * np.pi * a_i / ring_verts
                p = center + radius * (np.cos(ang) * u + np.sin(ang) * v)
                ring.append(len(vertices))
                vertices.append(p)
                seg.vertex_ids.append(ring[-1])
                seg.vertex_params.append(t)
            if prev_ring is not None:
                for a_i in range(ring_verts):
                    b_i = (a_i + 1) % ring_verts
                    faces.append([prev_ring[a_i], prev_ring[b_i], ring[a_i]])
                    faces.append([ring[a_i], prev_ring[b_i], ring[b_i]])
            prev_ring = ring
        if s_i == 0:
            first_seg = all_segments[chain_ids[0]]
            base_ring = first_seg.vertex_ids[:ring_verts]
            apex = len(vertices)
            vertices.append(first_seg.start - 0.3 * first_seg.radius *
                            (axis / np.linalg.norm(axis)))
            first_seg.vertex_ids.append(apex)
            first_seg.vertex_params.append(0.0)
            for a_i in range(ring_verts):
                faces.append([apex, base_ring[(a_i + 1) % ring_verts], base_ring[a_i]])
        if s_i == len(segments_def) - 1:
            tip_axis = axis / np.linalg.norm(axis)
            apex = len(vertices)
            vertices.append(seg.end + 0.3 * seg.radius * tip_axis)
            seg.vertex_ids.append(apex)
            seg.vertex_params.append(1.0)
            tip_ring = prev_ring
            for a_i in range(ring_verts):
                faces.append([apex, tip_ring[a_i], tip_ring[(a_i + 1) % ring_verts]])
    return chain_ids


def generate_character(spec: CharacterSpec) -> CharacterSample:
    """Deterministic rest-pose character for a spec (no posed instances)."""
    rng = np.random.default_rng(
        np.random.SeedSequence([spec.seed, spec.topology_variant, 0x5e1f]))

    def jitter():
        return 1.0 + spec.proportion_jitter * float(rng.uniform(-1.0, 1.0))

    vertices: list = []
    faces: list = []
    segments: list = []

    torso_len = 0.5 * jitter()
    torso_radius = 0.16 * jitter()
    torso_def = []
    base = np.array([0.0, 0.0, 0.0])
    for s in range(spec.torso_segments):
        start = base + np.array([0.0, s * torso_len, 0.0])
        end = start + np.array([0.0, torso_len, 0.0])
        torso_def.append((f"torso{s}", start, end, torso_radius))
    torso_ids = _build_chain(torso_def, spec.ring_verts, spec.rings_per_segment,
                             vertices, faces, segments, parent_of_chain=None)
    torso_top = spec.torso_segments * torso_len

    n_legs = spec.limb_count // 2
    for l in range(spec.limb_count):
        is_leg = l < n_legs
        if is_leg:
            attach_h = 0.05 * torso_top
            azim = np.pi * (2 * l + 1) / (2 * max(n_legs, 1))
            direction = np.array([0.6 * np.cos(azim), -1.0, 0.6 * np.sin(azim)])
            anchor_seg = torso_ids[0]
        else:
            attach_h = 0.95 * torso_top
            a_i = l - n_legs
            n_arms = spec.limb_count - n_legs
            azim = np.pi * (2 * a_i + 1) / max(n_arms, 1)
            direction = np.array([np.cos(azim), -0.35, np.sin(azim)])
            anchor_seg = torso_ids[-1]
        direction = direction / np.linalg.norm(direction)
        seg_len = 0.38 * jitter()
        radius = 0.07 * jitter()
        attach = np.array([0.0, attach_h, 0.0])
        limb_def = []
        for s in range(spec.segments_per_limb):
            start = attach + s * seg_len * direction
            end = start + seg_len * direction
            limb_def.append((f"limb{l}.{s}", start, end, radius * (1.0 - 0.15 * s)))
        _build_chain(limb_def, spec.ring_verts, spec.rings_per_segment,
                     vertices, faces, segments, parent_of_chain=anchor_seg)

    rest = Mesh(vertices=np.array(vertices), faces=np.array(faces),
                name=f"char{spec.seed}")
    w = _gt_skinning(rest.n_vertices, segments)
    return CharacterSample(spec=spec, rest=rest, gt_skinning=w,
                           part_names=[s.name for s in segments], segments=segments)


def _gt_skinning(n_vertices: int, segments: list) -> np.ndarray:
    w = np.zeros((n_vertices, len(segments)))
    for k, seg in enumerate(segments):
        for vid, t in zip(seg.vertex_ids, seg.vertex_params):
            if seg.parent is None or t >= BLEND_SPAN:
                w[vid, k] = 1.0
            else:
                falloff = BLEND_DEPTH * 0.5 * (1.0 + np.cos(np.pi * t / BLEND_SPAN))
                w[vid, seg.parent] = falloff
                w[vid, k] = 1.0 - falloff
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
    return w


def _axis_angle_matrix(v: np.ndarray) -> np.ndarray:
    angle = np.linalg.norm(v)
    if angle < 1e-14:
        return np.eye(3)
    axis = v / angle
    kx, ky, kz = axis
    k = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def part_world_transforms(sample: CharacterSample, pose: PoseSpec):
    """Forward kinematics: world affine (R, t) per segment.

    Joint j of segment k sits at the segment's rest start point; the
    torso root is fixed.  Returns a list of (R, t) with x -> R x + t.
    """
    if pose.angles.shape[0] != sample.n_joints:
        raise SynthError(
            f"pose has {pose.angles.shape[0]} joints, character has {sample.n_joints}")
    out: list = []
    for k, seg in enumerate(sample.segments):
        if seg.parent is None:
            out.append((np.eye(3), np.zeros(3)))
            continue
        r_local = _axis_angle_matrix(pose.angles[k - 1])
        joint = seg.start
        # local: x -> R_l (x - j) + j
        r_par, t_par = out[seg.parent]
        r = r_par @ r_local
        t = r_par @ (joint - r_local @ joint) + t_par
        out.append((r, t))
    return out


def pose_character(sample: CharacterSample, pose: PoseSpec) -> Mesh:
    """Ground-truth LBS posing through the internal joint tree."""
    if pose.is_rest:
        return sample.rest.with_vertices(sample.rest.vertices.copy())
    # world transforms act on absolute positions: LBS about zero centers
    transforms = [RigidTransform(r, t) for r, t in part_world_transforms(sample, pose)]
    w = sample.gt_skinning
    return lbs_deform(sample.rest, w, transforms, np.zeros((w.shape[1], 3)))


def sample_pose(n_joints: int, rng: np.random.Generator,
                max_angle: float = 1.2) -> PoseSpec:
    """Random pose with per-joint magnitude in [0.3, 1.0] * max_angle."""
    dirs = rng.normal(size=(n_joints, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    mags = rng.uniform(0.3, 1.0, size=(n_joints, 1)) * max_angle
    return PoseSpec(angles=dirs * mags, max_angle=max_angle)


# ---- dataset assembly --------------------------------------------------

@dataclass(frozen=True)
class DatasetConfig:
    n_paired: int = 8
    n_static: int = 8
    n_held: int = 4
    n_poses: int = 8
    seed: int = 0
    max_angle: float = 1.2
    ring_verts: int = 6
    rings_per_segment: int = 3
    limb_count: int = 4
    segments_per_limb: int = 2
    torso_segments: int = 2

    def __post_init__(self):
        for name in ("seed", "n_paired", "n_static", "n_held", "n_poses"):
            if getattr(self, name) < 0:
                raise SynthError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass
class Dataset:
    config: DatasetConfig
    paired: list
    static: list
    held: list

    @property
    def all_characters(self):
        return self.paired + self.static + self.held


_SPLIT_CODES = {"paired": 1, "static": 2, "held": 3}


def character_seed(config_seed: int, split: str, index: int) -> int:
    """Disjoint deterministic per-character seeds across splits."""
    ss = np.random.SeedSequence([config_seed, _SPLIT_CODES[split], index])
    return int(ss.generate_state(1)[0])


def make_dataset(config: DatasetConfig = DatasetConfig()) -> Dataset:
    """Paired + static + held-out characters.

    Paired and held characters share the joint layout so each split's
    common pose list poses every character joint-for-joint.  Static
    characters vary in topology and carry no posed instances.
    """
    base = CharacterSpec(seed=0, limb_count=config.limb_count,
                         segments_per_limb=config.segments_per_limb,
                         torso_segments=config.torso_segments,
                         ring_verts=config.ring_verts,
                         rings_per_segment=config.rings_per_segment)

    def posed_split(split: str, count: int) -> list:
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, _SPLIT_CODES[split], 0xba5e]))
        chars = [generate_character(replace(base, seed=character_seed(config.seed, split, i)))
                 for i in range(count)]
        if chars:
            poses = [sample_pose(chars[0].n_joints, rng, config.max_angle)
                     for _ in range(config.n_poses)]
            for ch in chars:
                ch.poses = [(p, pose_character(ch, p)) for p in poses]
        return chars

    paired = posed_split("paired", config.n_paired)
    held = posed_split("held", config.n_held)

    static = []
    for i in range(config.n_static):
        seed = character_seed(config.seed, "static", i)
        spec = replace(base, seed=seed,
                       limb_count=2 + i % 5,
                       segments_per_limb=1 + i % 3,
                       topology_variant=i)
        static.append(generate_character(spec))
    return Dataset(config=config, paired=paired, static=static, held=held)


# ---- on-disk dataset layout -------------------------------------------

MANIFEST_NAME = "manifest.txt"


def save_dataset(dataset: Dataset, out_dir) -> None:
    """Write OBJ meshes, skinning files, part names, and the manifest.

    Manifest: one line per character, ``id<TAB>split<TAB>pose-files``
    (comma-separated OBJ names, or ``-`` for none).
    """
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for split in ("paired", "static", "held"):
        for i, sample in enumerate(getattr(dataset, split)):
            cid = f"{split}{i:02d}"
            save_obj(sample.rest, os.path.join(out_dir, f"{cid}_rest.obj"))
            save_skinning(sample.gt_skinning, os.path.join(out_dir, f"{cid}_skinning.txt"))
            with open(os.path.join(out_dir, f"{cid}_parts.txt"), "w") as fh:
                fh.write("\n".join(sample.part_names) + "\n")
            pose_files = []
            for p, (_, posed) in enumerate(sample.poses):
                fname = f"{cid}_pose{p}.obj"
                save_obj(posed, os.path.join(out_dir, fname))
                pose_files.append(fname)
            lines.append(f"{cid}\t{split}\t{','.join(pose_files) if pose_files else '-'}")
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(data_dir) -> Dataset:
    """Reload a saved dataset.

    The generator-internal joint tree is not persisted; loaded samples
    carry posed meshes without their PoseSpec.  A file that cannot be
    read or parsed raises ``SynthError`` naming it and its manifest line.
    """
    manifest = os.path.join(data_dir, MANIFEST_NAME)
    if not os.path.isfile(manifest):
        raise SynthError(f"no {MANIFEST_NAME} in {data_dir}")

    def read(where, fname, loader):
        try:
            return loader(os.path.join(data_dir, fname))
        except (OSError, ValueError) as exc:  # also MeshError, ArticulationError, bad UTF-8
            raise SynthError(f"{where}{fname}: {exc}") from exc

    splits = {"paired": [], "static": [], "held": []}
    for lineno, line in enumerate(read(f"{data_dir}: ", MANIFEST_NAME, _read_lines), start=1):
        if not line:
            continue
        where = f"{manifest}:{lineno}: "
        fields = line.split("\t")
        if len(fields) != 3 or fields[1] not in splits:
            raise SynthError(f"{where}expected 'id<TAB>{'|'.join(splits)}<TAB>pose-files'")
        cid, split, pose_field = fields
        rest = read(where, f"{cid}_rest.obj", load_obj)
        w = read(where, f"{cid}_skinning.txt", load_skinning)
        part_names = [name for name in read(where, f"{cid}_parts.txt", _read_lines) if name]
        poses = [(None, read(where, fname, load_obj))
                 for fname in ([] if pose_field == "-" else pose_field.split(","))]
        if len(w) != rest.n_vertices or any(m.n_vertices != rest.n_vertices for _, m in poses):
            raise SynthError(f"{where}skinning and poses of {cid} must have the "
                             f"{rest.n_vertices} vertices of its rest mesh")
        splits[split].append(CharacterSample(
            spec=CharacterSpec(seed=0), rest=rest, gt_skinning=w,
            part_names=part_names, segments=[], poses=poses))
    for split in ("paired", "held"):  # posed splits share one pose list
        if len({len(sample.poses) for sample in splits[split]}) > 1:
            raise SynthError(f"{manifest}: {split} characters differ in pose count")
    return Dataset(config=DatasetConfig(), paired=splits["paired"],
                   static=splits["static"], held=splits["held"])


def _read_lines(path) -> list[str]:
    """Every line of a text file, stripped."""
    with open(path) as fh:
        return [line.strip() for line in fh]
