"""Skeleton-free pose transfer between stylized 3D characters.

Deforms a target character to match the pose of a source character
without rigging either one: networks predict a soft decomposition of
each mesh into deformation parts plus per-part rigid transforms, and
linear blend skinning produces the final geometry.
"""
from .articulation import (
    RigidTransform,
    estimate_part_transforms,
    hard_assignment,
    lbs_deform,
    part_centers,
    validate_skinning,
)
from .evaluation import ConsistencyReport, consistency_scores, pmd
from .mesh import Mesh, MeshError, ObjParseError, load_obj, save_obj
from .networks import (
    PipelineConfig,
    PoseTransferParams,
    TransferResult,
    init_params,
    pose_transfer,
)
from .synth import CharacterSpec, Dataset, DatasetConfig, make_dataset
from .train import TrainConfig, fit, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "CharacterSpec",
    "ConsistencyReport",
    "Dataset",
    "DatasetConfig",
    "Mesh",
    "MeshError",
    "ObjParseError",
    "PipelineConfig",
    "PoseTransferParams",
    "RigidTransform",
    "TrainConfig",
    "TransferResult",
    "consistency_scores",
    "estimate_part_transforms",
    "fit",
    "hard_assignment",
    "init_params",
    "lbs_deform",
    "load_checkpoint",
    "load_obj",
    "make_dataset",
    "part_centers",
    "pmd",
    "pose_transfer",
    "save_checkpoint",
    "save_obj",
    "train",
    "validate_skinning",
]
