import os

# One BLAS thread: a second one only spins at these matrix sizes, and the
# thread count must be set before NumPy loads BLAS.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest

from posetransfer.articulation import RigidTransform
from posetransfer.mesh import Mesh
from posetransfer.networks import PipelineConfig, init_params
from posetransfer.synth import CharacterSpec, generate_character


@pytest.fixture
def triangle():
    """Single CCW triangle in the z=0 plane."""
    return Mesh(vertices=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                faces=[[0, 1, 2]])


@pytest.fixture
def tetrahedron():
    return Mesh(
        vertices=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        faces=[[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


@pytest.fixture
def small_char():
    """Tiny tube-limb character (~24 vertices) for pipeline tests."""
    return generate_character(CharacterSpec(
        seed=3, limb_count=2, segments_per_limb=1, torso_segments=1,
        ring_verts=3, rings_per_segment=2))


@pytest.fixture
def tiny_config():
    return PipelineConfig(k_parts=5, latent=6, skin_hidden=(7, 6),
                          enc_hidden=(7, 6), dec_hidden=(8,))


@pytest.fixture
def tiny_params(tiny_config):
    return init_params(tiny_config, seed=0, zero_decoder_out=False)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random proper rotation via QR decomposition."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_rows(rng: np.random.Generator, k: int) -> np.ndarray:
    """(k, 12) rows of random rigid transforms: row-major rotation, then
    translation."""
    return np.stack([np.concatenate([random_rotation(rng).ravel(), rng.normal(size=3)])
                     for _ in range(k)])


def rest_rows(centers: np.ndarray) -> np.ndarray:
    """(K, 12) rows of the rest-preserving transforms (I, C_k)."""
    return np.concatenate([np.tile(np.eye(3).ravel(), (len(centers), 1)), centers], axis=1)


def as_rigid(rows: np.ndarray) -> list[RigidTransform]:
    """One ``RigidTransform`` per 12-value row, for the ``lbs_deform`` oracle."""
    return [RigidTransform(row[:9].reshape(3, 3), row[9:]) for row in rows]
