import numpy as np
import pytest
from hypothesis import settings
from scipy.ndimage import gaussian_filter

from diffeo2d import (
    Grid,
    RandomFieldSpec,
    RegistrationConfig,
    ScalarImage,
    exp_field,
    random_log_field,
)

GRID64 = Grid(64, 64)

# Property tests draw the same examples on every run (no example database,
# no wall-clock deadline), so the suite is deterministic on a loaded host.
settings.register_profile("diffeo2d", derandomize=True, deadline=None, database=None)
settings.load_profile("diffeo2d")

# Optimizer settings used for all synthetic-suite registration checks. They
# equal the RegistrationConfig defaults (and the CLI's), spelled out so that
# the suite's settings do not move if the defaults ever do.
SUITE_REG_CONFIG = RegistrationConfig(
    step_size=0.45,
    iterations_per_level=300,
    update_smoothing_sigma=1.0,
    field_smoothing_sigma=0.0,
)


def suite_field(seed, amplitude=3.0, grid=GRID64, depth=6):
    """One synthetic-suite diffeomorphism with its exact logarithm."""
    v = random_log_field(RandomFieldSpec(grid, seed=seed, amplitude=amplitude))
    return v, exp_field(v, depth)


def textured_image(seed, grid=GRID64):
    """Smooth random texture in [0, 1]; gradients everywhere."""
    rng = np.random.default_rng(seed)
    t = gaussian_filter(rng.standard_normal(grid.shape), 2.0, mode="nearest")
    t = (t - t.min()) / (t.max() - t.min())
    return ScalarImage(grid, t)


def constant_field(grid, dr, dc):
    from diffeo2d import DisplacementField

    u = np.zeros((grid.height, grid.width, 2))
    u[..., 0] = dr
    u[..., 1] = dc
    return DisplacementField(grid, u)


@pytest.fixture(scope="session")
def grid64():
    return GRID64


def record_svd_shapes(monkeypatch):
    """The shapes of the matrices np.linalg.svd factors from now on."""
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes
