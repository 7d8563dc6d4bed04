import numpy as np
import pytest

from diffeo2d import (
    AtlasConfig,
    AtlasState,
    Grid,
    PhantomSpec,
    RegistrationConfig,
    ScalarImage,
    atlas_step,
    estimate_atlas,
    make_phantom,
    pixelwise_mean_atlas,
    warp_image,
)
from diffeo2d.errors import ConvergenceError, DomainError

from conftest import GRID64, constant_field

# Light optimizer settings: atlas tests register many pairs, and these
# populations are easy (small translations / identical images).
FAST_ATLAS_CFG = AtlasConfig(
    reg_config=RegistrationConfig(
        step_size=0.45,
        iterations_per_level=150,
        update_smoothing_sigma=1.0,
        field_smoothing_sigma=0.0,
    ),
    basis_dim=4,
)


def blob_image(seed=0):
    img, _ = make_phantom(PhantomSpec(kind="gaussian_blobs", grid=GRID64, seed=seed))
    return img


def shifted(image, dr, dc):
    return warp_image(image, constant_field(image.grid, dr, dc))


class TestPixelwiseMean:
    def test_single_image(self):
        img = blob_image()
        mean = pixelwise_mean_atlas([img])
        assert np.array_equal(mean.values, img.values)

    def test_two_constants(self):
        zeros = ScalarImage(GRID64, np.zeros((64, 64)))
        ones = ScalarImage(GRID64, np.ones((64, 64)))
        mean = pixelwise_mean_atlas([zeros, ones])
        assert np.allclose(mean.values, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            pixelwise_mean_atlas([])

    def test_grid_mismatch(self):
        a = ScalarImage(GRID64, np.zeros((64, 64)))
        b = ScalarImage(Grid(32, 32), np.zeros((32, 32)))
        with pytest.raises(DomainError):
            pixelwise_mean_atlas([a, b])


class TestAtlasStep:
    def test_identical_population_fixed_point(self):
        img = blob_image()
        state = AtlasState(atlas=ScalarImage(GRID64, img.values.copy()))
        nxt = atlas_step(state, [img, img], FAST_ATLAS_CFG)
        assert nxt.delta_history[-1] <= 1e-6
        assert nxt.converged
        assert np.allclose(nxt.mean_latent, 0.0, atol=1e-6)

    def test_too_few_images(self):
        img = blob_image()
        state = AtlasState(atlas=img)
        with pytest.raises(DomainError):
            atlas_step(state, [img], FAST_ATLAS_CFG)

    def test_zero_norm_atlas_rejected(self):
        img = blob_image()
        state = AtlasState(atlas=ScalarImage(GRID64, np.zeros((64, 64))))
        with pytest.raises(DomainError):
            atlas_step(state, [img, img], FAST_ATLAS_CFG)

    def test_divergence_names_the_image(self):
        # Image 0 equals the constant atlas and never moves; image 1's
        # registration diverges at the first step.
        flat = ScalarImage(GRID64, np.full((64, 64), 0.5))
        state = AtlasState(atlas=flat)
        cfg = AtlasConfig(reg_config=RegistrationConfig(step_size=1e300, iterations_per_level=5))
        with pytest.raises(ConvergenceError, match="failed on image 1") as info:
            atlas_step(state, [flat, blob_image(), blob_image(1)], cfg)
        assert info.value.index == 1
        assert info.value.iterations == 0

    def test_delta_history_accumulates(self):
        img = blob_image()
        state = AtlasState(atlas=ScalarImage(GRID64, img.values.copy()))
        s1 = atlas_step(state, [img, img], FAST_ATLAS_CFG)
        s2 = atlas_step(s1, [img, img], FAST_ATLAS_CFG)
        assert len(s2.delta_history) == 2
        assert all(d >= 0.0 for d in s2.delta_history)
        assert s2.iteration == 2


class TestEstimateAtlas:
    def test_identical_images_converge_immediately(self):
        img = blob_image()
        atlas, history = estimate_atlas([img, img], FAST_ATLAS_CFG, init_index=0)
        assert history[-1].converged
        assert history[-1].iteration == 1
        assert np.allclose(atlas.values, img.values, atol=1e-9)

    def test_translated_pair_drifts_toward_centroid(self):
        base = blob_image()
        plus = shifted(base, 3.0, 0.0)
        minus = shifted(base, -3.0, 0.0)
        atlas, history = estimate_atlas([plus, minus], FAST_ATLAS_CFG, init_index=0)
        d_init = np.linalg.norm(plus.values - base.values)
        d_final = np.linalg.norm(atlas.values - base.values)
        assert d_final < 0.5 * d_init

    def test_non_convergence_is_flagged_not_raised(self):
        from dataclasses import replace

        base = blob_image()
        cfg = replace(FAST_ATLAS_CFG, epsilon=1e-12, max_outer_iterations=1)
        plus = shifted(base, 2.0, 0.0)
        minus = shifted(base, -2.0, 0.0)
        _, history = estimate_atlas([plus, minus], cfg, init_index=0)
        assert not history[-1].converged

    def test_bad_init_index(self):
        img = blob_image()
        with pytest.raises(DomainError):
            estimate_atlas([img, img], FAST_ATLAS_CFG, init_index=5)

    def test_seeded_init_deterministic(self):
        img = blob_image()
        a1, _ = estimate_atlas([img, img], FAST_ATLAS_CFG, seed=3)
        a2, _ = estimate_atlas([img, img], FAST_ATLAS_CFG, seed=3)
        assert np.array_equal(a1.values, a2.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_atlas_config_rejects_non_finite_epsilon(bad):
    with pytest.raises(DomainError, match="epsilon"):
        AtlasConfig(epsilon=bad)


@pytest.mark.parametrize("name", ["max_outer_iterations", "basis_dim", "root_depth"])
@pytest.mark.parametrize("bad", [2.5, np.nan, np.inf])
def test_atlas_config_rejects_non_integer(name, bad):
    with pytest.raises(DomainError, match=name):
        AtlasConfig(**{name: bad})
    assert getattr(AtlasConfig(**{name: np.int64(2)}), name) == 2
