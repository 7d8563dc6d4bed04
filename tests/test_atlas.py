import multiprocessing
import os
import threading
from dataclasses import replace

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
from diffeo2d import atlas as atlas_module
from diffeo2d import fields as fields_module
from diffeo2d.errors import ConvergenceError, DomainError
from diffeo2d.lie import SolverConfig, log_field

from conftest import GRID64, constant_field, record_svd_shapes

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

    @pytest.mark.parametrize("bad", [1.5, np.float64(1.0)])
    def test_non_integer_init_index(self, bad):
        img = blob_image()
        with pytest.raises(DomainError, match="init_index"):
            estimate_atlas([img, img], FAST_ATLAS_CFG, init_index=bad)

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


@pytest.mark.parametrize("bad", [-1, 2.5])
def test_estimate_atlas_rejects_a_bad_seed(bad):
    img = blob_image()
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        estimate_atlas([img, img], FAST_ATLAS_CFG, seed=bad)


# Chunked steps: 32x32 blobs and a short two-level pyramid, so that each
# step takes a fraction of a second.
GRID32 = Grid(32, 32)
CHUNK_CFG = AtlasConfig(
    reg_config=RegistrationConfig(pyramid_levels=2, iterations_per_level=40),
    basis_dim=4,
)


def blob32(seed, scale=1.0):
    img, _ = make_phantom(PhantomSpec(kind="gaussian_blobs", grid=GRID32, seed=seed))
    return ScalarImage(GRID32, img.values * scale)


def population32():
    base = blob32(0)
    return base, [shifted(base, dr, dc) for dr, dc in
                  ((1.0, 0.0), (-1.0, 0.5), (0.0, -1.5), (0.5, 1.0), (-0.5, -0.5))]


@pytest.fixture
def forked_registrations(monkeypatch):
    """Counts the register_pairs calls that run outside this process, in
    memory that forked workers share."""
    count = multiprocessing.Value("i", 0)
    here = os.getpid()
    register = atlas_module.register_pairs

    def counted(*args, **kwargs):
        if os.getpid() != here:
            with count.get_lock():
                count.value += 1
        return register(*args, **kwargs)

    monkeypatch.setattr(atlas_module, "register_pairs", counted)
    return count


@pytest.fixture
def parent_registrations(monkeypatch):
    """The image count of each register_pairs call that runs in this
    process."""
    calls = []
    here = os.getpid()
    register = atlas_module.register_pairs

    def counted(*args, **kwargs):
        if os.getpid() == here:
            calls.append(len(args[1]))
        return register(*args, **kwargs)

    monkeypatch.setattr(atlas_module, "register_pairs", counted)
    return calls


def step_with_cpus(monkeypatch, cpus, atlas, images, cfg):
    monkeypatch.setattr(atlas_module, "_usable_cpus", lambda: cpus)
    return atlas_step(AtlasState(atlas=atlas), images, cfg)


def step_error(monkeypatch, cpus, atlas, images, cfg):
    with pytest.raises(ConvergenceError) as info:
        step_with_cpus(monkeypatch, cpus, atlas, images, cfg)
    err = info.value
    return str(err), err.index, err.iterations, err.residual


class TestChunkedStep:
    def test_chunks_are_contiguous_and_balanced(self):
        assert atlas_module._chunks(5, 2) == [slice(0, 3), slice(3, 5)]
        assert atlas_module._chunks(8, 3) == [slice(0, 3), slice(3, 6), slice(6, 8)]
        assert atlas_module._chunks(2, 1) == [slice(0, 2)]

    def test_two_workers_match_one_byte_for_byte(self, monkeypatch, forked_registrations):
        base, images = population32()
        one = step_with_cpus(monkeypatch, 1, base, images, CHUNK_CFG)
        assert forked_registrations.value == 0
        two = step_with_cpus(monkeypatch, 2, base, images, CHUNK_CFG)
        assert forked_registrations.value == 2  # a 3 + 2 split
        assert one.atlas.values.tobytes() == two.atlas.values.tobytes()
        assert one.mean_latent.tobytes() == two.mean_latent.tobytes()
        assert one.delta_history == two.delta_history
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("images", [
        # Image 1 (first chunk) diverges at iteration 1, image 4 (second
        # chunk) at iteration 0: the error names image 4.
        [blob32(0), blob32(1, 2.0), blob32(0), blob32(0), blob32(2, 4.0)],
        # Both diverge at iteration 1: image 1 when u_BA is checked, image 3
        # earlier, when u_AB is. The error names image 3.
        [blob32(0), blob32(1, 1.0), blob32(0), blob32(2, 2.0), blob32(0)],
    ])
    def test_divergence_in_two_chunks_is_the_one_chunk_error(self, monkeypatch, images):
        cfg = AtlasConfig(reg_config=RegistrationConfig(
            step_size=2.0, pyramid_levels=2, iterations_per_level=40))
        one = step_error(monkeypatch, 1, blob32(0), images, cfg)
        two = step_error(monkeypatch, 2, blob32(0), images, cfg)
        assert two == one
        assert one[1] in (3, 4)
        assert multiprocessing.active_children() == []

    def test_failed_root_chain_is_the_one_chunk_error(self, monkeypatch):
        cfg = AtlasConfig(reg_config=CHUNK_CFG.reg_config, solver=SolverConfig(max_iterations=1))
        base, images = population32()
        one = step_error(monkeypatch, 1, base, images, cfg)
        two = step_error(monkeypatch, 2, base, images, cfg)
        assert two == one
        assert "root chain failed" in one[0]

    def test_parent_registers_only_to_rerun_a_failed_step(
        self, monkeypatch, parent_registrations
    ):
        # The workers register; a failed step reruns once, in this process,
        # on all the images.
        base, images = population32()
        step_with_cpus(monkeypatch, 2, base, images, CHUNK_CFG)
        assert parent_registrations == []
        cfg = AtlasConfig(reg_config=CHUNK_CFG.reg_config, solver=SolverConfig(max_iterations=1))
        step_error(monkeypatch, 2, base, images, cfg)
        assert parent_registrations == [len(images)]
        assert multiprocessing.active_children() == []

    def test_registration_failure_wins_over_an_earlier_log_failure(self, monkeypatch):
        # Image 1's log fails (one root iteration); image 4, in the second
        # chunk, diverges. The one-chunk run registers every image first.
        cfg = AtlasConfig(
            reg_config=RegistrationConfig(pyramid_levels=2, iterations_per_level=40),
            solver=SolverConfig(max_iterations=1),
        )
        images = [blob32(0), blob32(1), blob32(0), blob32(0), blob32(2, 16.0)]
        one = step_error(monkeypatch, 1, blob32(0), images, cfg)
        two = step_error(monkeypatch, 2, blob32(0), images, cfg)
        assert two == one
        assert one[1] == 4 and "registration diverged" in one[0]

    def test_step_runs_in_process_while_another_thread_is_alive(
        self, monkeypatch, forked_registrations
    ):
        base, images = population32()
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            threaded = step_with_cpus(monkeypatch, 2, base, images, CHUNK_CFG)
        finally:
            release.set()
            waiter.join()
        assert forked_registrations.value == 0
        alone = step_with_cpus(monkeypatch, 1, base, images, CHUNK_CFG)
        assert threaded.atlas.values.tobytes() == alone.atlas.values.tobytes()

    def test_a_banded_log_leaves_no_thread_alive(self, monkeypatch):
        # Root and inverse solves on row bands join their threads, so a step
        # after one in the same process still forks its workers.
        monkeypatch.setattr(fields_module, "_BAND_PIXELS", 1)
        monkeypatch.setattr(fields_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(atlas_module, "_usable_cpus", lambda: 2)
        grid = Grid(16, 16)
        assert len(fields_module.DisplacedGrid(grid).bands) == 2
        log_field(constant_field(grid, 1.0, 0.5), 2)
        assert atlas_module._worker_count(8) == 2

    def test_step_runs_in_process_in_a_daemonic_process(self, monkeypatch):
        # A daemonic process may not start workers: the step must not try.
        base, images = population32()
        monkeypatch.setattr(atlas_module, "_usable_cpus", lambda: 2)
        fork = multiprocessing.get_context("fork")
        receive, send = fork.Pipe(duplex=False)

        def step():
            try:
                state = atlas_step(AtlasState(atlas=base), images, CHUNK_CFG)
                send.send(state.atlas.values.tobytes())
            except Exception as err:
                send.send(repr(err))

        daemon = fork.Process(target=step, daemon=True)
        daemon.start()
        got = receive.recv()
        daemon.join()
        alone = step_with_cpus(monkeypatch, 1, base, images, CHUNK_CFG)
        assert got == alone.atlas.values.tobytes()


def test_two_image_step_factors_its_population_once(monkeypatch):
    # 2 images give 4 logs, of rank at most 4 < basis_dim = 8: the fit takes
    # the rank's components from the same SVD instead of refitting.
    shapes = record_svd_shapes(monkeypatch)
    base = blob32(0)
    images = [shifted(base, 1.0, 0.0), shifted(base, -0.5, 1.0)]
    cfg = replace(FAST_ATLAS_CFG, basis_dim=8)
    state = step_with_cpus(monkeypatch, 1, base, images, cfg)
    assert shapes == [(4, 2 * GRID32.n_pixels)]
    assert state.mean_latent.shape == (4,)
