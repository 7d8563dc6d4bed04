import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffeo2d import (
    Grid,
    LogEuclideanBasis,
    LogField,
    RandomFieldSpec,
    decode,
    decode_root,
    encode,
    exp_field,
    explained_variance,
    field_rms_diff,
    fit_basis,
    identity_field,
    invert,
    log_field,
    pca_mode_field,
    random_log_field,
    self_compose_m,
)
from diffeo2d.errors import DomainError, RankError, ShapeError

from conftest import GRID64, record_svd_shapes, suite_field


def unit_log(seed, grid=GRID64):
    v = random_log_field(RandomFieldSpec(grid, seed=seed))
    return LogField(grid, v.v / np.linalg.norm(v.v))


def two_mode_population(n=24, seed=0, grid=GRID64, scales=(3.0, 1.0)):
    """Samples a*V1 + b*V2 from two orthonormalized generator modes.

    The default scales make V1 dominant so mode ordering is determined.
    """
    v1 = unit_log(101, grid).v
    v2 = random_log_field(RandomFieldSpec(grid, seed=202)).v
    v2 = v2 - np.sum(v2 * v1) * v1
    v2 = v2 / np.linalg.norm(v2)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((n, 2)) * np.asarray(scales)
    fields = [LogField(grid, a * v1 + b * v2) for a, b in coeffs]
    return fields, v1, v2


def _basis(components, singular_values, grid=Grid(3, 4)):
    return LogEuclideanBasis(grid, LogField(grid, np.zeros((3, 4, 2))), components,
                             singular_values, symmetrized=True, total_variance=1.0)


@pytest.mark.parametrize("components, singular_values, error, message", [
    (np.zeros((3, 4, 2)), [1.0], ShapeError, "components must have shape (d, H, W, 2)"),
    (np.zeros((1, 4, 3, 2)), [1.0], ShapeError, "components must have shape (d, H, W, 2)"),
    (np.zeros((2, 3, 4, 2)), [1.0], ShapeError, "one singular value per component required"),
    (np.zeros((2, 3, 4, 2)), [1.0, 2.0], DomainError, "singular values must be descending"),
])
def test_basis_argument_checks(components, singular_values, error, message):
    with pytest.raises(error) as info:
        _basis(components, singular_values)
    assert str(info.value) == message


@pytest.mark.parametrize("logs, dim, error, message", [
    ([unit_log(1)], 1, DomainError, "need at least 2 log fields to fit a basis"),
    ([unit_log(1), unit_log(2, Grid(32, 32))], 1, ShapeError,
     "grid mismatch: Grid(height=64, width=64) vs Grid(height=32, width=32)"),
    ([unit_log(1), unit_log(2)], 0, DomainError, "latent dimension must be >= 1, got 0"),
    # Symmetrized, 2 logs are 4 samples.
    ([unit_log(1), unit_log(2)], 5, DomainError, "latent dimension must be <= 4, got 5"),
])
def test_fit_basis_argument_checks(logs, dim, error, message):
    with pytest.raises(error) as info:
        fit_basis(logs, dim)
    assert str(info.value) == message


class TestFitBasis:
    def test_symmetric_pair_single_mode(self):
        v = unit_log(1)
        basis = fit_basis([v, LogField(GRID64, -v.v)], dim=1)
        assert np.allclose(basis.mean.v, 0.0)
        comp = basis.components[0]
        cos = abs(np.sum(comp * v.v) / np.linalg.norm(v.v))
        assert cos == pytest.approx(1.0, abs=1e-10)
        assert explained_variance(basis)[0] == pytest.approx(1.0)

    def test_two_mode_population_recovers_subspace(self):
        fields, v1, v2 = two_mode_population()
        basis = fit_basis(fields, dim=2)
        ev = explained_variance(basis)
        assert sum(ev[:2]) >= 0.99
        # Principal angle between recovered and generating 2D subspaces.
        gen = np.stack([v1.ravel(), v2.ravel()], axis=1)
        rec = np.stack([c.ravel() for c in basis.components], axis=1)
        s = np.linalg.svd(gen.T @ rec, compute_uv=False)
        angle = np.arccos(np.clip(s.min(), -1.0, 1.0))
        assert angle <= 1e-3

    def test_unsymmetrized_mean_is_sample_mean(self):
        v = unit_log(2)
        w = unit_log(6)
        basis = fit_basis([v, w], dim=1, symmetrize=False)
        assert np.allclose(basis.mean.v, 0.5 * (v.v + w.v))
        diff = (v.v - w.v).ravel()
        comp = basis.components[0].ravel()
        cos = abs(comp @ diff) / np.linalg.norm(diff)
        assert cos == pytest.approx(1.0, abs=1e-10)

    def test_all_equal_samples_rank_error(self):
        v = unit_log(2)
        with pytest.raises(RankError):
            fit_basis([v, v], dim=1, symmetrize=False)

    def test_dim_too_large(self):
        v = unit_log(3)
        with pytest.raises((DomainError, RankError)):
            fit_basis([v, LogField(GRID64, -v.v)], dim=5)

    def test_non_integer_dim(self):
        # 1.5 passes the range and rank checks, then fails in vt[:dim] as a
        # TypeError.
        fields, _, _ = two_mode_population()
        with pytest.raises(DomainError, match="^latent dimension must be an integer"):
            fit_basis(fields, dim=1.5)

    def test_degenerate_samples_rank_error(self):
        z = LogField(GRID64, np.zeros((64, 64, 2)))
        with pytest.raises(RankError) as exc:
            fit_basis([z, z], dim=1)
        assert exc.value.rank == 0

    def test_orthonormal_components(self):
        fields, _, _ = two_mode_population()
        basis = fit_basis(fields, dim=2)
        flat = np.stack([c.ravel() for c in basis.components])
        gram = flat @ flat.T
        assert np.allclose(gram, np.eye(2), atol=1e-8)

    def test_deterministic_sign_convention(self):
        fields, _, _ = two_mode_population()
        b1 = fit_basis(fields, dim=2)
        b2 = fit_basis(fields, dim=2)
        assert np.array_equal(b1.components, b2.components)
        for comp in b1.components:
            flat = comp.ravel()
            assert flat[np.argmax(np.abs(flat))] > 0


def augmented_fit(logfields, dim, symmetrize):
    """The basis fit as a direct SVD of the sample matrix, [X; −X] when
    symmetrized: (mean, signed components, singular values, total
    variance, rank)."""
    x = np.stack([lf.v.reshape(-1) for lf in logfields])
    if symmetrize:
        x = np.concatenate([x, -x])
        mean = np.zeros(x.shape[1])
    else:
        mean = np.mean(x, axis=0)
        x = x - mean
    n = x.shape[0]
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    tol = s[0] * max(x.shape) * np.finfo(np.float64).eps
    comps = vt[:dim].copy()
    for comp in comps:
        j = int(np.argmax(np.abs(comp)))
        if comp[j] < 0:
            comp *= -1.0
    rank = int(np.count_nonzero(s > tol))
    return mean, comps, s[:dim] / np.sqrt(n), float(np.sum(s * s) / n), rank


@st.composite
def gaussian_populations(draw, max_logs=6):
    """2 to ``max_logs`` Gaussian log fields on a grid of 2 to 8 px a side."""
    grid = Grid(draw(st.integers(2, 8)), draw(st.integers(2, 8)))
    count = draw(st.integers(2, max_logs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    return [LogField(grid, scale * rng.standard_normal(grid.shape + (2,))) for _ in range(count)]


class TestSymmetrizedIdentity:
    """[X; −X] = ([U; −U]/√2)(√2·S)Vᵀ: the symmetrized fit factors X alone."""

    @given(gaussian_populations())
    def test_matches_the_augmented_svd(self, logs):
        n = len(logs)  # the rank of n Gaussian logs
        basis = fit_basis(logs, dim=n)
        _, comps, sv, total, _ = augmented_fit(logs, n, symmetrize=True)
        np.testing.assert_allclose(basis.singular_values, sv, rtol=1e-12, atol=0)
        assert basis.total_variance == pytest.approx(total, rel=1e-12)
        assert not basis.mean.v.any()
        # Components are compared where their singular value is separated
        # from its neighbours; elsewhere only the span is determined.
        gaps = np.abs(np.diff(sv))
        flat = basis.components.reshape(n, -1)
        for k in range(n):
            gap = min(gaps[k - 1] if k > 0 else np.inf, gaps[k] if k < n - 1 else np.inf)
            if gap > 1e-3 * sv[0]:
                np.testing.assert_allclose(flat[k], comps[k], rtol=0, atol=1e-10)

    @given(gaussian_populations(max_logs=4), st.lists(st.integers(0, 3), min_size=1, max_size=4))
    def test_duplicated_logs_give_the_augmented_rank(self, logs, picks):
        population = logs + [logs[i % len(logs)] for i in picks]
        dim = len(population)
        rank = augmented_fit(population, dim, symmetrize=True)[4]
        assert rank == len(logs)
        with pytest.raises(RankError) as exc:
            fit_basis(population, dim)
        assert exc.value.rank == rank

    @given(gaussian_populations())
    def test_unsymmetrized_fit_is_the_direct_svd_bit_for_bit(self, logs):
        dim = len(logs) - 1  # centring costs one rank
        basis = fit_basis(logs, dim, symmetrize=False)
        mean, comps, sv, total, _ = augmented_fit(logs, dim, symmetrize=False)
        assert np.array_equal(basis.mean.v.reshape(-1), mean)
        assert np.array_equal(basis.components.reshape(dim, -1), comps)
        assert np.array_equal(basis.singular_values, sv)
        assert basis.total_variance == total


def _peak_values(logs, dim, symmetrize):
    """Peak traced memory of one fit, in float64 values of the n·D
    population matrix (n logs of D = 2·H·W values)."""
    fit_basis(logs, dim, symmetrize)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit_basis(logs, dim, symmetrize)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * len(logs) * logs[0].v.size)


@pytest.mark.parametrize("symmetrize", [True, False])
def test_basis_fit_memory_budget(monkeypatch, symmetrize):
    # Eight 64^2 logs, fitted to full rank. Forming [X; −X] and centring
    # copies of the samples, the fits peaked at 6.26 (symmetrized) and 3.13
    # n·D traced values; from one (n, D) buffer, at 2.25 and 2.13.
    logs = [unit_log(300 + k) for k in range(8)]
    dim = 8 if symmetrize else 7  # the full rank: centring costs one
    assert _peak_values(logs, dim, symmetrize) <= 3.0
    shapes = record_svd_shapes(monkeypatch)
    fit_basis(logs, dim, symmetrize)
    assert shapes == [(8, logs[0].v.size)]


class TestEncodeDecode:
    def make_basis(self):
        fields, _, _ = two_mode_population()
        return fit_basis(fields, dim=2)

    def test_encode_mean_is_zero(self):
        basis = self.make_basis()
        assert np.allclose(encode(basis, basis.mean), 0.0)

    def test_encode_component_offset(self):
        basis = self.make_basis()
        v = LogField(GRID64, basis.mean.v + 3.0 * basis.components[0])
        assert np.allclose(encode(basis, v), [3.0, 0.0], atol=1e-10)

    def test_encode_negation_exact(self):
        basis = self.make_basis()
        v = unit_log(4)
        z = encode(basis, v) + encode(basis, LogField(GRID64, -v.v))
        assert np.allclose(z, 0.0)

    def test_decode_zero_is_mean(self):
        basis = self.make_basis()
        assert np.allclose(decode(basis, np.zeros(2)).v, basis.mean.v)

    def test_projection_identity_in_span(self):
        basis = self.make_basis()
        v = LogField(
            GRID64,
            basis.mean.v + 1.5 * basis.components[0] - 0.5 * basis.components[1],
        )
        assert np.allclose(decode(basis, encode(basis, v)).v, v.v, atol=1e-10)

    def test_projection_non_expansive(self):
        basis = self.make_basis()
        v = unit_log(5)
        recon = decode(basis, encode(basis, v))
        assert np.linalg.norm(v.v - recon.v) <= np.linalg.norm(v.v - basis.mean.v) + 1e-12

    def test_encode_decode_idempotent(self):
        basis = self.make_basis()
        z = np.array([0.3, -1.2])
        assert np.allclose(encode(basis, decode(basis, z)), z, atol=1e-10)

    def test_grid_mismatch(self):
        basis = self.make_basis()
        with pytest.raises(ShapeError):
            encode(basis, LogField(Grid(32, 32), np.zeros((32, 32, 2))))
        with pytest.raises(ShapeError):
            decode(basis, np.zeros(3))


class TestDecodeRoot:
    def make_basis(self):
        fields, _, _ = two_mode_population()
        return fit_basis(fields, dim=2)

    def test_zero_code_identity(self):
        basis = self.make_basis()
        ident = identity_field(GRID64)
        for m in (1, 2, 8):
            assert field_rms_diff(decode_root(basis, np.zeros(2), m), ident) == 0.0

    def test_root_consistency(self):
        basis = self.make_basis()
        z = np.array([1.0, -0.6])
        for m in (2, 4):
            root = decode_root(basis, z, m)
            whole = decode_root(basis, z, 1)
            assert field_rms_diff(self_compose_m(root, m), whole) <= 1e-2

    def test_negated_code_inverts(self):
        basis = self.make_basis()
        z = np.array([0.8, 0.5])
        fwd = decode_root(basis, z, 2)
        bwd = decode_root(basis, -z, 2)
        assert field_rms_diff(bwd, invert(fwd).field) <= 2e-2

    def test_bad_m(self):
        basis = self.make_basis()
        with pytest.raises(DomainError):
            decode_root(basis, np.zeros(2), 3)

    @pytest.mark.parametrize("bad", [2.5, np.inf, np.float64(2.0)])
    def test_non_integer_m_or_depth(self, bad):
        basis = self.make_basis()
        with pytest.raises(DomainError, match="^m must be an integer"):
            decode_root(basis, np.zeros(2), bad)
        with pytest.raises(DomainError, match="^exp depth must be an integer"):
            decode_root(basis, np.zeros(2), 2, bad)


class TestModes:
    def make_basis(self):
        fields, v1, v2 = two_mode_population()
        return fit_basis(fields, dim=2), v1

    def test_zero_sigma_identity(self):
        basis, _ = self.make_basis()
        assert field_rms_diff(pca_mode_field(basis, 1, 0.0), identity_field(GRID64)) == 0.0

    def test_plus_minus_inverse(self):
        basis, _ = self.make_basis()
        plus = pca_mode_field(basis, 1, 1.0)
        minus = pca_mode_field(basis, 1, -1.0)
        assert field_rms_diff(minus, invert(plus).field) <= 2e-2

    def test_mode_one_matches_generator(self):
        basis, v1 = self.make_basis()
        sigma = basis.singular_values[0]
        mode = pca_mode_field(basis, 1, 1.0)
        gen = exp_field(LogField(GRID64, sigma * v1), 6)
        # The generator direction is sign-ambiguous; accept either.
        cos = np.sum(mode.u * gen.u) / (
            np.linalg.norm(mode.u) * np.linalg.norm(gen.u)
        )
        assert abs(cos) >= 0.99

    def test_mode_out_of_range(self):
        basis, _ = self.make_basis()
        with pytest.raises(DomainError):
            pca_mode_field(basis, 0, 1.0)
        with pytest.raises(DomainError):
            pca_mode_field(basis, 3, 1.0)
        # 1.5 is in range, and indexed components[0.5] as an IndexError.
        with pytest.raises(DomainError, match="^mode index must be an integer"):
            pca_mode_field(basis, 1.5, 1.0)


class TestExplainedVariance:
    def test_equal_variance_modes(self):
        # Equal-magnitude coefficients on two orthogonal modes: a balanced
        # +/- design gives exactly equal singular values.
        fields, v1, v2 = two_mode_population()
        balanced = []
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                balanced.append(LogField(GRID64, s1 * v1 + s2 * v2))
        basis = fit_basis(balanced, dim=2)
        ev = explained_variance(basis)
        assert ev[0] == pytest.approx(0.5, abs=1e-6)
        assert ev[1] == pytest.approx(0.5, abs=1e-6)

    def test_non_increasing_and_bounded(self):
        fields, _, _ = two_mode_population()
        basis = fit_basis(fields, dim=2)
        ev = explained_variance(basis)
        assert all(ev[i] >= ev[i + 1] for i in range(len(ev) - 1))
        assert sum(ev) <= 1.0 + 1e-12

    def test_zero_total_variance_explains_nothing(self):
        grid = Grid(4, 4)
        components = np.zeros((2, 4, 4, 2))
        components[0, 0, 0, 0] = components[1, 0, 0, 1] = 1.0
        basis = LogEuclideanBasis(grid, LogField(grid, np.zeros((4, 4, 2))), components,
                                  np.zeros(2), symmetrized=True, total_variance=0.0)
        assert explained_variance(basis) == [0.0, 0.0]


class TestLatentNegationChain:
    def test_suite_bound(self):
        # Codes of log(phi) and log(invert(phi)) are near-negations; the
        # residual is bounded by the log-negation error, not zero.
        logs = []
        phis = []
        for seed in range(6):
            v, phi = suite_field(seed)
            logs.append(v)
            phis.append(phi)
        basis = fit_basis(logs, dim=4)
        for v, phi in zip(logs[:3], phis[:3]):
            z_ab = encode(basis, v)
            z_ba = encode(basis, log_field(invert(phi).field, 6))
            resid = np.linalg.norm(z_ab + z_ba)
            assert resid <= 1e-2 * (np.linalg.norm(z_ab) + 1.0)
