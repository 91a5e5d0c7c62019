"""Tests for weight initialization (paper §3.2, Algorithm 3, Table 1 math)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.tt import TTShape
from repro.tt.initialization import (
    CORE_INIT_STRATEGIES,
    _truncated_normal_std,
    dlrm_default_initializer,
    gaussian_cores,
    gaussian_initializer,
    kl_uniform_gaussian,
    optimal_gaussian_for_uniform,
    sampled_gaussian_cores,
    tt_core_initializer,
    uniform_cores,
    uniform_initializer,
)


@pytest.fixture
def shape():
    return TTShape.with_uniform_rank(60, 8, (3, 4, 5), (2, 2, 2), rank=4)


class TestKLAnalytics:
    def test_optimal_gaussian_moment_match(self):
        mu, sigma2 = optimal_gaussian_for_uniform(-2.0, 4.0)
        assert mu == pytest.approx(1.0)
        assert sigma2 == pytest.approx(36.0 / 12.0)

    def test_paper_special_case(self):
        """For Uniform(±1/sqrt(n)), the optimum is N(0, 1/3n)."""
        n = 1000
        mu, sigma2 = optimal_gaussian_for_uniform(-1 / np.sqrt(n), 1 / np.sqrt(n))
        assert mu == 0.0
        assert sigma2 == pytest.approx(1.0 / (3 * n))

    def test_optimum_minimises_kl(self):
        a, b = -0.5, 0.5
        _, s2 = optimal_gaussian_for_uniform(a, b)
        best = kl_uniform_gaussian(a, b, 0.0, s2)
        for factor in (0.3, 0.7, 1.5, 4.0):
            assert kl_uniform_gaussian(a, b, 0.0, s2 * factor) > best
        for mu in (-0.2, 0.1, 0.4):
            assert kl_uniform_gaussian(a, b, mu, s2) > best

    def test_kl_matches_monte_carlo(self):
        a, b, mu, s2 = -1.0, 1.0, 0.2, 0.8
        rng = np.random.default_rng(0)
        x = rng.uniform(a, b, size=400_000)
        log_p = -np.log(b - a)
        log_q = -0.5 * np.log(2 * np.pi * s2) - (x - mu) ** 2 / (2 * s2)
        mc = float(np.mean(log_p - log_q))
        assert kl_uniform_gaussian(a, b, mu, s2) == pytest.approx(mc, abs=5e-3)

    def test_table1_kl_ordering(self):
        """KL ordering matches the paper's accuracy ordering: N(0,1) worst,
        N(0,1/3n) best among Gaussians."""
        n = 10131227  # paper's largest Kaggle table
        a, b = -1 / np.sqrt(n), 1 / np.sqrt(n)
        kls = [kl_uniform_gaussian(a, b, 0.0, s2)
               for s2 in (1.0, 0.5, 0.125, 1 / (3 * n))]
        assert kls[0] > kls[1] > kls[2] > kls[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            kl_uniform_gaussian(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kl_uniform_gaussian(0.0, 1.0, 0.0, 0.0)


class TestDenseInitializers:
    def test_uniform_bounds(self):
        init = uniform_initializer(0.25)
        x = init(np.random.default_rng(0), (1000,))
        assert np.all(np.abs(x) <= 0.25)

    def test_gaussian_std(self):
        init = gaussian_initializer(0.1)
        x = init(np.random.default_rng(0), (100_000,))
        assert x.std() == pytest.approx(0.1, rel=0.02)

    def test_dlrm_default(self):
        init = dlrm_default_initializer(400)
        x = init(np.random.default_rng(0), (1000,))
        assert np.all(np.abs(x) <= 1 / 20)


class TestSampledGaussian:
    def test_core_shapes(self, shape):
        cores = sampled_gaussian_cores(shape, rng=0)
        for k, core in enumerate(cores):
            assert core.shape == shape.core_shape(k)

    def test_no_near_zero_entries(self, shape):
        """Algorithm 3's rejection: pre-scaling entries satisfy |x| >= cutoff,
        so post-scaling no entry is below cutoff * scale."""
        cores = sampled_gaussian_cores(shape, cutoff=2.0, rng=0)
        for core in cores:
            nonzero_floor = np.abs(core).min()
            assert nonzero_floor > 0
        # Compare against plain Gaussian cores: sampled has a hole at zero.
        plain = gaussian_cores(shape, rng=0)
        sampled_min = min(np.abs(c).min() for c in cores)
        plain_min = min(np.abs(c).min() for c in plain)
        assert sampled_min > plain_min * 10

    def test_product_variance_matches_target(self):
        """Materialised table entries ~ N(0, 1/3n) (Fig. 3 right)."""
        from repro.tt.decomposition import tt_reconstruct

        shape = TTShape.with_uniform_rank(512, 8, (8, 8, 8), (2, 2, 2), rank=4)
        target = 1.0 / (3.0 * shape.num_rows)
        for strategy in ("sampled_gaussian", "gaussian", "uniform"):
            cores = CORE_INIT_STRATEGIES[strategy](shape, rng=0)
            table = tt_reconstruct(cores, shape)
            assert table.var() == pytest.approx(target, rel=0.35), strategy

    def test_sampled_product_less_peaked_at_zero(self):
        """The whole point of Algorithm 3: fewer near-zero table entries
        than plain Gaussian cores (Fig. 3)."""
        from repro.tt.decomposition import tt_reconstruct

        shape = TTShape.with_uniform_rank(512, 8, (8, 8, 8), (2, 2, 2), rank=1)
        sampled = tt_reconstruct(sampled_gaussian_cores(shape, rng=0), shape).ravel()
        plain = tt_reconstruct(gaussian_cores(shape, rng=0), shape).ravel()
        sigma = np.sqrt(1.0 / (3 * shape.num_rows))
        frac_small = lambda x: np.mean(np.abs(x) < 0.3 * sigma)
        assert frac_small(sampled) < frac_small(plain) / 2

    def test_zero_cutoff_is_plain_gaussian_scale(self, shape):
        cores = sampled_gaussian_cores(shape, cutoff=0.0, rng=0)
        assert all(np.isfinite(c).all() for c in cores)

    def test_negative_cutoff_rejected(self, shape):
        with pytest.raises(ValueError):
            sampled_gaussian_cores(shape, cutoff=-1.0, rng=0)

    def test_custom_target_variance(self, shape):
        from repro.tt.decomposition import tt_reconstruct

        cores = sampled_gaussian_cores(shape, target_variance=0.25, rng=0)
        table = tt_reconstruct(cores, shape)
        assert table.var() == pytest.approx(0.25, rel=0.5)

    def test_deterministic_given_seed(self, shape):
        a = sampled_gaussian_cores(shape, rng=42)
        b = sampled_gaussian_cores(shape, rng=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_truncated_normal_std_matches_scipy_reference(self):
        # sqrt(1 + c*norm.pdf(c)/norm.sf(c)) at c=2 from scipy.stats.
        assert _truncated_normal_std(2.0) == pytest.approx(
            2.397171471890504, rel=1e-14, abs=0)

    def test_model_build_does_not_import_scipy(self):
        code = (
            "import sys\n"
            "from repro.models import DLRMConfig, TTConfig, build_ttrec\n"
            "cfg = DLRMConfig(table_sizes=(2000, 50), emb_dim=8,\n"
            "                 bottom_mlp=(8,), top_mlp=(8,))\n"
            "build_ttrec(cfg, num_tt_tables=1, min_rows=100,\n"
            "            tt=TTConfig(rank=4, use_cache=True), rng=0)\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestStrategyRegistry:
    def test_all_strategies_produce_valid_cores(self, shape):
        for name in CORE_INIT_STRATEGIES:
            init = tt_core_initializer(name)
            cores = init(shape, rng=0)
            for k, c in enumerate(cores):
                assert c.shape == shape.core_shape(k)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown init strategy"):
            tt_core_initializer("xavier_magic")

    def test_uniform_cores_bounded(self, shape):
        cores = uniform_cores(shape, rng=0)
        for c in cores:
            assert np.abs(c).max() <= np.abs(c).max()  # finite
            assert np.isfinite(c).all()
