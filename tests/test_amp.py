import math
import tracemalloc

import numpy as np
import pytest

from replica_markov.amp import (
    AmpConfig,
    AmpDivergence,
    amp_experiment,
    replica_mmse_reference,
    sample_sparse_instance,
    threshold_funcs,
    turbo_amp,
)
from replica_markov.markov_core import ValidationError
from replica_markov.simulator import measurement_count


class TestThresholdFuncs:
    def test_f_vanishes_at_zero_and_is_odd(self):
        theta = np.linspace(-8, 8, 401)
        f, g, _ = threshold_funcs(theta, 2.0, 0.3)
        assert abs(threshold_funcs(0.0, 2.0, 0.3)[0]) == 0.0
        assert np.allclose(f, -f[::-1], atol=1e-14)
        assert np.allclose(g, g[::-1], atol=1e-14)

    def test_dense_limit_is_linear_shrinkage(self):
        # kappa = 1 removes the inactive mass: F = theta/(c+1)
        theta = np.linspace(-5, 5, 101)
        f, g, fp = threshold_funcs(theta, 3.0, 1.0)
        assert np.allclose(f, theta / 4.0, atol=1e-14)
        assert np.allclose(fp, 1.0 / 4.0, atol=1e-14)
        assert np.allclose(g, 3.0 / 4.0, atol=1e-14)

    def test_g_nonnegative_and_continuous_at_zero(self):
        for c, kappa in ((0.5, 0.2), (10.0, 0.5), (2.0, 0.9)):
            theta = np.linspace(-30, 30, 10_001)
            _, g, _ = threshold_funcs(theta, c, kappa)
            assert np.all(g >= 0)
            beta = ((1 - kappa) / kappa) * ((c + 1) / c)
            limit = c / (c + 1.0) / (1.0 + beta)
            assert abs(threshold_funcs(0.0, c, kappa)[1] - limit) < 1e-14
            eps = threshold_funcs(1e-9, c, kappa)[1]
            assert abs(eps - limit) < 1e-12

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(100)
        h = 1e-6
        for _ in range(100):
            theta = float(rng.uniform(-6, 6))
            c = float(rng.uniform(0.2, 12.0))
            kappa = float(rng.uniform(0.05, 0.95))
            _, _, fp = threshold_funcs(theta, c, kappa)
            f_hi = threshold_funcs(theta + h, c, kappa)[0]
            f_lo = threshold_funcs(theta - h, c, kappa)[0]
            fd = (f_hi - f_lo) / (2 * h)
            assert abs(fp - fd) / max(abs(fd), 1e-9) < 1e-6

    def test_large_theta_stable(self):
        f, g, fp = threshold_funcs(np.array([1e8, -1e8]), 1.0, 0.3)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(g)) and np.all(np.isfinite(fp))


class TestTurboAmp:
    def test_zero_observation_is_fixed_point(self):
        cfg = AmpConfig(kappa=0.3, gamma=0.8, n=50, beta=1.0, trials=1, iterations=6, seed=0)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((50, 50))
        state = turbo_amp(np.zeros(50), A, cfg, x_true=np.zeros(50))
        assert np.array_equal(state.mu, np.zeros(50))
        assert state.mse_trace == [0.0] * 6

    def test_trace_length_and_finiteness(self):
        cfg = AmpConfig(kappa=0.3, gamma=0.8, n=300, beta=0.5, trials=1, iterations=10, seed=2)
        y, A, x = sample_sparse_instance(cfg, 0)
        state = turbo_amp(y, A, cfg, x_true=x)
        assert len(state.mse_trace) == 10
        assert all(np.isfinite(v) for v in state.mse_trace)
        assert state.c >= 1.0  # c = 1 + (beta/n) sum(G), and G >= 0

    def test_permutation_equivariance(self):
        cfg = AmpConfig(kappa=0.4, gamma=0.9, n=60, beta=1.0, trials=1, iterations=5, seed=3)
        y, A, x = sample_sparse_instance(cfg, 0)
        perm = np.random.default_rng(4).permutation(cfg.n)
        base = turbo_amp(y, A, cfg, x)
        permuted = turbo_amp(y, A[:, perm], cfg, x[perm])
        assert np.allclose(permuted.mu, base.mu[perm], atol=1e-12)

    def test_divergence_names_iteration(self):
        cfg = AmpConfig(kappa=0.5, gamma=1.0, n=400, beta=0.5, trials=1, iterations=10, seed=5)
        y, A, x = sample_sparse_instance(cfg, 0)
        with pytest.raises(AmpDivergence, match="iteration"):
            turbo_amp(y * 1e150, A * 1e150, cfg, x)

    def test_config_validation(self):
        valid = {"kappa": 0.5, "gamma": 0.5, "n": 1000, "beta": 1.0, "trials": 20, "iterations": 10, "seed": 0}
        AmpConfig(**valid)
        with pytest.raises(ValidationError):
            AmpConfig(**{**valid, "kappa": 0.0})
        with pytest.raises(ValidationError):
            AmpConfig(**{**valid, "gamma": 1.2})
        with pytest.raises(ValidationError):
            AmpConfig(**{**valid, "iterations": 0})
        with pytest.raises(ValidationError, match="trials must be >= 1"):
            AmpConfig(**{**valid, "trials": 0})
        for n, beta in ((0, 1.0), (10, 0.0), (10, math.nan), (10, math.inf)):
            with pytest.raises(ValidationError, match="need n >= 1 and 0 < beta < inf"):
                AmpConfig(**{**valid, "n": n, "beta": beta})

    def test_a_non_integer_n_is_rejected_before_sampling(self):
        # it once failed deep in sample_sparse_instance with a TypeError
        with pytest.raises(ValidationError, match="n must be an integer"):
            AmpConfig(kappa=0.3, gamma=0.5, n=20.5, beta=1.0, trials=2, iterations=2, seed=0)

    def test_m_is_the_shared_measurement_count(self):
        # n=10 at beta=3: round(10/3) = 3 measurements, as in every other oracle (ceil gave 4)
        cfg = AmpConfig(kappa=0.3, gamma=0.8, n=10, beta=3.0, trials=1, iterations=1, seed=0)
        assert cfg.m == measurement_count(10, 3.0) == 3
        assert sample_sparse_instance(cfg, 0)[1].shape == (3, 10)


class TestAmpExperiment:
    def test_single_trial_equals_single_run(self):
        cfg = AmpConfig(kappa=0.3, gamma=0.8, n=200, beta=1.0, trials=1, iterations=8, seed=6)
        res = amp_experiment(cfg, replica_reference=0.0)
        y, A, x = sample_sparse_instance(cfg, 0)
        state = turbo_amp(y, A, cfg, x_true=x)
        assert res.mean_mse == state.mse_trace[-1]
        assert res.std_err == 0.0

    def test_stderr_shrinks_with_trials(self):
        base = AmpConfig(kappa=0.3, gamma=0.8, n=150, beta=1.0, trials=8, iterations=6, seed=7)
        quad = AmpConfig(kappa=0.3, gamma=0.8, n=150, beta=1.0, trials=32, iterations=6, seed=7)
        r8 = amp_experiment(base, replica_reference=0.0)
        r32 = amp_experiment(quad, replica_reference=0.0)
        assert r32.std_err < r8.std_err

    def test_low_load_beats_zero_estimator(self):
        cfg = AmpConfig(kappa=0.5, gamma=1.0, n=400, beta=0.25, trials=4, iterations=10, seed=8)
        res = amp_experiment(cfg, replica_reference=0.0)
        assert res.mean_mse < 0.5  # prior variance kappa

    def test_default_reference_at_achieved_load(self):
        cfg = AmpConfig(kappa=0.5, gamma=1.0, n=10, beta=3.0, trials=2, iterations=2, seed=10)
        assert amp_experiment(cfg).replica_mmse == replica_mmse_reference(0.5, 1.0, 10 / 3)

    def test_reference_attached(self):
        ref = replica_mmse_reference(0.5, 1.0, 1.0)
        cfg = AmpConfig(kappa=0.5, gamma=1.0, n=100, beta=1.0, trials=2, iterations=4, seed=9)
        res = amp_experiment(cfg, replica_reference=ref)
        assert res.replica_mmse == ref
        assert res.traces.shape == (2, 4)

    def test_one_sensing_matrix_alive_at_a_time(self):
        # Each trial's (y, A, x) is released before the next is drawn: three
        # trials peak at about one (m, n) matrix above the starting size, where
        # holding the previous trial's matrix while drawing the next takes two.
        # The warm-up call keeps the lazy imports of the first Generator out of the count.
        warm_up = AmpConfig(kappa=0.3, gamma=0.8, n=20, beta=1.0, trials=2, iterations=2, seed=0)
        amp_experiment(warm_up, replica_reference=0.0)
        cfg = AmpConfig(kappa=0.3, gamma=0.8, n=400, beta=1.0, trials=3, iterations=5, seed=11)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            amp_experiment(cfg, replica_reference=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 1.25 * cfg.m * cfg.n * 8
