import math

import numpy as np
import pytest

from replica_markov import (
    ConditionalInputLaw,
    GaussianAtom,
    PointMass,
    QuadratureError,
    ScalarChannel,
    channel_moments,
    conditional_mse,
    conditional_var,
    cross_entropy,
    mean_square_posterior_mean,
)
from replica_markov import single_symbol
from replica_markov.single_symbol import _law_arrays, _posterior, _stats, channel_table, mixture_expectation
from oracles import binary_output_density, scalar_posterior_mean_binary


def binary_law(p_plus: float) -> ConditionalInputLaw:
    return ConditionalInputLaw.point_masses([-1.0, 1.0], [1.0 - p_plus, p_plus])


def random_law(rng, zero_weights: bool = False) -> ConditionalInputLaw:
    """1-3 components, each a point mass or a Gaussian atom; optionally some of weight 0."""
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    if zero_weights and k > 1:
        weights[rng.random(k) < 0.4] = 0.0
        weights = weights / weights.sum() if weights.sum() > 0 else np.eye(k)[0]
    comps = []
    for w in weights:
        if rng.random() < 0.5:
            comps.append((float(w), PointMass(float(rng.normal()))))
        else:
            comps.append((float(w), GaussianAtom(float(rng.normal()), float(rng.uniform(0.2, 2.0)))))
    return ConditionalInputLaw(tuple(comps))


def random_table_channels(rng) -> list:
    """(true law, postulated law, s) for 1-3 states under a two-point SNR law."""
    snr = rng.uniform(0.3, 3.0, size=2)
    states = int(rng.integers(1, 4))
    return [(random_law(rng, True), random_law(rng, True), float(s)) for _ in range(states) for s in snr]


def random_channel(rng) -> ScalarChannel:
    law = random_law(rng)
    eta, s = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
    return ScalarChannel(eta, eta, s, law, law)


def posterior(law: ConditionalInputLaw, s: float, tau: float, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log output density, posterior mean and posterior variance at outputs u of the channel of ``law``.

    The channel has SNR s and inverse noise variance tau.  This is
    ``_posterior`` on a one-row table's stats, transposed so the component
    axis comes first.
    """
    stats = _stats(*(a.T for a in channel_table([(law, law, s)]).true), s, tau)
    return _posterior(stats, np.asarray(u, dtype=float), stats.log_density_factors())


def density(law: ConditionalInputLaw, s: float, eta: float, u) -> np.ndarray:
    return np.exp(posterior(law, s, eta, u)[0])


def decision(law: ConditionalInputLaw, s: float, xi: float, u) -> np.ndarray:
    return posterior(law, s, xi, u)[1]


class TestOutputDensity:
    def test_binary_mixture_closed_form(self):
        alpha = 0.3
        u = np.linspace(-4, 4, 41)
        assert np.allclose(density(binary_law(alpha), 1.0, 0.7, u), binary_output_density(u, 0.7, alpha), atol=1e-14)

    def test_sparse_hmm_inactive_state_density(self):
        # (1 - gk) N(0, 1/eta) + gk N(0, 1/eta + 1)
        kappa, gamma, eta = 0.3, 0.8, 0.9
        law = ConditionalInputLaw(
            ((1.0 - gamma * kappa, PointMass(0.0)), (gamma * kappa, GaussianAtom(0.0, 1.0)))
        )
        u = np.linspace(-5, 5, 31)
        expected = (1.0 - gamma * kappa) * np.sqrt(eta / (2 * np.pi)) * np.exp(-eta * u**2 / 2) + (
            gamma * kappa
        ) * np.sqrt(eta / (2 * np.pi * (1 + eta))) * np.exp(-eta * u**2 / (2 * (1 + eta)))
        assert np.allclose(density(law, 1.0, eta, u), expected, atol=1e-14)

    def test_point_mass_is_pure_noise(self):
        u = np.linspace(-3, 3, 13)
        expected = np.sqrt(2.0 / (2 * np.pi)) * np.exp(-u**2)
        assert np.allclose(density(ConditionalInputLaw.point_masses([0.0], [1.0]), 1.0, 2.0, u), expected, atol=1e-14)

    def test_integrates_to_one_on_random_channels(self):
        rng = np.random.default_rng(11)
        u = np.linspace(-40, 40, 400_001)
        for _ in range(50):
            ch = random_channel(rng)
            total = np.trapezoid(density(ch.true_law, ch.s, ch.eta, u), u)
            assert abs(total - 1.0) < 1e-9


class TestPosteriorMean:
    def test_binary_sigmoid_form(self):
        alpha, eta = 0.3, 0.7
        law = binary_law(alpha)
        u = np.linspace(-4, 4, 17)
        assert np.allclose(decision(law, 1.0, eta, u), scalar_posterior_mean_binary(u, eta, alpha), atol=1e-12)
        assert abs(decision(law, 1.0, eta, 0.0)[0] - (2 * alpha - 1)) < 1e-12

    def test_single_gaussian_is_linear_estimator(self):
        m, v, s, xi = 0.4, 1.7, 2.0, 0.8
        u = np.linspace(-5, 5, 11)
        gain = s * v / (s * v + 1.0 / xi)
        expected = m + gain * (u / math.sqrt(s) - m)
        assert np.allclose(decision(ConditionalInputLaw.gaussian(m, v), s, xi, u), expected, atol=1e-12)

    def test_saturates_at_extreme_output(self):
        law = ConditionalInputLaw.point_masses([-1.0, 0.5, 2.0], [0.2, 0.5, 0.3])
        assert abs(decision(law, 1.0, 1.0, 60.0)[0] - 2.0) < 1e-9
        assert abs(decision(law, 1.0, 1.0, -60.0)[0] - (-1.0)) < 1e-9

    def test_monotone_for_two_point_and_gaussian_laws(self):
        u = np.linspace(-10, 10, 2001)
        for law in (binary_law(0.25), ConditionalInputLaw.gaussian(0.3, 1.2)):
            g = decision(law, 1.0, 1.3, u)
            assert np.all(np.diff(g) >= -1e-12)


class TestConditionalMse:
    def test_matched_gaussian_closed_form(self):
        # sigma0^2 (1/eta) / (s sigma0^2 + 1/eta); equals 0.5 at all-ones
        for s, v, eta in ((1.0, 1.0, 1.0), (2.0, 0.5, 0.7), (0.5, 3.0, 1.9)):
            law = ConditionalInputLaw.gaussian(0.2, v)
            ch = ScalarChannel(eta, eta, s, law, law)
            expected = v * (1.0 / eta) / (s * v + 1.0 / eta)
            assert abs(conditional_mse(ch) - expected) < 1e-10
        law = ConditionalInputLaw.gaussian(0.0, 1.0)
        ch = ScalarChannel(1.0, 1.0, 1.0, law, law)
        assert abs(conditional_mse(ch) - 0.5) < 1e-12

    def test_noiseless_limit_vanishes(self):
        ch = ScalarChannel(1e6, 1e6, 1.0, binary_law(0.4), binary_law(0.4))
        assert conditional_mse(ch) < 1e-6

    def test_monte_carlo_oracle_matched_binary(self):
        alpha, eta, s = 0.3, 0.7, 1.0
        ch = ScalarChannel(eta, eta, s, binary_law(alpha), binary_law(alpha))
        rng = np.random.default_rng(123)
        n = 10_000_000
        x = np.where(rng.random(n) < alpha, 1.0, -1.0)
        u = math.sqrt(s) * x + rng.standard_normal(n) / math.sqrt(eta)
        err = (x - scalar_posterior_mean_binary(u, eta, alpha)) ** 2
        mc, se = err.mean(), err.std(ddof=1) / math.sqrt(n)
        assert abs(conditional_mse(ch) - mc) < 3 * se

    def test_degenerate_point_mass_short_circuits(self):
        law = ConditionalInputLaw.point_masses([0.7], [1.0])
        ch = ScalarChannel(1.0, 1.0, 1.0, law, law)
        assert conditional_mse(ch) == 0.0
        assert conditional_var(ch) == 0.0


class TestConditionalVar:
    def test_matched_equals_mse(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ch = random_channel(rng)
            assert abs(conditional_var(ch) - conditional_mse(ch)) < 1e-9

    def test_matched_gaussian_closed_form(self):
        law = ConditionalInputLaw.gaussian(0.0, 2.0)
        ch = ScalarChannel(0.8, 0.8, 1.5, law, law)
        expected = 2.0 * (1.0 / 0.8) / (1.5 * 2.0 + 1.0 / 0.8)
        assert abs(conditional_var(ch) - expected) < 1e-10

    def test_mismatched_nested_monte_carlo(self):
        # true alpha=0.3 at eta=0.9; postulated alpha=0.45 at xi=0.6
        eta, xi, s = 0.9, 0.6, 1.0
        ch = ScalarChannel(eta, xi, s, binary_law(0.3), binary_law(0.45))
        rng = np.random.default_rng(77)
        n = 10_000_000
        x1 = np.where(rng.random(n) < 0.3, 1.0, -1.0)
        u = x1 + rng.standard_normal(n) / math.sqrt(eta)
        # retrochannel: P(X=+1|u) under the postulated law and xi
        ratio = ((1.0 - 0.45) / 0.45) * np.exp(-2.0 * xi * u)
        p_plus = 1.0 / (1.0 + ratio)
        x_retro = np.where(rng.random(n) < p_plus, 1.0, -1.0)
        g = (1.0 - ratio) / (1.0 + ratio)
        var_draws = (x_retro - g) ** 2
        mc, se = var_draws.mean(), var_draws.std(ddof=1) / math.sqrt(n)
        assert abs(conditional_var(ch) - mc) < 3 * se

    def test_mismatched_mse_monte_carlo(self):
        eta, xi = 0.9, 0.6
        ch = ScalarChannel(eta, xi, 1.0, binary_law(0.3), binary_law(0.45))
        rng = np.random.default_rng(99)
        n = 10_000_000
        x1 = np.where(rng.random(n) < 0.3, 1.0, -1.0)
        u = x1 + rng.standard_normal(n) / math.sqrt(eta)
        ratio = ((1.0 - 0.45) / 0.45) * np.exp(-2.0 * xi * u)
        g = (1.0 - ratio) / (1.0 + ratio)
        err = (x1 - g) ** 2
        mc, se = err.mean(), err.std(ddof=1) / math.sqrt(n)
        assert abs(conditional_mse(ch) - mc) < 3 * se


class TestInvariants:
    def test_mse_bounded_by_prior_variance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ch = random_channel(rng)
            mean = sum(w * (atom.x if isinstance(atom, PointMass) else atom.mean) for w, atom in ch.true_law.components)
            assert -1e-12 <= conditional_mse(ch) <= ch.true_law.second_moment() - mean**2 + 1e-9

    def test_cross_entropy_is_entropy_when_matched(self):
        alpha, eta = 0.3, 0.7
        ch = ScalarChannel(eta, eta, 1.0, binary_law(alpha), binary_law(alpha))
        u = np.linspace(-14, 14, 200_001)
        f = binary_output_density(u, eta, alpha)
        entropy = -np.trapezoid(f * np.log(f), u)
        assert abs(cross_entropy(ch) - entropy) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalarChannel(0.0, 1.0, 1.0, binary_law(0.5), binary_law(0.5))


class TestQuadratureKernel:
    def test_each_level_evaluates_only_its_new_midpoints(self, monkeypatch):
        # The first two levels (65 nodes, then their 64 midpoints) are one
        # call over the 129-node grid when it fits one block, and each later
        # level evaluates only its new midpoints: cos(16 u) oscillates fast
        # enough to need 257 nodes.  In blocks of 64 nodes the two levels go
        # as separate levels, each in near-equal blocks (65 as 33 + 32), and
        # no block mixes them.  A batch too large for 16 nodes a block still
        # gets 16-node blocks (65 as 5 x 13).
        law = ConditionalInputLaw(((0.4, PointMass(-1.0)), (0.6, GaussianAtom(2.0, 0.5))))
        stats = _stats(*_law_arrays(law), 1.5, 0.8)
        w, m, v = np.exp(stats.log_w), stats.out_mean, stats.out_var
        half = single_symbol._HALF_WIDTH
        cases = (
            (lambda u: u * u, float(w @ (m**2 + v)), 2**12, [(2, 129)]),
            (lambda u: np.cos(16.0 * u), float(w @ (np.cos(16.0 * m) * np.exp(-128.0 * v))), 2**12, [(2, 129), (2, 128)]),
            (lambda u: u * u, float(w @ (m**2 + v)), 2 * 64, [(2, 33), (2, 32), (2, 64)]),
            (lambda u: u * u, float(w @ (m**2 + v)), 2 * 8, [(2, 13)] * 5 + [(2, 16)] * 4),
        )
        for integrand, want, block_entries, shapes in cases:
            monkeypatch.setattr(single_symbol, "QUAD_BLOCK_ENTRIES", block_entries)
            calls = []
            got, nodes = mixture_expectation(lambda u: calls.append(u) or integrand(u), stats)
            assert [u.shape for u in calls] == shapes
            # standardized, the calls' nodes together are the finest grid, each node once
            t = np.hstack([(u - m[:, None]) / np.sqrt(2.0 * v)[:, None] for u in calls])
            assert nodes == t.shape[1]
            nodes = np.linspace(-half, half, t.shape[1])
            assert np.allclose(np.sort(t, axis=1), nodes, rtol=0.0, atol=1e-12)
            assert abs(got - want) < 1e-12

    def test_gaussian_mixture_moments_in_closed_form(self):
        # E U^4 = sum w (m^4 + 6 m^2 v + 3 v^2) and E cos(aU) = sum w cos(a m) exp(-a^2 v / 2)
        rng = np.random.default_rng(41)
        for _ in range(50):
            stats = _stats(*_law_arrays(random_law(rng)), float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)))
            w, m, v = np.exp(stats.log_w), stats.out_mean, stats.out_var
            a = float(rng.uniform(0.5, 3.0))
            fourth = float(w @ (m**4 + 6.0 * m**2 * v + 3.0 * v**2))
            assert abs(mixture_expectation(lambda u: u**4, stats)[0] - fourth) <= 1e-13 * fourth
            cosine = float(w @ (np.cos(a * m) * np.exp(-0.5 * a * a * v)))
            assert abs(mixture_expectation(lambda u: np.cos(a * u), stats)[0] - cosine) < 1e-13

    def test_step_integrand_raises(self):
        # a step at one component's mean sits off-centre in the other
        # component, so successive levels never agree to 1e-9
        stats = _stats(*_law_arrays(binary_law(0.5)), 1.0, 1.0)
        with pytest.raises(QuadratureError):
            mixture_expectation(lambda u: (u > 1.0).astype(float), stats)

    def test_batched_moments_equal_stacked_one_channel_moments(self, monkeypatch):
        # Tables mixing point masses and Gaussian atoms, zero-weight components,
        # unequal component counts (padding) and a two-point SNR law, evaluated
        # at 5 (eta, xi) points in one call.  Starting at 1025 nodes, every entry
        # of both sides converges at 2049, so they may differ only by rounding;
        # from the default start a one-channel call may stop at a lower level
        # than the batch it would share (here that moves it by at most 2e-15).
        rng = np.random.default_rng(23)
        cases = [(random_table_channels(rng), rng.uniform(0.2, 1.5, 5), rng.uniform(0.2, 1.5, 5)) for _ in range(12)]
        laws = [[law for t, q, _ in channels for law in (t, q)] for channels, _, _ in cases]
        nonzero = [[sum(w > 0 for w, _ in law.components) for law in table] for table in laws]
        assert any(len(set(n)) > 1 for n in nonzero)  # padded tables
        assert any(len(law.components) > k for table, n in zip(laws, nonzero) for law, k in zip(table, n))

        def stacked(channels, etas, xis):
            return np.array(
                [[channel_moments(channel_table([(t, q, s)]), e, x)[0][0] for t, q, s in channels] for e, x in zip(etas, xis)]
            )

        for channels, etas, xis in cases:
            batched = channel_moments(channel_table(channels), etas, xis)[0]
            assert batched.shape == (5, len(channels), 4)
            assert np.max(np.abs(batched - stacked(channels, etas, xis))) < 1e-10
        monkeypatch.setattr(single_symbol, "_START_LEVEL", 10)
        for channels, etas, xis in cases:
            batched = channel_moments(channel_table(channels), etas, xis)[0]
            assert np.max(np.abs(batched - stacked(channels, etas, xis))) < 1e-12

    def test_node_blocks_agree_with_one_block(self, monkeypatch):
        rng = np.random.default_rng(29)
        table = channel_table(random_table_channels(rng))
        etas, xis = rng.uniform(0.2, 1.5, (3, 1)), rng.uniform(0.2, 1.5, 4)  # 3 x 4 points
        monkeypatch.setattr(single_symbol, "QUAD_BLOCK_ENTRIES", 2**40)
        whole = channel_moments(table, etas, xis)[0]
        shapes = []
        entries = 12 * table.true[0].size

        def block_shapes(fn, stats):
            def recorded(u):
                shapes.append(u.shape)
                return fn(u)

            return mixture_expectation(recorded, stats)

        monkeypatch.setattr(single_symbol, "mixture_expectation", block_shapes)
        monkeypatch.setattr(single_symbol, "QUAD_BLOCK_ENTRIES", 3 * entries)  # at most 3 nodes a block
        monkeypatch.setattr(single_symbol, "QUAD_MIN_BLOCK_NODES", 1)
        blocks = channel_moments(table, etas, xis)[0]
        assert whole.shape == blocks.shape == (3, 4, len(table.s), 4)
        assert max(s[-1] for s in shapes) == 3 and max(np.prod(s) for s in shapes) <= 3 * entries
        assert np.max(np.abs(blocks - whole) / np.maximum(np.abs(whole), 1.0)) < 1e-13

    def test_moments_agree_with_accessors(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            ch = random_channel(rng)
            e_g2, cross, var, neg_log_q0 = channel_moments(channel_table([(ch.true_law, ch.postulated_law, ch.s)]), ch.eta, ch.xi)[0][0]
            # matched channel: E[X1 g] = E[g^2] by the tower property
            assert abs(cross - e_g2) < 1e-9
            assert e_g2 == mean_square_posterior_mean(ch)
            assert var == conditional_var(ch)
            assert neg_log_q0 == cross_entropy(ch)
            # a lone shared point mass short-circuits to exactly 0
            assert abs(conditional_mse(ch) - (ch.true_law.second_moment() - 2.0 * cross + e_g2)) < 1e-12
