import math

import numpy as np
import pytest
from oracles import (
    brute_force_log_evidence,
    brute_force_posterior_mean,
    reference_chain_path,
    reference_log_evidence_discrete,
    reference_mh_batch,
    scipy_gaussian_log_evidence,
)

from replica_markov import (
    GaussMarkovPrior,
    MarkovPrior,
    ModelSpec,
    TransitionMatrix,
    ValidationError,
    binary_markov_kernel,
    free_energy,
    simulator,
    sparse_hmm_prior,
    stationary_distribution,
)
from replica_markov.simulator import (
    EvidenceBudgetError,
    LinearModelInstance,
    empirical_free_energy,
    exact_log_evidence_discrete,
    gaussian_log_evidence,
    log_evidence,
    measurement_count,
    mh_mse_experiment,
    sample_instance,
)

BINARY_SYM = ModelSpec(prior=MarkovPrior(binary_markov_kernel(0.3, 0.3)))
GM = ModelSpec(prior=GaussMarkovPrior(0.8, 1.0))
# zero transitions give paths of prior weight 0, i.e. -inf log weights
TERNARY_ZERO = ModelSpec(
    prior=MarkovPrior(
        TransitionMatrix((-1.0, 0.0, 1.0), np.array([[0.5, 0.0, 0.5], [0.5, 0.0, 0.5], [0.25, 0.5, 0.25]]))
    )
)
# one zero transition and a non-dyadic state: a uniform MH start can hold the forbidden pair (0.3, -1)
TERNARY_ONE_ZERO = ModelSpec(
    prior=MarkovPrior(
        TransitionMatrix((-1.0, 0.3, 1.0), np.array([[0.6, 0.2, 0.2], [0.0, 0.5, 0.5], [0.2, 0.2, 0.6]]))
    )
)
# four states, two zeros in the column of 0.3: MH proposes jumps of 1, 2 and 3 states
FOUR_ZERO = ModelSpec(
    prior=MarkovPrior(
        TransitionMatrix(
            (-1.0, 0.3, 0.7, 2.0),
            np.array([[0.4, 0.0, 0.3, 0.3], [0.3, 0.0, 0.4, 0.3], [0.2, 0.3, 0.2, 0.3], [0.25, 0.25, 0.25, 0.25]]),
        )
    )
)
MISMATCHED = ModelSpec(
    prior=BINARY_SYM.prior, postulated_prior=MarkovPrior(binary_markov_kernel(0.2, 0.4)), sigma=1.2
)
SNR_PAIR = ModelSpec(prior=BINARY_SYM.prior, snr=((0.5, 0.5), (2.0, 0.5)))
BRUTE_FORCE_CASES = {
    **{f"binary-n{n}": (BINARY_SYM, n) for n in (1, 2, 3, 7, 12, 16)},
    **{f"ternary-zero-n{n}": (TERNARY_ZERO, n) for n in (1, 4, 9)},
    **{f"mismatched-n{n}": (MISMATCHED, n) for n in (1, 8, 13)},
    **{f"snr-pair-n{n}": (SNR_PAIR, n) for n in (1, 8, 13)},
}
LOG_2PIE = math.log(2.0 * math.pi) + 1.0


class TestSampling:
    def test_measurement_count_rounds_ties_up(self):
        assert measurement_count(10, 1.0) == 10
        assert measurement_count(3, 2.0) == 2  # 1.5 -> 2
        assert measurement_count(10, 3.0) == 3  # 3.33 -> 3
        assert measurement_count(1, 100.0) == 1  # floor of 1

    @pytest.mark.parametrize(("n", "beta"), [(0, 1.0), (8, 0.0), (8, -1.0), (8, math.nan), (8, math.inf)])
    def test_measurement_count_is_the_one_check_of_n_and_beta(self, n, beta):
        with pytest.raises(ValidationError, match="need n >= 1 and 0 < beta < inf"):
            measurement_count(n, beta)
        with pytest.raises(ValidationError, match="need n >= 1 and 0 < beta < inf"):
            sample_instance(BINARY_SYM, n, beta, seed=0)

    @pytest.mark.parametrize("n", [20.5, 20.0, True, "20"])
    def test_measurement_count_rejects_a_non_integer_n(self, n):
        with pytest.raises(ValidationError, match="n must be an integer"):
            measurement_count(n, 1.0)

    def test_measurement_count_accepts_numpy_integers(self):
        assert measurement_count(np.int64(10), 3.0) == measurement_count(np.int32(10), 3.0) == 3

    def test_seed_determinism_bit_identical(self):
        a = sample_instance(BINARY_SYM, 16, 0.8, seed=9, index=3)
        b = sample_instance(BINARY_SYM, 16, 0.8, seed=9, index=3)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.y, b.y)
        c = sample_instance(BINARY_SYM, 16, 0.8, seed=9, index=4)
        assert not np.array_equal(a.y, c.y)

    def test_gauss_markov_lag_one_autocorrelation(self):
        inst = sample_instance(GM, 100_000, 100_000.0, seed=1)  # m=1, long signal
        x = inst.x
        n = len(x) - 1
        r = float(np.sum(x[1:] * x[:-1]) / np.sum(x * x))
        se = math.sqrt((1.0 - 0.8**2) / n)
        assert abs(r - 0.8) < 3 * se
        var = GM.prior.stationary_variance()
        assert abs(float(np.var(x)) - var) < 5 * var * math.sqrt(2.0 / n)

    def test_binary_symmetric_balance(self):
        inst = sample_instance(BINARY_SYM, 100_000, 100_000.0, seed=2)
        frac = float(np.mean(inst.x == 1.0))
        assert abs(frac - 0.5) < 3 * 0.5 / math.sqrt(100_000 / 3)  # conservative ESS

    def test_sparse_hmm_activity_rate(self):
        model = ModelSpec(prior=sparse_hmm_prior(0.3, 0.8))
        inst = sample_instance(model, 100_000, 100_000.0, seed=3)
        assert abs(float(np.mean(inst.x != 0.0)) - 0.3) < 0.01

    @pytest.mark.parametrize(
        "prior",
        [BINARY_SYM.prior, TERNARY_ONE_ZERO.prior, sparse_hmm_prior(0.3, 0.3)],
        ids=["binary", "ternary", "sparse-hmm-hidden"],
    )
    @pytest.mark.parametrize("n", [1, 2, 2000])
    def test_chain_path_equals_the_scalar_draw_walk(self, prior, n):
        if isinstance(prior, MarkovPrior):
            kern, initial = prior.kernel, prior.initial
        else:
            kern, initial = prior.hidden, stationary_distribution(prior.hidden)
        rng, ref_rng = simulator._rng(17, n), simulator._rng(17, n)
        path = simulator._sample_discrete_chain(kern, initial, n, rng)
        assert np.array_equal(path, reference_chain_path(kern, initial, n, ref_rng))
        assert rng.random() == ref_rng.random()  # same stream position afterwards

    def test_json_round_trip(self):
        inst = sample_instance(BINARY_SYM, 6, 1.0, seed=5)
        back = LinearModelInstance.from_json(inst.to_json())
        assert np.array_equal(back.A, inst.A)
        assert np.array_equal(back.y, inst.y)
        assert back.seed == inst.seed and back.m == inst.m


class TestExactEvidenceDiscrete:
    def test_single_symbol_hand_formula(self):
        inst = sample_instance(BINARY_SYM, 1, 1.0, seed=7)
        phi = inst.design_matrix()
        terms = []
        for val, p in ((-1.0, 0.5), (1.0, 0.5)):
            r = inst.y - phi[:, 0] * val
            terms.append(p * math.exp(-0.5 * float(r @ r)) * (2 * math.pi) ** (-inst.m / 2))
        expected = math.log(sum(terms))
        est = exact_log_evidence_discrete(inst, BINARY_SYM)
        assert est.meta == {"paths": 2}
        assert abs(est.log_z - expected) < 1e-12

    @pytest.mark.parametrize("model,n", BRUTE_FORCE_CASES.values(), ids=BRUTE_FORCE_CASES.keys())
    def test_matches_brute_force_enumeration(self, model, n):
        # n = 1 leaves the left half empty, so the initial law is the boundary term
        for index in range(3):
            inst = sample_instance(model, n, 0.8, seed=101, index=index)
            est = exact_log_evidence_discrete(inst, model)
            assert est.meta["paths"] == len(model.prior.kernel.states) ** n
            assert est.log_z == pytest.approx(brute_force_log_evidence(inst, model), rel=1e-12, abs=0)
            # the cached tables give the bytes of tables built afresh for the instance
            assert est.log_z == reference_log_evidence_discrete(inst, model)

    @pytest.mark.parametrize(
        "model,n,entries",
        [(BINARY_SYM, 12, 5 * 64), (TERNARY_ZERO, 8, 81)],
        ids=["binary-13-blocks", "ternary-one-row-blocks"],
    )
    def test_row_blocks_agree_with_one_block(self, monkeypatch, model, n, entries):
        # the ternary case has blocks whose every path has prior weight 0
        inst = sample_instance(model, n, 1.0, seed=103)
        whole = exact_log_evidence_discrete(inst, model).log_z
        monkeypatch.setattr(simulator, "WEIGHT_BLOCK_ENTRIES", entries)
        blocked = exact_log_evidence_discrete(inst, model).log_z
        assert blocked == pytest.approx(whole, rel=1e-13, abs=0)
        assert blocked == reference_log_evidence_discrete(inst, model, entries)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_initial_law_keys_the_cached_tables(self, n):
        # the same kernel started from another law must not reuse the stationary prior's tables, in
        # either order; n = 1 reads the initial law only through the boundary term
        twin = ModelSpec(prior=MarkovPrior(binary_markov_kernel(0.3, 0.3), np.array([0.9, 0.1])))
        inst = sample_instance(BINARY_SYM, n, 1.0, seed=107)
        got = [exact_log_evidence_discrete(inst, model).log_z for model in (BINARY_SYM, twin, BINARY_SYM, twin)]
        assert got[:2] == got[2:] and got[0] != got[1]
        assert got[:2] == [reference_log_evidence_discrete(inst, model) for model in (BINARY_SYM, twin)]
        assert simulator._path_tables(twin.prior, n) is not simulator._path_tables(BINARY_SYM.prior, n)
        # an equal prior built anew shares the tables: the cache keys the prior by value
        fresh = MarkovPrior(binary_markov_kernel(0.3, 0.3))
        assert simulator._path_tables(fresh, n) is simulator._path_tables(BINARY_SYM.prior, n)

    def test_cached_tables_are_read_only(self):
        tables = simulator._path_tables(TERNARY_ZERO.prior, 5)
        assert tables[2] is not None and simulator._path_tables(BINARY_SYM.prior, 1)[2] is None  # no left half
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    def test_non_discrete_prior_is_rejected(self):
        inst = sample_instance(GM, 4, 1.0, seed=109)
        with pytest.raises(ValidationError, match="exact enumeration requires a discrete Markov prior"):
            exact_log_evidence_discrete(inst, GM)

    def test_flat_likelihood_limit(self):
        sigma = 1e6
        model = ModelSpec(
            prior=MarkovPrior(binary_markov_kernel(0.3, 0.3)),
            postulated_prior=MarkovPrior(binary_markov_kernel(0.3, 0.3)),
            sigma=sigma,
        )
        inst = sample_instance(model, 4, 1.0, seed=17)
        est = exact_log_evidence_discrete(inst, model)
        expected = -0.5 * inst.m * math.log(2.0 * math.pi * sigma**2)
        assert abs(est.log_z - expected) < 1e-9

    def test_permutation_covariance(self):
        inst = sample_instance(BINARY_SYM, 6, 1.0, seed=19)
        perm = np.random.default_rng(0).permutation(inst.m)
        permuted = LinearModelInstance(
            inst.n, inst.m, inst.beta, inst.A[perm], inst.S, inst.x, inst.y[perm], inst.seed
        )
        a = exact_log_evidence_discrete(inst, BINARY_SYM).log_z
        b = exact_log_evidence_discrete(permuted, BINARY_SYM).log_z
        assert abs(a - b) < 1e-10

    def test_budget_error_names_path_count_and_budget(self):
        inst = sample_instance(BINARY_SYM, 25, 1.0, seed=23)
        with pytest.raises(EvidenceBudgetError, match=r"2\^25 = 33554432 paths exceeds the 16777216-path"):
            exact_log_evidence_discrete(inst, BINARY_SYM)


class TestGaussianEvidence:
    def test_zero_design_decouples(self):
        inst = sample_instance(GM, 5, 1.0, seed=29)
        zeroed = LinearModelInstance(
            inst.n, inst.m, inst.beta, np.zeros_like(inst.A), inst.S, inst.x, inst.y, inst.seed
        )
        est = gaussian_log_evidence(zeroed, 0.8, 1.0)
        expected = float(np.sum(-0.5 * (math.log(2 * math.pi) + zeroed.y**2)))
        assert abs(est.log_z - expected) < 1e-12

    def test_two_by_two_hand_oracle(self):
        inst = sample_instance(GM, 2, 1.0, seed=31)
        phi = inst.design_matrix()
        nu, s0 = 0.8, 1.0
        var = s0 / (1 - nu**2)
        sig = np.array([[var, var * nu], [var * nu, var]])
        K = phi @ sig @ phi.T + np.eye(2)
        expected = -0.5 * (
            2 * math.log(2 * math.pi)
            + math.log(K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0])
            + float(inst.y @ np.linalg.solve(K, inst.y))
        )
        assert abs(gaussian_log_evidence(inst, nu, s0).log_z - expected) < 1e-12

    def test_against_discretized_prior_enumeration(self):
        # a 15-point grid discretization of the Gauss-Markov prior: the
        # enumerated evidence approaches the closed form within the
        # discretization error (n = 5 keeps 15^n inside the path budget)
        nu, s0, n = 0.5, 1.0, 5
        inst = sample_instance(ModelSpec(prior=GaussMarkovPrior(nu, s0)), n, 1.0, seed=37)
        grid = np.linspace(-3.5, 3.5, 15)
        step = grid[1] - grid[0]
        var0 = s0 / (1 - nu**2)
        init = np.exp(-0.5 * grid**2 / var0)
        init /= init.sum()
        P = np.exp(-0.5 * (grid[None, :] - nu * grid[:, None]) ** 2 / s0)
        P /= P.sum(axis=1, keepdims=True)
        kern = TransitionMatrix(tuple(grid), P)
        disc = ModelSpec(prior=MarkovPrior(kern, init))
        approx = exact_log_evidence_discrete(inst, disc)
        exact = gaussian_log_evidence(inst, nu, s0)
        assert abs(approx.log_z - exact.log_z) < 1e-2

    @pytest.mark.parametrize(
        "nu, n, betas, seed, trials",
        [
            (0.1, 64, (0.5, 1.0, 2.0), 20260809, 500),  # the instances of acceptance 05a
            (0.95, 400, (2.0,), 43, 4),  # ill-conditioned: Sigma_X has condition number ~1500
        ],
        ids=["acceptance-05a", "nu-0.95"],
    )
    def test_numpy_cholesky_matches_scipy(self, nu, n, betas, seed, trials):
        model = ModelSpec(prior=GaussMarkovPrior(nu, 1.0))
        for beta in betas:
            for i in range(trials):
                inst = sample_instance(model, n, beta, seed, index=i)
                want = scipy_gaussian_log_evidence(inst, nu, 1.0)
                assert abs(gaussian_log_evidence(inst, nu, 1.0).log_z - want) <= 1e-12 * abs(want)

    def test_dispatch(self):
        inst = sample_instance(GM, 4, 1.0, seed=41)
        assert log_evidence(inst, GM) == gaussian_log_evidence(inst, 0.8, 1.0)
        inst2 = sample_instance(BINARY_SYM, 4, 1.0, seed=41)
        assert log_evidence(inst2, BINARY_SYM) == exact_log_evidence_discrete(inst2, BINARY_SYM)


class TestEmpiricalFreeEnergy:
    def test_deterministic_prior_analytic_value(self):
        # single-state prior at 0: y = w and -(1/n) log Z concentrates at
        # (m/2n)(log 2pi + E[w^2])
        kern = TransitionMatrix((0.0,), np.array([[1.0]]))
        model = ModelSpec(prior=MarkovPrior(kern))
        mean, se = empirical_free_energy(model, 8, 1.0, trials=400, seed=43)
        assert abs(mean - LOG_2PIE / 2.0) < 3 * se

    def test_variance_shrinks_with_trials(self):
        _, se100 = empirical_free_energy(BINARY_SYM, 8, 1.0, trials=100, seed=47)
        _, se400 = empirical_free_energy(BINARY_SYM, 8, 1.0, trials=400, seed=47)
        ratio = (se100 / se400) ** 2
        assert 2.0 < ratio < 8.0

    @pytest.mark.filterwarnings("error")
    def test_standard_error_needs_two_trials(self):
        with pytest.raises(ValidationError, match="trials >= 2"):
            empirical_free_energy(BINARY_SYM, 4, 1.0, trials=1, seed=47)
        assert all(map(math.isfinite, empirical_free_energy(BINARY_SYM, 4, 1.0, trials=2, seed=47)))


def replicate_chain_means(inst, model, chains, steps, burn_in, seed):
    """Posterior mean of one instance from replicate lockstep chains; its error is the spread of the chain means."""
    post, rate = simulator._mh_discrete_batch(
        np.repeat(inst.design_matrix()[None], chains, axis=0),
        np.repeat(inst.y[None], chains, axis=0),
        *simulator._log_tables(model.prior, "MH"),
        model.sigma**2,
        steps,
        burn_in,
        simulator._rng(seed),
    )
    return post.mean(axis=0), post.std(axis=0, ddof=1) / math.sqrt(chains), rate


class TestMetropolisHastings:
    def test_two_site_matches_enumeration(self):
        inst = sample_instance(BINARY_SYM, 2, 1.0, seed=59)
        mean, se, rate = replicate_chain_means(inst, BINARY_SYM, chains=16, steps=100_000, burn_in=10_000, seed=61)
        assert np.all(np.abs(brute_force_posterior_mean(inst, BINARY_SYM) - mean) <= 3 * se)
        assert 0.01 <= rate <= 0.99

    def test_zero_coupling_recovers_prior_mean(self):
        inst = sample_instance(BINARY_SYM, 4, 1.0, seed=67)
        zeroed = LinearModelInstance(
            inst.n, inst.m, inst.beta, np.zeros_like(inst.A), inst.S, inst.x, inst.y, inst.seed
        )
        mean, se, _ = replicate_chain_means(zeroed, BINARY_SYM, chains=16, steps=100_000, burn_in=10_000, seed=71)
        assert np.all(np.abs(mean) <= 4 * se + 0.02)

    def test_detailed_balance_three_state_target(self):
        # n=1 with a 3-letter alphabet: the posterior mean over 10^6 total
        # steps (12 replicate chains) must match the enumerated posterior's
        kern = TransitionMatrix((-1.0, 0.0, 1.0), np.full((3, 3), 1.0 / 3.0))
        model = ModelSpec(prior=MarkovPrior(kern))
        inst = sample_instance(model, 1, 1.0, seed=73)
        phi = inst.design_matrix()
        vals = np.array([-1.0, 0.0, 1.0])
        ll = np.array([-0.5 * float(np.sum((inst.y - phi[:, 0] * v) ** 2)) for v in vals])
        w = np.exp(ll - ll.max()) / np.exp(ll - ll.max()).sum()
        chains, steps, burn = 12, 84_000, 4_000
        post, rate = simulator._mh_discrete_batch(
            np.repeat(phi[None], chains, axis=0),
            np.repeat(inst.y[None], chains, axis=0),
            vals,
            np.log(np.full(3, 1.0 / 3.0)),
            np.log(kern.P),
            1.0,
            steps,
            burn,
            simulator._rng(79),
        )
        assert 0.01 <= rate <= 0.99
        se = post[:, 0].std(ddof=1) / math.sqrt(chains)  # spread of the replicate chain means
        assert abs(post[:, 0].mean() - w @ vals) <= max(3 * se, 0.004)

    @pytest.mark.parametrize(
        "model,n,steps,burn_in",
        [
            (BINARY_SYM, 10, 3000, 500),
            (MISMATCHED, 10, 3000, 500),
            (TERNARY_ONE_ZERO, 8, 3000, 500),
            (TERNARY_ZERO, 8, 3000, 500),
            (BINARY_SYM, 1, 3000, 500),
            (TERNARY_ONE_ZERO, 2, 3000, 500),
            (FOUR_ZERO, 8, 3000, 500),
            (BINARY_SYM, 10, 2500, 1500),
            (ModelSpec(prior=TERNARY_ONE_ZERO.prior, sigma=0.7), 8, 3000, 500),
        ],
        ids=[
            "binary",
            "mismatched",
            "ternary-one-zero",
            "ternary-zero-column",
            "binary-n1",
            "ternary-one-zero-n2",
            "four-state-zero-column",  # jumps of 1 to 3 states
            "binary-burn-in-ends-in-second-block",  # 2500 steps cross both 1024-step block boundaries
            "ternary-one-zero-sigma-0.7",
        ],
    )
    def test_table_step_makes_the_branching_loops_moves(self, model, n, steps, burn_in):
        insts = [sample_instance(model, n, 1.0, seed=83, index=i) for i in range(16)]
        args = (
            np.stack([inst.design_matrix() for inst in insts]),
            np.stack([inst.y for inst in insts]),
            *simulator._log_tables(model.postulated, "MH"),
            model.sigma**2,
            steps,
            burn_in,
        )
        post, rate = simulator._mh_discrete_batch(*args, simulator._rng(89))
        ref_post, ref_rate = reference_mh_batch(*args, simulator._rng(89))
        assert np.array_equal(post, ref_post)
        assert rate == ref_rate

    def test_batch_experiment_close_to_replica_mmse(self):
        # the n=10 posterior-mean MSE sits ~7% above the large-system value,
        # with ~3% instance noise at 100 instances; 15% is the safe margin
        mse, se, rate = mh_mse_experiment(
            BINARY_SYM, 10, 1.0, instances=100, steps=60_000, burn_in=10_000, seed=9
        )
        ref = free_energy(BINARY_SYM, 1.0).mmse
        assert abs(mse - ref) / ref < 0.15
        assert 0.05 < rate < 0.95

    def test_experiment_needs_a_step_after_burn_in(self):
        with pytest.raises(ValidationError, match="burn_in"):
            mh_mse_experiment(BINARY_SYM, 4, 1.0, instances=2, steps=10, burn_in=20, seed=1)

    @pytest.mark.filterwarnings("error")
    def test_standard_error_needs_two_instances(self):
        with pytest.raises(ValidationError, match="instances >= 2"):
            mh_mse_experiment(BINARY_SYM, 4, 1.0, instances=1, steps=40, burn_in=10, seed=1)
        assert all(map(math.isfinite, mh_mse_experiment(BINARY_SYM, 4, 1.0, instances=2, steps=40, burn_in=10, seed=1)))

    def test_experiment_samples_the_postulated_posterior(self):
        # the chains use the postulated prior and noise, as exact enumeration does
        n, instances, steps, burn_in, seed = 6, 5, 2_000, 500, 13
        mse, se, rate = mh_mse_experiment(MISMATCHED, n, 1.0, instances, steps, burn_in, seed)
        insts = [sample_instance(MISMATCHED, n, 1.0, seed, index=i) for i in range(instances)]
        post, hand_rate = simulator._mh_discrete_batch(
            np.stack([inst.design_matrix() for inst in insts]),
            np.stack([inst.y for inst in insts]),
            *simulator._log_tables(MISMATCHED.postulated_prior, "MH"),
            MISMATCHED.sigma**2,
            steps,
            burn_in,
            simulator._rng(seed, 0x3C),
        )
        mses = np.sum((np.stack([inst.x for inst in insts]) - post) ** 2, axis=1) / n
        assert (mse, se, rate) == (float(mses.mean()), float(mses.std(ddof=1) / math.sqrt(instances)), hand_rate)
