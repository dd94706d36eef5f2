"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines.  Criterion 5's nu-consistency sub-check is a strict
expected failure; see notes in the test and the project README.
"""

import math
import time

import numpy as np
import pytest

from replica_markov import (
    MarkovPrior,
    ModelSpec,
    binary_markov_kernel,
    free_energy,
    gauss_markov_eta,
    gauss_markov_free_energy,
    solve_fixed_point,
    sparse_hmm_prior,
    stationary_distribution,
)
from replica_markov.amp import AmpConfig, amp_experiment
from replica_markov.cli import rows_to_csv, run_sweep
from replica_markov.config import validate_config
from replica_markov.laws import ConditionalInputLaw
from replica_markov.perron import (
    enumerate_q_states,
    log_pf_eigenvalue,
    pf_log_derivative,
    pf_decomposition,
    q_transition_matrix,
)
from replica_markov.simulator import (
    _log_tables,
    _mh_discrete_batch,
    _rng,
    empirical_free_energy,
    mh_mse_experiment,
    sample_instance,
)
from replica_markov.single_symbol import ScalarChannel, _posterior, _stats, channel_table, conditional_mse, conditional_var
from iid_reference import iid_replica
from oracles import brute_force_posterior_mean, scalar_awgn_mi_binary

SEED = 20260809
BINARY_SYM = ModelSpec(prior=MarkovPrior.discrete(binary_markov_kernel(0.3, 0.3)))
BINARY_ASYM = ModelSpec(prior=MarkovPrior.discrete(binary_markov_kernel(0.2, 0.5)))


def report(tag: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {tag}: {status} ({elapsed:.3f} s){suffix}")
    return ok


def test_01_stationary_distribution():
    stationary_distribution(binary_markov_kernel(0.2, 0.5))  # warm up
    # the fastest of 5 solves, so one stall of the machine does not fail the bound
    elapsed, err = math.inf, 0.0
    for _ in range(5):
        kern = binary_markov_kernel(0.2, 0.5)  # a fresh kernel: the law is solved, not looked up
        t0 = time.perf_counter()
        sd = stationary_distribution(kern)
        elapsed = min(elapsed, time.perf_counter() - t0)
        err = max(err, abs(sd[0] - 5.0 / 7.0), abs(sd[1] - 2.0 / 7.0))
    ok = err < 1e-12 and elapsed < 1e-3
    assert report("01 stationary-distribution", ok, elapsed, f"max err {err:.2e}")


def test_02_pf_derivative_vs_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        nu = int(rng.integers(0, 2))
        kern = binary_markov_kernel(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)))
        space = enumerate_q_states([1.0], [-1.0, 1.0], nu)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        t = 0.4 * rng.standard_normal((nu + 1, nu + 1))
        tilt = 0.5 * (t + t.T)
        formula = pf_log_derivative(base, tilt, space)
        fd = np.zeros_like(tilt)
        for a in range(nu + 1):
            for b in range(nu + 1):
                e = np.zeros_like(tilt)
                e[a, b] = h
                fd[a, b] = (
                    log_pf_eigenvalue(base, tilt + e, space) - log_pf_eigenvalue(base, tilt - e, space)
                ) / (2 * h)
        worst = max(worst, float(np.max(np.abs(formula - fd)) / np.max(np.abs(fd))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    assert report("02 pf-derivative", ok, elapsed, f"worst rel {worst:.2e}")


def log_growth(M: np.ndarray, h: np.ndarray, n: int, row: int = 0) -> float:
    """(1/n) log (M^n h)_row, rescaling the iterate at every step."""
    v, log_scale = h.astype(float), 0.0
    for _ in range(n):
        v = M @ v
        log_scale += math.log(v.sum())
        v /= v.sum()
    return (log_scale + math.log(v[row])) / n


def test_03_growth_rate():
    # random irreducible 5x5 matrices, well-conditioned in the sense that the
    # Perron eigenvector is not far from flat (the 1e-3 @ n=200 target needs
    # |log(psi_0 lam^T h)| < 0.2; a fully generic matrix can exceed it).  The
    # growth rate of M^n h tends to log rho of pf_decomposition, which in turn
    # must be the spectral radius.
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(10):
        stoch = rng.uniform(0.5, 1.5, size=(5, 5))
        stoch /= stoch.sum(axis=1, keepdims=True)
        M = float(rng.uniform(0.5, 3.0)) * (stoch + 0.08 * rng.uniform(0.0, 1.0, size=(5, 5)))
        rho = float(np.max(np.abs(np.linalg.eigvals(M))))
        log_pf = math.log(pf_decomposition(M).rho)
        worst = max(worst, abs(log_growth(M, np.ones(5), 200) - log_pf), abs(log_pf - math.log(rho)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 1.0
    assert report("03 growth-rate", ok, elapsed, f"worst gap {worst:.2e}")


def test_04_gauss_markov_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        model = ModelSpec(prior=MarkovPrior.gauss_markov(0.5, 1.0))
        sol = free_energy(model, beta)
        worst = max(worst, abs(sol.free_energy - gauss_markov_free_energy(beta, 1.0)))
    eta_err = abs(gauss_markov_eta(1.0, 1.0) - (math.sqrt(5.0) - 1.0) / 2.0)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and eta_err < 1e-10 and elapsed < 10.0
    assert report("04 gauss-markov-closed-form", ok, elapsed, f"F gap {worst:.2e}, eta gap {eta_err:.2e}")


def test_05a_gauss_markov_vs_exact_evidence():
    t0 = time.perf_counter()
    nu = 0.1  # the criterion pins no nu; see 05b for the large-nu behaviour
    model = ModelSpec(prior=MarkovPrior.gauss_markov(nu, 1.0))
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        emp, _se = empirical_free_energy(model, 64, beta, trials=500, seed=SEED)
        rep = gauss_markov_free_energy(beta, 1.0)
        worst = max(worst, abs(rep - emp) / abs(emp))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and elapsed < 120.0
    assert report("05a gm-replica-vs-evidence", ok, elapsed, f"worst rel {worst:.4f} at nu={nu}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The nu-independence prediction contradicts the exactly solvable Gaussian "
        "evidence: -(1/n) E log Z converges (n=64..4096, Silverstein fixed point) to a "
        "nu-dependent value, ~8% above the closed form at nu=0.8, beta=2.  The check "
        "is implemented at full strength and fails honestly; see README and the "
        "per-nu numbers printed below."
    ),
)
def test_05b_gauss_markov_nu_independence():
    t0 = time.perf_counter()
    beta = 1.0
    closed = {nu: gauss_markov_free_energy(beta, 1.0) for nu in (0.1, 0.5, 0.8)}
    assert len(set(closed.values())) == 1  # closed form carries no nu: holds
    results = {}
    for nu in (0.1, 0.5, 0.8):
        model = ModelSpec(prior=MarkovPrior.gauss_markov(nu, 1.0))
        results[nu] = empirical_free_energy(model, 64, beta, trials=500, seed=SEED)
    elapsed = time.perf_counter() - t0
    pairs_ok = True
    for a in (0.1, 0.5, 0.8):
        for b in (0.1, 0.5, 0.8):
            if a < b:
                gap = abs(results[a][0] - results[b][0])
                limit = 3.0 * math.hypot(results[a][1], results[b][1])
                pairs_ok = pairs_ok and gap <= limit
    detail = ", ".join(f"nu={nu}: {m:.4f}+-{s:.4f}" for nu, (m, s) in results.items())
    report("05b gm-nu-independence", pairs_ok, elapsed, detail)
    assert pairs_ok


def test_06_binary_markov_vs_enumeration():
    t0 = time.perf_counter()
    worst = 0.0
    for model in (BINARY_SYM, BINARY_ASYM):
        for beta in (0.5, 1.0, 2.0):
            emp, _se = empirical_free_energy(model, 12, beta, trials=200, seed=SEED)
            rep = free_energy(model, beta).free_energy
            worst = max(worst, abs(rep - emp) / abs(emp))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.05 and elapsed < 300.0
    assert report("06 binary-replica-vs-enumeration", ok, elapsed, f"worst rel {worst:.4f}")


def test_07_iid_reduction():
    t0 = time.perf_counter()
    model = ModelSpec(prior=MarkovPrior.discrete(binary_markov_kernel(0.5, 0.5)))
    law = ConditionalInputLaw.point_masses([-1.0, 1.0], [0.5, 0.5])
    worst = 0.0
    for beta in np.arange(0.2, 3.01, 0.2):
        sol = free_energy(model, float(beta))
        ref = iid_replica(law, 1.0, float(beta))
        worst = max(
            worst,
            abs(sol.free_energy - ref.free_energy),
            abs(sol.mutual_info - ref.mutual_info),
            abs(sol.mmse - ref.mmse),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    assert report("07 iid-reduction", ok, elapsed, f"worst abs {worst:.2e}")


def test_08_unique_fixed_point_and_monotone_eta():
    t0 = time.perf_counter()
    etas = []
    unique = True
    for beta in np.arange(0.2, 3.01, 0.2):
        sols = solve_fixed_point(BINARY_SYM, float(beta))
        unique = unique and len(sols) == 1
        etas.append(sols[0][0])
    decreasing = all(a > b for a, b in zip(etas, etas[1:]))
    elapsed = time.perf_counter() - t0
    ok = unique and decreasing and elapsed < 30.0
    assert report("08 eta-monotonicity", ok, elapsed, f"unique={unique}, decreasing={decreasing}")


def test_09_turbo_amp_vs_replica_mmse():
    t0 = time.perf_counter()
    worst = 0.0
    for kappa, gamma in ((0.5, 1.0), (0.3, 0.8)):
        for beta in (0.5, 1.0):
            cfg = AmpConfig(
                kappa=kappa, gamma=gamma, n=1000, beta=beta, trials=20, iterations=10, seed=SEED
            )
            res = amp_experiment(cfg)
            worst = max(worst, abs(res.mean_mse - res.replica_mmse) / res.replica_mmse)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.10 and elapsed < 300.0
    assert report("09 turbo-amp-vs-mmse", ok, elapsed, f"worst rel {worst:.4f}")


def test_10_metropolis_hastings():
    t0 = time.perf_counter()
    inst = sample_instance(BINARY_SYM, 2, 1.0, seed=SEED)
    chains = 16
    post, _rate = _mh_discrete_batch(
        np.repeat(inst.design_matrix()[None], chains, axis=0),
        np.repeat(inst.y[None], chains, axis=0),
        *_log_tables(BINARY_SYM.prior, "MH"),
        1.0,
        100_000,
        10_000,
        _rng(SEED),
    )
    se = post.std(axis=0, ddof=1) / math.sqrt(chains)  # spread of the replicate chain means
    chain_ok = bool(np.all(np.abs(brute_force_posterior_mean(inst, BINARY_SYM) - post.mean(axis=0)) <= 3 * se))
    mse, _se, _rate = mh_mse_experiment(
        BINARY_SYM, 10, 1.0, instances=100, steps=120_000, burn_in=20_000, seed=SEED
    )
    ref = free_energy(BINARY_SYM, 1.0).mmse
    rel = abs(mse - ref) / ref
    elapsed = time.perf_counter() - t0
    ok = chain_ok and rel < 0.10 and elapsed < 120.0
    assert report("10 metropolis-hastings", ok, elapsed, f"chain 3se ok={chain_ok}, mse rel {rel:.4f}")


def test_11_decoupling_limit_mutual_information():
    t0 = time.perf_counter()
    beta = 0.01
    c = free_energy(BINARY_SYM, beta).mutual_info
    # state-conditional scalar AWGN mutual information at eta = 1
    oracle = 0.5 * scalar_awgn_mi_binary(0.3) + 0.5 * scalar_awgn_mi_binary(0.7)
    rel = abs(c - oracle) / oracle
    elapsed = time.perf_counter() - t0
    ok = rel < 0.02 and elapsed < 10.0
    assert report("11 decoupling-limit-mi", ok, elapsed, f"C={c:.6f}, oracle={oracle:.6f}, rel {rel:.4f}")


def test_12_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    u = np.linspace(-40, 40, 200_001)
    density_ok = var_ok = True
    from replica_markov.laws import GaussianAtom, PointMass

    for _ in range(50):
        comps = []
        k = rng.integers(1, 4)
        weights = rng.dirichlet(np.ones(k))
        for w in weights:
            if rng.random() < 0.5:
                comps.append((float(w), PointMass(float(rng.normal()))))
            else:
                comps.append((float(w), GaussianAtom(float(rng.normal()), float(rng.uniform(0.2, 2.0)))))
        eta, s = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0))
        law = ConditionalInputLaw(tuple(comps))
        # the output density at u: _posterior on a one-row table's stats, component axis first
        stats = _stats(*(a.T for a in channel_table([(law, law, s)]).true), s, eta)
        total = float(np.trapezoid(np.exp(_posterior(stats, u, stats.log_density_factors())[0]), u))
        density_ok = density_ok and abs(total - 1.0) < 1e-9
    for _ in range(20):
        alpha = float(rng.uniform(0.1, 0.9))
        law = ConditionalInputLaw.point_masses([-1.0, 1.0], [1 - alpha, alpha])
        eta = float(rng.uniform(0.3, 3.0))
        ch = ScalarChannel(eta, eta, 1.0, law, law)
        var_ok = var_ok and abs(conditional_var(ch) - conditional_mse(ch)) < 1e-9
    mmse_ok = True
    for model, m2 in ((BINARY_SYM, 1.0), (ModelSpec(prior=sparse_hmm_prior(0.3, 0.8)), 0.3)):
        for beta in (0.5, 1.5):
            val = free_energy(model, beta).mmse
            mmse_ok = mmse_ok and 0.0 <= val <= m2 + 1e-12
    config = validate_config(
        {
            "version": 1,
            "model": {"prior": {"type": "binary_markov", "alpha": 0.3, "delta": 0.3}},
            "sweep": {"betas": [0.5, 1.0]},
            "tasks": ["replica", "exact_sim", "mh"],
            "n": 8,
            "trials": 10,
            "seed": SEED,
            "mh": {"steps": 4000, "burn_in": 500},
        }
    )
    bytes_a = rows_to_csv(run_sweep(config)).encode()
    bytes_b = rows_to_csv(run_sweep(config)).encode()
    bytes_c = rows_to_csv(run_sweep(config)).encode()
    seed_ok = bytes_a == bytes_b == bytes_c
    elapsed = time.perf_counter() - t0
    ok = density_ok and var_ok and mmse_ok and seed_ok
    assert report(
        "12 property-suites",
        ok,
        elapsed,
        f"density={density_ok}, matched-var={var_ok}, mmse-bounds={mmse_ok}, seed-bytes={seed_ok}",
    )
