"""Independent oracles used by the test suite.

Everything here is deliberately written against plain formulas with its own
integration (dense trapezoid grids, Monte Carlo or brute-force enumeration),
never through the library's quadrature, solver or enumeration paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LOG_2PIE = math.log(2.0 * math.pi) + 1.0
_LOG_2PI = math.log(2.0 * math.pi)


def brute_force_log_evidence(inst, model) -> float:
    """log sum_x q(x) N(y; Phi x, sigma^2 I), one full residual per path.

    The chunked enumeration the library used before its meet-in-the-middle
    split: every one of the k^n paths is built and its m-dimensional
    residual computed directly.
    """
    prior = model.postulated
    kern = prior.kernel
    values = kern.state_values()
    with np.errstate(divide="ignore"):
        log_init, log_pi = np.log(prior.initial), np.log(kern.P)
    k, n, m = len(values), inst.n, inst.m
    total = k**n
    phi = inst.design_matrix()
    sigma_sq = model.sigma**2
    norm = -0.5 * m * (_LOG_2PI + np.log(sigma_sq))
    radix = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best = -np.inf
    chunks: list[np.ndarray] = []
    chunk = 1 << 14
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        paths = (ids[:, None] // radix) % k
        lp = log_init[paths[:, 0]]
        for t in range(n - 1):
            lp = lp + log_pi[paths[:, t], paths[:, t + 1]]
        resid = inst.y[None, :] - values[paths] @ phi.T
        ll = norm - 0.5 * np.einsum("ij,ij->i", resid, resid) / sigma_sq
        chunks.append(lp + ll)
        best = max(best, float(np.max(lp + ll)))
    acc = sum(float(np.exp(c - best).sum()) for c in chunks)
    return best + math.log(acc)


def brute_force_posterior_mean(inst, model) -> np.ndarray:
    """E[x | y] under the (postulated) discrete prior and noise sigma^2, every path at once (small n)."""
    prior = model.postulated
    kern = prior.kernel
    values = kern.state_values()
    paths = np.array(list(itertools.product(range(kern.dim), repeat=inst.n)))
    with np.errstate(divide="ignore"):
        lp = np.log(prior.initial)[paths[:, 0]] + np.log(kern.P)[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    resid = inst.y[None, :] - values[paths] @ inst.design_matrix().T
    lw = lp - 0.5 * np.einsum("ij,ij->i", resid, resid) / model.sigma**2
    w = np.exp(lw - lw.max())
    return w @ values[paths] / w.sum()


def reference_mh_batch(phis, ys, values, log_init, log_pi, sigma_sq, steps, burn_in, rng, keep_samples=False):
    """Lockstep single-site Metropolis with per-step branches on the path ends.

    The branching form of ``simulator._mh_discrete_batch``: it draws the
    same random blocks and recomputes both residual norms on every step, so
    accept decisions must agree move for move.
    """
    C, m, n = phis.shape
    k = len(values)
    idx = rng.integers(0, k, size=(C, n))
    x = values[idx]
    r = ys - np.einsum("cmn,cn->cm", phis, x)
    mean_acc = np.zeros((C, n))
    kept = []
    accepted = 0
    rows = np.arange(C)
    block = 1024
    done = 0
    while done < steps:
        cnt = min(block, steps - done)
        sites = rng.integers(0, n, size=(cnt, C))
        jumps = rng.integers(1, k, size=(cnt, C)) if k > 2 else np.ones((cnt, C), dtype=np.int64)
        logu = np.log(rng.random(size=(cnt, C)))
        for t in range(cnt):
            step = done + t
            l = sites[t]
            old = idx[rows, l]
            new = (old + jumps[t]) % k
            d_prior = np.zeros(C)
            has_left = l > 0
            left = idx[rows, np.maximum(l - 1, 0)]
            with np.errstate(invalid="ignore"):  # 0/0 prior ratios of a forbidden start: NaN rejects
                d_prior += np.where(
                    has_left,
                    log_pi[left, new] - log_pi[left, old],
                    log_init[new] - log_init[old],
                )
                has_right = l < n - 1
                right = idx[rows, np.minimum(l + 1, n - 1)]
                d_prior += np.where(has_right, log_pi[new, right] - log_pi[old, right], 0.0)
            cols = np.take_along_axis(phis, l[:, None, None], axis=2)[:, :, 0]
            dv = values[new] - values[old]
            r_new = r - cols * dv[:, None]
            d_lik = 0.5 * (np.einsum("cm,cm->c", r, r) - np.einsum("cm,cm->c", r_new, r_new)) / sigma_sq
            acc = logu[t] < d_prior + d_lik
            idx[rows[acc], l[acc]] = new[acc]
            r[acc] = r_new[acc]
            accepted += int(acc.sum())
            if step >= burn_in:
                cur = values[idx]
                mean_acc += cur
                if keep_samples and (step - burn_in) % 10 == 0:
                    kept.append(cur.copy())
        done += cnt
    post = mean_acc / (steps - burn_in)
    samples = np.array(kept) if keep_samples else None
    return post, accepted / (steps * C), samples


def reference_chain_path(kern, initial, n, rng) -> np.ndarray:
    """State indices of one chain path, one scalar uniform draw per site."""
    cum = np.cumsum(kern.P, axis=1)
    idx = np.empty(n, dtype=np.int64)
    idx[0] = np.searchsorted(np.cumsum(initial), rng.random(), side="right")
    for t in range(1, n):
        idx[t] = (cum[idx[t - 1]] < rng.random()).sum()
    return idx


def trapezoid_grid(half_width: float = 12.0, points: int = 100_001) -> np.ndarray:
    return np.linspace(-half_width, half_width, points)


def binary_output_density(u: np.ndarray, eta: float, p_plus: float) -> np.ndarray:
    """Mixture of N(+-1, 1/eta) with weight p_plus on +1."""
    c = math.sqrt(eta / (2.0 * math.pi))
    return (1.0 - p_plus) * c * np.exp(-0.5 * eta * (u + 1.0) ** 2) + p_plus * c * np.exp(
        -0.5 * eta * (u - 1.0) ** 2
    )


def g_bar_binary(state: int, eta: float, flip: float, beta: float) -> float:
    """Free-energy term of the matched binary chain by trapezoid integration.

    ``state`` is -1 or +1 and ``flip`` the corresponding row's transition
    probability away from the state (alpha for -1, delta for +1).
    """
    u = trapezoid_grid()
    p_plus = flip if state == -1 else 1.0 - flip
    f = binary_output_density(u, eta, p_plus)
    entropy = -np.trapezoid(np.where(f > 0, f * np.log(np.where(f > 0, f, 1.0)), 0.0), u)
    return float(
        entropy
        + ((eta - 1.0) - math.log(eta)) / (2.0 * beta)
        - 0.5 * math.log(2.0 * math.pi / eta)
        - 0.5
        + math.log(2.0 * math.pi) / (2.0 * beta)
        + 1.0 / (2.0 * beta)
    )


def scalar_awgn_mi_binary(p_plus: float, s: float = 1.0) -> float:
    """I(X; sqrt(s) X + N(0,1)) for X in {-1,+1} with P(X=+1)=p_plus, in nats."""
    u = trapezoid_grid(half_width=8.0 + math.sqrt(s) * 4.0)
    c = 1.0 / math.sqrt(2.0 * math.pi)
    f = (1.0 - p_plus) * c * np.exp(-0.5 * (u + math.sqrt(s)) ** 2) + p_plus * c * np.exp(
        -0.5 * (u - math.sqrt(s)) ** 2
    )
    h_out = -np.trapezoid(np.where(f > 0, f * np.log(np.where(f > 0, f, 1.0)), 0.0), u)
    return float(h_out - 0.5 * LOG_2PIE)


def scalar_posterior_mean_binary(u: np.ndarray, eta: float, p_plus: float) -> np.ndarray:
    ratio = ((1.0 - p_plus) / p_plus) * np.exp(-2.0 * eta * u)
    return (1.0 - ratio) / (1.0 + ratio)


def sparse_hmm_hand_path(kappa: float, gamma: float, beta: float):
    """Hand-specialized sparse-HMM fixed point, free energy, and MMSE.

    Works directly with the two conditional output densities
    f0 = (1-kg) N(0, 1/eta) + kg N(0, 1/eta + 1),
    f1 = (1-k)g N(0, 1/eta) + (1-(1-k)g) N(0, 1/eta + 1)
    and the decision function (eta u/(1+eta)) * w_active(u), integrating on a
    dense grid and solving the scalar fixed point by bisection.
    """
    a0 = kappa * gamma  # active weight given previous state 0
    a1 = 1.0 - (1.0 - kappa) * gamma  # given previous state 1

    def pieces(eta: float, active: float):
        u = trapezoid_grid(half_width=14.0)
        c0 = math.sqrt(eta / (2.0 * math.pi))
        c1 = math.sqrt(eta / (2.0 * math.pi * (1.0 + eta)))
        comp0 = (1.0 - active) * c0 * np.exp(-0.5 * eta * u**2)
        comp1 = active * c1 * np.exp(-0.5 * eta * u**2 / (1.0 + eta))
        f = comp0 + comp1
        g = (comp1 / f) * (eta * u / (1.0 + eta))
        r = np.trapezoid(f * g * g, u)  # E[<X>^2]
        mse = active - r
        ent = -np.trapezoid(np.where(f > 0, f * np.log(np.where(f > 0, f, 1.0)), 0.0), u)
        return float(mse), float(r), float(ent)

    def resid(eta: float) -> float:
        mse0, _, _ = pieces(eta, a0)
        mse1, _, _ = pieces(eta, a1)
        return 1.0 / eta - 1.0 - beta * ((1.0 - kappa) * mse0 + kappa * mse1)

    lo, hi = 1e-9, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            lo = mid
        else:
            hi = mid
    eta = 0.5 * (lo + hi)
    const = (
        ((eta - 1.0) - math.log(eta)) / (2.0 * beta)
        - 0.5 * math.log(2.0 * math.pi / eta)
        - 0.5
        + math.log(2.0 * math.pi) / (2.0 * beta)
        + 1.0 / (2.0 * beta)
    )
    _, r0, ent0 = pieces(eta, a0)
    _, r1, ent1 = pieces(eta, a1)
    free = (1.0 - kappa) * (ent0 + const) + kappa * (ent1 + const)
    mmse = kappa - ((1.0 - kappa) * r0 + kappa * r1)
    return eta, free, mmse
