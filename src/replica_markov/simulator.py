"""Ground-truth oracles: sampled instances, exact evidence, and MH posterior means.

The empirical free energy is the Monte-Carlo average of -(1/n) log Z over
independently sampled instances, where log Z = log q(y | Phi) is computed
exactly: by enumerating all k^n paths for discrete priors and by the
closed-form multivariate-normal marginal for the Gauss-Markov prior (y ~ N(0,
Phi Sigma_X Phi^T + I) with Sigma_X[i,j] = sigma0^2 nu^|i-j| / (1 - nu^2)).
The enumeration meets in the middle: the prior couples a left and a right
half-path only through the boundary transition pi[u_last, v_first], and one
matrix product of factor rows gives the log weight of every pair: residual
cross term, likelihood norms, prior and boundary term.
Posterior means come from one Metropolis-Hastings sampler: single-site flips
on a discrete prior, with many chains run in lockstep.

All randomness flows through counter-based Philox streams keyed by
(seed, instance index), so results are bit-identical for a given seed
regardless of how work is scheduled.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .markov_core import GaussMarkovPrior, HiddenMarkovPrior, MarkovPrior, ValidationError, stationary_distribution

if TYPE_CHECKING:
    from .solver import ModelSpec

ENUMERATION_BUDGET = 1 << 24
WEIGHT_BLOCK_ENTRIES = 1 << 20
_LOG_2PI = float(np.log(2.0 * np.pi))
# stands in for log(x/0) in the MH ratio tables: finite, so it sums with -inf to -inf, not NaN
_LEAVE_FORBIDDEN = 1e300
# stands in for log 0 in the enumeration's factor columns: finite, so 0 x log 0 is 0 in a product, not NaN
_LOG_ZERO = -1e300


class EvidenceBudgetError(RuntimeError):
    """Enumeration would visit more than ENUMERATION_BUDGET paths."""


def _rng(seed: int, *stream) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


def measurement_count(n: int, beta: float) -> int:
    """m = round(n / beta), ties rounded up; the one check of an integer n >= 1 and 0 < beta < inf."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):  # numpy integers pass
        raise ValidationError(f"n must be an integer, got {n!r}")
    if not (n >= 1 and 0 < beta < math.inf):  # also rejects NaN
        raise ValidationError(f"need n >= 1 and 0 < beta < inf, got n={n}, beta={beta}")
    return max(1, int(math.floor(n / beta + 0.5)))


@dataclass(frozen=True, eq=False)
class LinearModelInstance:
    n: int
    m: int
    beta: float  # requested load; n/m is the achieved one
    A: np.ndarray = field(repr=False)
    S: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    seed: int
    index: int = 0

    def design_matrix(self) -> np.ndarray:
        """Phi = A diag(sqrt(S))."""
        return self.A * np.sqrt(self.S)

    def to_json(self) -> str:
        def enc(a: np.ndarray) -> dict:
            return {"shape": list(a.shape), "data": base64.b64encode(np.ascontiguousarray(a, dtype=np.float64).tobytes()).decode()}

        return json.dumps(
            {
                "n": self.n,
                "m": self.m,
                "beta": self.beta,
                "seed": self.seed,
                "index": self.index,
                "A": enc(self.A),
                "S": enc(self.S),
                "x": enc(self.x),
                "y": enc(self.y),
            }
        )

    @staticmethod
    def from_json(text: str) -> "LinearModelInstance":
        doc = json.loads(text)

        def dec(d: dict) -> np.ndarray:
            return np.frombuffer(base64.b64decode(d["data"]), dtype=np.float64).reshape(d["shape"])

        return LinearModelInstance(
            doc["n"], doc["m"], doc["beta"], dec(doc["A"]), dec(doc["S"]), dec(doc["x"]), dec(doc["y"]), doc["seed"], doc["index"]
        )


def _sample_discrete_chain(kern, initial, n: int, rng) -> np.ndarray:
    """State indices of one chain path of length n.

    Step t's uniform u picks the next state of every state s at once, as the
    number of entries of the cumulative row s below u; the walk then only
    follows those tables.
    """
    u = rng.random(n)
    nexts = (np.cumsum(kern.P, axis=1)[None] < u[1:, None, None]).sum(axis=2).tolist()
    state = int(np.searchsorted(np.cumsum(initial), u[0], side="right"))
    path = [state]
    for nxt in nexts:
        state = nxt[state]
        path.append(state)
    return np.array(path, dtype=np.int64)


def sample_prior_path(prior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one length-n signal from the prior, started from its stationary law."""
    if isinstance(prior, HiddenMarkovPrior):
        hidden_idx = _sample_discrete_chain(prior.hidden, stationary_distribution(prior.hidden), n, rng)
        x = np.empty(n)
        for k, law in enumerate(prior.emissions):
            mask = hidden_idx == k
            cnt = int(mask.sum())
            if cnt:
                x[mask] = law.sample(rng, cnt)
        return x
    if isinstance(prior, GaussMarkovPrior):
        x = np.empty(n)
        x[0] = rng.normal(0.0, math.sqrt(prior.stationary_variance()))
        z = rng.normal(0.0, math.sqrt(prior.sigma0_sq), size=n - 1)
        for t in range(1, n):
            x[t] = prior.nu * x[t - 1] + z[t - 1]
        return x
    return prior.kernel.state_values()[_sample_discrete_chain(prior.kernel, prior.initial, n, rng)]


def sample_instance(model: ModelSpec, n: int, beta: float, seed: int, index: int = 0) -> LinearModelInstance:
    """One seeded instance: A ~ N(0, 1/m) entries, x from the prior, y = Phi x + w."""
    m = measurement_count(n, beta)
    rng = _rng(seed, index)
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    values = np.array([v for v, _ in model.snr])
    probs = np.array([p for _, p in model.snr])
    S = values[rng.choice(len(values), size=n, p=probs)]
    x = sample_prior_path(model.prior, n, rng)
    w = rng.standard_normal(m)
    y = (A * np.sqrt(S)) @ x + w
    return LinearModelInstance(n, m, beta, A, S, x, y, seed, index)


@dataclass(frozen=True)
class EvidenceEstimate:
    log_z: float
    meta: dict = field(default_factory=dict)


def _log_tables(prior, use: str):
    """(state values, log initial law, log kernel) of a discrete Markov prior."""
    if not isinstance(prior, MarkovPrior):
        raise ValidationError(f"{use} requires a discrete Markov prior")
    kern = prior.kernel
    with np.errstate(divide="ignore"):
        return kern.state_values(), np.log(prior.initial), np.log(kern.P)


def _index_paths(k: int, length: int) -> np.ndarray:
    """(k^length, length) state indices of every path, in lexicographic order."""
    radix = k ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return (np.arange(k**length, dtype=np.int64)[:, None] // radix) % k


def _over_budget(k: int, n: int) -> str | None:
    """Why the k^n paths of n sites over k states are not enumerated, or None within ENUMERATION_BUDGET."""
    if k ** min(n, 64) <= ENUMERATION_BUDGET:  # past n = 64, k >= 2 and k^64 is over it too: no k^n of a huge n
        return None
    paths = f"{k}^{n} = {k**n}" if n <= 64 else f"{k}^{n}"
    return f"{paths} paths exceeds the {ENUMERATION_BUDGET}-path enumeration budget"


@lru_cache(maxsize=2)
def _path_tables(prior, n: int) -> tuple:
    """The instance-free factor columns of ``exact_log_evidence_discrete`` for length-n paths of a discrete prior.

    Returns read-only (values[u], values[v], [lp_L(u) | 1 | edge(u, .)],
    [1 | lp_R(v) | onehot(v_first)]) for the left halves u (the first n//2
    sites) and right halves v, both in lexicographic order: lp_L(u) =
    log q0[u_first] + sum log pi along u (0 when the left half is empty,
    n = 1), lp_R(v) = sum log pi along v, and edge[u, j] the boundary term
    log pi[u_last, j], or log q0[j] when n = 1.  The product of a left and a
    right row is lp_L(u) + lp_R(v) + edge[u, v_first], the log prior of the
    path.  log 0 is held as the finite _LOG_ZERO, so 0 x log 0 is 0 in the
    product and a forbidden path's term stays at or below _LOG_ZERO.
    Cached by the prior's value, so every instance of a document shares one
    set; an entry at the full ENUMERATION_BUDGET holds about 1 MB, and a
    document needs one.
    """
    values, log_init, log_pi = _log_tables(prior, "exact enumeration")
    k = len(values)
    if reason := _over_budget(k, n):
        raise EvidenceBudgetError(reason)
    log_init, log_pi = np.maximum(log_init, _LOG_ZERO), np.maximum(log_pi, _LOG_ZERO)
    a = n // 2
    u, v = _index_paths(k, a), _index_paths(k, n - a)
    left = np.ones((len(u), 2 + k))
    right = np.zeros((len(v), 2 + k))
    right[:, 0] = 1.0
    right[:, 1] = log_pi[v[:, :-1], v[:, 1:]].sum(axis=1)
    right[np.arange(len(v)), 2 + v[:, 0]] = 1.0
    if a:
        left[:, 0] = log_init[u[:, 0]] + log_pi[u[:, :-1], u[:, 1:]].sum(axis=1)
        left[:, 2:] = log_pi[u[:, -1]]
    else:
        left[:, 0], left[:, 2:] = 0.0, log_init
    tables = values[u], values[v], left, right
    for t in tables:
        t.flags.writeable = False
    return tables


def exact_log_evidence_discrete(inst: LinearModelInstance, model: ModelSpec) -> EvidenceEstimate:
    """log sum_x q(x) N(y; Phi x, sigma^2 I) over all k^n paths, by meet in the middle.

    Each path x splits into a left half u (the first n//2 sites) and a right
    half v.  With r(u) = y - Phi_L u and g(v) = Phi_R v,
    ||y - Phi x||^2 = ||r(u)||^2 + ||g(v)||^2 - 2 r(u).g(v), and the prior
    separates as lp_L(u) + lp_R(v) plus one boundary term: log pi[u_last,
    v_first], or log q0[v_first] when the left half is empty (n = 1).  So the
    log weight of pair (u, v) is the product of a left factor row
    [r(u) / sigma^2 | left(u) | 1 | edge(u, .)] and a right factor row
    [g(v) | 1 | right(v) | onehot(v_first)], where left and right add the
    instance's likelihood terms to ``_path_tables``' prior columns, built
    once per (prior, n).  Each row block of at most WEIGHT_BLOCK_ENTRIES pair
    weights is one GEMM, then a max, a shift, an exp and a sum; a block of
    paths the prior forbids has a top near _LOG_ZERO and adds 0.
    """
    u_values, v_values, left_cols, right_cols = _path_tables(model.postulated, inst.n)
    phi = inst.design_matrix()
    sigma_sq = model.sigma**2
    m, a = inst.m, inst.n // 2
    resid = (inst.y - u_values @ phi[:, :a].T) / sigma_sq
    g = v_values @ phi[:, a:].T
    left = np.hstack((resid, left_cols))
    left[:, m] += -0.5 * m * (_LOG_2PI + np.log(sigma_sq)) - 0.5 * sigma_sq * np.einsum("ij,ij->i", resid, resid)
    right = np.hstack((g, right_cols))
    right[:, m + 1] -= 0.5 * np.einsum("ij,ij->i", g, g) / sigma_sq
    rows = max(1, WEIGHT_BLOCK_ENTRIES // len(right))
    tops, sums = [], []
    for start in range(0, len(left), rows):
        w = left[start : start + rows] @ right.T
        top = float(w.max())
        w -= top
        tops.append(top)
        sums.append(float(np.exp(w, out=w).sum()))
    best = max(tops)
    acc = sum(s * math.exp(t - best) for t, s in zip(tops, sums))
    return EvidenceEstimate(best + math.log(acc), {"paths": len(left) * len(right)})


def gaussian_log_evidence(inst: LinearModelInstance, nu: float, sigma0_sq: float) -> EvidenceEstimate:
    """Exact log N(y; 0, Phi Sigma_X Phi^T + I) for the Gauss-Markov prior."""
    lags = np.abs(np.subtract.outer(np.arange(inst.n), np.arange(inst.n)))
    sigma_x = (sigma0_sq * nu ** np.arange(inst.n) / (1.0 - nu**2))[lags]  # Toeplitz: n powers, not n^2
    phi = inst.design_matrix()
    K = phi @ sigma_x @ phi.T + np.eye(inst.m)
    low = np.linalg.cholesky(K)
    z = np.linalg.solve(low, inst.y)  # y^T K^-1 y = |L^-1 y|^2
    quad = float(z @ z)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    log_z = -0.5 * (inst.m * _LOG_2PI + logdet + quad)
    return EvidenceEstimate(log_z)


def log_evidence(inst: LinearModelInstance, model: ModelSpec) -> EvidenceEstimate:
    """Dispatch to the exact method available for the model's prior family."""
    prior = model.postulated
    if isinstance(prior, GaussMarkovPrior):
        if model.sigma != 1.0:
            raise ValidationError("gaussian closed form assumes matched unit noise")
        return gaussian_log_evidence(inst, prior.nu, prior.sigma0_sq)
    return exact_log_evidence_discrete(inst, model)


def empirical_free_energy(model: ModelSpec, n: int, beta: float, trials: int, seed: int) -> tuple[float, float]:
    """Mean and standard error of -(1/n) log Z over seeded instances (at least 2)."""
    if trials < 2:
        raise ValidationError(f"a standard error needs trials >= 2, got {trials}")
    vals = np.array(
        [-log_evidence(sample_instance(model, n, beta, seed, index=i), model).log_z / n for i in range(trials)]
    )
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials))


def _mh_tables(values: np.ndarray, log_init: np.ndarray, log_pi: np.ndarray):
    """Per-move lookup tables of the single-site sampler, indexed by (old state, jump).

    A proposal moves a site from state ``old`` to ``(old + jump) % k``.
    State index k is a sentinel beyond both ends of the path: its log row is
    the initial law and its log column is 0.  ``ratio_in[left, old, jump]``
    and ``ratio_out[old, jump, right]`` are the log prior ratios of the
    transitions into and out of the site, ``dv[old, jump]`` is the change
    of value and ``to[old, jump]`` the new state.  A path the prior forbids
    (the uniform start can hold one) gives 0/0 and x/0 ratios.  0/0 is
    stored as -inf and x/0 as ``_LEAVE_FORBIDDEN``, so a move whose two
    ratios hold a 0/0, or an x/0 and a 0/x, sums to -inf and is rejected,
    as the NaN of the plain differences was; no other decision changes.
    """
    k = len(values)
    log_tab = np.zeros((k + 1, k + 1))
    log_tab[:k, :k] = log_pi
    log_tab[k, :k] = log_init
    to = (np.arange(k)[:, None] + np.arange(k)) % k
    with np.errstate(invalid="ignore"):
        ratio_in = log_tab[:, to] - log_tab[:, :k, None]
        ratio_out = log_tab[to] - log_tab[:k, None]
    fix = dict(nan=-np.inf, posinf=_LEAVE_FORBIDDEN, neginf=-np.inf)
    return np.nan_to_num(ratio_in, **fix), np.nan_to_num(ratio_out, **fix), values[to] - values[:, None], to


def _mh_discrete_batch(
    phis: np.ndarray,
    ys: np.ndarray,
    values: np.ndarray,
    log_init: np.ndarray,
    log_pi: np.ndarray,
    sigma_sq: float,
    steps: int,
    burn_in: int,
    rng: np.random.Generator,
):
    """Single-site Metropolis over C chains run in lockstep.

    phis: (C, m, n); ys: (C, m).  Returns per-chain posterior means and the
    overall acceptance rate.  Each step carries ||r||^2 of the residual from
    the last accepted move and gathers the rest from tables built once per
    call out of ``_mh_tables``: the log prior ratio
    ``d_prior[left, old, jump, right]`` of the moves in and out of the site,
    the next state ``to_state[old, jump, accepted]``, and the proposed column
    times its value change, ``moved`` row ((c n + l) k + old) (k - 1) + jump - 1
    for site l of chain c.  ``moved`` holds only jump >= 1, k (k - 1) scaled
    copies of the columns: C n k (k - 1) m floats, 51 KB for 32 chains with
    n = m = 10 and k = 2.
    """
    C, m, n = phis.shape
    k = len(values)
    ratio_in, ratio_out, dv, to = _mh_tables(values, log_init, log_pi)
    d_prior = ratio_in[..., None] + ratio_out  # (k + 1, k, k, k + 1)
    to_state = np.stack(np.broadcast_arrays(np.arange(k)[:, None], to), axis=-1)
    moved = (phis.transpose(0, 2, 1)[:, :, None, None] * dv[:, 1:, None]).reshape(-1, m)
    padded = np.full((C, n + 2), k)  # sentinel state at both ends
    padded[:, 1:-1] = rng.integers(0, k, size=(C, n))
    idx = padded[:, 1:-1]
    flat = padded.reshape(-1)
    r = ys - np.einsum("cmn,cn->cm", phis, values[idx])
    norm = np.einsum("cm,cm->c", r, r)
    r_new, mean_acc = np.empty_like(r), np.zeros((C, n))
    accepted = 0
    rows = np.arange(C)
    block = 1024
    done = 0
    while done < steps:
        cnt = min(block, steps - done)
        sites = rng.integers(0, n, size=(cnt, C))
        jumps = rng.integers(1, k, size=(cnt, C)) if k > 2 else np.ones((cnt, C), dtype=np.int64)
        logu = np.log(rng.random(size=(cnt, C)))
        at = sites + rows * (n + 2) + 1
        around = np.stack((at - 1, at, at + 1), axis=1)  # flat positions of left, site and right
        moved_at = (sites + rows * n) * (k * (k - 1)) + jumps - 1
        acc = np.empty((cnt, C), dtype=bool)
        for t in range(cnt):
            states = flat.take(around[t])
            old, jump = states[1], jumps[t]
            np.subtract(r, moved.take(moved_at[t] + old * (k - 1), axis=0), out=r_new)
            norm_new = np.einsum("cm,cm->c", r_new, r_new)
            gain = d_prior[states[0], old, jump, states[2]] + 0.5 * (norm - norm_new) / sigma_sq
            step_acc = np.less(logu[t], gain, out=acc[t])
            flat[at[t]] = to_state[old, jump, step_acc.view(np.uint8)]
            np.copyto(r, r_new, where=step_acc[:, None])
            np.copyto(norm, norm_new, where=step_acc)
            if done + t >= burn_in:
                mean_acc += values.take(idx)
        accepted += int(np.count_nonzero(acc))
        done += cnt
    return mean_acc / (steps - burn_in), accepted / (steps * C)


def mh_mse_experiment(
    model: ModelSpec, n: int, beta: float, instances: int, steps: int, burn_in: int, seed: int
) -> tuple[float, float, float]:
    """Average MH posterior MSE over instances, one lockstep chain per instance.

    Instances come from the true prior with unit noise; the chains sample the
    postulated posterior (postulated discrete prior, noise variance sigma^2),
    the one exact enumeration and the replica prediction describe.  Returns
    (mean MSE, standard error over at least 2 instances, overall acceptance
    rate).
    """
    if not steps > burn_in >= 0:  # MH averages the steps after burn-in, so at least one must remain
        raise ValidationError("need steps > burn_in >= 0")
    if instances < 2:
        raise ValidationError(f"a standard error needs instances >= 2, got {instances}")
    prior = model.postulated
    tables = _log_tables(prior, "the batched MH experiment")
    insts = [sample_instance(model, n, beta, seed, index=i) for i in range(instances)]
    phis = np.stack([inst.design_matrix() for inst in insts])
    ys = np.stack([inst.y for inst in insts])
    xs = np.stack([inst.x for inst in insts])
    rng = _rng(seed, 0x3C)
    post, rate = _mh_discrete_batch(phis, ys, *tables, model.sigma**2, steps, burn_in, rng)
    mses = np.sum((xs - post) ** 2, axis=1) / n
    return float(mses.mean()), float(mses.std(ddof=1) / math.sqrt(instances)), rate
