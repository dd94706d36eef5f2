"""Decoupled single-symbol Gaussian channel with state.

The channel is U = sqrt(S) * X1 + W / sqrt(eta) with X1 drawn from a
conditional input law (a point-mass/Gaussian mixture) and W standard
normal.  A postulated channel with inverse noise variance xi and its own
input law induces the posterior mean ("decision function") q1/q0 and the
retrochannel.  Because the laws are finite Gaussian mixtures, the output
density, the posterior mean, and the posterior variance are all closed
forms.  Every expectation over the true channel is a 1-D integral against
each Gaussian output component; ``channel_moments`` evaluates all of them in
one Gauss-Hermite pass over every component at once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite

from .laws import ConditionalInputLaw, PointMass

_LOG_2PI = float(np.log(2.0 * np.pi))

QUAD_TOL = 1e-9
QUAD_START_NODES = 64
QUAD_MAX_NODES = 8192


class QuadratureError(RuntimeError):
    """Adaptive Gauss-Hermite refinement failed to converge."""


@dataclass(frozen=True)
class ScalarChannel:
    """True/postulated channel pair at a fixed SNR value s."""

    eta: float
    xi: float
    s: float
    true_law: ConditionalInputLaw
    postulated_law: ConditionalInputLaw

    def __post_init__(self):
        for name in ("eta", "xi", "s"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")

    @staticmethod
    def matched(eta: float, s: float, law: ConditionalInputLaw) -> "ScalarChannel":
        return ScalarChannel(eta, eta, s, law, law)


@dataclass(frozen=True)
class _MixtureStats:
    """Per-component output statistics of a law through the channel.

    For component c: the output U is N(out_mean, out_var); given U = u the
    input posterior within the component is N(cond_slope*u + cond_off,
    cond_var) (a point mass has slope 0 and var 0).
    """

    log_w: np.ndarray
    out_mean: np.ndarray
    out_var: np.ndarray
    cond_slope: np.ndarray
    cond_off: np.ndarray
    cond_var: np.ndarray


def _mixture_stats(law: ConditionalInputLaw, s: float, tau: float) -> _MixtureStats:
    sqrt_s = np.sqrt(s)
    log_w, om, ov, sl, off, cv = [], [], [], [], [], []
    for w, atom in law.components:
        if w == 0.0:
            continue
        log_w.append(np.log(w))
        if isinstance(atom, PointMass):
            om.append(sqrt_s * atom.x)
            ov.append(1.0 / tau)
            sl.append(0.0)
            off.append(atom.x)
            cv.append(0.0)
        else:
            om.append(sqrt_s * atom.mean)
            ov.append(1.0 / tau + s * atom.var)
            gain = s * atom.var / (s * atom.var + 1.0 / tau)
            # conditional mean m + gain*(u/sqrt(s) - m) as slope*u + offset
            sl.append(gain / sqrt_s)
            off.append(atom.mean * (1.0 - gain))
            cv.append(atom.var * (1.0 / tau) / (s * atom.var + 1.0 / tau))
    return _MixtureStats(
        np.array(log_w),
        np.array(om),
        np.array(ov),
        np.array(sl),
        np.array(off),
        np.array(cv),
    )


def _posterior(stats: _MixtureStats, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log q0(u), and the posterior mean and variance of X given U = u, elementwise in u."""
    d = u[..., None] - stats.out_mean
    logs = stats.log_w - 0.5 * (_LOG_2PI + np.log(stats.out_var)) - 0.5 * d * d / stats.out_var
    top = logs.max(axis=-1, keepdims=True)
    p = np.exp(logs - top)
    total = p.sum(axis=-1, keepdims=True)
    p /= total
    means = stats.cond_slope * u[..., None] + stats.cond_off
    m1 = (p * means).sum(axis=-1)
    m2 = (p * (means**2 + stats.cond_var)).sum(axis=-1)
    return (top + np.log(total))[..., 0], m1, m2 - m1**2


def output_density(ch: ScalarChannel, u, which: str = "true") -> np.ndarray | float:
    """Marginal channel-output density q0 (postulated) or p0 (true) at u."""
    if which == "true":
        stats = _mixture_stats(ch.true_law, ch.s, ch.eta)
    elif which == "postulated":
        stats = _mixture_stats(ch.postulated_law, ch.s, ch.xi)
    else:
        raise ValueError("which must be 'true' or 'postulated'")
    out = np.exp(_posterior(stats, np.asarray(u, dtype=float))[0])
    return float(out) if np.isscalar(u) else out


def posterior_mean(ch: ScalarChannel, u) -> np.ndarray | float:
    """Decision function q1/q0 of the postulated channel at output u."""
    stats = _mixture_stats(ch.postulated_law, ch.s, ch.xi)
    out = _posterior(stats, np.asarray(u, dtype=float))[1]
    return float(out) if np.isscalar(u) else out


@lru_cache(maxsize=32)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = roots_hermite(n)
    return t, w / np.sqrt(np.pi)


# mixture_expectation keeps its (fn, stats) signature, which tracing wraps,
# so the node count it converged at is reported here.  It is kept per thread
# so that a library caller solving models on several threads of its own gets
# each solve's own peak in SolveDiagnostics.max_nodes.
class _NodePeak(threading.local):
    nodes = 0


_PEAK = _NodePeak()


def take_peak_nodes() -> int:
    """Largest node count mixture_expectation converged at on this thread since the last call."""
    peak, _PEAK.nodes = _PEAK.nodes, 0
    return peak


def mixture_expectation(fn, stats: _MixtureStats) -> np.ndarray | float:
    """E[fn(U)] for U ~ the mixture, by Gauss-Hermite over all components at once.

    ``fn`` receives the nodes of every component as one (components, nodes)
    array and returns values of that shape, or a stack (moments, components,
    nodes) of several integrands.  The node count starts at 64 and doubles
    until two successive estimates of every moment agree to 1e-9 in absolute
    terms; past 8192 nodes it raises QuadratureError.  Returns a float for
    one integrand and an array of one entry per moment for a stack.
    """
    weights = np.exp(stats.log_w)
    centre = stats.out_mean[:, None]
    scale = np.sqrt(2.0 * stats.out_var)[:, None]

    def total(k: int):
        t, w = _hermgauss(k)
        return fn(centre + scale * t) @ w @ weights

    nodes = QUAD_START_NODES
    prev = total(nodes)
    while nodes < QUAD_MAX_NODES:
        nodes *= 2
        cur = total(nodes)
        if np.max(np.abs(cur - prev)) < QUAD_TOL:
            _PEAK.nodes = max(_PEAK.nodes, nodes)
            return cur if np.ndim(cur) else float(cur)
        prev = cur
    raise QuadratureError(
        f"Gauss-Hermite did not stabilize below {QUAD_TOL} by {QUAD_MAX_NODES} nodes"
    )


def channel_moments(ch: ScalarChannel) -> np.ndarray:
    """[E g^2, E X1 g, E Var_q, -E log q0] over the true channel, in one kernel call.

    g = <X>_q(U) is the postulated decision function, Var_q(U) the
    retrochannel variance and q0 the postulated output density; U and X1
    follow the true channel.  Within true component c, X1 given U = u has mean
    cond_slope_c * u + cond_off_c, so the cross term integrates that mean
    against g row by row.
    """
    true_stats = _mixture_stats(ch.true_law, ch.s, ch.eta)
    post_stats = _mixture_stats(ch.postulated_law, ch.s, ch.xi)
    slope, off = true_stats.cond_slope[:, None], true_stats.cond_off[:, None]

    def integrands(u):
        log_q0, g, var = _posterior(post_stats, u)
        return np.stack((g * g, (slope * u + off) * g, var, -log_q0))

    return mixture_expectation(integrands, true_stats)


def conditional_mse(ch: ScalarChannel) -> float:
    """E[(X1 - <X>_q(U))^2] = E[X1^2] - 2 E[X1 <X>_q(U)] + E[<X>_q(U)^2] over the true channel."""
    if _degenerate_same_point(ch):
        return 0.0
    e_g2, cross, _, _ = channel_moments(ch)
    return float(ch.true_law.second_moment() - 2.0 * cross + e_g2)


def conditional_var(ch: ScalarChannel) -> float:
    """Mean retrochannel variance E_U[Var_q(X | U)] over the true output law."""
    return 0.0 if _degenerate_same_point(ch) else float(channel_moments(ch)[2])


def mean_square_posterior_mean(ch: ScalarChannel) -> float:
    """E[<X>_q(U)^2] over the true output law (the MMSE second-moment term)."""
    return float(channel_moments(ch)[0])


def cross_entropy(ch: ScalarChannel) -> float:
    """-E[log q0(U)] with U from the true channel, in nats."""
    return float(channel_moments(ch)[3])


def _degenerate_same_point(ch: ScalarChannel) -> bool:
    # Weight-1 identical point mass in both laws: the PME returns the atom
    # exactly, so the error is identically zero (skip the quadrature).
    t, p = ch.true_law.components, ch.postulated_law.components
    return (
        len(t) == 1
        and len(p) == 1
        and isinstance(t[0][1], PointMass)
        and isinstance(p[0][1], PointMass)
        and t[0][1].x == p[0][1].x
    )
