"""Decoupled single-symbol Gaussian channel with state.

The channel is U = sqrt(S) * X1 + W / sqrt(eta) with X1 drawn from a
conditional input law (a point-mass/Gaussian mixture) and W standard
normal.  A postulated channel with inverse noise variance xi and its own
input law induces the posterior mean ("decision function") q1/q0 and the
retrochannel.  Because the laws are finite Gaussian mixtures, the output
density, the posterior mean, and the posterior variance are all closed
forms (``_posterior``).  Every expectation over the true channel is a 1-D
integral against each Gaussian output component.  ``mixture_expectation``
is the one quadrature kernel, a nested trapezoid rule on the standardized
line: it integrates every component of every batch entry in one call, with
one adequacy rule over all of them.  ``channel_moments`` is the one way
into it: it evaluates a ``ChannelTable`` (all (state, SNR) channels of a
model) at whole arrays of (eta, xi) points.

The one-channel accessors ``conditional_mse``, ``conditional_var``,
``mean_square_posterior_mean`` and ``cross_entropy``, with the
``ScalarChannel`` they take and ``_one_channel``, are kept only for the
benchmark's tracer (``bench/tracer.py``), which hooks the four accessors; no
command or oracle calls them.  They go when the tracer stops hooking them
(ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .laws import ConditionalInputLaw, PointMass

_LOG_2PI = float(np.log(2.0 * np.pi))

QUAD_TOL = 1e-9
QUAD_MAX_NODES = 8192
# Trapezoid nodes span t in [-L, L] of the standardized line, with
# exp(-L^2) = 1e-17: the Gaussian weight beyond +-L is below 1e-18.
_HALF_WIDTH = math.sqrt(17.0 * math.log(10.0))
# The first level has 2^6 intervals (65 nodes).
_START_LEVEL = 6
# Integrand entries (batch x components x nodes) per evaluation of the
# integrand; larger node counts are summed block by block.  A block has at
# least QUAD_MIN_BLOCK_NODES nodes, however large the batch: a call's fixed
# cost would otherwise dominate a big batch's integrand calls.
QUAD_BLOCK_ENTRIES = 2**12
QUAD_MIN_BLOCK_NODES = 16


class QuadratureError(RuntimeError):
    """Nested trapezoid refinement failed to converge."""


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


@dataclass(frozen=True)
class _MixtureStats:
    """Per-component output statistics of laws through the channel.

    For component c: the output U is N(out_mean, out_var); given U = u the
    input posterior within the component is N(cond_slope*u + cond_off,
    cond_var) (a point mass has slope 0 and var 0).  The arrays broadcast
    together.  ``mixture_expectation`` takes them with batch axes (points,
    channels) in front and components last; ``_posterior`` takes them with
    components first.  A padded component has log_w = -inf.
    """

    log_w: np.ndarray
    out_mean: np.ndarray
    out_var: np.ndarray
    cond_slope: np.ndarray
    cond_off: np.ndarray
    cond_var: np.ndarray

    def log_density_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """log w - log sqrt(2 pi out_var) and 0.5 / out_var of each component: log w N(u) = first - second (u - out_mean)^2."""
        return self.log_w - 0.5 * (_LOG_2PI + np.log(self.out_var)), 0.5 / self.out_var


def _law_arrays(law: ConditionalInputLaw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log weights, means and variances of a law's nonzero components (a point mass has var 0)."""
    comps = [(w, atom) for w, atom in law.components if w != 0.0]
    return (
        np.log([w for w, _ in comps]),
        np.array([atom.x if isinstance(atom, PointMass) else atom.mean for _, atom in comps]),
        np.array([0.0 if isinstance(atom, PointMass) else atom.var for _, atom in comps]),
    )


def _stats(log_w, mean, var, s, tau) -> _MixtureStats:
    """Statistics of atoms (mean, var) at SNR s and inverse noise variance tau, broadcast elementwise."""
    sqrt_s = np.sqrt(s)
    noise = 1.0 / tau
    sv = s * var
    # conditional mean m + gain*(u/sqrt(s) - m) as slope*u + offset
    gain = sv / (sv + noise)
    return _MixtureStats(
        log_w, sqrt_s * mean, noise + sv, gain / sqrt_s, mean * (1.0 - gain), var * noise / (sv + noise)
    )


def _posterior(stats: _MixtureStats, u: np.ndarray, factors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log q0(u), and the posterior mean and variance of X given U = u, elementwise in u.

    ``stats`` has the component axis first, its other axes broadcasting
    against u: numpy reduces a short leading axis several times faster than
    a short last one.  ``factors`` are ``stats.log_density_factors()``,
    which a caller evaluating one ``stats`` at many u computes once.  The
    temporaries are updated in place: they bound the kernel's working set.
    """
    log_norm, half_precision = factors
    logs = u - stats.out_mean
    logs *= logs
    logs *= half_precision
    np.subtract(log_norm, logs, out=logs)
    top = logs.max(axis=0)
    logs -= top
    p = np.exp(logs, out=logs)
    total = p.sum(axis=0)
    means = stats.cond_slope * u + stats.cond_off
    m1 = (p * means).sum(axis=0) / total
    means *= means
    means += stats.cond_var
    means *= p
    m2 = means.sum(axis=0) / total
    return top + np.log(total), m1, m2 - m1 * m1


@lru_cache(maxsize=32)
def _trapezoid(intervals: int, midpoints: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_j = -L + j h, h = 2L / intervals, and their weights h exp(-t_j^2) / sqrt(pi).

    Every node j = 0 .. intervals, or with ``midpoints`` only the odd j: the
    nodes a level adds to the one with half as many intervals.
    """
    h = 2.0 * _HALF_WIDTH / intervals
    t = -_HALF_WIDTH + h * (np.arange(1, intervals, 2) if midpoints else np.arange(intervals + 1))
    w = (h / math.sqrt(math.pi)) * np.exp(-t * t)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def mixture_expectation(fn, stats: _MixtureStats) -> tuple[np.ndarray, int]:
    """E[fn(U)] for U ~ the mixture, by a nested trapezoid rule over all components at once, and its node count.

    Component c is integrated on the standardized line, U = out_mean_c +
    sqrt(2 out_var_c) t with weight exp(-t^2)/sqrt(pi), truncated to [-L, L]
    where exp(-L^2) = 1e-17.  Level k puts 2^k + 1 evenly spaced nodes there.
    Each refinement evaluates only the 2^(k-1) new midpoints and forms
    S_k = S_(k-1)/2 + h_k * (weighted sum over the midpoints).  The first two
    levels, S_6 on 65 nodes and S_7 on their 64 midpoints, go to fn in one
    call of 129 nodes when they fit one block.  For a Gaussian-weighted
    integrand analytic near the real line the error falls exponentially in
    the node count (Trefethen & Weideman 2014), and the even spacing resolves
    a steep decision function anywhere on the line.

    ``fn`` receives the nodes of every component as one (..., components,
    nodes) array, with the batch axes of ``stats`` in front, and returns
    values of that shape, or a stack (moments, ..., components, nodes) of
    several integrands.  Each level's node axis is fed to ``fn`` in the fewest
    near-equal blocks of at most ``QUAD_BLOCK_ENTRIES`` entries, or of
    ``QUAD_MIN_BLOCK_NODES`` nodes when the batch is larger than
    ``QUAD_BLOCK_ENTRIES / QUAD_MIN_BLOCK_NODES`` entries: a 65-node level
    in blocks of 64 goes as 33 + 32.  The rule compares S_6 with S_7 first and
    refines until two successive estimates of every moment of every batch
    entry agree to 1e-9 in absolute terms; if the level of QUAD_MAX_NODES
    intervals still disagrees, it raises QuadratureError.  Returns an array of
    shape (moments, ...) or (...), and the node count (2^k + 1) of the level
    it converged at.
    """
    weights = np.exp(stats.log_w)
    centre = stats.out_mean[..., None]
    scale = np.sqrt(2.0 * stats.out_var)[..., None]
    entries = np.broadcast(centre, scale).size
    step = max(QUAD_MIN_BLOCK_NODES, QUAD_BLOCK_ENTRIES // entries)

    def totals(*rules):
        """Weighted sums of fn, one per (nodes, weights) rule.

        The nodes of all the rules go to fn in one call when they fit one
        block of ``step`` nodes; otherwise each rule's nodes go in the fewest
        blocks of at most ``step`` nodes, near-equal in size, so a block
        never holds the nodes of two rules.
        """
        if len(rules) > 1 and sum(len(nodes) for nodes, _ in rules) > step:
            return [total for rule in rules for total in totals(rule)]
        t = np.concatenate([nodes for nodes, _ in rules])
        blocks = -(-len(t) // step)
        edges = [-(-len(t) * i // blocks) for i in range(blocks + 1)]
        acc = [0.0] * len(rules)
        for lo, hi in zip(edges, edges[1:]):
            vals = fn(centre + scale * t[lo:hi])
            flat = vals.reshape(-1, vals.shape[-1])
            col = 0
            for r, (_, w) in enumerate(rules):
                w = w[lo:hi]  # several rules share one block, so lo = 0 and this is all of w
                acc[r] = acc[r] + (flat[:, col : col + len(w)] @ w).reshape(vals.shape[:-1])
                col += len(w)
        return [(a * weights).sum(axis=-1) for a in acc]

    intervals = 2 ** (_START_LEVEL + 1)
    prev, mid = totals(_trapezoid(intervals // 2, False), _trapezoid(intervals, True))
    cur = 0.5 * prev + mid
    while not np.max(np.abs(cur - prev)) < QUAD_TOL:  # NaN refines until the raise
        if intervals >= QUAD_MAX_NODES:
            raise QuadratureError(
                f"the trapezoid rule did not stabilize below {QUAD_TOL} by {QUAD_MAX_NODES + 1} nodes"
            )
        intervals *= 2
        prev, cur = cur, 0.5 * cur + totals(_trapezoid(intervals, True))[0]
    return cur, intervals + 1


@dataclass(frozen=True)
class ChannelTable:
    """Channels (true law, postulated law, SNR) as padded component arrays.

    ``true`` and ``post`` hold (log_w, mean, var) of shape (channels,
    components): zero-weight components are dropped and shorter laws are
    padded with log_w = -inf (a point mass at 0 of weight 0).  A solver
    builds its model's table once and evaluates it at many (eta, xi) points.
    """

    s: np.ndarray
    true: tuple[np.ndarray, np.ndarray, np.ndarray]
    post: tuple[np.ndarray, np.ndarray, np.ndarray]
    second_moment: np.ndarray  # E[X1^2] under each channel's true law
    degenerate: np.ndarray  # lone identical point mass in both laws: error and variance exactly 0


def _padded(arrays: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...]:
    width = max(len(a[0]) for a in arrays)
    tables = tuple(np.full((len(arrays), width), fill) for fill in (-np.inf, 0.0, 0.0))
    for row, a in enumerate(arrays):
        for table, column in zip(tables, a):
            table[row, : len(column)] = column
    return tables


def channel_table(channels) -> ChannelTable:
    """Table of an iterable of (true_law, postulated_law, s) triples, in order."""
    channels = tuple(channels)
    return ChannelTable(
        np.array([float(s) for _, _, s in channels]),
        _padded([_law_arrays(t) for t, _, _ in channels]),
        _padded([_law_arrays(q) for _, q, _ in channels]),
        np.array([t.second_moment() for t, _, _ in channels]),
        np.array([_degenerate_same_point(t, q) for t, q, _ in channels]),
    )


def channel_moments(table: ChannelTable, eta, xi) -> tuple[np.ndarray, int]:
    """[E g^2, E X1 g, E Var_q, -E log q0] over the true channel, in one kernel call, and its node count.

    g = <X>_q(U) is the postulated decision function, Var_q(U) the
    retrochannel variance and q0 the postulated output density; U and X1
    follow the true channel.  Within true component c, X1 given U = u has mean
    cond_slope_c * u + cond_off_c, so the cross term integrates that mean
    against g row by row.

    ``table`` is evaluated at the points (eta, xi), arrays broadcast
    together; the moments have shape (*points, channels, 4).  The node
    count is the kernel's: the level every entry converged at.
    """
    eta, xi = np.broadcast_arrays(np.asarray(eta, dtype=float), np.asarray(xi, dtype=float))
    s = table.s[:, None]
    true_stats = _stats(*table.true, s, eta[..., None, None])
    # postulated components first, then the points, channels, true components and nodes of u
    post = (a.T.reshape(a.shape[1:] + (1,) * eta.ndim + a.shape[:1] + (1, 1)) for a in table.post)
    post_stats = _stats(*post, s[..., None], xi[..., None, None, None])
    factors = post_stats.log_density_factors()
    slope, off = true_stats.cond_slope[..., None], true_stats.cond_off[..., None]

    def integrands(u):
        log_q0, g, var = _posterior(post_stats, u, factors)
        out = np.empty((4, *g.shape))
        np.multiply(g, g, out=out[0])
        np.multiply(slope, u, out=out[1])
        out[1] += off
        out[1] *= g
        out[2] = var
        np.negative(log_q0, out=out[3])
        return out

    moments, nodes = mixture_expectation(integrands, true_stats)
    return moments.transpose((*range(1, moments.ndim), 0)), nodes


def channel_errors(table: ChannelTable, moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel E[(X1 - g)^2] = E[X1^2] - 2 E[X1 g] + E[g^2] and E[Var_q] from ``channel_moments``.

    Both are exactly 0 on a degenerate channel, whose decision function
    returns the atom exactly.
    """
    mse = table.second_moment - 2.0 * moments[..., 1] + moments[..., 0]
    return np.where(table.degenerate, 0.0, mse), np.where(table.degenerate, 0.0, moments[..., 2])


def _one_channel(ch: ScalarChannel) -> tuple[ChannelTable, np.ndarray]:
    table = channel_table([(ch.true_law, ch.postulated_law, ch.s)])
    return table, channel_moments(table, ch.eta, ch.xi)[0]


def conditional_mse(ch: ScalarChannel) -> float:
    """E[(X1 - <X>_q(U))^2] = E[X1^2] - 2 E[X1 <X>_q(U)] + E[<X>_q(U)^2] over the true channel."""
    return float(channel_errors(*_one_channel(ch))[0][0])


def conditional_var(ch: ScalarChannel) -> float:
    """Mean retrochannel variance E_U[Var_q(X | U)] over the true output law."""
    return float(channel_errors(*_one_channel(ch))[1][0])


def mean_square_posterior_mean(ch: ScalarChannel) -> float:
    """E[<X>_q(U)^2] over the true output law (the MMSE second-moment term)."""
    return float(_one_channel(ch)[1][0][0])


def cross_entropy(ch: ScalarChannel) -> float:
    """-E[log q0(U)] with U from the true channel, in nats."""
    return float(_one_channel(ch)[1][0][3])


def _degenerate_same_point(true_law: ConditionalInputLaw, post_law: ConditionalInputLaw) -> bool:
    # Weight-1 identical point mass in both laws: the PME returns the atom
    # exactly, so the error is identically zero.
    t, p = true_law.components, post_law.components
    return (
        len(t) == 1
        and len(p) == 1
        and isinstance(t[0][1], PointMass)
        and isinstance(p[0][1], PointMass)
        and t[0][1].x == p[0][1].x
    )
