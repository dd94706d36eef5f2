"""Fixed-point solution of the decoupled equations and the free-energy functional.

The matched inverse noise variance eta (and postulated xi, when the model is
mismatched) solve

    1/eta = 1   + beta * sum_x0 lambda_x0 * E[S * mse(S; eta, xi | x0)]
    1/xi  = s^2 + beta * sum_x0 lambda_x0 * E[S * var(S; eta, xi | x0)]

with lambda the stationary weights of the effective states.  The free
energy per signal component (in nats) is the stationary average of

    G(x0) = -E_S int p(u|x0,S; eta) log q(u|x0,S; xi) du
            + (1/(2 beta)) ((xi - 1) - log xi) - (1/2) log(2 pi / xi)
            - xi/(2 eta) + sigma^2 xi (eta - xi) / (2 beta eta)
            + (1/(2 beta)) log(2 pi) + xi / (2 beta eta)

minimized over all fixed-point candidates.  Average mutual information (in
nats, matched case) subtracts the per-component measurement-noise entropy
(1/(2 beta)) log(2 pi e); the average MMSE is E[X1^2] minus the stationary
average of E[<X|X0>^2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .markov_core import (
    HiddenMarkovPrior,
    MarkovPrior,
    ValidationError,
    effective_states_discrete,
    joint_chain,
)
from .single_symbol import (
    ChannelTable,
    channel_errors,
    channel_moments,
    channel_table,
    take_kernel_tally,
)

RESIDUAL_TOL = 1e-8
_CLUSTER_TOL = 1e-6
_SCAN_POINTS = 16
_ROOT_TOL = 1e-14
_ROOT_MAX_ITER = 200
_MAX_HALVINGS = 60

_LOG_2PI = float(np.log(2.0 * np.pi))
_LOG_2PIE = _LOG_2PI + 1.0


class SolverError(RuntimeError):
    pass


class MatchedModelRequired(ValueError):
    """Raised when a matched-only quantity is requested for a mismatched model."""


def _normalize_snr(snr) -> tuple[tuple[float, float], ...]:
    pairs = ((float(snr), 1.0),) if np.isscalar(snr) else tuple((float(v), float(p)) for v, p in snr)
    if not all(0 < v < math.inf and p >= 0 for v, p in pairs):  # also rejects NaN
        raise ValidationError("snr values must be finite and > 0, with nonnegative probabilities")
    total = sum(p for _, p in pairs)
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(f"snr probabilities sum to {total}, not 1")
    return pairs


def _check_sigma(sigma) -> float:
    if not 0 < sigma < math.inf:  # also rejects NaN
        raise ValidationError(f"sigma must be finite and > 0, got {sigma}")
    return sigma


def _priors_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, MarkovPrior):
        if a.is_gauss_markov != b.is_gauss_markov:
            return False
        if a.is_gauss_markov:
            return a.nu == b.nu and a.sigma0_sq == b.sigma0_sq
        return (
            a.kernel.states == b.kernel.states
            and np.array_equal(a.kernel.P, b.kernel.P)
            and np.array_equal(a.initial, b.initial)
        )
    if isinstance(a, HiddenMarkovPrior):
        return (
            a.hidden.states == b.hidden.states
            and np.array_equal(a.hidden.P, b.hidden.P)
            and a.emissions == b.emissions
        )
    return False


@dataclass(frozen=True)
class _Decoupled:
    weights: np.ndarray
    second_moment: float
    # sum w p s E[X^2|x0] under the true and the postulated laws: the scan bounds
    true_s_moment: float
    post_s_moment: float
    # Channel i * len(snr) + j is effective state i at SNR pair j, with
    # stationary-times-SNR probability wp and wp * s as its weight in the
    # fixed-point sums.
    table: ChannelTable
    wp: np.ndarray
    ws: np.ndarray


def _decouple(prior, post, snr) -> _Decoupled:
    effective = joint_chain if isinstance(prior, HiddenMarkovPrior) else effective_states_discrete
    eff = effective(prior)
    eff_q = eff if post is prior else effective(post)
    if eff.labels != eff_q.labels:
        raise ValidationError("postulated prior must share the true prior's state space")
    table = channel_table((tl, ql, s) for tl, ql in zip(eff.laws, eff_q.laws) for s, _ in snr)
    wp = np.array([w * p for w in eff.weights for _, p in snr])
    true_s, post_s = (
        sum(w * p * s * law.second_moment() for w, law in zip(eff.weights, laws) for s, p in snr)
        for laws in (eff.laws, eff_q.laws)
    )
    return _Decoupled(eff.weights, eff.second_moment(), true_s, post_s, table, wp, wp * table.s)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Linear-model description for the replica analysis.

    True noise variance is fixed at 1; ``sigma`` is the postulated noise
    standard deviation.  ``snr`` is a fixed scalar or a finite list of
    (value, probability) pairs.  ``postulated_prior`` defaults to the true
    prior (the matched case).  The effective states of both priors are
    derived once, here, so a prior the decoupled equations cannot use is
    rejected at construction.
    """

    prior: MarkovPrior | HiddenMarkovPrior
    postulated_prior: MarkovPrior | HiddenMarkovPrior | None = None
    snr: float | tuple = 1.0
    sigma: float = 1.0
    _decoupled: _Decoupled = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "snr", _normalize_snr(self.snr))
        _check_sigma(self.sigma)
        if self.postulated_prior is not None and type(self.postulated_prior) is not type(
            self.prior
        ):
            raise ValidationError("postulated prior must be the same kind as the true prior")
        object.__setattr__(self, "_decoupled", _decouple(self.prior, self.postulated, self.snr))

    @property
    def postulated(self) -> MarkovPrior | HiddenMarkovPrior:
        """The prior the postulated posterior uses: ``postulated_prior``, or the true prior when none is given."""
        return self.postulated_prior if self.postulated_prior is not None else self.prior

    @property
    def is_matched(self) -> bool:
        return self.sigma == 1.0 and (
            self.postulated_prior is None or _priors_equal(self.prior, self.postulated_prior)
        )


@dataclass(frozen=True)
class SolveDiagnostics:
    """How a fixed-point solve reached its answer."""

    scan_points: int = 0  # eta values of the geometric scan, left-end extensions included
    brackets: int = 0  # sign changes the scan found, each refined to a root
    evaluations: int = 0  # root-function evaluations, one per point, inner xi solves included
    kernel_calls: int = 0  # quadrature kernel (mixture_expectation) calls
    max_nodes: int = 0  # largest trapezoid node count (2^k + 1) any quadrature converged at
    residual: float = math.nan  # largest fixed_point_residual over the verified candidates


class FixedPoints(list):
    """Sorted (eta, xi) fixed points with the diagnostics of their solve; ``free_energies`` and
    ``posterior_mean_sq`` (sum w p E[<X|X0>^2], the MMSE term) follow the order of the points."""

    def __init__(self, points, diagnostics: SolveDiagnostics, free_energies, posterior_mean_sq):
        super().__init__(points)
        self.diagnostics = diagnostics
        self.free_energies = tuple(free_energies)
        self.posterior_mean_sq = tuple(posterior_mean_sq)


@dataclass(frozen=True)
class ReplicaSolution:
    beta: float
    eta: float
    xi: float
    free_energy: float
    mutual_info: float | None
    mmse: float | None
    all_solutions: tuple[tuple[float, float, float], ...]  # (eta, xi, G-value)
    diagnostics: SolveDiagnostics = SolveDiagnostics()


def _weighted_errors(dec: _Decoupled, eta, xi) -> tuple[np.ndarray, np.ndarray]:
    """sum w p s mse and sum w p s var over every channel, at arrays of (eta, xi) points in one kernel call."""
    mse, var = channel_errors(dec.table, channel_moments(dec.table, eta, xi))
    return mse @ dec.ws, var @ dec.ws


def _root(f, a, b, fa, fb):
    """Roots of f in the brackets [a, b], with fa and fb of opposite signs, by Illinois regula falsi.

    The brackets are 1-D arrays of independent brackets, solved in lockstep:
    each step makes one call f(x, idx), where idx indexes the brackets still
    active and x holds one point of each of them; a solved bracket is not
    evaluated again and keeps its last point.  The end that stays put twice
    running has its f value halved, so both ends converge; a secant point
    that rounds outside (a, b) is replaced by the midpoint.  A bracket stops
    when it is narrower than 1e-14 or f is exactly 0.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    side = np.zeros(a.shape, dtype=int)
    active = np.ones(a.shape, dtype=bool)
    hit = np.zeros(a.shape, dtype=bool)
    c = 0.5 * (a + b)
    for _ in range(_ROOT_MAX_ITER):
        active &= b - a >= _ROOT_TOL
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = (a * fb - b * fa) / (fb - fa)
        c = np.where(active, np.where((a < secant) & (secant < b), secant, 0.5 * (a + b)), c)
        idx = np.flatnonzero(active)
        fc = np.zeros(a.shape)
        fc[idx] = f(c[idx], idx)
        hit |= active & (fc == 0.0)
        active &= fc != 0.0
        right = active & ((fc > 0.0) == (fb > 0.0))
        left = active & ~right
        fa = np.where(right & (side == -1), 0.5 * fa, np.where(left, fc, fa))
        fb = np.where(left & (side == 1), 0.5 * fb, np.where(right, fc, fb))
        a, b = np.where(left, c, a), np.where(right, c, b)
        side = np.where(right, -1, np.where(left, 1, side))
    return np.where(hit, c, 0.5 * (a + b))


def _roots(f, lo: float, hi: float, points: int) -> tuple[list[float], int, int]:
    """Roots of f on a geometric grid of ``points`` points over [lo, hi].

    f is called once on the whole grid, as an array.  Callers pick hi with
    f(hi) >= 0.  While f is positive at the lowest point, a point at half of
    it is added (at most 60), so the grid starts where f <= 0.  A grid point
    where f is exactly 0 is a root, and the sign changes between neighbours
    are refined together by one lockstep ``_root``.  Returns the roots, the
    number of grid points and the number of sign changes.
    """
    xs = np.geomspace(lo, hi, points)
    fs = np.asarray(f(xs), dtype=float)
    for _ in range(_MAX_HALVINGS):
        if fs[0] <= 0.0:
            break
        xs = np.concatenate((xs[:1] / 2.0, xs))
        fs = np.concatenate((np.asarray(f(xs[:1]), dtype=float), fs))
    roots = [float(x) for x in xs[fs == 0.0]]
    change = ((fs[:-1] < 0.0) & (fs[1:] > 0.0)) | ((fs[1:] < 0.0) & (fs[:-1] > 0.0))
    roots += _root(lambda x, _: f(x), xs[:-1][change], xs[1:][change], fs[:-1][change], fs[1:][change]).tolist()
    return roots, len(xs), int(change.sum())


def _assess(model: ModelSpec, beta: float, eta, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual, G(x0) and sum w p E[<X>^2] at arrays of (eta, xi) points, in one kernel call.

    The residual is the larger absolute residual of the two fixed-point
    equations; G(x0), in nats, has a trailing axis over the effective states.
    """
    dec = model._decoupled
    moments = channel_moments(dec.table, eta, xi)
    mse, var = channel_errors(dec.table, moments)
    residual = np.maximum(
        abs(eta - 1.0 / (1.0 + beta * (mse @ dec.ws))),
        abs(xi - 1.0 / (model.sigma**2 + beta * (var @ dec.ws))),
    )
    ce = moments[..., 3].reshape(moments.shape[:-2] + (len(dec.weights), -1)) @ np.array([p for _, p in model.snr])
    const = (
        ((xi - 1.0) - np.log(xi)) / (2.0 * beta)
        - 0.5 * np.log(2.0 * np.pi / xi)
        - xi / (2.0 * eta)
        + model.sigma**2 * xi * (eta - xi) / (2.0 * beta * eta)
        + _LOG_2PI / (2.0 * beta)
        + xi / (2.0 * beta * eta)
    )
    return residual, ce + np.asarray(const)[..., None], moments[..., 0] @ dec.wp


def fixed_point_residual(model: ModelSpec, beta: float, eta: float, xi: float) -> float:
    """Max absolute residual of the (eta, xi) system at the given point."""
    return float(_assess(model, beta, eta, xi)[0])


def solve_fixed_point(model: ModelSpec, beta: float) -> FixedPoints:
    """All (eta, xi) fixed points: a scan for sign changes, then a bracketed root in each.

    Matched models enforce xi = eta and solve f(eta) = eta - 1/(1 + beta M(eta))
    on [1/(1 + beta sum w p s E[X^2|x0]), 1]; f <= 0 at the left end and
    f >= 0 at the right, so the interval always holds a root.  Mismatched
    models nest the same solve: for each eta, xi solves its own equation on
    [1/(sigma^2 + beta sum w p s E_q[X^2|x0]), 1/sigma^2], and eta solves
    eta = 1/(1 + beta sum w p s mse(eta, xi(eta))).  The eta interval is
    scanned at 16 geometric points, all in one kernel call per root-function
    sweep; each sign change is refined by Illinois regula falsi to a bracket
    narrower than 1e-14.  The inner xi solves of all the points of one sweep
    run in lockstep, left-end halvings included, as one vectorized Illinois.
    Roots are deduplicated at 1e-6 resolution and assessed in one kernel
    call: verified against the general-form residual below 1e-8, and scored
    by free energy and MMSE term.  The result carries those scores and the
    diagnostics of the solve.
    """
    if not beta > 0:
        raise ValidationError("beta must be > 0")
    dec = model._decoupled
    sigma_sq = model.sigma**2
    evaluations = 0
    take_kernel_tally()
    # Error and variance sums are nonnegative; clamping their rounding at 0
    # keeps f >= 0 at the right end of every bracket.

    if model.is_matched:

        def f(eta):
            nonlocal evaluations
            evaluations += np.size(eta)
            # Matched identity E[(X - <X>)^2] = E[X^2] - E[<X>^2] (tower property).
            # Reported solutions are re-verified against the general-form residual.
            e_g2 = channel_moments(dec.table, eta, eta)[..., 0]
            return eta - 1.0 / (1.0 + beta * np.maximum((dec.table.second_moment - e_g2) @ dec.ws, 0.0))

        def xi_at(eta):
            return eta

    else:
        xi_lo = 1.0 / (sigma_sq + beta * dec.post_s_moment)
        xi_hi = 1.0 / sigma_sq

        def h(eta, xi):
            nonlocal evaluations
            evaluations += np.broadcast(eta, xi).size
            return xi - 1.0 / (sigma_sq + beta * np.maximum(_weighted_errors(dec, eta, xi)[1], 0.0))

        def xi_at(eta):
            # _roots(xi -> h(eta, xi), xi_lo, xi_hi, 2)[0][0] for every eta at once
            rows = np.ravel(eta)
            ends = h(rows[:, None], np.array([xi_lo, xi_hi]))
            lo, f_lo, f_hi = np.full(rows.shape, xi_lo), ends[:, 0], ends[:, 1]
            b, fb = np.full(rows.shape, xi_hi), f_hi.copy()
            for _ in range(_MAX_HALVINGS):
                up = ~(f_lo <= 0.0)
                if not up.any():
                    break
                b[up], fb[up] = lo[up], f_lo[up]
                lo[up] /= 2.0
                f_lo[up] = h(rows[up], lo[up])
            xi = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, xi_hi, np.nan))
            refine = np.isnan(xi) & (f_lo < 0.0) & (fb > 0.0)
            if refine.any():
                sub = rows[refine]
                xi[refine] = _root(lambda x, idx: h(sub[idx], x), lo[refine], b[refine], f_lo[refine], fb[refine])
            if np.isnan(xi).any():
                raise SolverError(f"no xi solves the postulated-noise equation at eta={rows[np.isnan(xi)][0]}")
            return xi.reshape(np.shape(eta))

        def f(eta):
            nonlocal evaluations
            evaluations += np.size(eta)
            return eta - 1.0 / (1.0 + beta * np.maximum(_weighted_errors(dec, eta, xi_at(eta))[0], 0.0))

    eta_lo = 1.0 / (1.0 + beta * dec.true_s_moment)
    roots, points, brackets = _roots(f, eta_lo, 1.0, _SCAN_POINTS)
    found: list[tuple[float, float]] = []
    for eta, xi in zip(roots, xi_at(np.array(roots)) if roots else ()):
        if not any(abs(eta - e) < _CLUSTER_TOL and abs(xi - x) < _CLUSTER_TOL for e, x in found):
            found.append((eta, float(xi)))
    keep = []
    if found:
        residuals, terms, msq = _assess(model, beta, *np.array(found).T)
        keep = sorted(np.flatnonzero(residuals < RESIDUAL_TOL), key=found.__getitem__)
    if not keep:
        raise SolverError(
            f"no fixed point converged for beta={beta} "
            f"(scan points: {points}, brackets: {brackets})"
        )
    calls, nodes = take_kernel_tally()
    diagnostics = SolveDiagnostics(
        scan_points=points,
        brackets=brackets,
        evaluations=evaluations,
        kernel_calls=calls,
        max_nodes=nodes,
        residual=float(residuals[keep].max()),
    )
    return FixedPoints([found[i] for i in keep], diagnostics, [float(dec.weights @ terms[i]) for i in keep], msq[keep])


def free_energy_term(model: ModelSpec, state_index: int, eta: float, xi: float, beta: float) -> float:
    """G(x0) in nats for one effective state at a fixed-point candidate."""
    return float(_assess(model, beta, eta, xi)[1][state_index])


def free_energy(model: ModelSpec, beta: float) -> ReplicaSolution:
    """Free energy (nats per signal component) at the minimizing fixed point.

    Matched models also carry mutual information C = F - log(2 pi e)/(2 beta)
    and the average MMSE from the decoupled second-moment identity.  Every
    value is read off the solve's own assessment of its fixed points.
    """
    candidates = solve_fixed_point(model, beta)
    scored = tuple((eta, xi, fe) for (eta, xi), fe in zip(candidates, candidates.free_energies))
    best = min(range(len(scored)), key=lambda i: scored[i][2])
    eta, xi, fmin = scored[best]
    mutual = mmse = None
    if model.is_matched:
        mutual = fmin - _LOG_2PIE / (2.0 * beta)
        m2 = model._decoupled.second_moment
        mmse = m2 - candidates.posterior_mean_sq[best]
        if mmse < -1e-8 or mmse > m2 + 1e-8:
            raise SolverError(f"MMSE {mmse} escapes [0, {m2}] beyond numerical tolerance")
        mmse = float(min(max(mmse, 0.0), m2))
    return ReplicaSolution(beta, eta, xi, fmin, mutual, mmse, scored, candidates.diagnostics)


def mutual_information(model: ModelSpec, beta: float, units: str = "nats") -> float:
    """Average mutual information per signal component (matched models only)."""
    if not model.is_matched:
        raise MatchedModelRequired("mutual information is defined for matched models (sigma=1)")
    c = free_energy(model, beta).mutual_info
    if units == "nats":
        return c
    if units == "bits":
        return c / float(np.log(2.0))
    raise ValueError("units must be 'nats' or 'bits'")


def replica_mmse(model: ModelSpec, beta: float) -> float:
    """Average MMSE prediction E[X1^2] - sum_x0 lambda_x0 E[<X|X0>^2] (matched)."""
    if not model.is_matched:
        raise MatchedModelRequired("the MMSE identity requires the matched model")
    return free_energy(model, beta).mmse


def gauss_markov_eta(beta: float, s0_sigma0_sq: float) -> float:
    """Positive root of a*eta^2 + ((beta-1)a + 1) eta - 1 = 0 with a = s0*sigma0^2."""
    a = s0_sigma0_sq
    if not (a > 0 and beta > 0):
        raise ValidationError("need s0*sigma0^2 > 0 and beta > 0")
    b = (beta - 1.0) * a + 1.0
    # conjugate form of (-b + sqrt(b^2 + 4a)) / (2a): no cancellation as a -> 0
    return 2.0 / (b + np.sqrt(b * b + 4.0 * a))


def gauss_markov_free_energy(beta: float, s0_sigma0_sq: float) -> float:
    """Closed-form matched free energy of the Gauss-Markov model, in nats."""
    a = s0_sigma0_sq
    eta = gauss_markov_eta(beta, a)
    return float(
        0.5 * np.log(2.0 * np.pi * np.e * (a + 1.0 / eta))
        + ((eta - 1.0) - np.log(eta)) / (2.0 * beta)
        - 0.5 * np.log(2.0 * np.pi / eta)
        - 0.5
        + _LOG_2PI / (2.0 * beta)
        + 1.0 / (2.0 * beta)
    )
