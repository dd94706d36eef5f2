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

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .laws import ConditionalInputLaw
from .markov_core import (
    HiddenMarkovPrior,
    MarkovPrior,
    ValidationError,
    effective_states_discrete,
    joint_chain,
)
from .single_symbol import (
    ScalarChannel,
    conditional_mse,
    conditional_var,
    cross_entropy,
    mean_square_posterior_mean,
    take_peak_nodes,
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
    labels: tuple
    weights: np.ndarray
    true_laws: tuple[ConditionalInputLaw, ...]
    post_laws: tuple[ConditionalInputLaw, ...]
    second_moment: float


def _decouple(prior, post) -> _Decoupled:
    effective = joint_chain if isinstance(prior, HiddenMarkovPrior) else effective_states_discrete
    eff = effective(prior)
    eff_q = eff if post is prior else effective(post)
    if eff.labels != eff_q.labels:
        raise ValidationError("postulated prior must share the true prior's state space")
    return _Decoupled(eff.labels, eff.weights, eff.laws, eff_q.laws, eff.second_moment())


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
        if not self.sigma > 0:
            raise ValidationError("sigma must be > 0")
        if self.postulated_prior is not None and type(self.postulated_prior) is not type(
            self.prior
        ):
            raise ValidationError("postulated prior must be the same kind as the true prior")
        post = self.postulated_prior if self.postulated_prior is not None else self.prior
        object.__setattr__(self, "_decoupled", _decouple(self.prior, post))

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
    evaluations: int = 0  # root-function evaluations, inner xi solves included
    max_nodes: int = 0  # largest Gauss-Hermite node count any quadrature converged at
    residual: float = math.nan  # largest fixed_point_residual over the verified candidates


class FixedPoints(list):
    """Sorted (eta, xi) fixed points, with the diagnostics of the solve that found them."""

    def __init__(self, points, diagnostics: SolveDiagnostics):
        super().__init__(points)
        self.diagnostics = diagnostics


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


def _channels(dec: _Decoupled, snr, eta: float, xi: float):
    for w, tl, ql in zip(dec.weights, dec.true_laws, dec.post_laws):
        for s, p in snr:
            yield w * p, s, ScalarChannel(eta, xi, s, tl, ql)


def _weighted_s_mse(dec: _Decoupled, snr, eta: float, xi: float) -> float:
    return sum(wp * s * conditional_mse(ch) for wp, s, ch in _channels(dec, snr, eta, xi))


def _weighted_s_var(dec: _Decoupled, snr, eta: float, xi: float) -> float:
    return sum(wp * s * conditional_var(ch) for wp, s, ch in _channels(dec, snr, eta, xi))


def _weighted_s_mse_matched(dec: _Decoupled, snr, eta: float) -> float:
    # Matched identity E[(X - <X>)^2] = E[X^2] - E[<X>^2] (tower property).
    # Reported solutions are re-verified against the general-form residual.
    acc = 0.0
    for w, law in zip(dec.weights, dec.true_laws):
        m2 = law.second_moment()
        for s, p in snr:
            ch = ScalarChannel(eta, eta, s, law, law)
            acc += w * p * s * (m2 - mean_square_posterior_mean(ch))
    return acc


def _weighted_s_second_moment(dec: _Decoupled, snr, laws) -> float:
    return sum(w * p * s * law.second_moment() for w, law in zip(dec.weights, laws) for s, p in snr)


def _root(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f in [a, b], with fa and fb of opposite signs, by Illinois regula falsi.

    The end that stays put twice running has its f value halved, so both
    ends converge; a secant point that rounds outside (a, b) is replaced by
    the midpoint.  Stops when the bracket is narrower than 1e-14.
    """
    side = 0
    for _ in range(_ROOT_MAX_ITER):
        if b - a < _ROOT_TOL:
            break
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            c = 0.5 * (a + b)
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc > 0.0) == (fb > 0.0):
            b, fb = c, fc
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
    return 0.5 * (a + b)


def _roots(f, lo: float, hi: float, points: int) -> tuple[list[float], int, int]:
    """Roots of f on a geometric grid of ``points`` points over [lo, hi].

    Callers pick hi with f(hi) >= 0.  While f is positive at the lowest
    point, a point at half of it is added (at most 60), so the grid starts
    where f <= 0.  A grid point where f is exactly 0 is a root, and each sign
    change between neighbours is refined by ``_root``.  Returns the roots,
    the number of grid points and the number of sign changes.
    """
    xs = list(np.geomspace(lo, hi, points))
    fs = [f(x) for x in xs]
    for _ in range(_MAX_HALVINGS):
        if fs[0] <= 0.0:
            break
        xs.insert(0, xs[0] / 2.0)
        fs.insert(0, f(xs[0]))
    roots = [float(x) for x, fx in zip(xs, fs) if fx == 0.0]
    changes = [
        (a, b, fa, fb)
        for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:])
        if fa < 0.0 < fb or fb < 0.0 < fa
    ]
    roots += [float(_root(f, *c)) for c in changes]
    return roots, len(xs), len(changes)


def fixed_point_residual(model: ModelSpec, beta: float, eta: float, xi: float) -> float:
    """Max absolute residual of the (eta, xi) system at the given point."""
    dec = model._decoupled
    r1 = abs(eta - 1.0 / (1.0 + beta * _weighted_s_mse(dec, model.snr, eta, xi)))
    r2 = abs(xi - 1.0 / (model.sigma**2 + beta * _weighted_s_var(dec, model.snr, eta, xi)))
    return float(max(r1, r2))


def solve_fixed_point(model: ModelSpec, beta: float) -> FixedPoints:
    """All (eta, xi) fixed points: a scan for sign changes, then a bracketed root in each.

    Matched models enforce xi = eta and solve f(eta) = eta - 1/(1 + beta M(eta))
    on [1/(1 + beta sum w p s E[X^2|x0]), 1]; f <= 0 at the left end and
    f >= 0 at the right, so the interval always holds a root.  Mismatched
    models nest the same solve: for each eta, xi solves its own equation on
    [1/(sigma^2 + beta sum w p s E_q[X^2|x0]), 1/sigma^2], and eta solves
    eta = 1/(1 + beta sum w p s mse(eta, xi(eta))).  The eta interval is
    scanned at 16 geometric points; each sign change is refined by Illinois
    regula falsi to a bracket narrower than 1e-14.  Roots are deduplicated at
    1e-6 resolution and verified against the general-form residual below
    1e-8; the result carries the diagnostics of the solve.
    """
    if not beta > 0:
        raise ValidationError("beta must be > 0")
    dec = model._decoupled
    snr, sigma_sq = model.snr, model.sigma**2
    evaluations = itertools.count()
    take_peak_nodes()
    # Error and variance sums are nonnegative; clamping their rounding at 0
    # keeps f >= 0 at the right end of every bracket.

    if model.is_matched:

        def f(eta):
            next(evaluations)
            return eta - 1.0 / (1.0 + beta * max(_weighted_s_mse_matched(dec, snr, eta), 0.0))

        def xi_at(eta):
            return eta

    else:
        xi_lo = 1.0 / (sigma_sq + beta * _weighted_s_second_moment(dec, snr, dec.post_laws))

        def xi_at(eta):
            def h(xi):
                next(evaluations)
                return xi - 1.0 / (sigma_sq + beta * max(_weighted_s_var(dec, snr, eta, xi), 0.0))

            roots, _, _ = _roots(h, xi_lo, 1.0 / sigma_sq, 2)
            if not roots:
                raise SolverError(f"no xi solves the postulated-noise equation at eta={eta}")
            return roots[0]

        def f(eta):
            next(evaluations)
            return eta - 1.0 / (1.0 + beta * max(_weighted_s_mse(dec, snr, eta, xi_at(eta)), 0.0))

    eta_lo = 1.0 / (1.0 + beta * _weighted_s_second_moment(dec, snr, dec.true_laws))
    roots, points, brackets = _roots(f, eta_lo, 1.0, _SCAN_POINTS)
    found: list[tuple[float, float]] = []
    for eta, xi in ((eta, float(xi_at(eta))) for eta in roots):
        if not any(abs(eta - e) < _CLUSTER_TOL and abs(xi - x) < _CLUSTER_TOL for e, x in found):
            found.append((eta, xi))
    residuals = [fixed_point_residual(model, beta, e, x) for e, x in found]
    verified = sorted(pair for pair, r in zip(found, residuals) if r < RESIDUAL_TOL)
    if not verified:
        raise SolverError(
            f"no fixed point converged for beta={beta} "
            f"(scan points: {points}, brackets: {brackets})"
        )
    diagnostics = SolveDiagnostics(
        scan_points=points,
        brackets=brackets,
        evaluations=next(evaluations),  # the number of earlier next() calls
        max_nodes=take_peak_nodes(),
        residual=max(r for r in residuals if r < RESIDUAL_TOL),
    )
    return FixedPoints(verified, diagnostics)


def free_energy_term(model: ModelSpec, state_index: int, eta: float, xi: float, beta: float) -> float:
    """G(x0) in nats for one effective state at a fixed-point candidate."""
    dec = model._decoupled
    sigma_sq = model.sigma**2
    ce = sum(
        p * cross_entropy(ScalarChannel(eta, xi, s, dec.true_laws[state_index], dec.post_laws[state_index]))
        for s, p in model.snr
    )
    const = (
        ((xi - 1.0) - np.log(xi)) / (2.0 * beta)
        - 0.5 * np.log(2.0 * np.pi / xi)
        - xi / (2.0 * eta)
        + sigma_sq * xi * (eta - xi) / (2.0 * beta * eta)
        + _LOG_2PI / (2.0 * beta)
        + xi / (2.0 * beta * eta)
    )
    return ce + const


def _free_energy_at(model: ModelSpec, beta, eta, xi) -> float:
    weights = model._decoupled.weights
    return float(sum(w * free_energy_term(model, i, eta, xi, beta) for i, w in enumerate(weights)))


def free_energy(model: ModelSpec, beta: float) -> ReplicaSolution:
    """Free energy (nats per signal component) at the minimizing fixed point.

    Matched models also carry mutual information C = F - log(2 pi e)/(2 beta)
    and the average MMSE from the decoupled second-moment identity.
    """
    candidates = solve_fixed_point(model, beta)
    scored = tuple((eta, xi, _free_energy_at(model, beta, eta, xi)) for eta, xi in candidates)
    eta, xi, fmin = min(scored, key=lambda t: t[2])
    mutual = mmse = None
    if model.is_matched:
        mutual = fmin - _LOG_2PIE / (2.0 * beta)
        mmse = _mmse_at(model, eta, xi)
    diag = candidates.diagnostics
    diag = replace(diag, max_nodes=max(diag.max_nodes, take_peak_nodes()))
    return ReplicaSolution(beta, eta, xi, fmin, mutual, mmse, scored, diag)


def _mmse_at(model: ModelSpec, eta: float, xi: float) -> float:
    dec = model._decoupled
    msq = sum(wp * mean_square_posterior_mean(ch) for wp, _s, ch in _channels(dec, model.snr, eta, xi))
    m2 = dec.second_moment
    val = m2 - msq
    if val < -1e-8 or val > m2 + 1e-8:
        raise SolverError(f"MMSE {val} escapes [0, {m2}] beyond numerical tolerance")
    return float(min(max(val, 0.0), m2))


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
