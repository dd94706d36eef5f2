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

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .markov_core import (
    GaussMarkovPrior,
    HiddenMarkovPrior,
    MarkovPrior,
    ValidationError,
    _normalize_snr,
    effective_states,
)
from .single_symbol import (
    ChannelTable,
    QuadratureError,
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


def _check_sigma(sigma) -> float:
    if not 0 < sigma < math.inf:  # also rejects NaN
        raise ValidationError(f"sigma must be finite and > 0, got {sigma}")
    return sigma


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
    eff = effective_states(prior)
    eff_q = eff if post is prior else effective_states(post)
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

    prior: MarkovPrior | GaussMarkovPrior | HiddenMarkovPrior
    postulated_prior: MarkovPrior | GaussMarkovPrior | HiddenMarkovPrior | None = None
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
    def postulated(self) -> MarkovPrior | GaussMarkovPrior | HiddenMarkovPrior:
        """The prior the postulated posterior uses: ``postulated_prior``, or the true prior when none is given."""
        return self.postulated_prior if self.postulated_prior is not None else self.prior

    @property
    def is_matched(self) -> bool:
        return self.sigma == 1.0 and (self.postulated_prior is None or self.postulated_prior == self.prior)


@dataclass(frozen=True)
class SolveDiagnostics:
    """How a fixed-point solve reached its answer.

    Every field but ``kernel_calls`` and ``max_nodes`` counts this beta's own
    work.  Those two count the kernel calls of the whole lockstep solve: the
    betas of one batch share every call, so each of them reports all of the
    batch's calls and its largest node count.  After a failed batch each beta
    is solved alone (``free_energies``), and those two count its own solve.
    """

    scan_points: int  # eta values of the geometric scan, left-end extensions included
    brackets: int  # sign changes the scan found, each refined to a root
    evaluations: int  # root-function evaluations, one per point, inner xi solves included
    kernel_calls: int  # quadrature kernel (mixture_expectation) calls, shared with the batch's other betas
    max_nodes: int  # largest trapezoid node count (2^k + 1) any quadrature of the batch converged at
    residual: float  # largest fixed_point_residual over the verified candidates


@dataclass(frozen=True)
class ReplicaSolution:
    """The result of a replica solve at one load: the fixed point of least free energy.

    ``all_solutions`` lists every verified fixed point in ascending order;
    ``mutual_info`` and ``mmse`` are None when the model is mismatched.
    """

    beta: float
    eta: float
    xi: float
    free_energy: float
    mutual_info: float | None
    mmse: float | None
    all_solutions: tuple[tuple[float, float, float], ...]  # (eta, xi, G-value)
    diagnostics: SolveDiagnostics


def _weighted_errors(dec: _Decoupled, moments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum w p s mse and sum w p s var over every channel, from ``channel_moments`` rows."""
    mse, var = channel_errors(dec.table, moments)
    return mse @ dec.ws, var @ dec.ws


def _root(f, a, b, fa, fb):
    """Roots of f in the brackets [a, b], with fa and fb of opposite signs, by Anderson-Bjorck regula falsi.

    The brackets are 1-D arrays of independent brackets, solved in lockstep:
    each step makes one call f(x, idx), where idx indexes the brackets still
    active and x holds one point of each of them; a solved bracket is not
    evaluated again.  When the same end moves twice running, the f value of
    the stale end is scaled by m = 1 - f(c)/f(moved end), or halved when
    m <= 0 (Anderson & Bjorck 1973), so both ends converge; a secant point
    that rounds outside (a, b) is replaced by the midpoint.  A bracket stops
    when it is narrower than 1e-14, when f is exactly 0, or when its secant
    point rounds onto an end this call evaluated (that end is then the root,
    and the far end would only be halved); an end the caller passed in never
    stops it this way.  Each root is a point of its bracket passed to f, so
    whatever f computed there is known at the root; a bracket narrower than
    1e-14 from the start is not evaluated and returns its end with the
    smaller |f|.

    Every bracket passed in is a strict sign change: fa and fb are nonzero
    and of opposite signs, as ``_roots`` hands them over.  Each step gives
    the end it moves that step's f(c), never 0, since f(c) == 0 ends the
    bracket, and a new point joins the end whose sign f had at the start.
    The scaling touches only the other end, which keeps its sign or flushes
    to +-0.  So f_hi - f_lo is never 0, and the secant divides by it.

    The per-bracket bookkeeping runs in Python floats, one bracket at a
    time.  A batch holds one bracket per sign change of each row: 1 to 32 on
    the two-beta sweeps of the benchmark, up to 320 on a 20-beta sweep and
    up to 1600 on a 100-beta one.  Below about 100 brackets numpy's cost per
    call exceeds the arithmetic and this form is faster; above, it is slower,
    about five times at 1600.  So its gain depends on few brackets per
    lockstep batch.  Each float operation is the one the array form made, in
    the same order, so the roots and the points passed to f are the same to
    the bit.
    """
    a, b, fa, fb = (np.array(v, dtype=float).tolist() for v in (a, b, fa, fb))
    c = [x if abs(fx) <= abs(fy) else y for x, y, fx, fy in zip(a, b, fa, fb)]
    side = [0] * len(c)  # the end the last step moved: -1 for b, 1 for a
    b_pos = [v > 0.0 for v in fb]  # the sign of f at b, which an fb scaled to +0 no longer shows
    own_a, own_b = [False] * len(c), [False] * len(c)  # ends this call evaluated
    active = list(range(len(c)))
    for _ in range(_ROOT_MAX_ITER):
        live = []
        for i in active:
            lo, hi, f_lo, f_hi = a[i], b[i], fa[i], fb[i]
            if not hi - lo >= _ROOT_TOL:
                continue
            secant = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if (secant == lo and own_a[i]) or (secant == hi and own_b[i]):
                c[i] = secant
                continue
            c[i] = secant if lo < secant < hi else 0.5 * (lo + hi)
            live.append(i)
        active = live
        if not active:
            break
        fcs = np.asarray(f(np.array([c[i] for i in active]), np.array(active)), dtype=float).tolist()
        live = []
        for i, fc in zip(active, fcs):
            if fc == 0.0:
                continue
            live.append(i)
            # an end that moves twice running holds the last step's fc, never 0: m divides by it
            if (fc > 0.0) == b_pos[i]:
                if side[i] == -1:
                    m = 1.0 - fc / fb[i]
                    fa[i] *= m if m > 0.0 else 0.5
                fb[i], b[i], own_b[i], side[i] = fc, c[i], True, -1
            else:
                if side[i] == 1:
                    m = 1.0 - fc / fa[i]
                    fb[i] *= m if m > 0.0 else 0.5
                fa[i], a[i], own_a[i], side[i] = fc, c[i], True, 1
        active = live
    return np.array(c, dtype=float)


def _roots(f, lo, hi, points: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Roots of f on rows of geometric grids: row r has ``points`` points over [lo[r], hi[r]].

    f(x, rows) evaluates row rows[i] at x[i], for arrays x and rows of one
    shape.  The grids of all rows go to f in one call; callers pick hi with
    f(hi) >= 0.  While f is positive (or NaN) at the lowest point of a row, a
    point at half of it is added to that row (at most 60 times), one call
    per step over those rows only, so every grid starts where f <= 0.  A grid
    point where f is exactly 0 is a root, and the sign changes between
    neighbours of every row are refined together by one lockstep ``_root``.
    Returns the roots of each row in ascending order, and the number of grid
    points and of sign changes of each row.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    xs = np.column_stack((lo, hi)) if points == 2 else np.geomspace(lo, hi, points).T
    every = np.arange(len(xs))
    fs = np.asarray(f(xs, np.repeat(every[:, None], points, axis=1)), dtype=float)
    x0, f0 = xs[:, 0], fs[:, 0]
    counts = np.full(len(xs), points)
    for _ in range(_MAX_HALVINGS):
        up = ~(f0 <= 0.0)
        if not up.any():
            break
        counts += up
        x, fx = np.full(len(xs), np.nan), np.full(len(xs), np.nan)
        x[up] = x0[up] / 2.0
        fx[up] = f(x[up], every[up])
        xs, fs = np.column_stack((x, xs)), np.column_stack((fx, fs))  # NaN where a row was not extended
        x0, f0 = np.where(up, x, x0), np.where(up, fx, f0)
    change = ((fs[:, :-1] < 0.0) & (fs[:, 1:] > 0.0)) | ((fs[:, 1:] < 0.0) & (fs[:, :-1] > 0.0))
    row, col = np.nonzero(change)
    refined = _root(lambda x, idx: f(x, row[idx]), xs[row, col], xs[row, col + 1], fs[row, col], fs[row, col + 1])
    at, on = np.nonzero(fs == 0.0)
    rows, roots = np.concatenate((at, row)), np.concatenate((xs[at, on], refined))
    roots = roots[np.lexsort((roots, rows))]
    ends = np.cumsum(np.bincount(rows, minlength=len(xs))).tolist()
    per_row = [roots[a:b] for a, b in zip([0, *ends], ends)]
    return per_row, counts, change.sum(axis=1)


def _first_roots(h, rows: list, solved: dict, lo, hi: float) -> np.ndarray:
    """First root of h on each row (NaN where it has none), warm-started from the roots of solved rows.

    Each row is a (group, x) pair; h(x, r) evaluates row rows[r] at x, for
    arrays x and r of one shape, and ``solved`` maps the rows solved before
    to their roots.  A row between two solved rows of its own group (the
    nearest x below and above) first tries the bracket spanned by their
    roots: it is kept only if h < 0 at its low end and h > 0 at its high end,
    so it holds a root and is never halved.  Every other row takes [lo, hi]
    (``lo`` a scalar or one value per row) with the left-end halving of
    ``_roots``, and one ``_roots`` call refines all rows in lockstep.
    """
    known = sorted(solved)
    inner, ends = [], []
    for r, row in enumerate(rows):
        at = bisect.bisect(known, row)
        if 0 < at < len(known) and known[at - 1][0] == row[0] == known[at][0]:
            inner.append(r)
            ends.append(sorted((solved[known[at - 1]], solved[known[at]])))
    left, right = np.broadcast_to(np.asarray(lo, dtype=float), len(rows)).copy(), np.full(len(rows), hi)
    if inner:
        inner, ends = np.array(inner), np.array(ends)
        fs = h(ends, np.repeat(inner[:, None], 2, axis=1))
        warm = (fs[:, 0] < 0.0) & (fs[:, 1] > 0.0)
        left[inner[warm]], right[inner[warm]] = ends[warm].T
    return np.array([r[0] if r.size else np.nan for r in _roots(h, left, right, 2)[0]])


def _assess(model: ModelSpec, beta: float, eta, xi, moments=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual, G(x0) and sum w p E[<X>^2] at arrays of (eta, xi) points.

    ``moments`` holds the ``channel_moments`` rows at the points; without
    it they come from one kernel call.  The residual is the larger absolute
    residual of the two fixed-point equations; G(x0), in nats, has a
    trailing axis over the effective states.
    """
    dec = model._decoupled
    if moments is None:
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


def _solve(model: ModelSpec, betas) -> list[ReplicaSolution | Exception]:
    """All (eta, xi) fixed points at every load of ``betas`` in lockstep: a sign-change scan, then a root in each bracket.

    One root function serves every model,

        f(eta) = eta - 1/(1 + beta sum w p s mse(eta, xi(eta))),

    where xi(eta) = eta for a matched model (the postulated posterior is the
    true one).  Otherwise xi(eta) is the first root of its own equation
    xi = 1/(sigma^2 + beta sum w p s var(eta, xi)) on
    [1/(sigma^2 + beta sum w p s E_q[X^2|x0]), 1/sigma^2], solved once per
    (beta, eta).  Both are solved by ``_roots``.  Each beta is one eta row of
    16 geometric points over [1/(1 + beta sum w p s E[X^2|x0]), 1], and the
    rows of all betas share one ``_roots`` call, so every step of the scan,
    the halvings and the refinement is one call of f for the whole batch.
    The xi of every new (beta, eta) pair of one call are rows of 2 points
    each, also in lockstep.  Each grid's left end is halved while its
    equation is still positive there, and each sign change is refined by
    Anderson-Bjorck regula falsi until its bracket is narrower than 1e-14 or
    its secant point rounds onto an end it evaluated; the root is a point
    evaluated in it.  An eta between two solved etas of the same beta first
    tries the bracket spanned by their xi, and takes the initial xi range
    only if its equation does not change sign across that bracket
    (``_first_roots``).

    The ``channel_moments`` rows of every (eta, xi) point are kept for the
    whole batch, keyed by the exact pair (they do not depend on beta), and
    each step's new points go to one kernel call.  A root is an evaluated
    point, so the mse at a solved xi, the xi of the eta roots and the
    assessment of the roots cost no kernel call.  Roots are deduplicated at
    1e-6 resolution, verified against the general-form residual below 1e-8,
    and scored by free energy and MMSE term; each beta's solution is its
    point of least free energy (the first on a tie).  Matched models also
    carry mutual information C = F - log(2 pi e)/(2 beta) and the average
    MMSE from the decoupled second-moment identity.

    The batch succeeds or fails whole: a kernel call's QuadratureError, or a
    SolverError naming the beta and eta where no xi solves the
    postulated-noise equation, is raised for all betas (``free_energies``
    then solves each beta alone).  Returns, in the order of ``betas``, each
    beta's ReplicaSolution, or a SolverError when none of its roots passes
    the residual check or its MMSE escapes [0, E X^2].
    """
    betas = np.array(betas, dtype=float).ravel()
    if not (betas > 0).all():  # also rejects NaN
        raise ValidationError("beta must be > 0")
    dec = model._decoupled
    sigma_sq = model.sigma**2
    count = betas.size
    evaluations = np.zeros(count, dtype=int)
    take_kernel_tally()
    cache: dict[tuple[float, float], np.ndarray] = {}

    def moments(eta, xi) -> np.ndarray:
        """``channel_moments`` at 1-D arrays of (eta, xi) points; the points not in ``cache`` go to one kernel call."""
        keys = list(zip(eta.tolist(), xi.tolist()))
        new = [k for k in dict.fromkeys(keys) if k not in cache]
        if new:
            cache.update(zip(new, channel_moments(dec.table, *np.array(new).T)))
        return np.array([cache[k] for k in keys]).reshape(eta.shape + (dec.table.s.size, 4))

    # f and h flatten the arrays they are passed, because ``moments`` and
    # ``xi_at`` take 1-D arrays.  Error and variance sums are nonnegative;
    # clamping their rounding at 0 keeps f >= 0 at the right end of every
    # bracket.

    if model.is_matched:

        def xi_at(eta, b):
            return eta

    else:
        xi_lo = 1.0 / (sigma_sq + betas * dec.post_s_moment)
        solved: dict[tuple[int, float], float] = {}

        def xi_at(eta, b):
            """The first root xi of the postulated-noise equation at each (beta, eta); a solved pair is looked up."""
            keys = list(zip(b.tolist(), eta.tolist()))
            rows = [k for k in dict.fromkeys(keys) if k not in solved]
            if rows:
                bs, etas = map(np.array, zip(*rows))

                def h(xi, r):
                    x, r = xi.ravel(), r.ravel()
                    np.add.at(evaluations, bs[r], 1)
                    var = _weighted_errors(dec, moments(etas[r], x))[1]
                    return (x - 1.0 / (sigma_sq + betas[bs[r]] * np.maximum(var, 0.0))).reshape(xi.shape)

                xi = _first_roots(h, rows, solved, xi_lo[bs], 1.0 / sigma_sq).tolist()
                for (beta_index, e), x in zip(rows, xi):
                    if math.isnan(x):
                        beta = float(betas[beta_index])
                        raise SolverError(f"no xi solves the postulated-noise equation at beta={beta}, eta={e}")
                solved.update(zip(rows, xi))
            return np.array([solved[k] for k in keys])

    def f(eta, b):
        e, b = eta.ravel(), b.ravel()
        np.add.at(evaluations, b, 1)
        mse = _weighted_errors(dec, moments(e, xi_at(e, b)))[0]
        return (e - 1.0 / (1.0 + betas[b] * np.maximum(mse, 0.0))).reshape(eta.shape)

    roots, points, brackets = _roots(f, 1.0 / (1.0 + betas * dec.true_s_moment), np.ones(count), _SCAN_POINTS)
    found: list[list[tuple[float, float]]] = [[] for _ in range(count)]
    for b in range(count):
        for eta, xi in zip(roots[b].tolist(), xi_at(roots[b], np.full(roots[b].size, b)).tolist()):
            if not any(abs(eta - e) < _CLUSTER_TOL and abs(xi - x) < _CLUSTER_TOL for e, x in found[b]):
                found[b].append((eta, xi))
    candidates = [p for pts in found for p in pts]
    if candidates:
        owner = np.repeat(np.arange(count), [len(pts) for pts in found])
        etas, xis = np.array(candidates).T
        residuals, terms, msq = _assess(model, betas[owner], etas, xis, moments(etas, xis))
    calls, nodes = take_kernel_tally()
    m2 = dec.second_moment
    out: list[ReplicaSolution | Exception] = []
    end = 0
    for b in range(count):
        beta = float(betas[b])
        mine = range(end, end + len(found[b]))
        end = mine.stop
        keep = sorted((i for i in mine if residuals[i] < RESIDUAL_TOL), key=candidates.__getitem__)
        if not keep:
            out.append(
                SolverError(
                    f"no fixed point converged for beta={beta} "
                    f"(scan points: {points[b]}, brackets: {brackets[b]})"
                )
            )
            continue
        scored = tuple((*candidates[i], float(dec.weights @ terms[i])) for i in keep)
        best = min(range(len(keep)), key=lambda k: scored[k][2])
        eta, xi, fmin = scored[best]
        mutual = mmse = None
        if model.is_matched:
            mutual = fmin - _LOG_2PIE / (2.0 * beta)
            mmse = m2 - msq[keep[best]]
            if mmse < -1e-8 or mmse > m2 + 1e-8:
                out.append(SolverError(f"MMSE {mmse} escapes [0, {m2}] beyond numerical tolerance"))
                continue
            mmse = float(min(max(mmse, 0.0), m2))
        diagnostics = SolveDiagnostics(
            scan_points=int(points[b]),
            brackets=int(brackets[b]),
            evaluations=int(evaluations[b]),
            kernel_calls=calls,
            max_nodes=nodes,
            residual=float(residuals[keep].max()),
        )
        out.append(ReplicaSolution(beta, eta, xi, fmin, mutual, mmse, scored, diagnostics))
    return out


def solve_fixed_point(model: ModelSpec, beta: float) -> list[tuple[float, float]]:
    """All (eta, xi) fixed points at one load, in ascending order: those of ``free_energy``'s solution."""
    return [(eta, xi) for eta, xi, _ in free_energy(model, beta).all_solutions]


def free_energies(model: ModelSpec, betas) -> list[ReplicaSolution | Exception]:
    """Free energy (nats per signal component) at the minimizing fixed point of each load, solved in lockstep.

    All betas share one solve (``_solve``).  If it raises a SolverError or
    QuadratureError, each beta is solved alone, so each gets the outcome of
    its own solve, diagnostics included.  Each entry, in the order of
    ``betas``, is a ReplicaSolution or the exception of that beta's solve.
    Every value is read off the solve's own assessment of its fixed points.
    """
    betas = np.ravel(betas).tolist()
    try:
        return _solve(model, betas)
    except (SolverError, QuadratureError) as exc:
        return [exc] if len(betas) == 1 else [sol for beta in betas for sol in free_energies(model, [beta])]


def free_energy(model: ModelSpec, beta: float) -> ReplicaSolution:
    """Free energy at one load: the one-beta case of ``free_energies``; raises the exception of a failed solve."""
    (result,) = free_energies(model, [beta])
    if isinstance(result, Exception):
        raise result
    return result


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
