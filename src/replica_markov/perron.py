"""Perron-Frobenius machinery for the replica-coupling matrix chain.

With nu replicas, the per-symbol coupling matrices Q = s * x x^T (x a
(nu+1)-vector over the signal alphabet, s an SNR value) form a finite-state
Markov chain.  This module enumerates that state space, builds its
transition matrix in the stationary regime, computes Perron-Frobenius
eigen-triples of nonnegative irreducible matrices, evaluates the exact
gradient of log rho with respect to an exponential tilt, and inverts the
scaled-cumulant function into a large-deviation rate
I(Q) = sup_T (tr(T Q) - log rho(P_T)) by damped Newton on that concave dual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .markov_core import IrreducibilityError, TransitionMatrix, ValidationError, is_irreducible, stationary_distribution

MAX_NU = 3
PF_RESIDUAL_TOL = 1e-10
_DEDUP_DECIMALS = 12
_SPAN_RTOL = 1e-10  # singular values of the state differences below this (relative) are null


@dataclass(frozen=True, eq=False)
class QStateSpace:
    """Deduplicated coupling matrices s*x*x^T plus a membership index.

    ``states`` stacks the k distinct matrices as a (k, nu+1, nu+1) array.
    ``ids`` gives the state id of every (s, x) tuple, with s outermost and x
    in ``itertools.product`` order over ``x_alphabet``: the order of
    ``kron(s, x0, ..., x_nu)``.  (s, x) and (s, -x) share one state id.
    """

    nu: int
    s_alphabet: tuple[float, ...]
    x_alphabet: tuple[float, ...]
    states: np.ndarray
    ids: np.ndarray
    _index: dict = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.states)

    def state_of(self, s: float, x) -> int:
        key = _rounded(float(s) * np.outer(x, x)).tobytes()
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"(s={s}, x={tuple(x)}) is not in the enumerated state space") from None


def _rounded(q: np.ndarray) -> np.ndarray:
    return np.round(q, _DEDUP_DECIMALS) + 0.0  # normalize -0.0


def enumerate_q_states(s_alphabet, x_alphabet, nu: int) -> QStateSpace:
    if len(tuple(s_alphabet)) == 0 or len(tuple(x_alphabet)) == 0:
        raise ValidationError("alphabets must be nonempty")
    if not 0 <= nu <= MAX_NU:
        raise ValidationError(f"nu must be in [0, {MAX_NU}] (state count grows exponentially)")
    s_alphabet = tuple(float(s) for s in s_alphabet)
    if any(s <= 0 for s in s_alphabet):
        raise ValidationError("SNR alphabet entries must be positive")
    if len(set(s_alphabet)) != len(s_alphabet):
        raise ValidationError(f"SNR alphabet entries must be distinct, got {s_alphabet}")
    x_alphabet = tuple(float(x) for x in x_alphabet)
    d = nu + 1
    grids = np.meshgrid(*([x_alphabet] * d), indexing="ij")
    xs = np.stack([g.ravel() for g in grids], axis=-1)
    qs = (np.array(s_alphabet)[:, None, None, None] * xs[None, :, :, None] * xs[None, :, None, :]).reshape(-1, d, d)
    index: dict[bytes, int] = {}
    first: list[int] = []
    ids = np.empty(len(qs), dtype=int)
    for t, q in enumerate(_rounded(qs)):
        key = q.tobytes()
        if key not in index:
            index[key] = len(first)
            first.append(t)
        ids[t] = index[key]
    return QStateSpace(nu, s_alphabet, x_alphabet, qs[first], ids, index)


def q_transition_matrix(
    space: QStateSpace,
    true_kernel: TransitionMatrix,
    postulated_kernel: TransitionMatrix | None = None,
    s_dist=None,
) -> np.ndarray:
    """Transition matrix of the coupling-matrix chain in the stationary regime.

    Entry (i, j) aggregates, over the preimage tuples of states i and j, the
    joint weight P_S(s') P_S(s) p(x0') pi(x0', x0) prod_k q(xk') pitilde(xk', xk)
    normalized by the state-i marginal.  The time-(n-1) marginals p and q
    are the stationary distributions of the true and postulated kernels (the
    stationary-start convention).  Over tuples the weights are
    Kronecker products, kron(P_S, p, q, ..., q) and
    kron(1 P_S^T, pi, pitilde, ..., pitilde), folded onto the states by the
    one-hot membership matrix of ``space.ids``.
    """
    if postulated_kernel is None:
        postulated_kernel = true_kernel
    values = true_kernel.state_values()
    if tuple(postulated_kernel.state_values()) != tuple(values):
        raise ValidationError("true and postulated kernels must share the signal alphabet")
    if set(space.x_alphabet) != set(float(v) for v in values):
        raise ValidationError("state space alphabet does not match the kernel alphabet")
    if s_dist is None:
        if len(space.s_alphabet) != 1:
            raise ValidationError("s_dist required when the SNR alphabet is not a singleton")
        s_dist = ((space.s_alphabet[0], 1.0),)
    s_prob = {float(v): float(p) for v, p in s_dist}
    if set(s_prob) != set(space.s_alphabet):
        raise ValidationError("s_dist support must equal the SNR alphabet")
    val_to_row = {float(v): i for i, v in enumerate(values)}
    p_marg = stationary_distribution(true_kernel).weights
    q_marg = p_marg if postulated_kernel is true_kernel else stationary_distribution(postulated_kernel).weights

    rows = [val_to_row[v] for v in space.x_alphabet]
    s_vec = np.array([s_prob[s] for s in space.s_alphabet])
    weight = functools.reduce(np.kron, [s_vec, p_marg[rows]] + [q_marg[rows]] * space.nu)
    true_step = true_kernel.P[np.ix_(rows, rows)]
    post_step = postulated_kernel.P[np.ix_(rows, rows)]
    step = functools.reduce(np.kron, [np.tile(s_vec, (len(s_vec), 1)), true_step] + [post_step] * space.nu)
    member = np.zeros((len(weight), space.size))
    member[np.arange(len(weight)), space.ids] = 1.0
    joint = (member.T * weight) @ step @ member
    marginal = member.T @ weight
    if np.any(marginal <= 0.0):
        bad = int(np.argmin(marginal))
        raise ValidationError(f"state {bad} has zero marginal weight; transition rows undefined")
    P = joint / marginal[:, None]
    row_err = np.max(np.abs(P.sum(axis=1) - 1.0))
    if row_err > 1e-10:
        raise ValidationError(f"transition rows off stochastic by {row_err:.3e}")
    return P


def _trace_terms(tilt: np.ndarray, space: QStateSpace) -> np.ndarray:
    return np.tensordot(space.states, tilt, axes=2)


@dataclass(frozen=True, eq=False)
class PfTriple:
    rho: float
    lam: np.ndarray  # left eigenvector, positive
    psi: np.ndarray  # right eigenvector, positive, lam @ psi = 1


def _pf_2x2(M: np.ndarray) -> PfTriple:
    a, b, c, d = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    root = math.sqrt((a - d) ** 2 + 4.0 * b * c)
    rho = 0.5 * (a + d + root)
    # rho - a and rho - d without cancellation: the smaller one is 2bc / (root + |a - d|)
    gap = 2.0 * b * c / (root + abs(a - d)) if root > 0 else 0.0
    rho_a, rho_d = (gap, gap + a - d) if a >= d else (gap + d - a, gap)
    psi = np.array([b, rho_a]) if b > 0 else np.array([rho_d, c])
    psi = psi / psi.sum()  # b and rho - a can both be tiny; their ratio is not
    lam = np.array([c, rho_a]) if c > 0 else np.array([rho_d, b])
    lam = lam / (lam @ psi)
    return PfTriple(rho, lam, psi)


def pf_decomposition(M: np.ndarray, tol: float = 1e-13, max_iter: int = 100) -> PfTriple:
    """Perron eigen-triple by power iteration on (M + cI)^8.

    The shift makes every irreducible nonnegative matrix aperiodic without
    changing eigenvectors.  Three squarings give (M + cI)^8, scaled to
    largest entry 1 before and after each so that no scale of M overflows
    or underflows; one step on it contracts the error as much as eight steps
    on M + cI.  rho is recovered as the Rayleigh quotient lam M psi / (lam psi)
    at convergence.  When one entry dwarfs rho, the shift (half the largest
    row sum) leaves a subdominant eigenvalue within a hair of rho + c; after
    max_iter steps of M + cI (max_iter // 8 steps on its eighth power) the
    triple comes from dense eigendecompositions instead, under the same
    residual check.
    """
    M = np.asarray(M, dtype=float)
    if np.any(M < 0):
        raise ValidationError("matrix must be nonnegative")
    if not is_irreducible(M):
        raise IrreducibilityError("matrix must be irreducible")
    n = M.shape[0]
    if n == 1:
        return PfTriple(float(M[0, 0]), np.array([1.0]), np.array([1.0]))
    if n == 2:
        return _pf_2x2(M)
    shift = 0.5 * float(M.sum(axis=1).max())
    Ms = M + shift * np.eye(n)
    Ms /= Ms.max()
    for _ in range(3):
        Ms = Ms @ Ms
        Ms /= Ms.max()
    psi = np.full(n, 1.0 / n)
    lam = np.full(n, 1.0 / n)
    rho = 0.0
    for _ in range(max_iter // 8):
        psi_n = Ms @ psi
        psi_n /= psi_n.sum()
        lam_n = lam @ Ms
        lam_n /= lam_n.sum()
        rho_n = float(lam_n @ M @ psi_n) / float(lam_n @ psi_n)
        done = (
            abs(rho_n - rho) < tol * max(1.0, abs(rho_n))
            and np.max(np.abs(M @ psi_n - rho_n * psi_n)) < 0.5 * PF_RESIDUAL_TOL * rho_n
            and np.max(np.abs(lam_n @ M - rho_n * lam_n)) < 0.5 * PF_RESIDUAL_TOL * rho_n
        )
        psi, lam, rho = psi_n, lam_n, rho_n
        if done:
            break
    else:
        vals, right = np.linalg.eig(M)
        left_vals, left = np.linalg.eig(M.T)
        rho = float(np.max(vals.real))
        psi = np.abs(right[:, np.argmax(vals.real)].real)
        lam = np.abs(left[:, np.argmax(left_vals.real)].real)
        psi /= psi.sum()
        lam /= lam.sum()
        resid = max(np.max(np.abs(M @ psi - rho * psi)), np.max(np.abs(lam @ M - rho * lam)))
        if not resid < PF_RESIDUAL_TOL * rho:
            raise ValidationError(f"Perron eigenvector residual {resid:.3e} exceeds {PF_RESIDUAL_TOL} * rho")
    lam = lam / (lam @ psi)
    return PfTriple(rho, lam, psi)


def _tilted_pf(base: np.ndarray, tilt: np.ndarray, space: QStateSpace):
    """(t_max, P_T e^{-t_max}, its PF triple): a uniform exponent shift keeps exp from overflowing."""
    terms = _trace_terms(tilt, space)
    t_max = float(terms.max())
    scaled = np.asarray(base, float) * np.exp(terms - t_max)[None, :]
    return t_max, scaled, pf_decomposition(scaled)


def _twisted_weights(scaled: np.ndarray, triple: PfTriple) -> np.ndarray:
    """(lam P_T)_j psi_j / rho = lam_j psi_j: the stationary law of the Doob-transformed chain."""
    return (triple.lam @ scaled) * triple.psi / triple.rho


def _log_hessian(scaled: np.ndarray, triple: PfTriple, f: np.ndarray) -> np.ndarray:
    """lim_N Cov(sum_{t<N} f(X_t)) / N along the Doob-transformed chain, for f of shape (k, n).

    With twisted chain P~_ij = P_T,ij psi_j / (rho psi_i), its stationary law
    pi, fbar = f - pi f and Z = (I - P~ + 1 pi)^-1, the covariance is
    A + A^T - fbar^T Pi fbar with A = fbar^T Pi Z fbar: the second
    derivative of log rho along the directions f.
    """
    pi = _twisted_weights(scaled, triple)
    twisted = scaled * triple.psi[None, :] / (triple.rho * triple.psi[:, None])
    fbar = f - pi @ f
    z_fbar = np.linalg.solve(np.eye(len(pi)) - twisted + pi[None, :], fbar)
    pi_fbar = pi[:, None] * fbar
    a = pi_fbar.T @ z_fbar
    return a + a.T - pi_fbar.T @ fbar


def log_pf_eigenvalue(base: np.ndarray, tilt: np.ndarray, space: QStateSpace) -> float:
    """log rho of the tilted matrix, overflow-safe via a uniform exponent shift."""
    t_max, _, triple = _tilted_pf(base, tilt, space)
    return t_max + math.log(triple.rho)


def pf_log_derivative(base: np.ndarray, tilt: np.ndarray, space: QStateSpace) -> np.ndarray:
    """d log rho / d tilt: (1/rho) sum_i lam_i sum_j psi_j Q_j P_ij e^{tr(T Q_j)}."""
    _, scaled, triple = _tilted_pf(base, tilt, space)
    return np.tensordot(_twisted_weights(scaled, triple), space.states, axes=1)


def pf_log_hessian(base: np.ndarray, tilt: np.ndarray, space: QStateSpace) -> np.ndarray:
    """d^2 log rho / d tilt_ab d tilt_cd, shape (nu+1,)*4: the asymptotic covariance of Q."""
    _, scaled, triple = _tilted_pf(base, tilt, space)
    d = space.nu + 1
    return _log_hessian(scaled, triple, space.states.reshape(space.size, -1)).reshape(d, d, d, d)


def growth_rate(M: np.ndarray, h: np.ndarray, n_max: int = 200, row: int = 0):
    """[(n, (1/n) log (M^n h)_row)] for n = 1..n_max, in log domain."""
    M = np.asarray(M, float)
    h = np.asarray(h, float)
    if np.any(h <= 0):
        raise ValidationError("h must be strictly positive")
    if np.any(M < 0) or not is_irreducible(M):
        raise IrreducibilityError("matrix must be nonnegative irreducible")
    v = h.copy()
    log_scale = 0.0
    out = []
    for n in range(1, n_max + 1):
        v = M @ v
        s = float(v.sum())
        log_scale += math.log(s)
        v /= s
        out.append((n, (log_scale + math.log(float(v[row]))) / n))
    return out


@dataclass(frozen=True, eq=False)
class RateResult:
    value: float
    tilt: np.ndarray
    gradient_norm: float
    iterations: int
    converged: bool
    feasible: bool


def rate_function(
    space: QStateSpace,
    base: np.ndarray,
    q_target: np.ndarray,
    *,
    grad_tol: float = 1e-8,
    max_iter: int = 20_000,
    value_cap: float = 1e3,
) -> RateResult:
    """I(Q) = sup_T (tr(T Q) - log rho(P_T)) by damped Newton from T = 0.

    The dual is concave.  Each iterate's one PF triple gives its value, its
    gradient Q - d log rho/dT and its Hessian, the negated asymptotic
    covariance of Q under the Doob-transformed chain.  Tilts move only in
    the span of the state differences: along any other direction log rho is
    linear, so a gradient component there means the target lies off the
    states' affine hull and the sup is infinite.  The Newton step solves
    the Hessian system on that span by least squares and halves until the
    value or the gradient norm improves; a candidate whose tilted matrix
    underflows to reducible, whose psi has a zero entry, or whose PF triple
    fails its residual check (rho far below the largest entry) is rejected.
    A target outside the convex hull drives the tilt to infinity: it is
    reported infeasible (value = inf) once the value exceeds value_cap, or,
    when exp underflow stops the tilt T first, if the dual still rises at
    infinity along T: tr(T Q) above the largest cycle mean of tr(T Q_j).
    """
    q_target = np.asarray(q_target, float)
    tilt = np.zeros_like(q_target)
    f = space.states.reshape(space.size, -1)
    _, sv, vt = np.linalg.svd(f - f[0])
    span = vt[: int(np.sum(sv > _SPAN_RTOL * sv.max(initial=0.0)))]  # orthonormal rows
    f_span = f @ span.T

    def dual(t):
        t_max, scaled, triple = _tilted_pf(base, t, space)
        if not np.all(triple.psi > 0):
            raise IrreducibilityError("tilted matrix underflowed: psi has a zero entry")
        grad = q_target - np.tensordot(_twisted_weights(scaled, triple), space.states, axes=1)
        return float(np.sum(t * q_target)) - t_max - math.log(triple.rho), grad, scaled, triple

    val, grad, scaled, triple = dual(tilt)
    it = 0
    for it in range(1, max_iter + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < grad_tol:
            return RateResult(val, tilt, gnorm, it, True, True)
        g = grad.ravel()
        g_span = span @ g
        if val > value_cap or float(np.max(np.abs(g - span.T @ g_span))) > grad_tol:
            return RateResult(math.inf, tilt, gnorm, it, False, False)
        hess = _log_hessian(scaled, triple, f_span)
        newton = np.linalg.lstsq(hess, g_span, rcond=None)[0]
        if not np.all(np.isfinite(newton)):
            break  # the Hessian underflowed: the tilt runs off to infinity
        direction = (span.T @ newton).reshape(tilt.shape)
        step = 1.0
        while step > 1e-16:
            cand = tilt + step * direction
            try:
                cand_val, cand_grad, cand_scaled, cand_triple = dual(cand)
            except (IrreducibilityError, ValidationError):
                cand_val = None
            if cand_val is not None and (cand_val > val or float(np.max(np.abs(cand_grad))) < gnorm):
                break
            step *= 0.5
        else:
            break  # no improving step at machine precision
        tilt, val, grad, scaled, triple = cand, cand_val, cand_grad, cand_scaled, cand_triple
    gnorm = float(np.max(np.abs(grad)))
    if gnorm >= grad_tol:
        # stopped short of the sup: if the dual rises without bound along the
        # tilt, the sup is infinite even where exp underflow hid it from value_cap
        slope = float(np.sum(tilt * q_target)) - _max_cycle_mean(base, _trace_terms(tilt, space))
        if slope > grad_tol * float(np.abs(tilt).sum()):
            return RateResult(math.inf, tilt, gnorm, it, False, False)
    return RateResult(val, tilt, gnorm, it, gnorm < grad_tol, val <= value_cap)


def _max_cycle_mean(base: np.ndarray, w: np.ndarray) -> float:
    """Largest mean of the state weights w over a cycle of base's transition graph.

    It is lim_{s->inf} log rho(P_{sT}) / s for w = tr(T Q), so
    tr(T Q) - _max_cycle_mean is the slope at infinity of the dual along T.
    Karp's algorithm: with D_n(v) the heaviest n-step walk into v from any
    start, the answer is max_v min_{j<k} (D_k(v) - D_j(v)) / (k - j).
    """
    k = len(w)
    edges = np.where(np.asarray(base) > 0, 0.0, -np.inf)
    walks = np.zeros((k + 1, k))
    for n in range(1, k + 1):
        walks[n] = np.max(walks[n - 1][:, None] + edges, axis=0) + w
    return float(np.max(np.min((walks[k] - walks[:k]) / (k - np.arange(k))[:, None], axis=0)))
