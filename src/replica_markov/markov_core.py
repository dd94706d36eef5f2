"""Markov-chain and HMM primitives: kernels, stationarity, irreducibility.

Stationary distributions are the left Perron-Frobenius eigenvectors with
unit Manhattan norm of the row-stochastic transition matrix.  Hidden-Markov
priors are reduced to an effective finite-state description (hidden state,
stationary weight, conditional input mixture) which is all the decoupled
single-symbol analysis needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .laws import ConditionalInputLaw

STOCHASTIC_TOL = 1e-12
STATIONARY_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when a kernel or distribution violates its contract."""


class IrreducibilityError(ValueError):
    """Raised when an operation requires an irreducible chain but got a reducible one."""


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic kernel over an ordered list of state labels."""

    states: tuple
    P: np.ndarray = field(repr=False)

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "states", tuple(self.states))
        k = len(self.states)
        if P.shape != (k, k):
            raise ValidationError(f"transition matrix shape {P.shape} != ({k}, {k})")
        if not np.all(P >= 0.0):  # also rejects NaN
            raise ValidationError("transition matrix entries must be nonnegative numbers")
        row_err = np.abs(P.sum(axis=1) - 1.0)
        if np.any(row_err > STOCHASTIC_TOL):
            bad = int(np.argmax(row_err))
            raise ValidationError(
                f"row {bad} sums to {P[bad].sum()!r}, off by more than {STOCHASTIC_TOL}"
            )

    @property
    def dim(self) -> int:
        return len(self.states)

    def state_values(self) -> np.ndarray:
        """State labels as floats (for chains whose labels are signal values)."""
        try:
            values = np.array([float(s) for s in self.states])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"states {self.states!r} are not numeric") from exc
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"states {self.states!r} are not all finite")
        return values


def binary_markov_kernel(alpha: float, delta: float) -> TransitionMatrix:
    """Two-state chain on {-1, +1} with flip probabilities alpha and delta."""
    if not (0.0 < alpha < 1.0 and 0.0 < delta < 1.0):
        raise ValidationError("binary kernel needs alpha, delta in (0, 1)")
    return TransitionMatrix((-1.0, 1.0), np.array([[1 - alpha, alpha], [delta, 1 - delta]]))


@dataclass(frozen=True)
class MarkovPrior:
    """Signal prior: a finite-state kernel or a Gauss-Markov recursion.

    Discrete: kernel + initial distribution (defaults to stationary).
    Gauss-Markov: X_n = nu * X_{n-1} + N(0, sigma0_sq), started from the
    stationary marginal N(0, sigma0_sq / (1 - nu^2)).
    """

    kernel: TransitionMatrix | None = None
    initial: np.ndarray | None = None
    nu: float | None = None
    sigma0_sq: float | None = None

    def __post_init__(self):
        if (self.kernel is None) == (self.nu is None):
            raise ValidationError("specify exactly one of kernel (discrete) or nu (gauss_markov)")
        if self.kernel is not None:
            init = self.initial
            if init is None:
                init = stationary_distribution(self.kernel).weights
            init = np.asarray(init, dtype=float)
            if init.shape != (self.kernel.dim,):
                raise ValidationError("initial distribution length mismatch")
            if not (np.all(init >= 0) and abs(init.sum() - 1.0) <= STOCHASTIC_TOL):  # also rejects NaN
                raise ValidationError("initial distribution must be a probability vector")
            object.__setattr__(self, "initial", init)
        else:
            if not (0.0 < self.nu < 1.0):
                raise ValidationError(f"gauss_markov needs nu in (0, 1), got {self.nu}")
            if self.sigma0_sq is None or not 0.0 < self.sigma0_sq < math.inf:
                raise ValidationError(f"gauss_markov needs a finite sigma0_sq > 0, got {self.sigma0_sq}")

    @property
    def is_gauss_markov(self) -> bool:
        return self.nu is not None

    def stationary_variance(self) -> float:
        if not self.is_gauss_markov:
            raise ValidationError("stationary_variance is a Gauss-Markov property")
        return self.sigma0_sq / (1.0 - self.nu**2)

    @staticmethod
    def discrete(kernel: TransitionMatrix, initial=None) -> "MarkovPrior":
        return MarkovPrior(kernel=kernel, initial=initial)

    @staticmethod
    def gauss_markov(nu: float, sigma0_sq: float) -> "MarkovPrior":
        return MarkovPrior(nu=nu, sigma0_sq=sigma0_sq)


@dataclass(frozen=True)
class HiddenMarkovPrior:
    """Hidden chain kernel plus a per-hidden-state emission mixture."""

    hidden: TransitionMatrix
    emissions: tuple[ConditionalInputLaw, ...]

    def __post_init__(self):
        object.__setattr__(self, "emissions", tuple(self.emissions))
        if len(self.emissions) != self.hidden.dim:
            raise ValidationError("one emission law per hidden state required")
        if not is_irreducible(self.hidden):
            raise IrreducibilityError("hidden chain must be irreducible")


def sparse_hmm_prior(kappa: float, gamma: float) -> HiddenMarkovPrior:
    """Sparsity-pattern HMM: active rate kappa, independence parameter gamma.

    Hidden kernel [[1-kg, kg], [(1-k)g, 1-(1-k)g]]; emissions are a point
    mass at 0 (inactive) and N(0, 1) (active).  Stationary activity is kappa.
    """
    if not (0.0 < kappa < 1.0):
        raise ValidationError("kappa must be in (0, 1)")
    if not (0.0 < gamma <= 1.0):
        raise ValidationError("gamma must be in (0, 1]")
    hidden = TransitionMatrix(
        (0, 1),
        np.array(
            [[1 - kappa * gamma, kappa * gamma], [(1 - kappa) * gamma, 1 - (1 - kappa) * gamma]]
        ),
    )
    emissions = (
        ConditionalInputLaw.point_masses([0.0], [1.0]),
        ConditionalInputLaw.gaussian(0.0, 1.0),
    )
    return HiddenMarkovPrior(hidden, emissions)


@dataclass(frozen=True)
class ProbabilityVector:
    labels: tuple
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", tuple(self.labels))
        if w.shape != (len(self.labels),):
            raise ValidationError("weights/labels length mismatch")
        if np.any(w < 0) or abs(w.sum() - 1.0) > STOCHASTIC_TOL:
            raise ValidationError("not a probability vector")


def is_irreducible(P: TransitionMatrix | np.ndarray) -> bool:
    """True iff the digraph of nonzero entries is strongly connected."""
    M = P.P if isinstance(P, TransitionMatrix) else np.asarray(P, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("matrix must be square")
    if np.any(M < 0):
        raise ValidationError("matrix must be nonnegative")
    adj = M > 0.0
    n = M.shape[0]

    def reaches_all(a: np.ndarray) -> bool:
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            nxt = a[frontier].any(axis=0) & ~seen
            frontier = list(np.nonzero(nxt)[0])
            seen |= nxt
        return bool(seen.all())

    return reaches_all(adj) and reaches_all(adj.T)


def stationary_distribution(P: TransitionMatrix) -> ProbabilityVector:
    """Left Perron-Frobenius eigenvector of P with unit L1 norm.

    Dense least-squares solve of (P^T - I) v = 0 with an appended
    normalization row; it needs no aperiodicity, unlike power iteration.
    Residual ||v^T P - v^T||_inf is verified below 1e-12.
    """
    if not is_irreducible(P):
        raise IrreducibilityError("chain is reducible; stationary distribution not unique")
    M = P.P
    n = P.dim
    A = np.vstack([M.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    v, *_ = np.linalg.lstsq(A, b, rcond=None)
    v = np.abs(v)
    v /= v.sum()
    resid = np.max(np.abs(v @ M - v))
    if resid >= STATIONARY_TOL:
        raise ValidationError(f"stationary residual {resid:.3e} exceeds {STATIONARY_TOL}")
    return ProbabilityVector(P.states, v)


@dataclass(frozen=True)
class EffectiveStates:
    """Decoupled single-symbol description: per-state weight and input law.

    For a discrete chain the states are the chain's own symbols; for an HMM
    they are the hidden states (the conditional law and every decoupled
    quantity depend only on the previous hidden state).
    """

    labels: tuple
    weights: np.ndarray
    laws: tuple[ConditionalInputLaw, ...]

    def second_moment(self) -> float:
        return float(sum(w * law.second_moment() for w, law in zip(self.weights, self.laws)))


def effective_states_discrete(prior: MarkovPrior) -> EffectiveStates:
    if prior.is_gauss_markov:
        # The row law N(nu*x0, sigma0^2) enters every decoupled quantity only
        # through its variance, so a single zero-mean state suffices.
        return EffectiveStates(
            ("gauss",), np.array([1.0]), (ConditionalInputLaw.gaussian(0.0, prior.sigma0_sq),)
        )
    kern = prior.kernel
    values = kern.state_values()
    lam = stationary_distribution(kern)
    laws = tuple(ConditionalInputLaw.point_masses(values, kern.P[i]) for i in range(kern.dim))
    return EffectiveStates(kern.states, lam.weights, laws)


def joint_chain(h: HiddenMarkovPrior) -> EffectiveStates:
    """Reduce an HMM to effective states for the single-symbol analysis.

    The pair (X_n, Upsilon_n) is a Markov chain with kernel
    P(x1, u1 | x0, u0) = p(x1 | u1) * pi(u0, u1); the conditional input law
    and all decoupled quantities depend only on u0, so the effective states
    are the hidden states with their stationary weights, and the law for
    state u0 is the mixture sum_u1 pi(u0, u1) * p(. | u1).
    """
    lam = stationary_distribution(h.hidden)
    laws = []
    for i in range(h.hidden.dim):
        row = h.hidden.P[i]
        laws.append(ConditionalInputLaw.mix(zip(row, h.emissions)))
    return EffectiveStates(h.hidden.states, lam.weights, tuple(laws))
