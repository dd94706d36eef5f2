"""Markov-chain and HMM primitives: kernels, stationarity, irreducibility.

Stationary distributions are the left Perron-Frobenius eigenvectors with
unit Manhattan norm of the row-stochastic transition matrix, solved once per
kernel; that solve also decides whether the kernel is irreducible.  Hidden-Markov
priors are reduced to an effective finite-state description (hidden state,
stationary weight, conditional input mixture) which is all the decoupled
single-symbol analysis needs.  The SNR law's check lives here too, so the
decoupled model and the ``pf rate`` validator share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .laws import ConditionalInputLaw, ValidationError

STOCHASTIC_TOL = 1e-12
STATIONARY_TOL = 1e-12


class IrreducibilityError(ValueError):
    """Raised when an operation requires an irreducible chain but got a reducible one."""


class _ValueEquality:
    """Equality and hash of a frozen dataclass by the values of its compared fields, arrays entry by entry.

    The compared fields are frozen and their arrays read-only, so the key is
    computed once.
    """

    @cached_property
    def _values(self) -> tuple:
        return tuple(
            (v.shape, tuple(v.ravel().tolist())) if isinstance(v, np.ndarray) else v
            for v in (getattr(self, f.name) for f in fields(self) if f.compare)
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)


@dataclass(frozen=True, eq=False)
class TransitionMatrix(_ValueEquality):
    """Row-stochastic kernel over an ordered list of state labels; equal kernels have equal labels and entries."""

    states: tuple
    P: np.ndarray = field(repr=False)  # a read-only copy, so the stored stationary law cannot go stale
    _stationary: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        P = np.array(self.P, dtype=float)
        P.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "states", tuple(self.states))
        k = len(self.states)
        if k == 0:
            raise ValidationError("a chain needs at least one state")
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
        raise ValidationError("binary kernel needs alpha, delta in (0, 1); the boundary is reducible")
    return TransitionMatrix((-1.0, 1.0), np.array([[1 - alpha, alpha], [delta, 1 - delta]]))


@dataclass(frozen=True, eq=False)
class MarkovPrior(_ValueEquality):
    """Discrete signal prior: a finite-state kernel and its initial law (stationary by default)."""

    kernel: TransitionMatrix
    initial: np.ndarray | None = None  # None: the kernel's stationary law; stored as a read-only copy, as P is

    def __post_init__(self):
        init = stationary_distribution(self.kernel) if self.initial is None else self.initial
        init = np.array(init, dtype=float)
        init.flags.writeable = False
        if init.shape != (self.kernel.dim,):
            raise ValidationError("initial distribution length mismatch")
        if not (np.all(init >= 0) and abs(init.sum() - 1.0) <= STOCHASTIC_TOL):  # also rejects NaN
            raise ValidationError("initial distribution must be a probability vector")
        object.__setattr__(self, "initial", init)


@dataclass(frozen=True)
class GaussMarkovPrior:
    """Gauss-Markov signal prior: X_n = nu * X_{n-1} + N(0, sigma0_sq), started
    from the stationary marginal N(0, sigma0_sq / (1 - nu^2))."""

    nu: float
    sigma0_sq: float

    def __post_init__(self):
        if not (0.0 < self.nu < 1.0):
            raise ValidationError(f"gauss_markov needs nu in (0, 1), got {self.nu}")
        if not 0.0 < self.sigma0_sq < math.inf:
            raise ValidationError(f"gauss_markov needs a finite sigma0_sq > 0, got {self.sigma0_sq}")

    def stationary_variance(self) -> float:
        return self.sigma0_sq / (1.0 - self.nu**2)


@dataclass(frozen=True, eq=False)
class HiddenMarkovPrior(_ValueEquality):
    """Hidden chain kernel plus a per-hidden-state emission mixture."""

    hidden: TransitionMatrix
    emissions: tuple[ConditionalInputLaw, ...]

    def __post_init__(self):
        object.__setattr__(self, "emissions", tuple(self.emissions))
        if len(self.emissions) != self.hidden.dim:
            raise ValidationError("one emission law per hidden state required")
        stationary_distribution(self.hidden)  # raises IrreducibilityError for a reducible hidden chain


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


def is_irreducible(P: TransitionMatrix | np.ndarray) -> bool:
    """True iff the digraph of nonzero entries is strongly connected.

    Row 0 of ``seen`` holds the states reached from state 0, row 1 the
    states that reach it; both grow by one step per pass until neither moves.
    """
    M = P.P if isinstance(P, TransitionMatrix) else np.asarray(P, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValidationError(f"matrix must be square and nonempty, got shape {M.shape}")
    if np.any(M < 0):
        raise ValidationError("matrix must be nonnegative")
    adj = M > 0.0
    seen = np.zeros((2, len(adj)), dtype=bool)
    seen[:, 0] = True
    count = 2
    while True:
        seen[0] |= seen[0] @ adj
        seen[1] |= adj @ seen[1]
        before, count = count, np.count_nonzero(seen)
        if count == before:
            return count == seen.size


def stationary_distribution(P: TransitionMatrix) -> np.ndarray:
    """Left Perron-Frobenius eigenvector of P with unit L1 norm, read-only.

    Solved on the first call and stored on the kernel; later calls return
    the same array.  Dense least-squares solve of (P^T - I) v = 0 with an
    appended normalization row; it needs no aperiodicity, unlike power
    iteration.  A reducible chain raises IrreducibilityError, and the
    residual ||v^T P - v^T||_inf is verified below 1e-12.
    """
    if P._stationary is not None:
        return P._stationary
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
    v.flags.writeable = False
    object.__setattr__(P, "_stationary", v)
    return v


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


def effective_states(prior: MarkovPrior | GaussMarkovPrior | HiddenMarkovPrior) -> EffectiveStates:
    """Reduce a prior to effective states for the single-symbol analysis.

    For an HMM the pair (X_n, Upsilon_n) is a Markov chain with kernel
    P(x1, u1 | x0, u0) = p(x1 | u1) * pi(u0, u1); the conditional input law
    and all decoupled quantities depend only on u0, so the effective states
    are the hidden states with their stationary weights, and the law for
    state u0 is the mixture sum_u1 pi(u0, u1) * p(. | u1).  A discrete chain
    is the hidden chain whose states emit their own values, so its laws are
    the kernel rows as point masses.  A Gauss-Markov row law N(nu*x0,
    sigma0^2) enters every decoupled quantity only through its variance, so a
    single zero-mean state suffices.
    """
    if isinstance(prior, HiddenMarkovPrior):
        chain, emissions = prior.hidden, prior.emissions
    elif isinstance(prior, GaussMarkovPrior):
        return EffectiveStates(("gauss",), np.array([1.0]), (ConditionalInputLaw.gaussian(0.0, prior.sigma0_sq),))
    else:
        chain = prior.kernel
        emissions = tuple(ConditionalInputLaw.point_masses([v], [1.0]) for v in chain.state_values())
    laws = tuple(ConditionalInputLaw.mix(zip(row, emissions)) for row in chain.P)
    return EffectiveStates(chain.states, stationary_distribution(chain), laws)


def _normalize_snr(snr) -> tuple[tuple[float, float], ...]:
    """An SNR law, a scalar or (value, probability) pairs, as checked pairs."""
    pairs = ((float(snr), 1.0),) if np.isscalar(snr) else tuple((float(v), float(p)) for v, p in snr)
    if not all(0 < v < math.inf and p >= 0 for v, p in pairs):  # also rejects NaN
        raise ValidationError("snr values must be finite and > 0, with nonnegative probabilities")
    total = sum(p for _, p in pairs)
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(f"snr probabilities sum to {total}, not 1")
    return pairs
