"""Turbo-AMP reconstruction for the sparse hidden-Markov prior.

Scalar thresholding uses the activity rate kappa only:

    alpha(c) = 1/(c+1),  beta(c) = ((1-kappa)/kappa)((c+1)/c),
    zeta(c) = 1/(c(c+1)),
    F(theta; c) = alpha * theta / (1 + beta * exp(-zeta * theta^2))
    G(theta; c) = beta * exp(-zeta * theta^2) * F^2 + c * alpha / (1 + beta * exp(-zeta * theta^2))

(the c/theta * F term of G written in its continuous form; the theta cancels
algebraically) and F' is the exact derivative of F.  One iteration updates

    theta = A^T z / sqrt(m) + mu
    mu    = F(theta; c)
    ups   = G(theta; c)
    c     = 1 + (beta/n) * sum(ups)
    z     = y - A mu / sqrt(m) + (z/m) * sum(F'(theta; c))

starting from mu = 0, z = y and c = C0.  The raw N(0,1) matrix A enters both
matrix steps, and the observation y, as A/sqrt(m): sensing columns have unit
norm, the residual recursion tracks the effective noise, and the
reconstruction error approaches the decoupled MMSE prediction across beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .markov_core import ValidationError, sparse_hmm_prior
from .simulator import _rng, measurement_count, sample_prior_path
from .solver import ModelSpec, free_energy

C0 = 10.0  # residual variance c before the first iteration


class AmpDivergence(RuntimeError):
    pass


@dataclass(frozen=True)
class AmpConfig:
    kappa: float
    gamma: float
    n: int = 1000
    beta: float = 1.0
    trials: int = 20
    iterations: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise ValidationError("kappa must be in (0, 1)")
        if not 0.0 < self.gamma <= 1.0:
            raise ValidationError("gamma must be in (0, 1]")
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        measurement_count(self.n, self.beta)  # checks n and beta

    @property
    def m(self) -> int:
        """The measurement count every oracle uses: round(n / beta), ties up."""
        return measurement_count(self.n, self.beta)


def threshold_funcs(theta, c: float, kappa: float):
    """(F, G, F') at pseudo-data theta and residual variance c, vectorized."""
    if not c > 0:
        raise ValidationError("c must be > 0")
    theta = np.asarray(theta, dtype=float)
    alpha = 1.0 / (c + 1.0)
    beta = ((1.0 - kappa) / kappa) * ((c + 1.0) / c)
    zeta = 1.0 / (c * (c + 1.0))
    w = beta * np.exp(-zeta * theta**2)
    f = alpha * theta / (1.0 + w)
    g = w * f**2 + c * alpha / (1.0 + w)
    fprime = (alpha / (1.0 + w)) * (1.0 + 2.0 * zeta * theta**2 * w / (1.0 + w))
    return f, g, fprime


@dataclass
class AmpState:
    mu: np.ndarray
    upsilon: np.ndarray
    c: float
    z: np.ndarray
    iteration: int
    mse_trace: list[float] = field(default_factory=list)


def turbo_amp(
    y: np.ndarray, A: np.ndarray, config: AmpConfig, x_true: np.ndarray | None = None
) -> AmpState:
    """Run the configured number of iterations; trace MSE against x_true if given."""
    m, n = A.shape
    beta = n / m
    scale = 1.0 / math.sqrt(m)
    At = A.T
    state = AmpState(np.zeros(n), np.zeros(n), C0, np.asarray(y, dtype=float).copy(), 0)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for it in range(config.iterations):
            theta = scale * (At @ state.z) + state.mu
            mu, ups, fprime = threshold_funcs(theta, state.c, config.kappa)
            c = 1.0 + (beta / n) * float(ups.sum())
            z = y - scale * (A @ mu) + (state.z / m) * float(fprime.sum())
            state = AmpState(mu, ups, c, z, it + 1, state.mse_trace)
            if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(z)) and np.isfinite(c)):
                raise AmpDivergence(f"non-finite state at iteration {it + 1}")
            if x_true is not None:
                state.mse_trace.append(float(np.sum((mu - x_true) ** 2) / n))
    return state


@dataclass(frozen=True)
class AmpExperimentResult:
    mean_mse: float
    std_err: float
    replica_mmse: float
    traces: np.ndarray  # (trials, iterations)


def sample_sparse_instance(config: AmpConfig, trial: int):
    """One sparse-HMM instance: raw N(0,1) matrix, x from the prior, unit noise.

    The observation y = A x / sqrt(m) + w uses the algorithm's own scaling:
    the linear model with N(0, 1/m) sensing entries.
    """
    rng = _rng(config.seed, trial, 0xA3)
    n, m = config.n, config.m
    prior = sparse_hmm_prior(config.kappa, config.gamma)
    x = sample_prior_path(prior, n, rng)
    A = rng.standard_normal((m, n))
    w = rng.standard_normal(m)
    y = (1.0 / math.sqrt(m)) * (A @ x) + w
    return y, A, x


def replica_mmse_reference(kappa: float, gamma: float, beta: float) -> float:
    """Decoupled MMSE prediction for the sparse hidden-Markov prior."""
    model = ModelSpec(prior=sparse_hmm_prior(kappa, gamma))
    return free_energy(model, beta).mmse


def amp_experiment(config: AmpConfig, replica_reference: float | None = None) -> AmpExperimentResult:
    """Mean final MSE over independent trials, with the replica MMSE attached.

    Each trial's instance is released before the next one is drawn, so at
    most one (m, n) sensing matrix is alive at a time.
    """
    traces = np.empty((config.trials, config.iterations))
    for t in range(config.trials):
        y, A, x = sample_sparse_instance(config, t)
        traces[t] = turbo_amp(y, A, config, x_true=x).mse_trace
        del y, A, x
    finals = traces[:, -1]
    if replica_reference is None:  # evaluated at the achieved load n/m, the one the trials ran at
        replica_reference = replica_mmse_reference(config.kappa, config.gamma, config.n / config.m)
    stderr = float(finals.std(ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
    return AmpExperimentResult(float(finals.mean()), stderr, replica_reference, traces)
