"""Self-contained i.i.d.-prior replica path used as an independent cross-check.

For an i.i.d. prior there is no state, and the decoupled analysis reduces to
a single scalar channel.  This module re-derives that path from scratch with
deliberately different numerics than the Markov solver: densities are
evaluated on a dense grid and integrated with Simpson's rule, and the
matched fixed point is found by brentq, not by the main solver's
Anderson-Bjorck steps.  Agreement between the two paths is a regression
anchor, so nothing here should be replaced by calls into the main solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from replica_markov.laws import ConditionalInputLaw, PointMass

_GRID_POINTS = 160_001
_LOG_2PIE = float(np.log(2.0 * np.pi)) + 1.0


@dataclass(frozen=True)
class IidReplicaResult:
    beta: float
    eta: float
    free_energy: float
    mutual_info: float
    mmse: float


def _mixture_arrays(law: ConditionalInputLaw, s: float, eta: float):
    """Output-side (weight, mean, var) plus input-conditional mean coefficients."""
    ws, mus, vs, slopes, offs = [], [], [], [], []
    root_s = np.sqrt(s)
    for w, atom in law.components:
        if w == 0.0:
            continue
        ws.append(w)
        if isinstance(atom, PointMass):
            mus.append(root_s * atom.x)
            vs.append(1.0 / eta)
            slopes.append(0.0)
            offs.append(atom.x)
        else:
            mus.append(root_s * atom.mean)
            vs.append(1.0 / eta + s * atom.var)
            gain = s * atom.var / (s * atom.var + 1.0 / eta)
            slopes.append(gain / root_s)
            offs.append(atom.mean * (1.0 - gain))
    return (np.array(ws), np.array(mus), np.array(vs), np.array(slopes), np.array(offs))


def _grid(law: ConditionalInputLaw, s: float, eta: float) -> np.ndarray:
    _, mus, vs, _, _ = _mixture_arrays(law, s, eta)
    lo = float(np.min(mus - 12.0 * np.sqrt(vs)))
    hi = float(np.max(mus + 12.0 * np.sqrt(vs)))
    return np.linspace(lo, hi, _GRID_POINTS)


def _density_and_mean(law, s, eta, u):
    ws, mus, vs, slopes, offs = _mixture_arrays(law, s, eta)
    comp = ws * np.exp(-0.5 * (u[:, None] - mus) ** 2 / vs) / np.sqrt(2.0 * np.pi * vs)
    p0 = comp.sum(axis=1)
    p1 = (comp * (slopes * u[:, None] + offs)).sum(axis=1)
    return p0, p1


def _scalar_mse(law: ConditionalInputLaw, s: float, eta: float) -> float:
    """Matched E[(X - E[X|U])^2] for the scalar channel, by Simpson on a grid."""
    u = _grid(law, s, eta)
    p0, p1 = _density_and_mean(law, s, eta, u)
    g = p1 / p0
    e_g2 = simpson(p0 * g * g, x=u)
    e_xg = simpson(p1 * g, x=u)
    return law.second_moment() - 2.0 * e_xg + e_g2


def _entropy(law: ConditionalInputLaw, s: float, eta: float) -> float:
    u = _grid(law, s, eta)
    p0, _ = _density_and_mean(law, s, eta, u)
    mask = p0 > 0.0
    return -simpson(np.where(mask, p0 * np.log(np.where(mask, p0, 1.0)), 0.0), x=u)


def iid_replica(law: ConditionalInputLaw, snr, beta: float) -> IidReplicaResult:
    """Matched replica quantities for an i.i.d. prior with the given marginal law."""
    if np.isscalar(snr):
        snr = ((float(snr), 1.0),)

    def resid(eta: float) -> float:
        acc = sum(p * s * _scalar_mse(law, s, eta) for s, p in snr)
        return 1.0 / eta - 1.0 - beta * acc

    eta = brentq(resid, 1e-12, 1.0, xtol=1e-14, rtol=1e-15)
    ent = sum(p * _entropy(law, s, eta) for s, p in snr)
    f = (
        ent
        + ((eta - 1.0) - np.log(eta)) / (2.0 * beta)
        - 0.5 * np.log(2.0 * np.pi / eta)
        - 0.5
        + np.log(2.0 * np.pi) / (2.0 * beta)
        + 1.0 / (2.0 * beta)
    )
    mmse = 0.0
    for s, p in snr:
        u = _grid(law, s, eta)
        p0, p1 = _density_and_mean(law, s, eta, u)
        mmse += p * (law.second_moment() - simpson(p1 * p1 / p0, x=u))
    return IidReplicaResult(beta, eta, float(f), float(f - _LOG_2PIE / (2.0 * beta)), float(mmse))
