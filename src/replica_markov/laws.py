"""Finite mixtures of point masses and Gaussians used as conditional input laws.

A conditional input law describes p(X1 | state) for the decoupled
single-symbol channel.  All three worked model families reduce to this
representation: a discrete chain row is a set of point masses, a
Gauss-Markov row is a single Gaussian, and a sparse hidden-Markov row is a
point mass at zero mixed with a unit Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when a law, kernel or distribution violates its contract."""


@dataclass(frozen=True)
class PointMass:
    x: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValidationError(f"point mass needs a finite x, got {self.x}")


@dataclass(frozen=True)
class GaussianAtom:
    mean: float
    var: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0.0 < self.var < math.inf):
            raise ValidationError(f"gaussian atom needs a finite mean and var > 0, got {self.mean}, {self.var}")


Atom = PointMass | GaussianAtom


@dataclass(frozen=True)
class ConditionalInputLaw:
    """Mixture sum_i w_i * atom_i with w_i >= 0 and sum w_i = 1 (to 1e-12)."""

    components: tuple[tuple[float, Atom], ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValidationError("mixture needs at least one component")
        total = 0.0
        for w, atom in self.components:
            if not w >= 0.0:  # also rejects NaN
                raise ValidationError(f"mixture weight {w} is not a nonnegative number")
            if not isinstance(atom, (PointMass, GaussianAtom)):
                raise ValidationError(f"unknown atom type {type(atom)!r}")
            total += w
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise ValidationError(f"mixture weights sum to {total!r}, not 1")

    @staticmethod
    def point_masses(values, probs) -> "ConditionalInputLaw":
        return ConditionalInputLaw(
            tuple((float(p), PointMass(float(v))) for v, p in zip(values, probs, strict=True))
        )

    @staticmethod
    def gaussian(mean: float, var: float) -> "ConditionalInputLaw":
        return ConditionalInputLaw(((1.0, GaussianAtom(float(mean), float(var))),))

    @staticmethod
    def mix(pairs) -> "ConditionalInputLaw":
        """Mixture of (weight, ConditionalInputLaw) pairs, flattened."""
        comps: list[tuple[float, Atom]] = []
        for w, law in pairs:
            for wi, atom in law.components:
                comps.append((float(w) * wi, atom))
        return ConditionalInputLaw(tuple(comps))

    def second_moment(self) -> float:
        m2 = 0.0
        for w, atom in self.components:
            if isinstance(atom, PointMass):
                m2 += w * atom.x**2
            else:
                m2 += w * (atom.mean**2 + atom.var)
        return m2

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw i.i.d. samples from the mixture."""
        weights = np.array([w for w, _ in self.components])
        idx = rng.choice(len(self.components), size=size, p=weights / weights.sum())
        out = np.empty(size)
        for k, (_, atom) in enumerate(self.components):
            mask = idx == k
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            if isinstance(atom, PointMass):
                out[mask] = atom.x
            else:
                out[mask] = atom.mean + np.sqrt(atom.var) * rng.standard_normal(cnt)
        return out
