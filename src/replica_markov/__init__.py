"""Replica predictions for linear models with Markov or hidden-Markov priors.

The re-exports below are imported on first access (PEP 562), so importing
the package, or one of its modules, loads only what that module needs.
"""

import importlib

_HOMES = {
    "laws": ("ConditionalInputLaw", "GaussianAtom", "PointMass"),
    "markov_core": (
        "EffectiveStates",
        "GaussMarkovPrior",
        "HiddenMarkovPrior",
        "IrreducibilityError",
        "MarkovPrior",
        "TransitionMatrix",
        "ValidationError",
        "binary_markov_kernel",
        "is_irreducible",
        "effective_states",
        "sparse_hmm_prior",
        "stationary_distribution",
    ),
    "single_symbol": (
        "QuadratureError",
        "ScalarChannel",
        "channel_moments",
        "conditional_mse",
        "conditional_var",
        "cross_entropy",
        "mean_square_posterior_mean",
    ),
    "solver": (
        "ModelSpec",
        "ReplicaSolution",
        "SolveDiagnostics",
        "SolverError",
        "fixed_point_residual",
        "free_energies",
        "free_energy",
        "gauss_markov_eta",
        "gauss_markov_free_energy",
        "solve_fixed_point",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = [name for names in _HOMES.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
