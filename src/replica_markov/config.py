"""JSON configuration: schema validation and model construction.

``validate_config`` reads an experiment document, ``validate_rate_config`` a
``pf rate`` document; both share the prior and SNR builders below.
Validation is all-or-nothing: every violation is reported with the dotted
path of the offending field (e.g. ``model.prior.transition[1]``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .laws import ConditionalInputLaw, GaussianAtom, PointMass
from .markov_core import (
    GaussMarkovPrior,
    HiddenMarkovPrior,
    IrreducibilityError,
    MarkovPrior,
    TransitionMatrix,
    _normalize_snr,
    binary_markov_kernel,
    sparse_hmm_prior,
    stationary_distribution,
)

if TYPE_CHECKING:  # each validator imports the layer it builds for: a pf process loads no solver
    from .perron import QStateSpace
    from .solver import ModelSpec

SCHEMA_VERSION = 1
TASKS = ("replica", "exact_sim", "mh", "amp")
SIMULATION_TASKS = ("exact_sim", "mh", "amp")  # the finite-n tasks: they need n and trials
_MAX_SWEEP_POINTS = 10_000


class ConfigError(ValueError):
    """Carries the full list of validation errors."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    betas: tuple[float, ...]
    tasks: tuple[str, ...]
    n: int
    trials: int
    seed: int
    units: str
    mh_steps: int
    mh_burn_in: int
    amp_iterations: int
    sparse_hmm_params: tuple[float, float] | None  # (kappa, gamma) when prior is sparse_hmm


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def add(self, path: str, msg: str):
        self.errors.append(f"{path}: {msg}")

    def expect(self, doc: dict, path: str, key: str, types, default=None, required=False):
        if key not in doc:
            if required:
                self.add(f"{path}.{key}" if path else key, "missing required field")
            return default
        val = doc[key]
        if isinstance(val, bool) or not isinstance(val, types):  # JSON true/false would pass as int
            tn = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
            self.add(f"{path}.{key}" if path else key, f"expected {tn}, got {type(val).__name__}")
            return default
        return val


def _built(errs: _Collector, path: str, make):
    """make(), or None with its ValueError recorded under path: every library
    object checks itself, and the builders only name the path."""
    try:
        return make()
    except ValueError as exc:
        errs.add(path, str(exc))
        return None


def _build_emission(doc, path, errs: _Collector):
    comps = []
    mark = len(errs.errors)
    if not isinstance(doc, list) or not doc:
        errs.add(path, "expected a nonempty list of mixture components")
        return None
    for i, comp in enumerate(doc):
        cpath = f"{path}[{i}]"
        if not isinstance(comp, dict):
            errs.add(cpath, "expected an object")
            continue
        w = errs.expect(comp, cpath, "weight", (int, float), required=True)
        kind = errs.expect(comp, cpath, "type", str, required=True)
        if w is None or kind is None:
            continue
        if kind == "point":
            x = errs.expect(comp, cpath, "x", (int, float), required=True)
            atom = None if x is None else _built(errs, cpath, lambda: PointMass(float(x)))
        elif kind == "gaussian":
            mean = errs.expect(comp, cpath, "mean", (int, float), default=0.0)
            var = errs.expect(comp, cpath, "var", (int, float), required=True)
            atom = None if var is None else _built(errs, cpath, lambda: GaussianAtom(float(mean), float(var)))
        else:
            errs.add(f"{cpath}.type", f"unknown component type {kind!r}")
            continue
        if atom is not None:
            comps.append((float(w), atom))
    if len(errs.errors) > mark:
        return None
    return _built(errs, path, lambda: ConditionalInputLaw(tuple(comps)))


def _build_transition(doc, path, errs: _Collector) -> TransitionMatrix | None:
    mark = len(errs.errors)
    states = errs.expect(doc, path, "states", list, required=True)
    rows = errs.expect(doc, path, "transition", list, required=True)
    if states is None or rows is None:
        return None
    k = len(states)
    for i in range(k):
        if i >= len(rows):
            errs.add(f"{path}.transition[{i}]", "missing row")
        elif not isinstance(rows[i], list) or len(rows[i]) != k:
            errs.add(f"{path}.transition[{i}]", f"expected a row of {k} probabilities")
    if len(rows) > k:
        errs.add(f"{path}.transition", f"{len(rows)} rows for {k} states")
    if len(errs.errors) > mark:
        return None
    kern = _built(errs, f"{path}.transition", lambda: TransitionMatrix(tuple(states), np.array(rows, dtype=float)))
    # solving the stationary law decides irreducibility
    if kern is None or _built(errs, f"{path}.transition", lambda: stationary_distribution(kern)) is None:
        return None
    return kern


def _build_prior(doc, path, errs: _Collector):
    if not isinstance(doc, dict):
        errs.add(path, "expected an object")
        return None, None
    kind = errs.expect(doc, path, "type", str, required=True)
    if kind is None:
        return None, None
    if kind == "binary_markov":
        alpha = errs.expect(doc, path, "alpha", (int, float), required=True)
        delta = errs.expect(doc, path, "delta", (int, float), required=True)
        if alpha is None or delta is None:
            return None, None
        return _built(errs, path, lambda: MarkovPrior(binary_markov_kernel(float(alpha), float(delta)))), None
    if kind == "discrete_markov":
        kern = _build_transition(doc, path, errs)
        if kern is None:
            return None, None
        initial = doc.get("initial")
        if initial is not None and not (
            isinstance(initial, list) and len(initial) == kern.dim and all(map(_is_finite_number, initial))
        ):
            errs.add(f"{path}.initial", f"expected a list of {kern.dim} probabilities")
            return None, None
        return _built(errs, f"{path}.initial", lambda: MarkovPrior(kern, initial)), None
    if kind == "gauss_markov":
        nu = errs.expect(doc, path, "nu", (int, float), required=True)
        s0 = errs.expect(doc, path, "sigma0_sq", (int, float), required=True)
        if nu is None or s0 is None:
            return None, None
        return _built(errs, path, lambda: GaussMarkovPrior(float(nu), float(s0))), None
    if kind == "sparse_hmm":
        kappa = errs.expect(doc, path, "kappa", (int, float), required=True)
        gamma = errs.expect(doc, path, "gamma", (int, float), required=True)
        if kappa is None or gamma is None:
            return None, None
        return _built(errs, path, lambda: sparse_hmm_prior(float(kappa), float(gamma))), (float(kappa), float(gamma))
    if kind == "hidden_markov":
        kern = _build_transition(doc, path, errs)
        emis_doc = errs.expect(doc, path, "emissions", list, required=True)
        if kern is None or emis_doc is None:
            return None, None
        if len(emis_doc) != kern.dim:
            errs.add(f"{path}.emissions", f"{len(emis_doc)} emission laws for {kern.dim} states")
            return None, None
        laws = [_build_emission(e, f"{path}.emissions[{i}]", errs) for i, e in enumerate(emis_doc)]
        if any(l is None for l in laws):
            return None, None
        return _built(errs, path, lambda: HiddenMarkovPrior(kern, tuple(laws))), None
    errs.add(f"{path}.type", f"unknown prior type {kind!r}")
    return None, None


def _build_snr(doc, path, errs: _Collector):
    """The SNR law as (value, probability) pairs, checked by the rule ModelSpec applies."""
    if doc is None:
        doc = 1.0
    if isinstance(doc, list):
        for i, item in enumerate(doc):
            if not (isinstance(item, list) and len(item) == 2 and all(map(_is_finite_number, item))):
                errs.add(f"{path}[{i}]", "expected [value, probability] finite numbers")
                return None
    elif not _is_finite_number(doc):
        errs.add(path, "expected a finite number or a list of [value, probability] pairs")
        return None
    return _built(errs, path, lambda: _normalize_snr(doc))


def _build_betas(doc, errs: _Collector):
    if not isinstance(doc, dict):
        errs.add("sweep", "expected an object with betas or start/stop/step")
        return None
    if "betas" in doc:
        betas = doc["betas"]
        if not isinstance(betas, list) or not betas:
            errs.add("sweep.betas", "expected a nonempty list")
            return None
        if len(betas) > _MAX_SWEEP_POINTS:
            errs.add("sweep.betas", f"more than {_MAX_SWEEP_POINTS} betas")
            return None
        if not all(_is_finite_number(b) and b > 0 for b in betas):
            errs.add("sweep.betas", "beta values must be finite positive numbers")
            return None
        return tuple(sorted(float(b) for b in betas))
    start = doc.get("start")
    stop = doc.get("stop")
    step = doc.get("step")
    for key, v in (("start", start), ("stop", stop), ("step", step)):
        if not _is_finite_number(v):
            errs.add(f"sweep.{key}", "missing, non-numeric or not finite")
            return None
    if step <= 0:
        errs.add("sweep.step", "step must be > 0")
        return None
    if start <= 0 or stop < start:
        errs.add("sweep", "need 0 < start <= stop")
        return None
    span = (stop - start) / step  # may overflow to inf; the range has round(span) + 1 points
    if not span < _MAX_SWEEP_POINTS - 0.5:
        errs.add("sweep", f"start/stop/step give more than {_MAX_SWEEP_POINTS} points")
        return None
    count = int(round(span)) + 1
    betas = tuple(round(start + i * step, 12) for i in range(count) if start + i * step <= stop + 1e-9)
    if betas[0] <= 0:
        errs.add("sweep", f"start/stop/step round a beta to {betas[0]} at 12 decimals; need every beta > 0")
        return None
    if any(b <= a for a, b in zip(betas, betas[1:])):
        errs.add("sweep", "start/stop/step round two betas to one value at 12 decimals; need a larger step")
        return None
    return betas


def validate_config(document: dict) -> ExperimentConfig:
    """Parse and validate an experiment document; raises ConfigError listing
    every violation."""
    from .simulator import _over_budget
    from .solver import ModelSpec, _check_sigma

    errs = _Collector()
    if not isinstance(document, dict):
        raise ConfigError(["config: expected a JSON object"])
    version = errs.expect(document, "", "version", int, required=True)
    if version is not None and version != SCHEMA_VERSION:
        errs.add("version", f"unsupported schema version {version} (expected {SCHEMA_VERSION})")
    model_doc = errs.expect(document, "", "model", dict, required=True)
    model = None
    sparse_params = None
    if model_doc is not None:
        prior, sparse_params = _build_prior(model_doc.get("prior"), "model.prior", errs)
        postulated = None
        if "postulated_prior" in model_doc:
            postulated, _ = _build_prior(model_doc["postulated_prior"], "model.postulated_prior", errs)
        snr = _build_snr(model_doc.get("snr"), "model.snr", errs)
        sigma = errs.expect(model_doc, "model", "sigma", (int, float), default=1.0)
        sigma = _built(errs, "model.sigma", lambda: _check_sigma(sigma))
        if prior is not None and snr is not None and sigma is not None and not errs.errors:
            model = _built(
                errs, "model", lambda: ModelSpec(prior=prior, postulated_prior=postulated, snr=snr, sigma=float(sigma))
            )
    betas = _build_betas(document.get("sweep", {}), errs)
    tasks_doc = errs.expect(document, "", "tasks", list, default=["replica"])
    tasks = tuple(tasks_doc) if tasks_doc else ()
    if not tasks:
        errs.add("tasks", "at least one task required")
    for t in tasks:
        if t not in TASKS:
            errs.add("tasks", f"unknown task {t!r} (choose from {TASKS})")
    n = errs.expect(document, "", "n", int, default=0)
    trials = errs.expect(document, "", "trials", int, default=0)
    seed = errs.expect(document, "", "seed", int, default=0)
    if seed < 0:
        errs.add("seed", f"expected a non-negative integer, got {seed}")
    units = errs.expect(document, "", "units", str, default="nats")
    if units not in ("nats", "bits"):
        errs.add("units", f"units must be 'nats' or 'bits', got {units!r}")
    mh_doc = errs.expect(document, "", "mh", dict, default={})
    mh_steps = errs.expect(mh_doc, "mh", "steps", int, default=60_000)
    mh_burn = errs.expect(mh_doc, "mh", "burn_in", int, default=10_000)
    if not 0 <= mh_burn < mh_steps:
        errs.add("mh.burn_in", f"need 0 <= burn_in < steps, got burn_in={mh_burn}, steps={mh_steps}")
    amp_doc = errs.expect(document, "", "amp", dict, default={})
    amp_iter = errs.expect(amp_doc, "amp", "iterations", int, default=10)
    if amp_iter < 1:
        errs.add("amp.iterations", "need iterations >= 1")
    if amp_doc.get("scaling", "unit_columns") != "unit_columns":
        errs.add("amp.scaling", "only 'unit_columns' (A/sqrt(m) in every matrix step) is supported")
    if any(t in tasks for t in SIMULATION_TASKS):
        if n < 1:
            errs.add("n", "simulation tasks need n >= 1")
        if trials < 1:
            errs.add("trials", "simulation tasks need trials >= 1")
        elif trials < 2 and any(t in tasks for t in ("exact_sim", "mh")):
            errs.add("trials", "the exact_sim and mh tasks need trials >= 2 for a standard error")
    if "amp" in tasks and sparse_params is None and model is not None:
        errs.add("tasks", "the amp task requires a sparse_hmm prior")
    if model is not None:
        # exact_sim and mh work with the postulated posterior
        post = model.postulated
        if "exact_sim" in tasks:
            if isinstance(post, HiddenMarkovPrior):
                errs.add("tasks", "the exact_sim task requires a discrete or Gauss-Markov prior")
            elif isinstance(post, GaussMarkovPrior) and model.sigma != 1.0:
                errs.add("model.sigma", "the exact_sim task's Gauss-Markov closed form needs sigma = 1")
            elif isinstance(post, MarkovPrior) and n >= 1 and (reason := _over_budget(post.kernel.dim, n)):
                errs.add("n", f"exact_sim: {reason}")
        if "mh" in tasks:
            if not isinstance(post, MarkovPrior):
                errs.add("tasks", "the mh task requires a discrete Markov prior")
            elif post.kernel.dim < 2:
                errs.add("tasks", "the mh task needs a chain of at least two states: a one-state chain has no move")
    if errs.errors:
        raise ConfigError(errs.errors)
    return ExperimentConfig(
        model=model,
        betas=betas,
        tasks=tasks,
        n=n,
        trials=trials,
        seed=seed,
        units=units,
        mh_steps=mh_steps,
        mh_burn_in=mh_burn,
        amp_iterations=amp_iter,
        sparse_hmm_params=sparse_params,
    )


def validate_rate_config(document: dict) -> tuple[QStateSpace, np.ndarray, np.ndarray]:
    """(coupling states, their irreducible transition matrix, q_target) of a
    ``pf rate`` document; raises ConfigError listing every violation.  The SNR
    law enters as its support: repeated values merged, zero-probability
    values dropped."""
    from .perron import MAX_NU, enumerate_q_states, q_transition_matrix

    if not isinstance(document, dict):
        raise ConfigError(["config: expected a JSON object"])
    errs = _Collector()
    version = errs.expect(document, "", "version", int, default=SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        errs.add("version", f"unsupported schema version {version} (expected {SCHEMA_VERSION})")
    chain = errs.expect(document, "", "chain", dict, required=True)
    kernel = None
    if chain is not None:
        chain = {"type": "discrete_markov", **chain}
        if chain["type"] not in ("binary_markov", "discrete_markov"):
            errs.add("chain.type", "expected 'binary_markov' or 'discrete_markov'")
        else:
            prior, _ = _build_prior(chain, "chain", errs)
            if prior is not None:
                kernel = prior.kernel
                _built(errs, "chain.states", kernel.state_values)
    nu = document.get("nu", 0)
    if not (isinstance(nu, int) and not isinstance(nu, bool) and 0 <= nu <= MAX_NU):
        errs.add("nu", f"expected an integer in [0, {MAX_NU}]")
        nu = None
    q_target = errs.expect(document, "", "q_target", list, required=True)
    if q_target is not None and nu is not None and not (
        len(q_target) == nu + 1
        and all(isinstance(row, list) and len(row) == nu + 1 and all(map(_is_finite_number, row)) for row in q_target)
    ):
        errs.add("q_target", f"expected a {nu + 1}x{nu + 1} matrix of finite numbers for nu={nu}")
    snr = _build_snr(document.get("snr"), "snr", errs)
    if errs.errors:
        raise ConfigError(errs.errors)
    support: dict[float, float] = {}
    for v, p in snr:
        if p > 0:
            support[v] = support.get(v, 0.0) + p
    # the only check left to fail is the chain's: its state values must be distinct
    space = _built(errs, "chain.states", lambda: enumerate_q_states(list(support), kernel.state_values(), nu))
    if space is None:
        raise ConfigError(errs.errors)
    try:
        base = q_transition_matrix(space, kernel, s_dist=tuple(support.items()))
    except IrreducibilityError:
        # an irreducible aperiodic chain always gives an irreducible coupling chain
        raise ConfigError([f"chain.transition: the chain is periodic, so its coupling chain at nu={nu} is reducible"]) from None
    return space, base, np.array(q_target, dtype=float)
