"""Experiment orchestration and the command-line interface.

Subcommands: ``replica sweep``, ``simulate exact``, ``simulate mh``,
``simulate amp``, ``pf deriv-check``, ``pf rate``.  Every subcommand takes
``--seed`` and ``--out``, and accepts ``--threads`` for old command lines
but ignores it: rows run one after another in one thread, after one
lockstep solve of every row's replica prediction.  ``replica
sweep`` likewise ignores ``--verify``: every fixed point it reports has
already passed the solver's residual check.  Results are CSV
(RFC 4180); reruns with the same config and seed are byte-identical.  Exit
codes: 0 success, 2 validation error (naming the JSON path), 3 numeric
failure.

Each subcommand imports the layers it runs when it runs them: ``pf`` loads
``perron`` and no solver, ``replica sweep`` loads ``solver`` and no other
oracle than ``simulator``.  ``simulator`` stays a module-level import because
``bench/tracer.py`` wraps only modules loaded before a round starts, and its
MH-acceptance gate reads ``simulator.mh_mse_experiment``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

# One BLAS thread unless the environment names another count: the thread
# count moves the last digits of a result, and the golden files under
# tests/data were written with one.  BLAS reads these when numpy loads.
for _blas_threads in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_blas_threads, "1")

import numpy as np  # noqa: E402 - after the thread counts above

from .config import SIMULATION_TASKS, ConfigError, ExperimentConfig, validate_config, validate_rate_config  # noqa: E402
from .markov_core import binary_markov_kernel  # noqa: E402
from .simulator import empirical_free_energy, measurement_count, mh_mse_experiment, sample_instance  # noqa: E402

if TYPE_CHECKING:
    from .amp import AmpConfig
    from .solver import ReplicaSolution

_LN2 = math.log(2.0)


@dataclass
class ResultRow:
    beta: float
    eta: float | None = None
    xi: float | None = None
    free_energy: float | None = None
    mutual_info: float | None = None
    mmse: float | None = None
    sim_free_energy: float | None = None
    sim_free_energy_stderr: float | None = None
    amp_mse: float | None = None
    amp_mse_stderr: float | None = None
    mh_mse: float | None = None
    mh_mse_stderr: float | None = None
    achieved_beta: float | None = None  # n / m after measurement-count rounding
    errors: str = ""


def _row_seed(seed: int, beta_index: int) -> int:
    return int(np.random.SeedSequence([seed, beta_index]).generate_state(1)[0])


def _units_factor(units: str) -> float:
    return 1.0 / _LN2 if units == "bits" else 1.0


def _amp_config(config: ExperimentConfig, beta_index: int) -> AmpConfig:
    from .amp import AmpConfig

    kappa, gamma = config.sparse_hmm_params
    return AmpConfig(
        kappa=kappa,
        gamma=gamma,
        n=config.n,
        beta=config.betas[beta_index],
        trials=config.trials,
        iterations=config.amp_iterations,
        seed=_row_seed(config.seed, beta_index),
    )


def _replica_beta(config: ExperimentConfig, beta_index: int) -> float:
    """The load a row's replica prediction is evaluated at: n/m when finite-n tasks run, else the requested beta."""
    beta = config.betas[beta_index]
    if any(t in config.tasks for t in SIMULATION_TASKS):
        return config.n / measurement_count(config.n, beta)
    return beta


def compute_row(config: ExperimentConfig, beta_index: int, replica: ReplicaSolution | Exception | None) -> ResultRow:
    """All requested tasks for one sweep point; task failures land in .errors.

    ``replica`` is the row's replica solution, or the exception of its solve,
    as ``run_sweep`` hands it over (None when the replica task is not
    requested): the row solves nothing itself.  When finite-n tasks run, the
    measurement count m = round(n/beta) makes the achieved load n/m differ
    from the requested beta; the replica prediction is evaluated at the
    achieved load so the row compares like with like, and the achieved value
    is emitted alongside.
    """
    beta = config.betas[beta_index]
    row = ResultRow(beta=beta)
    factor = _units_factor(config.units)
    failures = []
    replica_beta = _replica_beta(config, beta_index)
    if any(t in config.tasks for t in SIMULATION_TASKS):
        row.achieved_beta = replica_beta
    if isinstance(replica, Exception):
        failures.append(f"replica: {replica}")
    elif replica is not None:
        row.eta, row.xi = replica.eta, replica.xi
        row.free_energy = replica.free_energy * factor
        if replica.mutual_info is not None:
            row.mutual_info = replica.mutual_info * factor
        if replica.mmse is not None:
            row.mmse = replica.mmse
    if "exact_sim" in config.tasks:
        try:
            mean, se = empirical_free_energy(
                config.model, config.n, beta, config.trials, _row_seed(config.seed, beta_index)
            )
            row.sim_free_energy = mean * factor
            row.sim_free_energy_stderr = se * factor
        except Exception as exc:
            failures.append(f"exact_sim: {exc}")
    if "mh" in config.tasks:
        try:
            mse, se, _rate = mh_mse_experiment(
                config.model, config.n, beta, config.trials, config.mh_steps, config.mh_burn_in,
                _row_seed(config.seed, beta_index),
            )
            row.mh_mse, row.mh_mse_stderr = mse, se
        except Exception as exc:
            failures.append(f"mh: {exc}")
    if "amp" in config.tasks:
        from .amp import amp_experiment

        try:
            res = amp_experiment(_amp_config(config, beta_index), replica_reference=row.mmse)
            row.amp_mse, row.amp_mse_stderr = res.mean_mse, res.std_err
        except Exception as exc:
            failures.append(f"amp: {exc}")
    row.errors = "; ".join(failures)
    return row


def run_sweep(config: ExperimentConfig) -> list[ResultRow]:
    """One ResultRow per beta, ascending; deterministic for a given seed.

    The replica task solves every row in one lockstep solve
    (``solver.free_energies``) at the rows' replica betas, the achieved
    loads when finite-n tasks run, before any row's other tasks.  Each row
    then gets its own solution or the exception of its own solve; an error
    that stops the whole solve lands on every row.
    """
    indices = range(len(config.betas))
    replica: list = [None] * len(indices)
    if "replica" in config.tasks:
        from .solver import free_energies

        try:
            replica = free_energies(config.model, [_replica_beta(config, i) for i in indices])
        except Exception as exc:  # recorded on every row, the sweep continues
            replica = [exc] * len(indices)
    return [compute_row(config, i, replica[i]) for i in indices]


def rows_to_csv(rows: list[ResultRow]) -> str:
    names = [f.name for f in fields(ResultRow)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names)
    for row in rows:
        rec = []
        for name in names:
            val = getattr(row, name)
            if val is None:
                rec.append("")
            elif isinstance(val, float):
                rec.append(repr(float(val)))
            else:
                rec.append(val)
        writer.writerow(rec)
    return buf.getvalue()


def _write_out(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _load_config(path: str, seed_override: int | None, task_override=None) -> ExperimentConfig:
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):  # anything else is left for validate_config to reject
        if seed_override is not None:
            doc["seed"] = seed_override
        if task_override is not None:
            doc["tasks"] = list(task_override)
    return validate_config(doc)


def _dump_instances(config: ExperimentConfig, directory: str):
    os.makedirs(directory, exist_ok=True)
    for bi, beta in enumerate(config.betas):
        seed = _row_seed(config.seed, bi)
        for i in range(config.trials):
            inst = sample_instance(config.model, config.n, beta, seed, index=i)
            with open(os.path.join(directory, f"beta{bi}_inst{i}.json"), "w") as fh:
                fh.write(inst.to_json())


def _cmd_sweep(args, task: str | None = None) -> int:
    """``replica sweep``, or ``simulate exact|mh`` with the document's tasks replaced by ``task``."""
    config = _load_config(args.config, args.seed, task_override=None if task is None else [task])
    rows = run_sweep(config)
    _write_out(rows_to_csv(rows), args.out)
    if getattr(args, "dump_instances", None):
        _dump_instances(config, args.dump_instances)
    if any(row.errors for row in rows):
        sys.stderr.write("numeric failures: " + "; ".join(r.errors for r in rows if r.errors) + "\n")
        return 3
    return 0


def _cmd_simulate_amp(args) -> int:
    from .amp import amp_experiment

    config = _load_config(args.config, args.seed, task_override=["amp"])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["beta", "trial", "iteration", "mse"])
    for bi, beta in enumerate(config.betas):
        cfg = _amp_config(config, bi)
        res = amp_experiment(cfg)
        for t in range(cfg.trials):
            for it in range(cfg.iterations):
                writer.writerow([repr(beta), t, it + 1, repr(float(res.traces[t, it]))])
        sys.stderr.write(
            f"beta={beta}: mean final mse={res.mean_mse:.6g} (+-{res.std_err:.2g}), replica mmse={res.replica_mmse:.6g}\n"
        )
    _write_out(buf.getvalue(), args.out)
    return 0


def _random_q_setup(rng: np.random.Generator):
    """Random irreducible binary chain, its coupling chain at nu<=1, and a tilt."""
    from .perron import enumerate_q_states, q_transition_matrix

    nu = int(rng.integers(0, 2))
    alpha = float(rng.uniform(0.05, 0.95))
    delta = float(rng.uniform(0.05, 0.95))
    kern = binary_markov_kernel(alpha, delta)
    space = enumerate_q_states([1.0], [-1.0, 1.0], nu)
    base = q_transition_matrix(space, kern, ((1.0, 1.0),))
    t = 0.3 * rng.standard_normal((nu + 1, nu + 1))
    return space, base, 0.5 * (t + t.T)


def _cmd_pf_deriv_check(args) -> int:
    from .perron import log_pf_eigenvalue, pf_log_derivative

    if args.cases < 1:
        raise ConfigError([f"--cases: need at least 1 case, got {args.cases}"])
    if args.seed is not None and args.seed < 0:
        raise ConfigError([f"--seed: need a non-negative seed, got {args.seed}"])
    if not 0.0 < args.tol < math.inf:  # also rejects NaN
        raise ConfigError([f"--tol: need a finite tolerance > 0, got {args.tol}"])
    rng = np.random.Generator(np.random.Philox(args.seed if args.seed is not None else 0))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["case", "nu", "rel_err", "pass"])
    worst = 0.0
    h = 1e-5
    for case in range(args.cases):
        space, base, tilt = _random_q_setup(rng)
        d = space.nu + 1
        formula = pf_log_derivative(base, tilt, space)
        fd = np.zeros((d, d))
        for a in range(d):
            for b in range(d):
                e = np.zeros((d, d))
                e[a, b] = h
                fd[a, b] = (
                    log_pf_eigenvalue(base, tilt + e, space) - log_pf_eigenvalue(base, tilt - e, space)
                ) / (2 * h)
        rel = float(np.max(np.abs(formula - fd)) / max(np.max(np.abs(fd)), 1e-300))
        worst = max(worst, rel)
        writer.writerow([case, space.nu, repr(rel), rel < args.tol])
    _write_out(buf.getvalue(), args.out)
    sys.stderr.write(f"worst relative error: {worst:.3e} (tolerance {args.tol})\n")
    return 0 if worst < args.tol else 3


def _cmd_pf_rate(args) -> int:
    from .perron import rate_function

    with open(args.config) as fh:
        space, base, q_target = validate_rate_config(json.load(fh))
    res = rate_function(space, base, q_target)
    buf = io.StringIO()
    writer = csv.writer(buf)
    d = space.nu + 1
    header = ["value", "feasible", "converged", "gradient_norm", "iterations"]
    header += [f"tilt_{a}{b}" for a in range(d) for b in range(d)]
    writer.writerow(header)
    rec = [repr(res.value), res.feasible, res.converged, repr(res.gradient_norm), res.iterations]
    rec += [repr(float(v)) for v in res.tilt.ravel()]
    writer.writerow(rec)
    _write_out(buf.getvalue(), args.out)
    return 0


def _common_flags(p):
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=None, help="accepted and ignored: rows run in one thread")
    p.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache  # parse_args returns a fresh Namespace, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="replica-markov")
    sub = parser.add_subparsers(dest="group", required=True)

    replica = sub.add_parser("replica", help="replica predictions")
    rsub = replica.add_subparsers(dest="cmd", required=True)
    sweep = rsub.add_parser("sweep", help="sweep beta and run the configured tasks")
    sweep.add_argument("--config", required=True)
    sweep.add_argument(
        "--verify",
        action="store_true",
        help="accepted and ignored: every reported fixed point already passed the solver's residual check",
    )
    _common_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    simulate = sub.add_parser("simulate", help="simulation oracles")
    ssub = simulate.add_subparsers(dest="cmd", required=True)
    for task, name in (("exact_sim", "exact"), ("mh", "mh")):
        p = ssub.add_parser(name)
        p.add_argument("--config", required=True)
        if name == "exact":
            p.add_argument("--dump-instances", default=None, help="directory for instance JSON dumps")
        _common_flags(p)
        p.set_defaults(func=lambda a, t=task: _cmd_sweep(a, t))
    amp_p = ssub.add_parser("amp")
    amp_p.add_argument("--config", required=True)
    _common_flags(amp_p)
    amp_p.set_defaults(func=_cmd_simulate_amp)

    pf = sub.add_parser("pf", help="Perron-Frobenius checks")
    psub = pf.add_subparsers(dest="cmd", required=True)
    deriv = psub.add_parser("deriv-check")
    deriv.add_argument("--cases", type=int, default=20)
    deriv.add_argument("--tol", type=float, default=1e-6)
    _common_flags(deriv)
    deriv.set_defaults(func=_cmd_pf_deriv_check)
    rate = psub.add_parser("rate")
    rate.add_argument("--config", required=True)
    _common_flags(rate)
    rate.set_defaults(func=_cmd_pf_rate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for err in exc.errors:
            sys.stderr.write(f"config error: {err}\n")
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
