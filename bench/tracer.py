"""Outside-in tracing of replica_markov: wrap public functions, record spans.

Every hooked function is replaced at every module attribute that binds it
(``solver`` imports ``conditional_mse`` by name, ``cli`` imports
``free_energy`` and the oracle entry points by name), so a call is seen
whichever binding it goes through.  Spans are kept in memory as
``(id, name, start, end, parent, op)`` and written out when the run ends.

Operations are the unit of the end-to-end latency metrics: one sweep point
(``cli.compute_row``), one AMP sweep point (``amp.amp_experiment`` called by
``simulate amp``), or one ``pf`` call, opened by the runner.  Operation
boundaries are recorded in every run; layer spans only in traced rounds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

PACKAGE = "replica_markov"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


# -- hook-specific counters -------------------------------------------------


def _count_points(args, kwargs, attrs):
    """Replace mixture_expectation's integrand by one that counts its nodes."""
    fn = args[0] if args else kwargs.pop("fn")
    attrs["points"] = 0

    def counted(u):
        attrs["points"] += getattr(u, "size", 1)
        return fn(u)

    return (counted, *args[1:]), kwargs


def _rec_row(bound, result, attrs):
    attrs["index"] = bound["beta_index"]


def _rec_candidates(bound, result, attrs):
    attrs["candidates"] = len(result)


def _rec_enumeration(bound, result, attrs):
    inst = bound["inst"]
    attrs["paths"] = result.meta["paths"]
    attrs["flops"] = result.meta["paths"] * 2 * inst.n * inst.m


def _rec_mh(bound, result, attrs):
    attrs["updates"] = bound["instances"] * bound["steps"]
    attrs["accept"] = result[2]


def _rec_turbo(bound, result, attrs):
    m, n = bound["A"].shape
    attrs["flops"] = 4 * m * n * bound["config"].iterations


def _rec_amp(bound, result, attrs):
    attrs["gap_rel"] = (result.mean_mse - result.replica_mmse) / result.replica_mmse


def _rec_states(bound, result, attrs):
    attrs["states"] = result.size


def _rec_rate(bound, result, attrs):
    attrs["iterations"] = result.iterations
    attrs["converged"] = bool(result.converged)


@dataclass(frozen=True)
class Hook:
    module: str
    name: str
    op: bool = False  # opens an operation when none is open on the calling thread
    always: bool = False  # also installed in untraced rounds (operation timing, gate inputs)
    adapt: Callable | None = None  # (args, kwargs, attrs) -> (args, kwargs)
    record: Callable | None = None  # (bound arguments, result, attrs) -> None


HOOKS = (
    Hook("cli", "run_sweep"),
    Hook("cli", "compute_row", op=True, always=True, record=_rec_row),
    Hook("config", "validate_config"),
    Hook("solver", "free_energy"),
    Hook("solver", "solve_fixed_point", record=_rec_candidates),
    Hook("solver", "fixed_point_residual"),
    Hook("single_symbol", "mixture_expectation", adapt=_count_points),
    Hook("single_symbol", "conditional_mse"),
    Hook("single_symbol", "conditional_var"),
    Hook("single_symbol", "mean_square_posterior_mean"),
    Hook("single_symbol", "cross_entropy"),
    Hook("simulator", "sample_instance"),
    Hook("simulator", "exact_log_evidence_discrete", record=_rec_enumeration),
    Hook("simulator", "gaussian_log_evidence"),
    Hook("simulator", "mh_mse_experiment", always=True, record=_rec_mh),
    Hook("amp", "amp_experiment", op=True, always=True, record=_rec_amp),
    Hook("amp", "turbo_amp", record=_rec_turbo),
    Hook("amp", "sample_sparse_instance"),
    Hook("amp", "replica_mmse_reference"),
    Hook("perron", "enumerate_q_states", record=_rec_states),
    Hook("perron", "q_transition_matrix"),
    Hook("perron", "pf_decomposition"),
    Hook("perron", "pf_log_derivative"),
    Hook("perron", "rate_function", record=_rec_rate),
)


class Tracer:
    """Span recorder for one round.  Use as a context manager to install the hooks.

    Threads: spans on a thread with no open span (the ``run_sweep`` row pool)
    take as parent the innermost open span of the thread that made the tracer.
    Shared state changes only through single calls that hold the GIL
    throughout (``next`` on ``itertools.count``, ``list.append``, dict item
    assignment), so no lock is taken: a lock here convoys the two row threads
    and nearly doubled a traced sweep's time.
    """

    def __init__(self, traced: bool, ids: itertools.count | None = None):
        self.traced = traced
        self.spans: list[Span] = []
        self.attrs: dict[int, dict] = {}
        self.ops: list[Span] = []
        self._ids = ids if ids is not None else itertools.count(1)  # share one to merge rounds
        self._local = threading.local()
        self._home = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: bool = False, record: bool = True):
        """Time a block.  ``op`` opens an operation if none is open here; ``record`` keeps a layer span."""
        stack = self._stack()
        outer = stack[-1] if stack else (self._home[-1] if self._home else None)
        parent, op_id = outer if outer else (None, None)
        sid = next(self._ids)
        opens = op and op_id is None
        if opens:
            op_id = sid
        attrs: dict = {}
        stack.append((sid, op_id))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            if record:
                self.spans.append(Span(sid, name, start, end, parent, op_id))
                if attrs:
                    self.attrs[sid] = attrs
            if opens:
                self.ops.append(Span(sid, name, start, end, None, op_id))

    def _wrap(self, hook: Hook, fn):
        name = f"{hook.module}.{hook.name}"
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name, op=hook.op, record=self.traced or hook.record is not None) as attrs:
                if hook.adapt is not None:
                    args, kwargs = hook.adapt(args, kwargs, attrs)
                result = fn(*args, **kwargs)
                if hook.record is not None:
                    hook.record(sig.bind(*args, **kwargs).arguments, result, attrs)
                return result

        return functools.wraps(fn)(wrapper)

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        mods = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for hook in HOOKS:
            if not (self.traced or hook.always):
                continue
            orig = getattr(importlib.import_module(f"{PACKAGE}.{hook.module}"), hook.name)
            wrapped = self._wrap(hook, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()
        return False


# -- span arithmetic ------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, lo, hi = 0.0, None, None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


CHANNEL = ("conditional_mse", "conditional_var", "mean_square_posterior_mean", "cross_entropy")

# (name, unit) of every per-layer metric, in report order.  Counts and times
# are per traced round; "_computed" units are derived from array shapes or
# arguments, not counted in the program.
LAYER_METRICS = (
    ("config.validate_s", "s"),
    ("cli.self_s", "s"),
    ("single_symbol.quad_calls", "count"),
    ("single_symbol.quad_points", "count_computed"),
    ("single_symbol.quad_s", "s"),
    ("single_symbol.channel_calls", "count"),
    ("single_symbol.channel_s", "s"),
    ("solver.solve_calls", "count"),
    ("solver.solve_s", "s"),
    ("solver.candidates", "count"),
    ("solver.verify_s", "s"),
    ("solver.assembly_s", "s"),
    ("simulator.instance_s", "s"),
    ("simulator.enum_s", "s"),
    ("simulator.enum_paths", "count"),
    ("simulator.enum_flops", "flop_computed"),
    ("simulator.gauss_s", "s"),
    ("simulator.mh_s", "s"),
    ("simulator.mh_updates", "count_computed"),
    ("simulator.mh_accept", "ratio"),
    ("simulator.gauss_gap_rel", "ratio"),
    ("amp.s", "s"),
    ("amp.iter_s", "s"),
    ("amp.instance_s", "s"),
    ("amp.reference_s", "s"),
    ("amp.gemv_flops", "flop_computed"),
    ("amp.mse_gap_rel", "ratio"),
    ("perron.states", "count"),
    ("perron.qtm_s", "s"),
    ("perron.pf_calls", "count"),
    ("perron.pf_s", "s"),
    ("perron.deriv_s", "s"),
    ("perron.rate_iters", "count"),
    ("perron.rate_converged_frac", "ratio"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans: list[Span], attrs: dict[int, dict], rounds: int) -> dict[str, float]:
    """Per-layer totals per traced round (ratios and means over all calls).

    ``trace.overhead_s`` and ``simulator.gauss_gap_rel`` are filled in by the runner.  A layer the workload
    does not exercise reports 0.
    """
    selft = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def incl(*names):
        return sum(s.end - s.start for n in names for s in by_name[n])

    def excl(*names):
        return sum(selft[s.id] for n in names for s in by_name[n])

    def total(name, key):
        return sum(attrs.get(s.id, {}).get(key, 0) for s in by_name[name])

    def mean(name, key, weight=None):
        vals = [attrs[s.id] for s in by_name[name] if s.id in attrs]
        if not vals:
            return 0.0
        if weight is None:
            return sum(float(v[key]) for v in vals) / len(vals)
        wsum = sum(v[weight] for v in vals)
        return sum(v[key] * v[weight] for v in vals) / wsum if wsum else 0.0

    channel = [f"single_symbol.{c}" for c in CHANNEL]
    per_round = {
        "config.validate_s": incl("config.validate_config"),
        "cli.self_s": excl("cli.run_sweep", "cli.compute_row"),
        "single_symbol.quad_calls": calls("single_symbol.mixture_expectation"),
        "single_symbol.quad_points": total("single_symbol.mixture_expectation", "points"),
        "single_symbol.quad_s": incl("single_symbol.mixture_expectation"),
        "single_symbol.channel_calls": sum(calls(c) for c in channel),
        "single_symbol.channel_s": incl(*channel),
        "solver.solve_calls": calls("solver.solve_fixed_point"),
        "solver.solve_s": incl("solver.solve_fixed_point"),
        "solver.candidates": total("solver.solve_fixed_point", "candidates"),
        "solver.verify_s": incl("solver.fixed_point_residual"),
        "solver.assembly_s": excl("solver.free_energy"),
        "simulator.instance_s": incl("simulator.sample_instance"),
        "simulator.enum_s": incl("simulator.exact_log_evidence_discrete"),
        "simulator.enum_paths": total("simulator.exact_log_evidence_discrete", "paths"),
        "simulator.enum_flops": total("simulator.exact_log_evidence_discrete", "flops"),
        "simulator.gauss_s": incl("simulator.gaussian_log_evidence"),
        "simulator.mh_s": excl("simulator.mh_mse_experiment"),
        "simulator.mh_updates": total("simulator.mh_mse_experiment", "updates"),
        "amp.s": incl("amp.amp_experiment"),
        "amp.iter_s": incl("amp.turbo_amp"),
        "amp.instance_s": incl("amp.sample_sparse_instance"),
        "amp.reference_s": incl("amp.replica_mmse_reference"),
        "amp.gemv_flops": total("amp.turbo_amp", "flops"),
        "perron.states": total("perron.enumerate_q_states", "states"),
        "perron.qtm_s": incl("perron.q_transition_matrix"),
        "perron.pf_calls": calls("perron.pf_decomposition"),
        "perron.pf_s": incl("perron.pf_decomposition"),
        "perron.deriv_s": incl("perron.pf_log_derivative"),
        "perron.rate_iters": total("perron.rate_function", "iterations"),
    }
    out = {k: v / max(rounds, 1) for k, v in per_round.items()}
    out["simulator.mh_accept"] = mean("simulator.mh_mse_experiment", "accept", weight="updates")
    out["amp.mse_gap_rel"] = mean("amp.amp_experiment", "gap_rel")
    out["perron.rate_converged_frac"] = mean("perron.rate_function", "converged")
    return {name: float(out.get(name, 0.0)) for name, _unit in LAYER_METRICS}
