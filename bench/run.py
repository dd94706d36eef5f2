"""Benchmark of replica-markov, driven through its public entry point.

Usage (from the repository root):

    python3 bench/run.py --workload predict_matched --seed 1 --seconds 25 --trace 0

Each round runs one job of ``replica_markov.cli.main`` invocations generated
from ``(workload, seed, round)``; rounds repeat until ``--seconds`` is used up.
With ``--trace 0`` the last stdout line reports the end-to-end metrics
(BENCHMARK.json ``end_to_end``); with ``--trace 1`` every untraced round is
followed by the same round traced, and the line reports the per-layer
metrics.  Every operation's outputs go through the correctness gate
(gate.py); ``failed`` counts the operations that did not pass.  See
README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from gate import check_invocation, is_recorded, parse_csv, reference_key
from speed import SPEED_REF_S, speed_sample
from tracer import LAYER_METRICS, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, Invocation, round_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
# Speed samples (speed.py), taken SPEED_SAMPLES_PER_GAP times before each
# invocation and after the last one, untimed; see end_to_end.
SPEED_SAMPLES_PER_GAP = 4
END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_max_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def pin_blas():
    """One BLAS thread, set before the program (and numpy) is imported."""
    os.environ.update(BLAS_PINS)


def pin_cpu():
    """Run the benchmark, its threads and its set-up probes on one CPU.

    On the 2-vCPU machine the bounds were set on, each vCPU changes speed
    on its own.  With both in use, a ``--threads 2`` sweep's time followed
    neither vCPU's speed samples (log correlation 0.04 to 0.46) and spread
    0.35 over ten runs; on one vCPU it follows them as a one-thread call
    does (0.82).  The sweep's threads share the interpreter lock, so they
    lose little by sharing one CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_program():
    """replica_markov.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from replica_markov import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"replica_markov imported from {cli.__file__}, not {src}")
    return cli


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh interpreter and the slowdown it measured (setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, slow = proc.stdout.split()[-2:]
    return float(seconds), float(slow)


@dataclass
class RoundResult:
    wall: float  # sum of the invocations' times
    op_seconds: list[float]
    reasons: list[str]  # one per attempted operation, '' = passed
    outputs: list[str]  # CSV text of each invocation
    tracer: Tracer = field(repr=False)
    gauss_gaps: list[float] = field(default_factory=list)
    matched: int = 0  # invocations whose inputs have a recording
    call_seconds: list[float] = field(default_factory=list)
    call_slowdown: list[float] = field(default_factory=list)  # one per invocation, see slowdown()
    op_slowdown: list[float] = field(default_factory=list)  # that of each operation's invocation
    speed: list[float] = field(default_factory=list)  # every speed sample of the round

    def reference_wall(self) -> float:
        """The round's time with each invocation's divided by its slowdown."""
        return sum(t / f for t, f in zip(self.call_seconds, self.call_slowdown))

    def reference_ops(self) -> list[float]:
        return [t / f for t, f in zip(self.op_seconds, self.op_slowdown)]


def speed_gap() -> list[float]:
    """The speed samples taken between two invocations."""
    return [speed_sample() for _ in range(SPEED_SAMPLES_PER_GAP)]


def slowdown(before: list[float], after: list[float]) -> float:
    """How much slower than SPEED_REF_S the machine ran one invocation:
    the median of the speed samples taken just before and just after it."""
    return statistics.median(before + after) / SPEED_REF_S


def _run_invocation(cli, inv: Invocation, argv: list[str], tracer: Tracer) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), tracer.span("cli.main", op=inv.argv[0] == "pf", record=tracer.traced):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def _accepts(tracer: Tracer, spans, ops: int) -> list:
    """MH acceptance rate of each sweep point of one invocation (None if unseen)."""
    index = {s.op: tracer.attrs.get(s.id, {}).get("index") for s in spans if s.name == "cli.compute_row"}
    out = [None] * ops
    for s in spans:
        if s.name == "simulator.mh_mse_experiment" and "accept" in tracer.attrs.get(s.id, {}):
            i = index.get(s.op)
            if i is not None and i < ops:
                out[i] = tracer.attrs[s.id]["accept"]
    return out


def _gauss_gaps(inv: Invocation, text: str) -> list[float]:
    """Relative gap of Gauss-Markov exact evidence to the closed-form free energy (reported, not gated)."""
    from replica_markov.solver import gauss_markov_free_energy

    prior = (inv.config or {}).get("model", {}).get("prior", {})
    if inv.command != "simulate exact" or prior.get("type") != "gauss_markov":
        return []
    gaps = []
    for row in parse_csv(text):
        closed = gauss_markov_free_energy(float(row["achieved_beta"]), prior["sigma0_sq"])
        gaps.append((float(row["sim_free_energy"]) - closed) / abs(closed))
    return gaps


def run_round(
    cli, plan: list[Invocation], workdir: Path, reference: dict, traced: bool, ids=None, required=False
) -> RoundResult:
    """Run one round's invocations (timed), then gate every operation (untimed).

    With ``required`` every invocation must have a recording in ``reference``;
    one without fails all its operations.
    """
    calls = []
    for i, inv in enumerate(plan):
        argv = list(inv.argv)
        if inv.config is not None:
            cfg = workdir / f"{i}.json"
            cfg.write_text(json.dumps(inv.config))
            argv += ["--config", str(cfg)]
        out = workdir / f"{i}.csv"
        out.unlink(missing_ok=True)
        calls.append((inv, argv + ["--out", str(out)], out))
    tracer = Tracer(traced, ids)
    marks, call_seconds, op_counts = [], [], []
    speed = [speed_gap()]
    with tracer:
        for inv, argv, _out in calls:
            before, ops_before = len(tracer.spans), len(tracer.ops)
            start = time.perf_counter()
            code, stderr = _run_invocation(cli, inv, argv, tracer)
            call_seconds.append(time.perf_counter() - start)
            marks.append((code, stderr, before, len(tracer.spans)))
            op_counts.append(len(tracer.ops) - ops_before)
            speed.append(speed_gap())  # untimed
    reasons, outputs, gaps, matched = [], [], [], 0
    for (inv, _argv, out), (code, stderr, lo, hi) in zip(calls, marks):
        text = out.read_text() if out.exists() else ""
        outputs.append(text)
        recorded = reference.get(reference_key(inv.argv, inv.config))
        matched += recorded is not None
        got = check_invocation(inv, code, text, _accepts(tracer, tracer.spans[lo:hi], inv.ops), recorded)
        if code != 0 and stderr.strip():
            got = [f"{r}: {stderr.strip().splitlines()[-1]}" for r in got]
        if recorded is None and required:
            got = [r or "inputs of a recorded round have no recording in reference.json" for r in got]
        reasons += got
        if traced and code == 0:
            gaps += _gauss_gaps(inv, text)
    call_slowdown = [slowdown(speed[i], speed[i + 1]) for i in range(len(calls))]
    return RoundResult(
        sum(call_seconds), [s.end - s.start for s in tracer.ops], reasons, outputs, tracer, gaps, matched,
        call_seconds, call_slowdown, [f for f, n in zip(call_slowdown, op_counts) for _ in range(n)],
        [x for gap in speed for x in gap],
    )


def warmup_plan(plan: list[Invocation]) -> list[Invocation]:
    """The first invocation of each command: pays first-call costs (lazy imports, caches) before timing."""
    first = {}
    for inv in plan:
        first.setdefault(inv.command, inv)
    return list(first.values())


def end_to_end(rounds: list[RoundResult], setup: list[tuple[float, float]], normalize=True) -> dict[str, float]:
    """Medians over the run of times taken at the reference speed.

    The shared machine changes the speed it gives one vCPU by up to 2x,
    from one 40 ms sample to the next and for minutes at a time, so raw
    times of the same work spread past any useful bound.  Each invocation's
    time, and the time of each operation in it, is divided by the slowdown
    measured around it (see slowdown()); each set-up probe's by the one
    measured around the probe.  The speed samples run no program code, so a
    change to the program moves these times in full.  ``normalize=False``
    gives the same medians of the raw times.
    """
    def wall(r):
        return r.reference_wall() if normalize else r.wall

    def ops(r):
        # A round whose calls all failed before their first operation times as one operation.
        return (r.reference_ops() if normalize else r.op_seconds) or [wall(r)]

    return {
        "wall_s": statistics.median(wall(r) for r in rounds),
        "op_p50_s": statistics.median(t for r in rounds for t in ops(r)),
        "op_max_s": statistics.median(max(ops(r)) for r in rounds),
        "setup_s": statistics.median(t / (f if normalize else 1.0) for t, f in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain: list[RoundResult], traced: list[RoundResult]) -> dict[str, float]:
    spans = [s for r in traced for s in r.tracer.spans]
    attrs = {k: v for r in traced for k, v in r.tracer.attrs.items()}
    out = layer_metrics(spans, attrs, len(traced))
    out["trace.overhead_s"] = (
        statistics.median(r.reference_wall() for r in traced) - statistics.median(r.reference_wall() for r in plain)
    )
    gaps = [g for r in traced for g in r.gauss_gaps]
    out["simulator.gauss_gap_rel"] = statistics.fmean(gaps) if gaps else 0.0
    return out


def self_seconds(traced: list[RoundResult]) -> dict[str, float]:
    """Self time of every traced function, per traced round, largest first."""
    totals: dict[str, float] = {}
    for r in traced:
        own = self_times(r.tracer.spans)
        for s in r.tracer.spans:
            totals[s.name] = totals.get(s.name, 0.0) + own[s.id] / len(traced)
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def environment(speed: list[float]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "blas_pins": BLAS_PINS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "speed_ref_s": SPEED_REF_S,
        "speed_sample_s": dict(zip(("q1", "median", "q3"), statistics.quantiles(speed, n=4)), count=len(speed)),
    }


def _write_spans(path: Path, traced: list[RoundResult]):
    with gzip.open(path, "wt") as fh:
        for rnd, r in enumerate(traced):
            for s in r.tracer.spans:
                fh.write(json.dumps([rnd, *s]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "replica_markov" / "cli.py").is_file():
        sys.stderr.write(f"no replica_markov sources under {ROOT / 'src'}: run from a full checkout\n")
        return 2
    begin = time.perf_counter()
    pin_blas()
    pin_cpu()
    cli = import_program()
    ref_path = BENCH / "reference.json"
    reference = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    OUT.mkdir(exist_ok=True)

    setup: list[tuple[float, float]] = []
    plain: list[RoundResult] = []
    traced: list[RoundResult] = []
    ids = itertools.count(1)
    steps: list[float] = []
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        warmup = run_round(
            cli, warmup_plan(round_plan(args.workload, args.seed, 0)), Path(work), reference, False,
            required=is_recorded(args.seed, 0),
        )
        # Everything, set-up probes included, fits in --seconds: a round starts
        # only if it is expected to end in time (one always runs).  One probe
        # per round spreads the set-up samples over the run; a traced run
        # reports no set-up time and takes none.
        while not steps or time.perf_counter() - begin + statistics.median(steps) <= args.seconds:
            t0 = time.perf_counter()
            if not args.trace and len(setup) < SETUP_PROBES:
                setup.append(measure_setup(args.workload, args.seed))
            plan = round_plan(args.workload, args.seed, len(steps))
            required = is_recorded(args.seed, len(steps))
            plain.append(run_round(cli, plan, Path(work), reference, traced=False, required=required))
            if args.trace:
                traced.append(run_round(cli, plan, Path(work), reference, traced=True, ids=ids, required=required))
            steps.append(time.perf_counter() - t0)
    if not args.trace:
        setup += [measure_setup(args.workload, args.seed) for _ in range(SETUP_PROBES - len(setup))]

    reasons = [x for r in [warmup, *plain, *traced] for x in r.reasons]
    calls = sum(len(r.outputs) for r in [warmup, *plain, *traced])
    matched = sum(r.matched for r in [warmup, *plain, *traced])
    failed = [x for x in reasons if x]
    extra = {}
    if args.trace:
        metrics = per_layer(plain, traced)
        units = dict(LAYER_METRICS)
        extra["self_s_per_round"] = self_seconds(traced)
        _write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz", traced)
    else:
        metrics = end_to_end(plain, setup)
        extra["raw"] = end_to_end(plain, setup, normalize=False)
        extra["call_slowdown"] = [r.call_slowdown for r in plain]
        units = dict(END_TO_END)
    env = environment([x for r in [*plain, *traced] for x in r.speed])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(plain),
        "operations": len(reasons),
        "failed_frac": len(failed) / len(reasons),
        "reference_matched": [matched, calls],
        "round_wall_s": [r.wall for r in plain],
        "op_seconds": [d for r in plain for d in r.op_seconds],
        "setup_s": setup,
        "env": env,
        "failures": failed[:50],
        **extra,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "metrics": metrics}, indent=1)
    )
    for reason in failed[:20]:
        sys.stderr.write(f"failed: {reason}\n")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} rounds, {len(reasons)} operations")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':32s} {summary['failed_frac']:14.6g} ratio ({len(failed)}/{len(reasons)})")
    print(f"reference: {matched} of {calls} invocations compared with recorded outputs")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(reasons),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
