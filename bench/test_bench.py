"""Tests of the benchmark itself: generator, span arithmetic, gate, tracer, BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

import json

import pytest

import run
from gate import RECORDED_ROUNDS, RECORDED_SEEDS, check_invocation, compare_rows, parse_csv, reference_key
from tracer import LAYER_METRICS, Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, Invocation, round_plan

run.pin_blas()
CLI = run.import_program()


# -- generator -------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_configs(workload):
    assert round_plan(workload, 7, 0) == round_plan(workload, 7, 0)
    assert round_plan(workload, 7, 3) == round_plan(workload, 7, 3)
    assert round_plan(workload, 7, 0) != round_plan(workload, 8, 0)
    assert round_plan(workload, 7, 0) != round_plan(workload, 7, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_configs_validate(workload):
    from replica_markov.config import validate_config

    for seed in range(5):
        for inv in round_plan(workload, seed, 0):
            if inv.config is not None and "version" in inv.config:
                cfg = validate_config(inv.config)
                assert len(cfg.betas) == inv.ops


# -- span arithmetic ---------------------------------------------------------------


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span(1, "p", 0.0, 10.0, None, None),
        Span(2, "a", 1.0, 3.0, 1, None),
        Span(3, "b", 2.0, 5.0, 1, None),  # overlaps a (threaded rows)
        Span(4, "c", 8.0, 12.0, 1, None),  # runs past the parent's end
        Span(5, "d", 2.5, 2.75, 3, None),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 8.0))
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(3.0 - 0.25)
    assert st[5] == pytest.approx(0.25)


def test_layer_metrics_per_round():
    spans = [
        Span(1, "solver.free_energy", 0.0, 10.0, None, 1),
        Span(2, "solver.solve_fixed_point", 1.0, 6.0, 1, 1),
        Span(3, "single_symbol.mixture_expectation", 1.0, 2.0, 2, 1),
        Span(4, "single_symbol.cross_entropy", 7.0, 9.0, 1, 1),
        Span(5, "single_symbol.mixture_expectation", 7.5, 8.5, 4, 1),
    ]
    attrs = {2: {"candidates": 2}, 3: {"points": 192}, 5: {"points": 64}}
    m = layer_metrics(spans, attrs, rounds=2)
    assert set(m) == {name for name, _ in LAYER_METRICS}
    assert m["solver.assembly_s"] == pytest.approx((10.0 - 5.0 - 2.0) / 2)
    assert m["solver.solve_s"] == pytest.approx(5.0 / 2)
    assert m["solver.candidates"] == pytest.approx(1.0)
    assert m["single_symbol.quad_calls"] == pytest.approx(1.0)
    assert m["single_symbol.quad_points"] == pytest.approx(128.0)
    assert m["single_symbol.quad_s"] == pytest.approx((1.0 + 1.0) / 2)
    assert m["single_symbol.channel_s"] == pytest.approx(2.0 / 2)
    assert m["perron.pf_s"] == 0.0


# -- gate --------------------------------------------------------------------------

HEADER = "beta,eta,xi,free_energy,mutual_info,mmse,sim_free_energy,sim_free_energy_stderr,amp_mse,amp_mse_stderr,mh_mse,mh_mse_stderr,achieved_beta,errors\n"
GOOD = "0.75,0.8,0.8,1.7,0.3,0.45,,,,,,,,\n"
SWEEP = Invocation(("replica", "sweep"), {"version": 1}, ops=2, second_moment=1.0)


def _sweep(second_row: str) -> list[str]:
    return check_invocation(SWEEP, 0, HEADER + GOOD + second_row, [], None)


def test_gate_passes_good_rows():
    assert _sweep(GOOD) == ["", ""]


@pytest.mark.parametrize(
    "bad",
    [
        "1.5,1.2,1.2,1.7,0.3,0.45,,,,,,,,\n",  # eta above 1
        "1.5,0.6,0.6,nan,0.3,0.45,,,,,,,,\n",  # non-finite free energy
        "1.5,0.6,0.6,1.7,0.3,1.2,,,,,,,,\n",  # MMSE above E X^2
        "1.5,0.6,0.6,1.7,0.3,-0.1,,,,,,,,\n",  # negative MMSE
        "1.5,0.6,0.6,1.7,,,,,,,,,,\n",  # matched row without MMSE
        "1.5,,,,,,,,,,,,,replica: no fixed point\n",  # errors column
    ],
)
def test_gate_fails_injected_bad_row(bad):
    reasons = _sweep(bad)
    assert reasons[0] == "" and reasons[1] != ""


def test_gate_fails_every_op_on_nonzero_exit_or_missing_rows():
    assert all(check_invocation(SWEEP, 3, HEADER + GOOD + GOOD, [], None))
    assert all(check_invocation(SWEEP, 0, HEADER + GOOD, [], None))


def test_gate_compares_recorded_outputs_per_column():
    text = HEADER + GOOD + GOOD
    assert check_invocation(SWEEP, 0, text, [], text) == ["", ""]
    near = HEADER + GOOD + "0.75,0.8000000000001,0.8,1.7,0.3,0.45,,,,,,,,\n"
    assert check_invocation(SWEEP, 0, near, [], text) == ["", ""]
    off = HEADER + GOOD + "0.75,0.8001,0.8,1.7,0.3,0.45,,,,,,,,\n"
    assert check_invocation(SWEEP, 0, off, [], text)[1].startswith("row 0: eta")
    assert compare_rows(parse_csv(off), parse_csv(text)) != ""


def test_gate_mh_acceptance_and_rate_invariants():
    mh = Invocation(("simulate", "mh"), {"version": 1}, second_moment=1.0)
    row = HEADER + "1.0,,,,,,,,,,0.5,0.05,1.0,\n"
    assert check_invocation(mh, 0, row, [0.3], None) == [""]
    assert check_invocation(mh, 0, row, [None], None) != [""]
    assert check_invocation(mh, 0, row, [1.0], None) != [""]
    rate = Invocation(("pf", "rate"), {"chain": {}})
    head = "value,feasible,converged,gradient_norm,iterations,tilt_00\n"
    assert check_invocation(rate, 0, head + "0.01,True,True,1e-9,10,0.1\n", [], None) == [""]
    assert check_invocation(rate, 0, head + "0.01,True,False,1e-7,20000,0.1\n", [], None) != [""]
    assert check_invocation(rate, 0, head + "-0.01,True,True,1e-9,10,0.1\n", [], None) != [""]
    deriv = Invocation(("pf", "deriv-check"))
    assert check_invocation(deriv, 0, "case,nu,rel_err,pass\n0,1,2e-3,False\n", [], None) != [""]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recording_covers_every_recorded_round(workload):
    recorded = json.loads((run.BENCH / "reference.json").read_text())
    for seed in range(RECORDED_SEEDS):
        for rnd in range(RECORDED_ROUNDS):
            for inv in round_plan(workload, seed, rnd):
                assert reference_key(inv.argv, inv.config) in recorded, (seed, rnd, inv.argv)


def test_recorded_round_without_recording_fails(tmp_path):
    plan = [Invocation(("pf", "deriv-check", "--cases", "1", "--seed", "5"))]
    result = run.run_round(CLI, plan, tmp_path, {}, traced=False, required=True)
    assert result.matched == 0 and "no recording" in result.reasons[0]
    ref = {reference_key(plan[0].argv, None): result.outputs[0]}
    result = run.run_round(CLI, plan, tmp_path, ref, traced=False, required=True)
    assert result.matched == 1 and result.reasons == [""]


# -- tracer on the real program -----------------------------------------------------


def test_tracer_spans_threaded_sweep_and_restores_bindings(tmp_path):
    from replica_markov import single_symbol, solver

    inv = Invocation(
        ("replica", "sweep", "--threads", "2"),
        {"version": 1, "model": {"prior": {"type": "gauss_markov", "nu": 0.5, "sigma0_sq": 1.0}},
         "sweep": {"betas": [0.5, 1.0]}, "tasks": ["replica"]},
        ops=2, second_moment=4.0 / 3.0,
    )
    orig = solver.conditional_mse, single_symbol.mixture_expectation
    result = run.run_round(CLI, [inv], tmp_path, {}, traced=True)
    assert (solver.conditional_mse, single_symbol.mixture_expectation) == orig
    assert result.reasons == ["", ""]
    spans = result.tracer.spans
    sweep = next(s for s in spans if s.name == "cli.run_sweep")
    rows = [s for s in spans if s.name == "cli.compute_row"]
    assert len(rows) == 2 and all(r.parent == sweep.id for r in rows)
    assert {r.op for r in rows} == {r.id for r in rows} == {o.id for o in result.tracer.ops}
    quad = [s for s in spans if s.name == "single_symbol.mixture_expectation"]
    assert quad and all(s.op in {r.id for r in rows} for s in quad)
    m = layer_metrics(spans, result.tracer.attrs, 1)
    assert m["solver.solve_calls"] == 2 and m["single_symbol.quad_points"] > 0


def test_untraced_round_times_ops_without_layer_spans(tmp_path):
    plan = [Invocation(("pf", "deriv-check", "--cases", "1", "--seed", "5"))]
    result = run.run_round(CLI, plan, tmp_path, {}, traced=False)
    assert result.reasons == [""] and len(result.op_seconds) == 1 and result.tracer.spans == []


# -- end-to-end metrics ----------------------------------------------------------


def test_end_to_end_divides_each_time_by_the_slowdown_around_it():
    def round_at(f):  # a call at slowdown f with two operations, then one at the reference speed
        return run.RoundResult(
            2.0 * f + 1.0, [0.5 * f, 1.5 * f, 1.0], ["", "", ""], ["", ""], Tracer(False),
            call_seconds=[2.0 * f, 1.0], call_slowdown=[f, 1.0], op_slowdown=[f, f, 1.0],
        )

    rounds = [round_at(2.0), round_at(2.0), round_at(1.0)]
    setup = [(1.2, 2.0), (0.6, 1.0), (1.2, 2.0)]
    m = run.end_to_end(rounds, setup)
    assert (m["wall_s"], m["op_p50_s"], m["op_max_s"], m["setup_s"]) == pytest.approx((3.0, 1.0, 1.5, 0.6))
    raw = run.end_to_end(rounds, setup, normalize=False)
    assert (raw["wall_s"], raw["op_p50_s"], raw["op_max_s"], raw["setup_s"]) == pytest.approx((5.0, 1.0, 3.0, 1.2))


def test_slowdown_is_the_median_of_the_samples_around_a_call():
    ref = run.SPEED_REF_S
    assert run.slowdown([ref, 3 * ref], [2 * ref]) == pytest.approx(2.0)
    assert run.slowdown([ref], [ref]) == pytest.approx(1.0)


# -- BENCHMARK.json ------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
