import csv
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import replica_markov
from replica_markov import cli
from replica_markov.cli import ResultRow, build_parser, main, rows_to_csv, run_sweep
from replica_markov.config import ConfigError, validate_config
from replica_markov.markov_core import is_irreducible


def base_doc(**overrides):
    doc = {
        "version": 1,
        "model": {"prior": {"type": "binary_markov", "alpha": 0.3, "delta": 0.3}},
        "sweep": {"betas": [1.0]},
        "tasks": ["replica"],
        "n": 8,
        "trials": 10,
        "seed": 3,
    }
    doc.update(overrides)
    return doc


class TestValidateConfig:
    def test_missing_transition_row_names_path(self):
        doc = base_doc(
            model={
                "prior": {
                    "type": "discrete_markov",
                    "states": [-1, 1],
                    "transition": [[0.7, 0.3]],
                }
            }
        )
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert any("model.prior.transition[1]" in e for e in err.value.errors)

    def test_boundary_alpha_rejected_as_reducible(self):
        doc = base_doc(model={"prior": {"type": "binary_markov", "alpha": 0.0, "delta": 0.5}})
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert any("reducible" in e for e in err.value.errors)

    def test_sparse_hmm_document_gets_defaults(self):
        doc = base_doc(
            model={"prior": {"type": "sparse_hmm", "kappa": 0.3, "gamma": 0.8}},
            tasks=["replica", "amp"],
        )
        config = validate_config(doc)
        assert config.amp_iterations == 10
        assert config.units == "nats"
        assert config.sparse_hmm_params == (0.3, 0.8)

    def test_every_violation_reported_at_once(self):
        doc = base_doc(tasks=["bogus"], units="parsecs")
        doc["sweep"] = {"start": 2.0, "stop": 1.0, "step": 0.5}
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        joined = "\n".join(err.value.errors)
        assert "tasks" in joined and "units" in joined and "sweep" in joined

    def test_amp_task_needs_sparse_prior(self):
        doc = base_doc(tasks=["amp"])
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        assert any("sparse_hmm" in e for e in err.value.errors)

    def test_version_required(self):
        doc = base_doc()
        del doc["version"]
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_sweep_range_expansion(self):
        config = validate_config(base_doc(sweep={"start": 0.4, "stop": 1.2, "step": 0.4}))
        assert config.betas == (0.4, 0.8, 1.2)

    def test_hidden_markov_prior_document(self):
        doc = base_doc(
            model={
                "prior": {
                    "type": "hidden_markov",
                    "states": [0, 1],
                    "transition": [[0.76, 0.24], [0.56, 0.44]],
                    "emissions": [
                        [{"weight": 1.0, "type": "point", "x": 0.0}],
                        [{"weight": 1.0, "type": "gaussian", "mean": 0.0, "var": 1.0}],
                    ],
                }
            }
        )
        config = validate_config(doc)
        assert config.model is not None


class TestRunSweep:
    def test_replica_only_row_leaves_simulation_fields_empty(self):
        config = validate_config(base_doc())
        rows = run_sweep(config)
        assert len(rows) == 1
        row = rows[0]
        assert row.free_energy is not None and row.mutual_info is not None
        assert row.sim_free_energy is None and row.amp_mse is None and row.mh_mse is None
        assert row.errors == ""

    def test_rerun_is_byte_identical_and_thread_invariant(self):
        # a library caller may run sweeps on threads of its own
        config = validate_config(
            base_doc(sweep={"betas": [0.5, 1.0]}, tasks=["replica", "exact_sim"], n=8, trials=12)
        )
        a = rows_to_csv(run_sweep(config))
        out = []
        worker = threading.Thread(target=lambda: out.append(rows_to_csv(run_sweep(config))))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive() and len(out) == 1
        c = rows_to_csv(run_sweep(config))
        assert a == out[0] == c

    def test_rows_sorted_by_beta(self):
        config = validate_config(base_doc(sweep={"betas": [2.0, 0.5, 1.0]}))
        rows = run_sweep(config)
        assert [row.beta for row in rows] == [0.5, 1.0, 2.0]

    def test_bits_units_convert_log_quantities_only(self):
        nats = run_sweep(validate_config(base_doc()))[0]
        bits = run_sweep(validate_config(base_doc(units="bits")))[0]
        assert abs(bits.free_energy - nats.free_energy / math.log(2)) < 1e-12
        assert abs(bits.mutual_info - nats.mutual_info / math.log(2)) < 1e-12
        assert bits.mmse == nats.mmse

    def test_exact_sim_close_to_replica(self):
        config = validate_config(base_doc(tasks=["replica", "exact_sim"], n=10, trials=60))
        row = run_sweep(config)[0]
        assert abs(row.sim_free_energy - row.free_energy) < 5 * row.sim_free_energy_stderr + 0.05 * abs(row.free_energy)

    def test_grid_sweep_replica_tracks_enumeration(self):
        config = validate_config(
            base_doc(
                sweep={"start": 0.4, "stop": 2.0, "step": 0.2},
                tasks=["replica", "exact_sim"],
                n=12,
                trials=200,
                seed=20260809,
            )
        )
        rows = run_sweep(config)
        assert len(rows) == 9
        for row in rows:
            assert row.errors == ""
            rel = abs(row.free_energy - row.sim_free_energy) / abs(row.sim_free_energy)
            assert rel <= 0.05

    def test_mismatched_model_records_partial_failure(self):
        doc = base_doc()
        doc["model"]["sigma"] = 2.0  # mismatched: MI/MMSE not defined, F still is
        config = validate_config(doc)
        row = run_sweep(config)[0]
        assert row.free_energy is not None
        assert row.mutual_info is None and row.mmse is None
        assert row.errors == ""


@pytest.mark.parametrize("fault", ["residual", "quadrature", "xi"])
def test_a_failed_beta_fails_only_its_own_row(tmp_path, capsys, monkeypatch, fail_below_eta, fault):
    # beta=2 alone fails: at the residual check, or wherever a kernel call
    # (or, on a mismatched model, a postulated-noise solve) holds a point
    # below eta=0.4, which only its scan reaches (it starts at 1/3, the
    # others at 1/2 and 2/3)
    from replica_markov import solver

    model = base_doc()["model"]
    if fault == "residual":
        assess = solver._assess

        def faulty(model, beta, *rest):
            residual, *scores = assess(model, beta, *rest)
            return (residual + np.where(np.asarray(beta) == 2.0, 1.0, 0.0), *scores)

        monkeypatch.setattr(solver, "_assess", faulty)
    else:
        fail_below_eta(fault, 0.4)
    if fault == "xi":
        postulated = {"type": "discrete_markov", "states": [-1, 1], "transition": [[0.62, 0.38], [0.45, 0.55]]}
        model = {**model, "postulated_prior": postulated, "sigma": 1.2}

    def sweep(betas):
        cfg, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        cfg.write_text(json.dumps(base_doc(model=model, sweep={"betas": betas})))
        code = main(["replica", "sweep", "--config", str(cfg), "--out", str(out)])
        return code, list(csv.DictReader(out.read_text().splitlines()))

    code, rows = sweep([0.5, 1.0, 2.0])
    assert code == 3 and "numeric failures: replica: " in capsys.readouterr().err
    assert [r["errors"].startswith("replica: ") for r in rows] == [False, False, True]
    assert rows[0]["errors"] == rows[1]["errors"] == "" and rows[2]["eta"] == rows[2]["free_energy"] == ""
    message = {
        "residual": "no fixed point converged for beta=2.0",
        "quadrature": "no stable value below eta=0.4",
        "xi": "no xi solves the postulated-noise equation at beta=2.0",
    }[fault]
    assert message in rows[2]["errors"]
    for row in rows[:2]:
        code, (alone,) = sweep([float(row["beta"])])
        assert code == 0 and row.keys() == alone.keys()
        for key in ("beta", "eta", "xi", "free_energy", "mutual_info", "mmse"):
            got, want = row[key], alone[key]
            assert got == want == "" or abs(float(got) - float(want)) <= 1e-13 * abs(float(want))


class TestCsv:
    def test_header_and_empty_fields(self):
        text = rows_to_csv([ResultRow(beta=1.0, free_energy=1.5)])
        lines = text.strip().split("\r\n")
        assert lines[0].startswith("beta,eta,xi,free_energy,mutual_info,mmse,sim_free_energy")
        assert lines[1].split(",")[1] == ""  # eta empty

    def test_floats_round_trip(self):
        text = rows_to_csv([ResultRow(beta=1.0, free_energy=1.0 / 3.0)])
        value = text.strip().split("\r\n")[1].split(",")[3]
        assert float(value) == 1.0 / 3.0


class TestMainEntry:
    def test_validation_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(base_doc(tasks=["bogus"])))
        code = main(["replica", "sweep", "--config", str(cfg)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep_writes_csv(self, tmp_path):
        cfg = tmp_path / "ok.json"
        out = tmp_path / "rows.csv"
        cfg.write_text(json.dumps(base_doc()))
        code = main(["replica", "sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("beta,")

    def test_seed_override_changes_simulation(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(base_doc(tasks=["exact_sim"], n=8, trials=8)))
        out1, out2, out3 = (tmp_path / f"o{i}.csv" for i in range(3))
        assert main(["simulate", "exact", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "exact", "--config", str(cfg), "--seed", "99", "--out", str(out2)]) == 0
        assert main(["simulate", "exact", "--config", str(cfg), "--seed", "3", "--out", str(out3)]) == 0
        assert out1.read_text() != out2.read_text()
        assert out1.read_text() == out3.read_text()

    def test_simulate_amp_trace_schema(self, tmp_path):
        cfg = tmp_path / "amp.json"
        cfg.write_text(
            json.dumps(
                base_doc(
                    model={"prior": {"type": "sparse_hmm", "kappa": 0.3, "gamma": 0.8}},
                    tasks=["amp"],
                    n=100,
                    trials=2,
                    amp={"iterations": 4},
                )
            )
        )
        out = tmp_path / "trace.csv"
        assert main(["simulate", "amp", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "beta,trial,iteration,mse"
        assert len(lines) == 1 + 2 * 4

    def test_pf_deriv_check_passes(self, tmp_path):
        out = tmp_path / "pf.csv"
        code = main(["pf", "deriv-check", "--cases", "6", "--seed", "1", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "case,nu,rel_err,pass"
        assert all(line.endswith("True") for line in rows[1:])

    def test_pf_rate_runs(self, tmp_path):
        cfg = tmp_path / "rate.json"
        cfg.write_text(
            json.dumps(
                {
                    "version": 1,
                    "chain": {"type": "binary_markov", "alpha": 0.3, "delta": 0.3},
                    "nu": 1,
                    "snr": 1.0,
                    "q_target": [[1.0, 0.2], [0.2, 1.0]],
                }
            )
        )
        out = tmp_path / "rate.csv"
        assert main(["pf", "rate", "--config", str(cfg), "--out", str(out)]) == 0
        header, row = out.read_text().strip().splitlines()
        assert header.split(",")[:2] == ["value", "feasible"]
        assert float(row.split(",")[0]) >= 0.0

    def test_missing_config_file_exit_2(self):
        assert main(["replica", "sweep", "--config", "/nonexistent.json"]) == 2

    @staticmethod
    def fail_evidence(monkeypatch):
        # no document reaches a numeric failure of exact_sim since an enumeration over budget exits 2,
        # so the evidence raises as a numeric failure would
        from replica_markov import simulator

        def log_evidence(inst, model):
            raise FloatingPointError("overflow in the evidence")

        monkeypatch.setattr(simulator, "log_evidence", log_evidence)

    def test_numeric_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # a numeric failure is recorded per row and surfaces as exit 3
        self.fail_evidence(monkeypatch)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(base_doc(tasks=["replica", "exact_sim"], trials=2)))
        out = tmp_path / "rows.csv"
        code = main(["replica", "sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        body = out.read_text()
        assert "exact_sim: overflow in the evidence" in body  # failure recorded in the errors column
        assert body.splitlines()[1].split(",")[3] != ""  # replica fields still present

    def test_simulate_numeric_failure_reported_on_stderr(self, tmp_path, capsys, monkeypatch):
        # simulate shares replica sweep's report
        self.fail_evidence(monkeypatch)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(base_doc(tasks=["exact_sim"], trials=2)))
        assert main(["simulate", "exact", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 3
        assert "numeric failures: exact_sim: overflow in the evidence" in capsys.readouterr().err

    def test_simulate_mh_subcommand(self, tmp_path):
        cfg = tmp_path / "mh.json"
        cfg.write_text(json.dumps(base_doc(n=4, trials=4, mh={"steps": 3000, "burn_in": 500})))
        out = tmp_path / "mh.csv"
        assert main(["simulate", "mh", "--config", str(cfg), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[10] != ""  # mh_mse populated

    @pytest.mark.filterwarnings("error")
    def test_simulate_mh_zero_transition_chain_is_silent(self, tmp_path, capsys):
        # a uniform start can hold the forbidden transition 0.3 -> -1, where a move may have prior ratio 0/0
        prior = {
            "type": "discrete_markov",
            "states": [-1, 0.3, 1],
            "transition": [[0.6, 0.2, 0.2], [0, 0.5, 0.5], [0.2, 0.2, 0.6]],
        }
        cfg = tmp_path / "mh.json"
        cfg.write_text(json.dumps(base_doc(model={"prior": prior}, n=8, trials=16, mh={"steps": 400, "burn_in": 100})))
        out = tmp_path / "mh.csv"
        assert main(["simulate", "mh", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_text().splitlines()[1].split(",")[10] != ""

    def test_simulate_mh_rejects_a_one_state_chain(self, tmp_path, capsys):
        # the other commands run this chain; MH has no move to propose on it, so it is bad input, not exit 3
        prior = {"type": "discrete_markov", "states": [0.5], "transition": [[1.0]]}
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps(base_doc(model={"prior": prior}, n=4, trials=2, mh={"steps": 100, "burn_in": 10})))
        for argv in (["replica", "sweep"], ["simulate", "exact"]):
            assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 0
        assert main(["simulate", "mh", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 2
        assert "config error: tasks: the mh task needs a chain of at least two states" in capsys.readouterr().err

    def test_simulate_exact_rejects_an_enumeration_over_budget(self, tmp_path, capsys):
        # the document alone decides that 2^30 paths exceed the budget: bad input (exit 2), not a numeric failure
        cfg = tmp_path / "n30.json"
        cfg.write_text(json.dumps(base_doc(n=30, trials=2)))
        assert main(["simulate", "exact", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 2
        err = capsys.readouterr().err
        assert "config error: n: exact_sim: 2^30 = 1073741824 paths exceeds the 16777216-path enumeration budget" in err
        ternary = {"type": "discrete_markov", "states": [-1, 0, 1], "transition": [[0.5, 0.25, 0.25]] * 3}
        tasks = {"tasks": ["exact_sim"], "trials": 2}
        validate_config(base_doc(n=24, **tasks))  # 2^24 paths: the budget itself
        validate_config(base_doc(model={"prior": ternary}, n=15, **tasks))  # 3^15 = 14348907
        for doc, want in (
            (base_doc(model={"prior": ternary}, n=16, **tasks), "3^16 = 43046721 paths"),
            (base_doc(n=10**9, **tasks), "2^1000000000 paths"),  # no 2^n of a huge n is computed
        ):
            with pytest.raises(ConfigError, match=r"n: exact_sim: " + want.replace("^", r"\^")):
                validate_config(doc)
        # a Gauss-Markov prior has a closed form, and the replica task enumerates nothing
        validate_config(base_doc(model={"prior": {"type": "gauss_markov", "nu": 0.5, "sigma0_sq": 1.0}}, n=30, **tasks))
        validate_config(base_doc(n=30))

    def test_instance_dump_round_trips(self, tmp_path):
        from replica_markov.simulator import LinearModelInstance

        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(base_doc(tasks=["exact_sim"], n=6, trials=2)))
        dump = tmp_path / "instances"
        out = tmp_path / "rows.csv"
        code = main(
            ["simulate", "exact", "--config", str(cfg), "--out", str(out), "--dump-instances", str(dump)]
        )
        assert code == 0
        files = sorted(dump.iterdir())
        assert len(files) == 2
        inst = LinearModelInstance.from_json(files[0].read_text())
        assert inst.n == 6

    def test_threads_flag_is_ignored(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps(base_doc(sweep={"betas": [0.5, 1.0]})))
        plain, threaded = tmp_path / "plain.csv", tmp_path / "threaded.csv"
        assert main(["replica", "sweep", "--config", str(cfg), "--out", str(plain)]) == 0
        assert main(["replica", "sweep", "--config", str(cfg), "--threads", "2", "--out", str(threaded)]) == 0
        assert plain.read_bytes() == threaded.read_bytes()

    def test_verify_flag_is_ignored(self, tmp_path):
        # every fixed point free_energy reports has passed the solver's residual check
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps(base_doc(sweep={"betas": [0.5, 1.0]})))
        plain, verified = tmp_path / "plain.csv", tmp_path / "verified.csv"
        assert main(["replica", "sweep", "--config", str(cfg), "--out", str(plain)]) == 0
        assert main(["replica", "sweep", "--config", str(cfg), "--verify", "--out", str(verified)]) == 0
        assert plain.read_bytes() == verified.read_bytes()

    @pytest.mark.parametrize(
        "flag,value",
        [("--cases", "0"), ("--cases", "-2"), ("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--seed", "-1")],
        ids=["0", "-2", "tol-nan", "tol--1", "tol-0", "seed--1"],
    )
    def test_pf_deriv_check_needs_a_case(self, capsys, flag, value):
        # a case count below 1, a tolerance that is not finite and > 0, or a
        # negative seed is bad input, not a numeric failure
        assert main(["pf", "deriv-check", flag, value]) == 2
        assert f"config error: {flag}:" in capsys.readouterr().err


PRIOR_DOCS = {
    "discrete": base_doc()["model"]["prior"],
    "gauss": {"type": "gauss_markov", "nu": 0.5, "sigma0_sq": 1.0},
    "hmm": {"type": "sparse_hmm", "kappa": 0.3, "gamma": 0.5},
}
BAD_EXPERIMENTS = {
    "snr-string": ("model.snr[0]", {"model": {"prior": base_doc()["model"]["prior"], "snr": [["a", 1.0]]}}),
    "snr-null": ("model.snr[0]", {"model": {"prior": base_doc()["model"]["prior"], "snr": [[None, 1.0]]}}),
    "snr-infinite": ("model.snr", {"model": {"prior": base_doc()["model"]["prior"], "snr": math.inf}}),
    "snr-off-stochastic": (
        "model.snr",
        {"model": {"prior": base_doc()["model"]["prior"], "snr": [[1.0, 0.3], [2.0, 0.3]]}},
    ),
    "initial-string": (
        "model.prior.initial",
        {"model": {"prior": {"type": "discrete_markov", "states": [-1, 1],
                             "transition": [[0.7, 0.3], [0.3, 0.7]], "initial": ["a", "b"]}}},
    ),
    "initial-nan": (
        "model.prior.initial",
        {"model": {"prior": {"type": "discrete_markov", "states": [-1, 1],
                             "transition": [[0.7, 0.3], [0.3, 0.7]], "initial": [math.nan, 1.0]}}},
    ),
    "initial-off-simplex": (
        "model.prior.initial",
        {"model": {"prior": {"type": "discrete_markov", "states": [-1, 1],
                             "transition": [[0.7, 0.3], [0.3, 0.7]], "initial": [0.5, 0.6]}}},
    ),
    "hidden-reducible": (
        "model.prior.transition",
        {"model": {"prior": {"type": "hidden_markov", "states": [0, 1], "transition": [[1, 0], [0, 1]],
                             "emissions": [[{"weight": 1.0, "type": "point", "x": 0.0}],
                                           [{"weight": 1.0, "type": "gaussian", "var": 1.0}]]}}},
    ),
    "postulated-hidden-reducible": (
        "model.postulated_prior.transition",
        {"model": {"prior": {"type": "sparse_hmm", "kappa": 0.3, "gamma": 0.5},
                   "postulated_prior": {"type": "hidden_markov", "states": [0, 1], "transition": [[1, 0], [0, 1]],
                                        "emissions": [[{"weight": 1.0, "type": "point", "x": 0.0}],
                                                      [{"weight": 1.0, "type": "gaussian", "var": 1.0}]]}}},
    ),
    "postulated-labels": (
        "model",
        {"model": {"prior": base_doc()["model"]["prior"],
                   "postulated_prior": {"type": "discrete_markov", "states": [0, 1],
                                        "transition": [[0.7, 0.3], [0.3, 0.7]]}}},
    ),
    "string-states": (
        "model",
        {"model": {"prior": {"type": "discrete_markov", "states": ["a", "b"],
                             "transition": [[0.7, 0.3], [0.3, 0.7]]}}},
    ),
    "amp-iterations": ("amp.iterations", {"amp": {"iterations": 0}}),
    "amp-scaling": ("amp.scaling", {"amp": {"scaling": "verbatim"}}),
    "mh-burn-in": ("mh.burn_in", {"mh": {"steps": 10, "burn_in": 20}}),
    "exact-sparse-hmm": (
        "tasks",
        {"model": {"prior": {"type": "sparse_hmm", "kappa": 0.3, "gamma": 0.5}}, "tasks": ["exact_sim"]},
    ),
    "exact-hidden-markov": (
        "tasks",
        {"model": {"prior": {"type": "hidden_markov", "states": [0, 1], "transition": [[0.7, 0.3], [0.3, 0.7]],
                             "emissions": [[{"weight": 1.0, "type": "point", "x": 0.0}],
                                           [{"weight": 1.0, "type": "gaussian", "var": 1.0}]]}},
         "tasks": ["exact_sim"]},
    ),
    "exact-gauss-markov-sigma": (
        "model.sigma",
        {"model": {"prior": {"type": "gauss_markov", "nu": 0.5, "sigma0_sq": 1.0}, "sigma": 1.2},
         "tasks": ["exact_sim"]},
    ),
    "mh-gauss-markov": (
        "tasks",
        {"model": {"prior": {"type": "gauss_markov", "nu": 0.5, "sigma0_sq": 1.0}}, "tasks": ["mh"]},
    ),
    # a postulated prior of another family than the true prior
    **{
        f"postulated-{true}-{post}": ("model", {"model": {"prior": PRIOR_DOCS[true], "postulated_prior": PRIOR_DOCS[post]}})
        for true, post in itertools.permutations(PRIOR_DOCS, 2)
    },
    # JSON's NaN, Infinity and 1e400 parse as floats; each is rejected where its value is checked
    "betas-nan": ("sweep.betas", {"sweep": {"betas": [math.nan]}}),
    "betas-infinite": ("sweep.betas", {"sweep": {"betas": [math.inf]}}),
    "stop-infinite": ("sweep.stop", {"sweep": {"start": 0.5, "stop": math.inf, "step": 0.5}}),
    "step-nan": ("sweep.step", {"sweep": {"start": 0.5, "stop": 1.0, "step": math.nan}}),
    "range-too-long": ("sweep", {"sweep": {"start": 0.1, "stop": 1e12, "step": 0.1}}),
    "range-overflows": ("sweep", {"sweep": {"start": 1e-300, "stop": 1e300, "step": 1e-300}}),
    # a list is capped at the range's _MAX_SWEEP_POINTS too
    "betas-too-many": ("sweep.betas", {"sweep": {"betas": [0.001 * (i + 1) for i in range(10_001)]}}),
    # the kernel checks the flip rates; the builder names the path
    "binary-alpha-one": ("model.prior", {"model": {"prior": {"type": "binary_markov", "alpha": 1.0, "delta": 0.3}}}),
    "sigma-infinite": ("model.sigma", {"model": {"prior": base_doc()["model"]["prior"], "sigma": math.inf}}),
    "sigma0-sq-infinite": (
        "model.prior",
        {"model": {"prior": {"type": "gauss_markov", "nu": 0.5, "sigma0_sq": math.inf}}},
    ),
    "emission-var-infinite": (
        "model.prior.emissions[1][0]",
        {"model": {"prior": {"type": "hidden_markov", "states": [0, 1], "transition": [[0.7, 0.3], [0.3, 0.7]],
                             "emissions": [[{"weight": 1.0, "type": "point", "x": 0.0}],
                                           [{"weight": 1.0, "type": "gaussian", "var": math.inf}]]}}},
    ),
    "point-x-nan": (
        "model.prior.emissions[0][0]",
        {"model": {"prior": {"type": "hidden_markov", "states": [0, 1], "transition": [[0.7, 0.3], [0.3, 0.7]],
                             "emissions": [[{"weight": 1.0, "type": "point", "x": math.nan}],
                                           [{"weight": 1.0, "type": "gaussian", "var": 1.0}]]}}},
    ),
    "emission-weight-nan": (
        "model.prior.emissions[0]",
        {"model": {"prior": {"type": "hidden_markov", "states": [0, 1], "transition": [[0.7, 0.3], [0.3, 0.7]],
                             "emissions": [[{"weight": math.nan, "type": "point", "x": 0.0}],
                                           [{"weight": 1.0, "type": "gaussian", "var": 1.0}]]}}},
    ),
    "states-infinite": (
        "model",
        {"model": {"prior": {"type": "discrete_markov", "states": [-1, math.inf],
                             "transition": [[0.7, 0.3], [0.3, 0.7]]}}},
    ),
    "transition-nan": (
        "model.prior.transition",
        {"model": {"prior": {"type": "discrete_markov", "states": [-1, 1],
                             "transition": [[math.nan, 1.0], [0.3, 0.7]]}}},
    ),
    "seed-negative": ("seed", {"seed": -1}),
    # rounded to 12 decimals, both betas of this range are 0
    "range-rounds-to-zero": ("sweep", {"sweep": {"start": 1e-13, "stop": 2e-13, "step": 1e-13}}),
    # rounded to 12 decimals, the four betas of this range are all 1e-12
    "range-rounds-to-one-beta": ("sweep", {"sweep": {"start": 1e-12, "stop": 1.3e-12, "step": 1e-13}}),
}


@pytest.mark.parametrize("path,overrides", BAD_EXPERIMENTS.values(), ids=BAD_EXPERIMENTS.keys())
def test_bad_experiment_exits_2_naming_its_path(tmp_path, capsys, path, overrides):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(base_doc(**overrides)))
    assert main(["replica", "sweep", "--config", str(cfg)]) == 2
    assert f"config error: {path}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["replica", "sweep", "--seed", "3"], ["simulate", "exact"], ["simulate", "mh"], ["simulate", "amp"]],
    ids=["replica-sweep-seed", "simulate-exact", "simulate-mh", "simulate-amp"],
)
def test_a_document_that_is_not_an_object_exits_2(tmp_path, capsys, argv):
    # the --seed and task overrides apply to an object only; a JSON array is bad input
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    assert main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: config:")


RATE_DOC = {
    "version": 1,
    "chain": {"type": "binary_markov", "alpha": 0.3, "delta": 0.3},
    "nu": 1,
    "snr": 1.0,
    "q_target": [[1.0, 0.2], [0.2, 1.0]],
}
BAD_RATES = {
    "target-shape": ("q_target", {"q_target": [[1]]}),
    "target-string": ("q_target", {"q_target": [[1.0, "a"], [0.2, 1.0]]}),
    "target-nan": ("q_target", {"q_target": [[1.0, math.nan], [0.2, 1.0]]}),
    "nu-large": ("nu", {"nu": 5}),
    "nu-negative": ("nu", {"nu": -1}),
    "nu-float": ("nu", {"nu": 1.5}),
    "snr-string": ("snr", {"snr": "a"}),
    "snr-pair-null": ("snr[0]", {"snr": [[None, 1.0]]}),
    "snr-negative": ("snr", {"snr": -1.0}),
    "snr-off-stochastic": ("snr", {"snr": [[1.0, 0.3], [2.0, 0.3]]}),
    "snr-negative-probability": ("snr", {"snr": [[1.0, 1.5], [2.0, -0.5]]}),
    "snr-nan-probability": ("snr[0]", {"snr": [[1.0, math.nan]]}),
    "snr-infinite": ("snr", {"snr": math.inf}),
    "chain-string-states": ("chain", {"chain": {"states": ["a", "b"], "transition": [[0.7, 0.3], [0.3, 0.7]]}}),
    "chain-repeated-state": (
        "chain.states",
        {"chain": {"states": [-1, 1, 1], "transition": [[0.6, 0.2, 0.2], [0.25, 0.5, 0.25], [0.2, 0.2, 0.6]]}},
    ),
    "chain-string-alpha": ("chain.alpha", {"chain": {"type": "binary_markov", "alpha": "a", "delta": 0.3}}),
    "chain-alpha-one": ("chain", {"chain": {"type": "binary_markov", "alpha": 1.0, "delta": 0.3}}),
    "chain-reducible": ("chain.transition", {"chain": {"states": [-1, 1], "transition": [[1, 0], [0, 1]]}}),
    "chain-periodic": ("chain.transition", {"chain": {"states": [-1, 1], "transition": [[0, 1], [1, 0]]}}),
    "chain-gauss-markov": ("chain.type", {"chain": {"type": "gauss_markov", "nu": 0.5, "sigma0_sq": 1.0}}),
}


@pytest.mark.parametrize("path,overrides", BAD_RATES.values(), ids=BAD_RATES.keys())
def test_bad_pf_rate_exits_2_naming_its_path(tmp_path, capsys, path, overrides):
    cfg = tmp_path / "rate.json"
    cfg.write_text(json.dumps({**RATE_DOC, **overrides}))
    assert main(["pf", "rate", "--config", str(cfg)]) == 2
    assert f"config error: {path}:" in capsys.readouterr().err


HMM_PRIOR = {
    "type": "hidden_markov", "states": [0, 1], "transition": [[0.7, 0.3], [0.3, 0.7]],
    "emissions": [[{"weight": 1.0, "type": "point", "x": 0.0}],
                  [{"weight": 1.0, "type": "gaussian", "mean": 0.0, "var": 1.0}]],
}


def with_field(doc: dict, keys: tuple, value) -> dict:
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


# JSON true and false load as Python bools, which are ints: each numeric field must still reject them
BOOLEAN_FIELDS = {
    "version": ("version", ("version",), base_doc()),
    "sigma": ("model.sigma", ("model", "sigma"), base_doc()),
    "n": ("n", ("n",), base_doc()),
    "seed": ("seed", ("seed",), base_doc()),
    "trials": ("trials", ("trials",), base_doc(tasks=["exact_sim"])),
    "mh-steps": ("mh.steps", ("mh", "steps"), base_doc(mh={"steps": 400, "burn_in": 0})),
    "amp-iterations": ("amp.iterations", ("amp", "iterations"), base_doc(amp={"iterations": 4})),
    "alpha": ("model.prior.alpha", ("model", "prior", "alpha"), base_doc()),
    "gamma": (
        "model.prior.gamma",
        ("model", "prior", "gamma"),
        base_doc(model={"prior": {"type": "sparse_hmm", "kappa": 0.3, "gamma": 0.5}}),
    ),
    "sigma0-sq": (
        "model.prior.sigma0_sq",
        ("model", "prior", "sigma0_sq"),
        base_doc(model={"prior": {"type": "gauss_markov", "nu": 0.5, "sigma0_sq": 1.0}}),
    ),
    **{
        f"emission-{key}": (
            f"model.prior.emissions[{i}][0].{key}",
            ("model", "prior", "emissions", i, 0, key),
            base_doc(model={"prior": HMM_PRIOR}),
        )
        for i, key in ((0, "weight"), (0, "x"), (1, "mean"), (1, "var"))
    },
    "rate-version": ("version", ("version",), RATE_DOC),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("path,keys,doc", BOOLEAN_FIELDS.values(), ids=BOOLEAN_FIELDS.keys())
def test_json_boolean_exits_2_naming_its_path(tmp_path, capsys, path, keys, doc, value):
    cfg = tmp_path / "bool.json"
    cfg.write_text(json.dumps(doc))
    command = ["pf", "rate"] if doc is RATE_DOC else ["replica", "sweep"]
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "ok.csv")]) == 0
    capsys.readouterr()
    cfg.write_text(json.dumps(with_field(doc, keys, value)))
    assert main([*command, "--config", str(cfg)]) == 2
    assert f"config error: {path}: expected " in capsys.readouterr().err


@pytest.mark.parametrize("task,command", [("exact_sim", "exact"), ("mh", "mh")])
def test_a_standard_error_needs_two_trials(tmp_path, capsys, task, command):
    cfg, out = tmp_path / "sim.json", tmp_path / "rows.csv"
    doc = base_doc(tasks=[task], n=4, mh={"steps": 400, "burn_in": 100})
    cfg.write_text(json.dumps({**doc, "trials": 1}))
    assert main(["simulate", command, "--config", str(cfg)]) == 2
    assert "config error: trials:" in capsys.readouterr().err
    cfg.write_text(json.dumps({**doc, "trials": 2}))
    assert main(["simulate", command, "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    stderr = row["sim_free_energy_stderr" if task == "exact_sim" else "mh_mse_stderr"]
    assert math.isfinite(float(stderr))


def test_amp_runs_a_single_trial():
    doc = base_doc(model={"prior": {"type": "sparse_hmm", "kappa": 0.3, "gamma": 0.8}}, tasks=["amp"], trials=1)
    assert validate_config(doc).trials == 1


def run_pf_rate(tmp_path, doc) -> tuple[int, bytes]:
    cfg, out = tmp_path / "rate.json", tmp_path / "rate.csv"
    cfg.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    code = main(["pf", "rate", "--config", str(cfg), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


DATA = Path(__file__).parent / "data"


# Recorded from the code before the Perron hot path was vectorized, with BLAS
# on one thread as conftest.py sets it (the thread count moves the last
# digits): the chain_ld chain and SNR law at the diagonal targets eps 0.14
# (nu=2) and 0.10 (nu=3, the CI smoke document), and a fixed deriv-check draw.
@pytest.mark.parametrize(
    "argv,golden",
    [
        (["pf", "rate", "--config", str(DATA / "pf_rate_nu2.json")], "pf_rate_nu2.csv"),
        (["pf", "rate", "--config", str(DATA / "pf_rate_nu3.json")], "pf_rate_nu3.csv"),
        (["pf", "deriv-check", "--cases", "4", "--seed", "7"], "pf_deriv_check.csv"),
    ],
    ids=["rate-nu2", "rate-nu3", "deriv-check"],
)
def test_pf_output_is_byte_identical_to_its_golden_file(tmp_path, argv, golden):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


# Recorded before the replica solve kept its root-finding bookkeeping in Python
# floats, with BLAS on one thread: the CI mismatched smoke document (binary
# prior, discrete_markov postulated prior, sigma 1.2), a matched binary sweep
# under a two-point SNR law and a sparse HMM sweep, each at beta 0.75 and 1.5.
# replica_amp, the sparse HMM sweep with its AMP columns (n=200, 2 trials, 5
# iterations), was recorded before the sweep's rows left the AMP reference to
# amp_experiment.
@pytest.mark.parametrize(
    "name", ["replica_mismatched", "replica_binary_two_snr", "replica_sparse_hmm", "replica_amp"]
)
def test_replica_sweep_is_byte_identical_to_its_golden_file(tmp_path, name):
    out = tmp_path / "out.csv"
    assert main(["replica", "sweep", "--config", str(DATA / f"{name}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


# Recorded before the MH sampler dropped its sample log: the CI smoke_mh
# ternary chain with a zero transition, 16 trials of 400 steps.
def test_simulate_mh_is_byte_identical_to_its_golden_file(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["simulate", "mh", "--config", str(DATA / "simulate_mh.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "simulate_mh.csv").read_bytes()


# Recorded before the Gauss-Markov covariance was gathered from its n lag
# powers: the closed-form evidence (nu 0.5, n=64, 4 trials, betas 0.5 and
# 1.5) and the meet-in-the-middle enumeration (binary flip 0.3, n=12, 4 trials).
@pytest.mark.parametrize("name", ["simulate_exact_gauss", "simulate_exact_binary"])
def test_simulate_exact_is_byte_identical_to_its_golden_file(tmp_path, name):
    out = tmp_path / "out.csv"
    assert main(["simulate", "exact", "--config", str(DATA / f"{name}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


def test_pf_rate_reduces_the_snr_law_to_its_support(tmp_path):
    code, merged = run_pf_rate(tmp_path, {**RATE_DOC, "snr": [[1.0, 0.5], [2.0, 0.5]]})
    assert code == 0
    assert run_pf_rate(tmp_path, {**RATE_DOC, "snr": [[1.0, 0.25], [1.0, 0.25], [2.0, 0.5]]}) == (0, merged)
    assert run_pf_rate(tmp_path, {**RATE_DOC, "snr": [[1.0, 0.5], [1.0, 0.3], [2.0, 0.2]]})[0] == 0
    code, single = run_pf_rate(tmp_path, RATE_DOC)
    assert run_pf_rate(tmp_path, {**RATE_DOC, "snr": [[1.0, 1.0], [2.0, 0.0]]}) == (0, single)


def test_pf_rate_survives_a_stalled_power_iteration(tmp_path):
    # Newton tilts this coupling chain until rho is far below the largest
    # entry, where the shifted power iteration stalls; the target is infeasible
    chain = {"states": [-1, 0, 1], "transition": [[0.25, 0.75, 0.0], [0.25, 0.0, 0.75], [1.0, 0.0, 0.0]]}
    code, out = run_pf_rate(tmp_path, {"chain": chain, "nu": 1, "q_target": [[1.0, 0.25], [0.25, 1.0]]})
    assert code == 0
    assert out.splitlines()[1].split(b",")[:3] == [b"inf", b"False", b"False"]


def test_pf_rate_reports_a_near_periodic_target_unconverged(tmp_path):
    # the dual supremum lies at infinity: Newton's tilts drive the coupling
    # chain towards periodic, where the power iteration stalls on most triples
    chain = {"states": [-1, 0, 1], "transition": [[0.5, 0.0, 0.5], [0.5, 0.0, 0.5], [0.25, 0.5, 0.25]]}
    code, out = run_pf_rate(tmp_path, {"chain": chain, "nu": 1, "snr": 2.0, "q_target": [[1.0, 0.25], [0.25, 1.0]]})
    assert code == 0
    value, feasible, converged = out.splitlines()[1].split(b",")[:3]
    assert (feasible, converged) == (b"True", b"False")
    assert abs(float(value) - math.log(4.0)) < 1e-6


def test_one_parser_serves_every_call_without_carrying_options(tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(base_doc()))

    def run(argv) -> bytes:
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    exact = ["simulate", "exact", "--config", str(cfg)]
    deriv = ["pf", "deriv-check", "--cases", "2"]
    # the second call of each pair omits an option the first one set
    pairs = [(run([*exact, "--seed", "5"]), run(exact)), (run([*deriv, "--seed", "5"]), run(deriv))]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    for (with_option, without), argv in zip(pairs, [exact, deriv]):
        assert without == run(argv) != with_option


def coupling_chain_irreducible(P, values, s_support, nu) -> bool:
    """Strong connectivity, by brute force, of the chain of (s, x_0..x_nu) tuples folded onto s x x^T."""
    tuples = [(s, np.array(xs)) for s in s_support for xs in itertools.product(range(len(values)), repeat=nu + 1)]
    keys = [(np.round(s * np.outer(values[xs], values[xs]), 12) + 0.0).tobytes() for s, xs in tuples]
    ids = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    adj = np.zeros((len(ids), len(ids)))
    for (_, xs), a in zip(tuples, keys):
        for (_, ys), b in zip(tuples, keys):
            if np.all(P[xs, ys] > 0):
                adj[ids[a], ids[b]] = 1.0
    return is_irreducible(adj)


QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)
SNR_VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0)
SNR_PROBS = (-0.5, 0.0, 0.25, 0.5, 1.0, 1.25)


def stochastic_vectors(k, entries):
    return [list(v) for v in itertools.product(entries, repeat=k) if sum(v) == 1.0]


@st.composite
def rate_documents(draw):
    # Half the documents draw a stochastic chain and a probability law, a quarter
    # then break the chain by redrawing one row freely, a quarter break the law by
    # drawing its values and probabilities freely; the test's oracle decides.  A
    # quarter of all documents repeat a state value.
    k, n, nu = draw(st.integers(2, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 1))
    broken = draw(st.sampled_from(["none", "none", "chain", "law"]))
    states = [-1, 1] if k == 2 else [-1, 0, 1]
    if draw(st.sampled_from([False, False, False, True])):
        states[0] = states[-1]
    rows = [draw(st.sampled_from(stochastic_vectors(k, QUARTERS))) for _ in range(k)]
    if broken == "chain":
        rows[draw(st.integers(0, k - 1))] = draw(st.lists(st.sampled_from(QUARTERS), min_size=k, max_size=k))
    if broken == "law":
        values = draw(st.lists(st.sampled_from(SNR_VALUES), min_size=n, max_size=n))
        probs = draw(st.lists(st.sampled_from(SNR_PROBS), min_size=n, max_size=n))
    else:
        values = draw(st.lists(st.sampled_from([v for v in SNR_VALUES if v > 0]), min_size=n, max_size=n))
        probs = draw(st.sampled_from(stochastic_vectors(n, SNR_PROBS)))
    return {
        "chain": {"states": states, "transition": rows},
        "nu": nu,
        "snr": [list(pair) for pair in zip(values, probs)],
        "q_target": [[1.0 if a == b else 0.25 for b in range(nu + 1)] for a in range(nu + 1)],
    }


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=rate_documents())
def test_pf_rate_exits_0_on_valid_input_and_2_otherwise(tmp_path, doc):
    P = np.array(doc["chain"]["transition"])
    chain_ok = np.all(P.sum(axis=1) == 1.0) and is_irreducible(P)
    chain_ok = chain_ok and len(set(doc["chain"]["states"])) == len(doc["chain"]["states"])
    law_ok = all(v > 0 and p >= 0 for v, p in doc["snr"]) and sum(p for _, p in doc["snr"]) == 1.0
    valid = chain_ok and law_ok and coupling_chain_irreducible(
        P, np.array(doc["chain"]["states"], float), {v for v, p in doc["snr"] if p > 0}, doc["nu"]
    )
    assert run_pf_rate(tmp_path, doc)[0] == (0 if valid else 2)


SWEEP_BETAS = (0.5, 1.0, 2.0)


@st.composite
def emission_laws(draw):
    """A mixture of 1-3 point or Gaussian components with weights in quarters."""
    weights = draw(st.sampled_from(stochastic_vectors(draw(st.integers(1, 3)), QUARTERS)))
    comps = []
    for w in weights:
        if draw(st.booleans()):
            comps.append({"weight": w, "type": "point", "x": draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]))})
        else:
            mean, var = draw(st.sampled_from([-1.0, 0.0, 1.0])), draw(st.sampled_from([0.25, 1.0]))
            comps.append({"weight": w, "type": "gaussian", "mean": mean, "var": var})
    return comps


@st.composite
def sweep_priors(draw, like=None):
    """A 2-3 state chain, a sparse HMM, a Gauss-Markov prior or a 2-3 state HMM (the family of ``like`` when given)."""
    kind = like["type"] if like else draw(st.sampled_from(["discrete_markov", "sparse_hmm", "gauss_markov", "hidden_markov"]))
    if kind in ("discrete_markov", "hidden_markov"):
        k = len(like["states"]) if like else draw(st.integers(2, 3))
        rows = [draw(st.sampled_from(stochastic_vectors(k, QUARTERS))) for _ in range(k)]
        if kind == "discrete_markov":
            return {"type": kind, "states": [-1, 1] if k == 2 else [-1, 0, 1], "transition": rows}
        return {"type": kind, "states": list(range(k)), "transition": rows, "emissions": [draw(emission_laws()) for _ in range(k)]}
    if kind == "sparse_hmm":
        kappa, gamma = draw(st.sampled_from([0.1, 0.3, 0.5])), draw(st.sampled_from([0.3, 0.8, 1.0]))
        return {"type": kind, "kappa": kappa, "gamma": gamma}
    nu, sigma0_sq = draw(st.sampled_from([0.2, 0.5, 0.8])), draw(st.sampled_from([0.5, 1.0]))
    return {"type": kind, "nu": nu, "sigma0_sq": sigma0_sq}


@st.composite
def sweep_documents(draw):
    prior = draw(sweep_priors())
    model = {"prior": prior, "sigma": draw(st.sampled_from([0.8, 1.0, 1.2]))}
    n = draw(st.integers(1, 2))
    values = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n, unique=True))
    model["snr"] = [[v, 1.0 / n] for v in values]
    if draw(st.booleans()):
        model["postulated_prior"] = draw(sweep_priors(like=prior))
    return {"version": 1, "model": model, "sweep": {"betas": list(SWEEP_BETAS)}, "tasks": ["replica"]}


def stationary_second_moment(prior) -> float:
    if prior["type"] == "sparse_hmm":
        return prior["kappa"]  # N(0, 1) emitted at the stationary activity rate
    if prior["type"] == "gauss_markov":
        return prior["sigma0_sq"] / (1.0 - prior["nu"] ** 2)
    P = np.array(prior["transition"])
    k = len(P)
    pi = np.linalg.lstsq(np.vstack([P.T - np.eye(k), np.ones(k)]), np.eye(k + 1)[k], rcond=None)[0]
    if prior["type"] == "hidden_markov":  # E[X^2] emitted by each hidden state
        moments = [
            sum(c["weight"] * (c["x"] ** 2 if c["type"] == "point" else c["mean"] ** 2 + c["var"]) for c in law)
            for law in prior["emissions"]
        ]
        return float(pi @ np.array(moments))
    return float(pi @ np.array(prior["states"], float) ** 2)


@settings(
    max_examples=80,  # about 20 documents of each prior kind
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=sweep_documents())
def test_replica_sweep_exits_0_or_2_and_rows_obey_invariants(tmp_path, doc):
    cfg, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    cfg.write_text(json.dumps(doc))
    code = main(["replica", "sweep", "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2)
    if code == 2:
        return
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [float(r["beta"]) for r in rows] == list(SWEEP_BETAS)
    assert all(0.0 < float(r["eta"]) <= 1.0 for r in rows)
    matched = [r for r in rows if r["mutual_info"]]
    second_moment = stationary_second_moment(doc["model"]["prior"])
    assert all(0.0 <= float(r["mmse"]) <= second_moment + 1e-12 for r in matched)
    mi = [float(r["mutual_info"]) for r in matched]
    assert all(a >= b - 1e-12 for a, b in zip(mi, mi[1:]))


def test_replica_sweep_with_a_deterministic_postulated_row_exits_0(tmp_path):
    # a valid document the property test's generator can draw (one in about 1500 in random runs); at
    # beta=2 the scan lowers eta to 0.05, where the decision function of the postulated row [1, 0] is
    # a steep step that the evenly spaced trapezoid nodes resolve
    prior = {"type": "discrete_markov", "states": [-1, 1], "transition": [[0.5, 0.5], [0.25, 0.75]]}
    postulated = {"type": "discrete_markov", "states": [-1, 1], "transition": [[0.5, 0.5], [1.0, 0.0]]}
    model = {"prior": prior, "sigma": 0.8, "snr": [[2.0, 1.0]], "postulated_prior": postulated}
    doc = {"version": 1, "model": model, "sweep": {"betas": list(SWEEP_BETAS)}, "tasks": ["replica"]}
    cfg, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    cfg.write_text(json.dumps(doc))
    assert main(["replica", "sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [float(r["beta"]) for r in rows] == list(SWEEP_BETAS)
    assert all(math.isfinite(float(r[col])) for r in rows for col in ("eta", "xi", "free_energy"))


def run_python(args: list[str], environ: dict | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter, importing this tree's replica_markov, run on ``args`` in ``environ`` (default ours)."""
    environ = os.environ if environ is None else environ
    src = str(Path(replica_markov.__file__).resolve().parents[1])
    env = {**environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    out = run_python(["-c", f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"])
    out.check_returncode()
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_cli_import_loads_no_scipy(tmp_path):
    # importing scipy (scipy.special alone) took about 0.3 s of every CLI call's set-up
    assert not any(m.split(".")[0] == "scipy" for m in loaded_modules("import replica_markov.cli"))
    # and every subcommand runs where scipy cannot be imported: the package needs numpy only
    sparse = {"prior": {"type": "sparse_hmm", "kappa": 0.3, "gamma": 0.8}}
    docs = {
        "replica sweep": base_doc(),
        "simulate exact": base_doc(n=4, trials=2),
        "simulate mh": base_doc(n=4, trials=2, mh={"steps": 200, "burn_in": 50}),
        "simulate amp": base_doc(model=sparse, n=50, trials=2, amp={"iterations": 2}),
        "pf rate": RATE_DOC,
    }
    out = ["--out", str(tmp_path / "out.csv")]
    calls = [["pf", "deriv-check", "--cases", "2", *out]]
    for command, doc in docs.items():
        cfg = tmp_path / f"{command.replace(' ', '_')}.json"
        cfg.write_text(json.dumps(doc))
        calls.append([*command.split(), "--config", str(cfg), *out])
    block = "import sys\nsys.modules['scipy'] = None\n"
    run = run_python(["-c", f"{block}from replica_markov.cli import main\nprint([main(a) for a in {calls!r}])"])
    assert (run.returncode, run.stdout.splitlines()[-1:]) == (0, [str([0] * len(calls))]), run.stderr


BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_the_command_runs_blas_on_one_thread_unless_told_otherwise(tmp_path):
    # on a multi-core machine, BLAS's default thread count changed the digits of pf rate's tilt
    out = tmp_path / "rate.csv"
    argv = ["-m", "replica_markov.cli", "pf", "rate", "--config", str(DATA / "pf_rate_nu3.json"), "--out", str(out)]
    run = run_python(argv, {k: v for k, v in os.environ.items() if k not in BLAS_THREADS})
    assert run.returncode == 0, run.stderr
    assert out.read_bytes() == (DATA / "pf_rate_nu3.csv").read_bytes()


def main_code(tmp_path, argv: list[str] | None, doc: dict | None) -> str:
    """Code that imports the command-line modules, or runs ``main`` on ``doc`` and fails unless it exits 0."""
    if argv is None:
        return "import replica_markov.cli, replica_markov.config"
    cfg = tmp_path / "doc.json"
    cfg.write_text(json.dumps(doc))
    argv = [*argv, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    return f"from replica_markov.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize(
    ("argv", "doc", "unloaded"),
    [
        pytest.param(None, None, ("solver", "single_symbol", "amp", "perron"), id="import"),
        pytest.param(["pf", "rate"], RATE_DOC, ("solver", "single_symbol", "amp"), id="pf-rate"),
        # the row seed is drawn only by the tasks that sample: numpy.random was a 16 ms import
        pytest.param(["replica", "sweep"], base_doc(), ("amp", "perron", "numpy.random"), id="replica-sweep"),
    ],
)
def test_a_subcommand_loads_only_the_layers_it_runs(tmp_path, argv, doc, unloaded):
    loaded = loaded_modules(main_code(tmp_path, argv, doc))
    assert "replica_markov.cli" in loaded
    assert not loaded & {m if "." in m else f"replica_markov.{m}" for m in unloaded}


def test_importing_the_package_loads_none_of_its_modules():
    assert not {m for m in loaded_modules("import replica_markov") if m.startswith("replica_markov.")}


class TestLazyPackage:
    HOMES = {"laws", "markov_core", "single_symbol", "solver"}

    def test_every_export_is_its_home_modules_object(self):
        for name in replica_markov.__all__:
            obj = getattr(replica_markov, name)
            home = importlib.import_module(obj.__module__)
            assert home.__name__.removeprefix("replica_markov.") in self.HOMES, name
            assert getattr(home, name) is obj, name

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from replica_markov import *", namespace)
        assert all(namespace[name] is getattr(replica_markov, name) for name in replica_markov.__all__)

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            replica_markov.no_such_name
        assert getattr(replica_markov, "no_such_name", None) is None

    def test_dir_covers_all(self):
        assert set(replica_markov.__all__) <= set(dir(replica_markov))
