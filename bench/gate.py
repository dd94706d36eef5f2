"""Correctness gate: each operation's outputs against invariants and recorded values.

An operation fails when its CLI call exits nonzero, its row carries errors,
a value is not finite, a value breaks an invariant (eta in (0, 1], MMSE in
[0, E X^2], MH acceptance in (0, 1), a feasible rate target that is
non-converged or negative, a failed deriv-check), or, for inputs recorded in
``reference.json``, a value differs from the recorded output by more than
the column's tolerance.  Every invocation of a recorded round (seeds
0 .. RECORDED_SEEDS-1, rounds 0 .. RECORDED_ROUNDS-1) must find its
recording: a generator or config change that breaks the match fails the
gate instead of skipping the comparison.  Known oracle gaps (AMP vs the replica MMSE at
gamma=0.3, Gauss-Markov exact evidence vs the closed form) are reported, not
gated.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

# The recording covers these seeds and rounds of every workload.
RECORDED_SEEDS = 12
RECORDED_ROUNDS = 2

# Columns compared with the recorded outputs: (relative, absolute) tolerance.
# Unlisted columns must match exactly as text, except those in UNCOMPARED.
TOLERANCE = {
    **dict.fromkeys(("eta", "xi", "free_energy", "mutual_info", "mmse"), (1e-9, 1e-12)),
    **dict.fromkeys(
        ("sim_free_energy", "sim_free_energy_stderr", "mh_mse", "mh_mse_stderr", "achieved_beta", "beta", "mse"),
        (1e-9, 1e-12),
    ),
    "value": (1e-8, 1e-12),  # pf rate: I(Q) at the optimal tilt
}
TILT_TOLERANCE = (0.0, 1e-6)  # pf rate tilt_ab entries
# Iteration-dependent diagnostics, not results: gated by invariants only.
UNCOMPARED = frozenset(("errors", "rel_err", "gradient_norm", "iterations"))


def reference_key(argv, config) -> str:
    """Content hash of one invocation's inputs."""
    text = json.dumps({"argv": list(argv), "config": config}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(row: dict, col: str) -> float | None:
    """Float value of a column; None when empty; NaN when unparseable."""
    raw = row.get(col, "")
    if raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        return math.nan


def _close(a: float, b: float, tol: tuple[float, float]) -> bool:
    rel, abs_ = tol
    if a == b:
        return True
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= abs_ + rel * abs(b)


def compare_rows(got: list[dict], want: list[dict]) -> str:
    """'' when the rows agree column by column, else the first disagreement."""
    if len(got) != len(want):
        return f"{len(got)} rows, recorded {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if set(g) != set(w):
            return f"row {i}: columns differ from the recording"
        for col in w:
            if col in UNCOMPARED:
                continue
            tol = TILT_TOLERANCE if col.startswith("tilt_") else TOLERANCE.get(col)
            if tol is None or w[col] == "" or g[col] == "":
                if g[col] != w[col]:
                    return f"row {i}: {col}={g[col]!r}, recorded {w[col]!r}"
            elif not _close(_num(g, col), _num(w, col), tol):
                return f"row {i}: {col}={g[col]} differs from recorded {w[col]} beyond {tol}"
    return ""


def _finite(row: dict, cols) -> str:
    for col in cols:
        v = _num(row, col)
        if v is None or not math.isfinite(v):
            return f"{col}={row.get(col)!r} is not a finite number"
    return ""


def _sweep_row(row: dict, inv) -> str:
    if row.get("errors"):
        return f"errors: {row['errors']}"
    bad = _finite(row, ("eta", "xi", "free_energy"))
    if bad:
        return bad
    eta, xi = _num(row, "eta"), _num(row, "xi")
    if not 0.0 < eta <= 1.0:
        return f"eta={eta} outside (0, 1]"
    if not xi > 0.0:
        return f"xi={xi} is not positive"
    if inv.matched:
        bad = _finite(row, ("mutual_info", "mmse"))
        if bad:
            return bad
        mmse = _num(row, "mmse")
        if not 0.0 <= mmse <= inv.second_moment:
            return f"mmse={mmse} outside [0, E X^2={inv.second_moment}]"
    return ""


def _exact_row(row: dict) -> str:
    if row.get("errors"):
        return f"errors: {row['errors']}"
    bad = _finite(row, ("sim_free_energy", "sim_free_energy_stderr", "achieved_beta"))
    if bad:
        return bad
    return "sim_free_energy_stderr is negative" if _num(row, "sim_free_energy_stderr") < 0 else ""


def _mh_row(row: dict, accept: float | None) -> str:
    if row.get("errors"):
        return f"errors: {row['errors']}"
    bad = _finite(row, ("mh_mse", "mh_mse_stderr"))
    if bad:
        return bad
    if _num(row, "mh_mse") < 0 or _num(row, "mh_mse_stderr") < 0:
        return "negative MH MSE or standard error"
    if accept is None or not 0.0 < accept < 1.0:
        return f"MH acceptance {accept} outside (0, 1)"
    return ""


def _amp_rows(rows: list[dict]) -> str:
    if not rows:
        return "no AMP trace rows"
    for row in rows:
        bad = _finite(row, ("mse",))
        if bad:
            return bad
        if _num(row, "mse") < 0:
            return "negative AMP MSE"
    return ""


def _rate_row(row: dict) -> str:
    tilts = [c for c in row if c.startswith("tilt_")]
    bad = _finite(row, ("value", "gradient_norm", *tilts))
    if bad:
        return bad
    if row["feasible"] != "True":
        return "target reported infeasible"
    if row["converged"] != "True":
        return f"feasible target did not converge (gradient {row['gradient_norm']})"
    if _num(row, "value") < 0:
        return f"negative rate {row['value']}"
    return ""


def _deriv_row(row: dict) -> str:
    bad = _finite(row, ("rel_err",))
    return bad or ("" if row["pass"] == "True" else f"derivative check failed (rel_err {row['rel_err']})")


def _groups(cmd: str, rows: list[dict]) -> list[list[dict]]:
    """Rows per operation: one AMP operation per beta (all its trace rows), else one row each."""
    if cmd != "simulate amp":
        return [[r] for r in rows]
    betas = sorted({r["beta"] for r in rows}, key=float)
    return [[r for r in rows if r["beta"] == b] for b in betas]


def is_recorded(seed: int, rnd: int) -> bool:
    """Whether every invocation of this round has a recording in reference.json."""
    return 0 <= seed < RECORDED_SEEDS and 0 <= rnd < RECORDED_ROUNDS


def check_invocation(inv, code: int, text: str, accepts: list, recorded: str | None) -> list[str]:
    """One failure reason per operation of ``inv`` ('' = passed).

    ``accepts`` holds the MH acceptance rate of each sweep point (None where
    none was observed); ``recorded`` is the recorded CSV for these inputs, or
    None when there is none.
    """
    if code != 0:
        return [f"exit code {code}"] * inv.ops
    try:
        rows = parse_csv(text)
    except csv.Error as exc:
        return [f"unreadable CSV: {exc}"] * inv.ops
    cmd = inv.command
    groups = _groups(cmd, rows)
    if len(groups) != inv.ops:
        return [f"{len(groups)} result groups for {inv.ops} operations"] * inv.ops
    reasons = []
    for i, group in enumerate(groups):
        row = group[0]
        if cmd == "replica sweep":
            reasons.append(_sweep_row(row, inv))
        elif cmd == "simulate exact":
            reasons.append(_exact_row(row))
        elif cmd == "simulate mh":
            reasons.append(_mh_row(row, accepts[i] if i < len(accepts) else None))
        elif cmd == "simulate amp":
            reasons.append(_amp_rows(group))
        elif cmd == "pf rate":
            reasons.append(_rate_row(row))
        elif cmd == "pf deriv-check":
            reasons.append(_deriv_row(row))
        else:
            reasons.append(f"no gate for {cmd!r}")
    if recorded is not None:
        want_groups = _groups(cmd, parse_csv(recorded))
        if len(want_groups) != len(groups):
            return [f"{len(groups)} result groups, recorded {len(want_groups)}"] * inv.ops
        for i, (g, w) in enumerate(zip(groups, want_groups)):
            reasons[i] = reasons[i] or compare_rows(g, w)
    return reasons
