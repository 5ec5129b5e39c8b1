"""The three benchmark jobs and the checks of their outputs.

Each job takes the workload seed and a :class:`Sizes` and returns a dict of
plain values (means, standard errors, counts, printed text), so two passes
can be compared for bit-identity.  Every job calls the package through module
attributes, which is where :mod:`tracer` puts its wrappers.

Why these three: ``sr-delay`` is the delay table and equalizer profile, all
SR kernel, head-start sampling and per-replication arrays, and no Bayes code.
``bayes-limit`` is the small-p Bayes extrapolation, almost all Bayes kernel
and moment reduction.  ``cli-parallel`` runs the five CLI commands with a
two-worker pool, so pool start-up and result pickling show there and
nowhere else.  ``BENCHMARK.json`` lists the last two: the run budget of a
shared 2-core host leaves 30-second runs for three workloads, too short to
be steady there, and both listed workloads run the SR estimators too.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from qdetect import bayes, cli, formulas, headstart, montecarlo

from exact import SrTargets, sr_targets

A_GRID = (1.5, 1.6, 1.7, 1.8, 1.9, 1.98)
P_GRID = (0.02, 0.01, 0.005)
C_STAR = 0.1
K_MAX = 10
CLI_WORKERS = 2
CLI_COMMANDS = ("table1", "bayes-limit", "equalizer", "props", "oracles")

# half a unit in the last place of the CLI's four-decimal output
PRINT_SLACK = 5e-5


@dataclass(frozen=True)
class Sizes:
    sr_reps: int                     # per SR estimator call
    limit_reps: Tuple[int, int, int]  # per p-grid point, rising as p falls
    cli_reps: Optional[int]          # None: the CLI's own default


FULL = Sizes(sr_reps=10**6, limit_reps=(4_000_000, 8_000_000, 16_000_000),
             cli_reps=None)
TINY = Sizes(sr_reps=20_000, limit_reps=(20_000, 40_000, 80_000),
             cli_reps=300_000)


def exact_targets() -> dict:
    return {a: sr_targets(a) for a in A_GRID}


def _est(e) -> tuple:
    return (e.mean, e.stderr, e.reps, e.truncation_count, e.rejected)


def _within(name, value, se, target, k, slack=0.0):
    z = abs(value - target) / se if se > 0 else math.inf
    ok = abs(value - target) <= k * (se + slack) + slack
    return (name, ok, f"{value:.5f} vs exact {target:.5f}, |z| = {z:.2f} (limit {k})")


# -- sr-delay ---------------------------------------------------------------


def run_sr_delay(seed: int, sizes: Sizes) -> dict:
    out = {}
    for a in A_GRID:
        law = headstart.HeadStartLaw.yakir(a)
        out[f"e1/{a}"] = _est(montecarlo.estimate_e1_delay(a, law, sizes.sr_reps, seed))
        out[f"cross/{a}"] = _est(montecarlo.estimate_cross_term(a, law, sizes.sr_reps, seed))
        out[f"arl/{a}"] = _est(montecarlo.estimate_arl_false(a, law, sizes.sr_reps, seed))
    a = A_GRID[0]
    profile = montecarlo.delay_profile(a, headstart.HeadStartLaw.yakir(a), K_MAX,
                                       sizes.sr_reps, seed)
    for k, e in profile.entries.items():
        out[f"ek/{k}"] = _est(e)
    out["undefined_k"] = tuple(sorted(profile.undefined))
    return out


def check_sr_delay(out: dict, targets: dict) -> list:
    checks = []
    truncated = 0
    for a in A_GRID:
        t = targets[a]
        for key, target in (("e1", t.e1), ("cross", t.cross), ("arl", t.arl)):
            mean, se, _, trunc, _ = out[f"{key}/{a}"]
            checks.append(_within(f"{key} A={a}", mean, se, target, 4.0))
            truncated += trunc
    e1 = targets[A_GRID[0]].e1
    for k in range(1, K_MAX + 1):
        if f"ek/{k}" not in out:
            checks.append((f"E_{k} A={A_GRID[0]}", False, "no surviving replications"))
            continue
        mean, se, _, trunc, _ = out[f"ek/{k}"]
        checks.append(_within(f"E_{k} A={A_GRID[0]}", mean, se, e1, 5.0))
        truncated += trunc
    checks.append(("no truncation", truncated == 0, f"{truncated} truncated runs"))
    return checks


def se_sr_delay(out: dict) -> float:
    return out[f"e1/{A_GRID[0]}"][1]


# -- bayes-limit ------------------------------------------------------------


def run_bayes_limit(seed: int, sizes: Sizes) -> dict:
    a = A_GRID[0]
    law = headstart.HeadStartLaw.yakir(a)
    e1 = montecarlo.estimate_e1_delay(a, law, sizes.sr_reps, seed)
    cross = montecarlo.estimate_cross_term(a, law, sizes.sr_reps, seed)
    arl = montecarlo.estimate_arl_false(a, law, sizes.sr_reps, seed)
    e_r0 = headstart.yakir_mean(a)
    diag = bayes.limit_diagnostic(a, law, C_STAR, P_GRID, list(sizes.limit_reps), seed)
    # the verdict is scored against the measured closed forms, as the CLI does
    eq4 = formulas.c_limit_eq4(e_r0, e1.mean, arl.mean, cross.mean, C_STAR)
    eq3 = formulas.c_limit_eq3(e_r0, e1.mean, arl.mean, C_STAR)
    verdict = bayes.compare_limit(diag, eq3, eq4)
    return {
        "e1": _est(e1), "cross": _est(cross), "arl": _est(arl),
        "rows": tuple((r.p, r.reps, r.ratio, r.stderr, r.truncation_count)
                      for r in diag.rows),
        "intercept": (diag.intercept, diag.intercept_se),
        "measured_eq3_eq4": (eq3, eq4),
        "verdict": verdict.verdict,
    }


def check_bayes_limit(out: dict, targets: dict) -> list:
    t: SrTargets = targets[A_GRID[0]]
    checks = []
    for key, target in (("e1", t.e1), ("cross", t.cross), ("arl", t.arl)):
        mean, se = out[key][:2]
        checks.append(_within(f"{key} A={t.A}", mean, se, target, 4.0))
    icpt, se = out["intercept"]
    eq3, eq4 = t.eq3(C_STAR), t.eq4(C_STAR)
    checks.append(_within("intercept vs eq4", icpt, se, eq4, 4.0))
    z3 = abs(icpt - eq3) / se if se > 0 else math.inf
    checks.append(("intercept apart from eq3", z3 > 4.0, f"|z(eq3)| = {z3:.2f} (need > 4)"))
    truncated = sum(r[4] for r in out["rows"])
    checks.append(("no truncation", truncated == 0, f"{truncated} truncated runs"))
    return checks


def se_bayes_limit(out: dict) -> float:
    return out["intercept"][1]


# -- cli-parallel -----------------------------------------------------------


def run_cli_parallel(seed: int, sizes: Sizes) -> dict:
    out = {}
    for command in CLI_COMMANDS:
        argv = [command, "--workers", str(CLI_WORKERS), "--seed", str(seed)]
        if sizes.cli_reps is not None:
            argv += ["--reps", str(sizes.cli_reps)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        out[command] = (code, stdout.getvalue(), stderr.getvalue())
    return out


def _csv_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _notes(text: str) -> dict:
    """key=value pairs from the '# ...' note lines of a CSV table."""
    notes = {}
    for ln in text.splitlines()[1:]:
        if ln.startswith("# "):
            for tok in ln[2:].split():
                key, _, value = tok.partition("=")
                notes[key] = value
    return notes


def check_cli_parallel(out: dict, targets: dict) -> list:
    checks = []
    for command, (code, text, err) in out.items():
        allowed = (0, 3) if command == "bayes-limit" else (0,)
        checks.append((f"{command} exit code", code in allowed,
                       f"exit {code} (allowed {allowed}) {err.strip()[:200]}"))
    # table1: A, mc, mc_se, eq14, eq14_se, eq13
    for row in _csv_rows(out["table1"][1]):
        a, mc, mc_se, eq14, eq14_se = (float(v) for v in row[:5])
        e1 = targets[a].e1
        checks.append(_within(f"table1 mc A={a}", mc, mc_se, e1, 4.0, PRINT_SLACK))
        checks.append(_within(f"table1 eq14 A={a}", eq14, eq14_se, e1, 4.0, PRINT_SLACK))
    # equalizer: k, delay, delay_se, rejected, flag
    e1 = targets[A_GRID[0]].e1
    rows = _csv_rows(out["equalizer"][1])
    checks.append(("equalizer rows", len(rows) == K_MAX, f"{len(rows)} rows"))
    for k, delay, delay_se, *_ in rows:
        if delay == "missing":
            checks.append((f"equalizer E_{k}", False, "missing"))
            continue
        checks.append(_within(f"equalizer E_{k}", float(delay), float(delay_se),
                              e1, 5.0, PRINT_SLACK))
    # bayes-limit: notes carry intercept, measured eq3/eq4 and the verdict
    code, text, _ = out["bayes-limit"]
    t = targets[A_GRID[0]]
    notes = _notes(text)
    icpt, se = float(notes["intercept"]), float(notes["intercept_se"])
    checks.append(_within("bayes-limit intercept vs eq4", icpt, se, t.eq4(C_STAR),
                          4.0, PRINT_SLACK))
    want = "eq4" if code == 0 else "inconclusive"
    checks.append(("bayes-limit verdict", notes["verdict"] == want,
                   f"verdict {notes['verdict']} with exit {code}"))
    if code == 0:
        z3 = abs(icpt - t.eq3(C_STAR)) / se if se > 0 else math.inf
        checks.append(("bayes-limit intercept apart from eq3", z3 > 4.0,
                       f"|z(eq3)| = {z3:.2f}"))
    for key in ("eq3", "eq4"):
        checks.append(_within(f"bayes-limit measured {key}", float(notes[key]),
                              float(notes[f"{key}_se"]), getattr(t, key)(C_STAR),
                              4.0, PRINT_SLACK))
    for command in ("props", "oracles"):
        lines = out[command][1].splitlines()
        failing = [ln for ln in lines if not ln.startswith("PASS")]
        checks.append((f"{command} lines", bool(lines) and not failing,
                       f"{len(lines)} lines, {len(failing)} not PASS"))
    return checks


def se_cli_parallel(out: dict) -> float:
    return float(_csv_rows(out["table1"][1])[0][2])


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, Sizes], dict]
    check: Callable[[dict, dict], list]
    se: Callable[[dict], float]     # the SE that time_to_target_s scales by
    se_target: float


WORKLOADS = {
    # se_target 0.0007: the published Table-1 SE of E_1 N at A = 1.5
    "sr-delay": Workload("sr-delay", run_sr_delay, check_sr_delay,
                         se_sr_delay, 0.0007),
    # se_target 0.003: the design SE of the limit intercept in criterion 5
    "bayes-limit": Workload("bayes-limit", run_bayes_limit, check_bayes_limit,
                            se_bayes_limit, 0.003),
    "cli-parallel": Workload("cli-parallel", run_cli_parallel, check_cli_parallel,
                             se_cli_parallel, 0.0007),
}
