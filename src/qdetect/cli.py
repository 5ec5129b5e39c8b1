"""Batch command-line front end.

Subcommands reproduce the numerical study and run the verification suites:

    table1      delay table: Monte Carlo vs the two closed forms
    bayes-limit small-p limit extrapolation vs the competing predictions
    equalizer   conditional delay profile over change times k = 1..10
    props       invariant suite (martingale, optional stopping, identities)
    oracles     closed forms vs quadrature and Monte Carlo oracles

``props`` and ``oracles`` only print the checks of the library
(``montecarlo.martingale_checks``, ``bayes.identity_checks``,
``headstart.oracle_checks``), one PASS/FAIL line each; every bound and
stream of a check lives with the check.

Exit codes: 0 success, 2 invariant failure (including a truncation fraction
above the flag level in table1, bayes-limit or equalizer), 3 inconclusive
statistics, 4 configuration error (including a flag argparse cannot parse).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional

from . import __version__, bayes, formulas, headstart, montecarlo as mc, rng as qrng
from .errors import ConfigurationError, QDetectError
from .headstart import HeadStartLaw

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_INCONCLUSIVE = 3
EXIT_CONFIG = 4

DEFAULT_A_GRID = [1.5, 1.6, 1.7, 1.8, 1.9, 1.98]
DEFAULT_P_GRID = [0.02, 0.01, 0.005]
DEFAULT_REPS = 10**6
DEFAULT_SEED = 12345
DEFAULT_C_STAR = 0.1

#: Most replications any one ``props`` check runs.
PROPS_MAX_REPS = 200_000

#: Change times k = 1..EQUALIZER_K_MAX of the ``equalizer`` profile.
EQUALIZER_K_MAX = 10


@dataclass
class Table:
    """A rendered result table with regeneration metadata in its header."""

    meta: dict
    columns: List[str]
    rows: List[list] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def _fmt(self, v) -> str:
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)

    def header_lines(self) -> List[str]:
        meta = " ".join(f"{k}={v}" for k, v in self.meta.items())
        return [f"# qdetect {__version__} {meta}"]

    def to_csv(self) -> str:
        lines = self.header_lines()
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(self._fmt(v) for v in row))
        lines.extend(f"# {n}" for n in self.notes)
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        lines = self.header_lines()
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._fmt(v) for v in row) + " |")
        lines.extend(n for n in self.notes)
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_markdown()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _grid(values) -> str:
    return ",".join(str(v) for v in values)


def _meta(args, command: str, a_grid) -> dict:
    """Header fields: the command plus every flag that changes the table,
    with ``a_grid`` the thresholds the command ran."""
    meta = {"command": command, "seed": args.seed, "reps": args.reps,
            "a_grid": _grid(a_grid)}
    if command == "bayes-limit":
        meta.update(p_grid=_grid(args.p_grid), c_star=args.c_star)
    return meta


def _se(se: float) -> str:
    """A standard error to 4 significant digits, so that a positive one never
    prints as 0.0000; an exact 0 prints as 0.0000."""
    return f"{se:.4g}" if se else f"{se:.4f}"


def _truncation_exit(fractions) -> int:
    """EXIT_INVARIANT if any truncation fraction exceeds the flag level."""
    worst = max(fractions)
    if worst > mc.TRUNCATION_FLAG_LEVEL:
        print(f"truncation fraction {worst:.2e} exceeds "
              f"{mc.TRUNCATION_FLAG_LEVEL:.0e}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_table1(args) -> int:
    table = Table(meta=_meta(args, "table1", args.a_grid),
                  columns=["A", "mc", "mc_se", "eq14", "eq14_se", "eq13"])
    truncation = []
    for a in args.a_grid:
        law = HeadStartLaw.yakir(a)
        e1, cross = mc.estimate_e1_and_cross(a, law, args.reps, args.seed,
                                             args.workers)
        p0 = headstart.p0_exact(a)
        mu0 = headstart.mu0_exact(a)
        eq14 = formulas.mei_e1(p0, mu0, cross.mean)
        eq14_se = p0 * cross.stderr
        eq13 = formulas.yakir_e1(p0, mu0)
        table.rows.append([a, e1.mean, e1.stderr, eq14, eq14_se, eq13])
        truncation.append(e1.truncation_fraction)
    _emit(table.render(args.format), args.out)
    return _truncation_exit(truncation)


def cmd_bayes_limit(args) -> int:
    a = args.a_grid[0]
    eq3, eq4 = bayes.limit_predictions(a, args.c_star)
    diag = bayes.limit_diagnostic(a, HeadStartLaw.yakir(a), args.c_star, args.p_grid,
                                  [args.reps] * len(args.p_grid), args.seed,
                                  args.workers)
    verdict = bayes.compare_limit(diag, eq3, eq4)
    table = Table(meta=_meta(args, "bayes-limit", [a]),
                  columns=["p", "reps", "ratio", "ratio_se"])
    for row in diag.rows:
        table.rows.append([row.p, row.reps, row.ratio, _se(row.stderr)])
    table.notes.append(f"intercept={diag.intercept:.4f} intercept_se={_se(diag.intercept_se)}")
    # the predictions are exact; their _se keys stay for readers of the notes
    table.notes.append(f"eq3={eq3:.4f} eq3_se=0.0000 z={verdict.z_eq3:.2f}")
    table.notes.append(f"eq4={eq4:.4f} eq4_se=0.0000 z={verdict.z_eq4:.2f}")
    table.notes.append(f"verdict={verdict.verdict}")
    _emit(table.render(args.format), args.out)
    code = _truncation_exit([r.truncation_count / r.reps for r in diag.rows])
    if code == EXIT_OK and verdict.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return code


def cmd_equalizer(args) -> int:
    a = args.a_grid[0]
    law = HeadStartLaw.yakir(a)
    profile = mc.delay_profile(a, law, EQUALIZER_K_MAX, args.reps, args.seed,
                               args.workers)
    table = Table(meta=_meta(args, "equalizer", [a]),
                  columns=["k", "delay", "delay_se", "rejected", "flag"])
    deviations = profile.deviations()
    for k in range(1, EQUALIZER_K_MAX + 1):
        if k in profile.entries:
            e = profile.entries[k]
            flagged = int(deviations[k] > mc.FLATNESS_LIMIT)
            table.rows.append([k, e.mean, e.stderr, e.rejected, flagged])
        else:
            table.rows.append([k, "missing", "missing", profile.undefined[k], 0])
    _emit(table.render(args.format), args.out)
    return _truncation_exit([e.truncation_fraction for e in profile.entries.values()])


def _print_checks(checks, out: Optional[str]) -> int:
    """One PASS/FAIL line per library check; EXIT_INVARIANT if any fails."""
    _emit("".join(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n"
                  for name, ok, _, detail in checks), out)
    return EXIT_OK if all(ok for _, ok, _, _ in checks) else EXIT_INVARIANT


def cmd_oracles(args) -> int:
    return _print_checks([check for a in args.a_grid
                          for check in headstart.oracle_checks(a, args.reps, args.seed,
                                                               args.workers)],
                         args.out)


def cmd_props(args) -> int:
    a = args.a_grid[0]
    reps = min(args.reps, PROPS_MAX_REPS)
    return _print_checks(
        mc.martingale_checks(a, HeadStartLaw.yakir(a), reps, args.seed, args.workers)
        + bayes.identity_checks(a, args.c_star, reps, args.seed, args.workers)
        + headstart.oracle_checks(a, reps, args.seed, args.workers), args.out)


def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on :data:`EXIT_CONFIG`, not on 2, which
    this CLI reserves for an invariant failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdetect", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--a-grid", type=_float_list,
                        default=DEFAULT_A_GRID,
                        help="comma-separated thresholds in (0, 2)")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--c-star", type=float, default=DEFAULT_C_STAR)
    parser.add_argument("--p-grid", type=_float_list, default=DEFAULT_P_GRID)
    parser.add_argument("--workers", type=int, default=qrng.DEFAULT_WORKERS,
                        help="threads the chunks run on; the output does not depend "
                             "on it (default: one per usable core, %(default)s); "
                             "1 runs serially")
    parser.add_argument("--format", choices=["csv", "md"], default="csv")
    parser.add_argument("--out", default=None, metavar="PATH")
    return parser


def _validate_args(args) -> None:
    """Every flag through its library check, before any simulation starts."""
    mc.check_reps(args.reps)
    if args.command in ("props", "oracles"):
        headstart.check_oracle_reps(args.reps)
    qrng.check_seed(args.seed)
    qrng.check_workers(args.workers)
    if not args.a_grid:
        raise ConfigurationError("a_grid must be nonempty")
    for a in args.a_grid:
        HeadStartLaw.yakir(a)
    bayes.check_cost(args.c_star)
    bayes.check_p_grid(args.p_grid)
    if args.out not in (None, "-"):
        _check_out(args.out)


def _check_out(path: str) -> None:
    """Raise unless ``path`` names a file that can be created or replaced:
    not a directory, and inside a directory that exists."""
    if os.path.isdir(path):
        raise ConfigurationError(f"--out {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigurationError(f"--out {path}: no directory {parent}")


_COMMANDS = {
    "table1": cmd_table1,
    "bayes-limit": cmd_bayes_limit,
    "equalizer": cmd_equalizer,
    "props": cmd_props,
    "oracles": cmd_oracles,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _validate_args(args)
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
