import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdetect import (
    ConfigurationError,
    bayes,
    coupling_round_trip,
    headstart,
    limit_difference_identity,
    montecarlo,
)
from qdetect import rng as qrng
from qdetect.cli import (
    DEFAULT_SEED,
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_INVARIANT,
    EXIT_OK,
    build_parser,
    main,
)

FAST_TABLE = ["table1", "--a-grid", "1.5,1.7", "--reps", "20000", "--seed", "9"]
SRC = Path(__file__).resolve().parent.parent / "src"

# Each bad flag, with the library check that rejects the same value (None
# for the rules the CLI keeps: a nonempty --a-grid and a writable --out).
BAD_FLAGS = [
    (["table1", "--reps", "0"], lambda: montecarlo.check_reps(0)),
    (["table1", "--a-grid", "2.5"], lambda: headstart.HeadStartLaw.yakir(2.5)),
    (["table1", "--a-grid", ","], None),
    (["table1", "--workers", "0"], lambda: qrng.check_workers(0)),
    (["bayes-limit", "--p-grid", ","], lambda: bayes.check_p_grid([])),
    (["bayes-limit", "--c-star", "-0.1"], lambda: bayes.check_cost(-0.1)),
    (["table1", "--reps", "1"], lambda: montecarlo.check_reps(1)),
    (["bayes-limit", "--reps", "1"], lambda: montecarlo.check_reps(1)),
    (["bayes-limit", "--c-star", "nan", "--reps", "2000"],
     lambda: bayes.check_cost(math.nan)),
    (["bayes-limit", "--c-star", "inf", "--reps", "2000"],
     lambda: bayes.check_cost(math.inf)),
    (["oracles", "--seed", "-1"], lambda: qrng.check_seed(-1)),
    (["props", "--a-grid", "1.5", "--reps", "5000"],
     lambda: headstart.check_oracle_reps(5000)),
    (["bayes-limit", "--p-grid", "0.02,0.01,0", "--reps", "300000"],
     lambda: bayes.check_p_grid([0.02, 0.01, 0.0])),
    (["bayes-limit", "--p-grid", "0.02"], lambda: bayes.check_p_grid([0.02])),
    # the extrapolation fits a quadratic, which needs three points
    (["bayes-limit", "--p-grid", "0.02,0.01"], lambda: bayes.check_p_grid([0.02, 0.01])),
    # below about 5.6e-17, q = 1 - p rounds to 1
    (["bayes-limit", "--p-grid", "0.02,0.01,1e-19"], lambda: bayes.check_p(1e-19)),
    # every command applies the whole p-grid rule, not only bayes-limit
    (["table1", "--p-grid", "0.005,0.01"], lambda: bayes.check_p_grid([0.005, 0.01])),
    # an unwritable --out fails before the simulation, not after it
    (["table1", "--out", str(SRC / "no-such-dir" / "x.csv")], None),
    (["table1", "--out", str(SRC)], None),
]


def _fail_on_simulation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulated before rejecting the flags")
    monkeypatch.setattr(qrng, "run_chunked", fail)


class TestParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.a_grid == [1.5, 1.6, 1.7, 1.8, 1.9, 1.98]
        assert args.p_grid == [0.02, 0.01, 0.005]
        assert args.reps == 10**6
        assert args.format == "csv"

    def test_grid_parsing(self):
        args = build_parser().parse_args(["table1", "--a-grid", "1.5, 1.9"])
        assert args.a_grid == [1.5, 1.9]

    def test_seed_ignores_the_environment(self, monkeypatch):
        # a bare command prints the same tables on every machine
        monkeypatch.setenv("QDETECT_SEED", "abc")
        assert build_parser().parse_args(["props"]).seed == DEFAULT_SEED


class TestTable1:
    def test_csv_output(self, capsys):
        assert main(FAST_TABLE) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("# qdetect")
        assert "seed=9" in lines[0]
        assert lines[1] == "A,mc,mc_se,eq14,eq14_se,eq13"
        assert len(lines) == 4

    def test_deterministic(self, capsys):
        main(FAST_TABLE)
        first = capsys.readouterr().out
        main(FAST_TABLE)
        assert capsys.readouterr().out == first

    def test_markdown_format(self, capsys):
        assert main(FAST_TABLE + ["--format", "md"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "| A | mc |" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        assert main(FAST_TABLE + ["--out", str(target)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("# qdetect")

    def test_single_rep_smoke(self, capsys):
        # one replication has no standard error: a configuration error
        assert main(["table1", "--a-grid", "1.5", "--reps", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""


def _header_argv(out: str) -> list:
    """The command and flags a table's header records, as an argv.

    The header reads ``# qdetect <version> command=... key=value ...``."""
    argv = []
    for field in out.splitlines()[0].split()[3:]:
        key, _, value = field.partition("=")
        argv += [value] if key == "command" else [f"--{key.replace('_', '-')}", value]
    return argv


class TestHeaders:
    @pytest.mark.parametrize("argv", [
        ["table1", "--a-grid", "1.6,1.9", "--reps", "2000", "--seed", "9"],
        ["bayes-limit", "--a-grid", "1.6", "--p-grid", "0.05,0.02,0.01",
         "--c-star", "0.2", "--reps", "20000", "--seed", "9"],
    ])
    def test_header_regenerates_table(self, argv, capsys):
        code = main(argv)
        first = capsys.readouterr().out
        regen = _header_argv(first)
        assert sorted(regen) == sorted(argv)  # every non-default flag is recorded
        assert main(regen) == code
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("command", ["bayes-limit", "equalizer"])
    def test_header_names_the_threshold_run(self, command, capsys):
        # both commands run the first threshold of --a-grid only
        code = main([command, "--a-grid", "1.6,1.9", "--p-grid", "0.05,0.02,0.01",
                     "--reps", "20000", "--seed", "9"])
        first = capsys.readouterr().out
        regen = _header_argv(first)
        assert regen[regen.index("--a-grid") + 1] == "1.6"
        assert main(regen) == code
        assert capsys.readouterr().out == first


class TestTruncationGate:
    @pytest.mark.parametrize("argv", [
        ["table1", "--a-grid", "1.5"],
        ["equalizer", "--a-grid", "1.5"],
        ["bayes-limit", "--a-grid", "1.5", "--p-grid", "0.05,0.02,0.01"],
    ])
    def test_flag_level_gates_every_monte_carlo_command(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(montecarlo, "TRUNCATION_FLAG_LEVEL", -1.0)
        assert main(argv + ["--reps", "5000", "--seed", "9"]) == EXIT_INVARIANT
        assert "truncation fraction" in capsys.readouterr().err


class TestBayesLimit:
    def test_small_run_emits_rows(self, capsys):
        main(["bayes-limit", "--a-grid", "1.5", "--p-grid", "0.05,0.02,0.01",
              "--reps", "20000", "--seed", "9"])
        out = capsys.readouterr().out
        assert "p,reps,ratio,ratio_se" in out
        assert "intercept=" in out

    def test_predictions_are_exact(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("bayes-limit ran an SR simulation")
        monkeypatch.setattr(montecarlo, "_sr_sums", fail)
        main(["bayes-limit", "--a-grid", "1.5", "--p-grid", "0.05,0.02,0.01",
              "--reps", "20000", "--seed", "9"])
        out = capsys.readouterr().out
        assert "# eq3=3.3868 eq3_se=0.0000 z=" in out
        assert "# eq4=3.4475 eq4_se=0.0000 z=" in out

    def test_small_standard_errors_print_significant_digits(self, capsys):
        # at c* = 0.001 every SE is near 1e-5, which four decimals would
        # print as 0.0000, a certainty the estimate does not have
        assert main(["bayes-limit", "--c-star", "0.001", "--reps", "20000"]) == EXIT_OK
        out = capsys.readouterr().out
        ses = [float(line.split(",")[3]) for line in out.splitlines()[2:5]]
        ses.append(float(out.split("intercept_se=")[1].split()[0]))
        assert all(1e-6 < se < 1e-4 for se in ses), out

    def test_spread_below_the_rounding_floor_names_its_cause(self, capsys):
        # at p = 0.999999 the 9 163 stepped runs' costs all lie within 1e-6
        # of 1: their spread is under the floor that reads it as rounding,
        # and both grow with the run count, so the message does not ask for
        # more reps
        argv = ["bayes-limit", "--p-grid", "0.999999,0.5,0.1", "--reps", "20000"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: the 9163 runs that start below the "
                              "threshold spread by ")
        assert "more reps cannot help" in err and "increase reps" not in err

    def test_huge_costs(self, capsys):
        # at 1e80 SEs near 1e78 underflow weights of 1/se^2; the kernels sum
        # the costs Z, which no c scales, so at 1e300 every figure stays
        # finite; at 1e308 the prediction eq3 overflows, and at 1.7e308 so
        # does c Z_bar/p, which no replication count mends
        argv = ["bayes-limit", "--reps", "20000", "--workers", "1", "--c-star"]
        for c_star in ("1e80", "1e300"):
            assert main(argv + [c_star]) in (EXIT_OK, EXIT_INCONCLUSIVE)
            out = capsys.readouterr().out
            assert "nan" not in out and "inf" not in out
        for c_star in ("1e308", "1.7e308"):
            assert main(argv + [c_star]) == EXIT_CONFIG
            assert "not finite" in capsys.readouterr().err

    def test_default_run_reaches_eq4(self, capsys):
        # at its defaults (the same 1 M runs at each of p = 0.02, 0.01,
        # 0.005) the intercept SE is about 0.0001, a five-hundredth of the
        # eq3/eq4 gap
        assert main(["bayes-limit", "--seed", str(DEFAULT_SEED), "--workers", "2"]) == EXIT_OK
        assert "# verdict=eq4\n" in capsys.readouterr().out


class TestEqualizer:
    def test_all_ten_rows_unflagged(self, capsys):
        assert main(["equalizer", "--a-grid", "1.5", "--reps", "50000",
                     "--seed", "9"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        body = [ln for ln in lines[2:] if not ln.startswith("#")]
        assert len(body) == 10
        assert all(ln.endswith(",0") for ln in body)

    def test_single_survivor_rows_missing(self, capsys):
        # the runs of 4 that the conditioning N >= k - 1 rejects, for each k
        # that keeps fewer than 2, from the equalizer's own streams.  Two of
        # the 4 runs start below A; at seed 1 both stop at N = 1, which
        # leaves k = 1 no standard error, and the command says so
        assert main(["equalizer", "--a-grid", "1.5", "--reps", "4",
                     "--seed", "1"]) == EXIT_CONFIG
        assert "no standard error" in capsys.readouterr().err
        law = headstart.HeadStartLaw.yakir(1.5)
        undefined = montecarlo.delay_profile(1.5, law, 10, 4, 2).undefined
        assert 3 in undefined.values()
        assert main(["equalizer", "--a-grid", "1.5", "--reps", "4",
                     "--seed", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()[2:]
        rows = {int(row[0]): row[1:] for row in (ln.split(",") for ln in lines)}
        assert sorted(rows) == list(range(1, 11))
        for k, (delay, delay_se, rejected, _) in rows.items():
            if k in undefined:
                # the rejected column counts the runs that stopped too early
                assert [delay, delay_se, rejected] == [
                    "missing", "missing", str(undefined[k])]
            else:
                assert float(delay_se) > 0.0


def _check_names(out: str) -> list:
    """The check names of PASS/FAIL lines ``<verdict> <name>: <detail>``."""
    return [line.split(": ")[0].split(" ", 1)[1] for line in out.splitlines()]


ORACLE_NAMES = ["p0-quadrature", "mu0-quadrature", "p0-oracle", "mu0-oracle",
                "mean-oracle", "erratum-rejected"]


class TestCheckSuites:
    def test_props_pass(self, capsys):
        assert main(["props", "--a-grid", "1.5", "--reps", "50000",
                     "--seed", "9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert _check_names(out) == [
            "martingale-drift", "optional-stopping", "risk-vs-brute-force",
            "miss-probability-exact", "pi0-round-trip", "eq3-eq4-difference"] + [f"{n} A=1.5" for n in ORACLE_NAMES]
        assert "FAIL" not in out
        # the two identity lines print what the library functions return
        assert f"pi0-round-trip: max rel error {coupling_round_trip(9)[1]:.2e}" in out
        assert (f"eq3-eq4-difference: max rel error "
                f"{limit_difference_identity(9)[1]:.2e}") in out

    def test_oracles_pass(self, capsys):
        assert main(["oracles", "--a-grid", "1.5,1.98", "--reps", "100000",
                     "--seed", "9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert _check_names(out) == [f"{n} A={a}" for a in (1.5, 1.98) for n in ORACLE_NAMES]
        assert "FAIL" not in out

    def test_oracles_read_the_shared_bound(self, monkeypatch, capsys):
        monkeypatch.setattr(headstart, "ORACLE_Z_LIMIT", 0.0)
        assert main(["oracles", "--a-grid", "1.5", "--reps", "10000",
                     "--seed", "9"]) == EXIT_INVARIANT
        assert "FAIL p0-oracle A=1.5" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["oracles", "props"])
    def test_checks_run_on_the_workers(self, command, monkeypatch, capsys):
        # every chunked check runs on --workers threads, the oracle's too
        seen = []
        run_chunked = qrng.run_chunked

        def recording(kernel, reps, seed, tag, workers=1):
            seen.append((tag, workers))
            return run_chunked(kernel, reps, seed, tag, workers)
        monkeypatch.setattr(qrng, "run_chunked", recording)
        assert main([command, "--a-grid", "1.5", "--reps", "10000", "--seed", "9",
                     "--workers", "2"]) == EXIT_OK
        assert any(tag.startswith("oracle/") for tag, _ in seen)
        assert all(workers == 2 for _, workers in seen), seen

    def test_check_streams_are_derived(self, monkeypatch, capsys):
        # every check draws from rng.derive_rng, never from a generator of its own
        def fail(*args, **kwargs):
            raise AssertionError("a check built its own generator")
        monkeypatch.setattr(np.random, "default_rng", fail)
        assert main(["props", "--a-grid", "1.5", "--reps", "10000", "--seed", "9"]) == EXIT_OK
        assert main(["oracles", "--a-grid", "1.5", "--reps", "10000", "--seed", "9"]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out


class TestConfigErrors:
    @pytest.mark.parametrize("argv", [argv for argv, _ in BAD_FLAGS])
    def test_exit_code_four(self, argv, monkeypatch, capsys):
        _fail_on_simulation(monkeypatch)
        assert main(argv) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, check", [
        pytest.param(argv, check, id=" ".join(argv)) for argv, check in BAD_FLAGS if check])
    def test_message_is_the_library_checks(self, argv, check, monkeypatch, capsys):
        # the CLI restates no rule: it prints what the library check raises
        _fail_on_simulation(monkeypatch)
        with pytest.raises(ConfigurationError) as info:
            check()
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {info.value}\n"

    def test_p_below_float_resolution_is_a_configuration_error(self, monkeypatch, capsys):
        # at p = 1e-19, q = 1 - p rounds to 1: every run would score the same
        # pi0, a zero standard error that no replication count mends; the
        # grid is rejected with its own message before any simulation
        _fail_on_simulation(monkeypatch)
        argv = ["bayes-limit", "--p-grid", "0.001,1e-19,1e-20", "--reps", "20000",
                "--workers", "1"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: p = 1e-19 is below the float64 "
                              "resolution") and "Traceback" not in err

    @pytest.mark.parametrize("check", [
        lambda: headstart.oracle_checks(1.5, 10**4, -1),
        lambda: coupling_round_trip(-1),
        lambda: limit_difference_identity(-1),
        lambda: montecarlo.martingale_checks(1.5, headstart.HeadStartLaw.yakir(1.5),
                                             10**4, -1, 1),
        lambda: bayes.identity_checks(1.5, 0.1, 10**4, -1, 1),
        lambda: coupling_round_trip(1.5),  # not read as seed 1
    ], ids=["oracle_checks", "coupling_round_trip", "limit_difference_identity",
            "martingale_checks", "identity_checks", "coupling_round_trip_fractional"])
    def test_direct_seed_streams_reject_negative_seed(self, check):
        # every check stream keeps the one seed rule
        with pytest.raises(ConfigurationError):
            check()


class TestEntryPoint:
    @pytest.mark.parametrize("argv, code", [
        (["table1", "--a-grid", "1.5", "--reps", "2000", "--seed", "9"], EXIT_OK),
        (["table1", "--reps", "1"], EXIT_CONFIG),
        # flags argparse cannot parse are configuration errors too
        (["table1", "--reps", "1.5"], EXIT_CONFIG),
        (["table1", "--a-grid", "1.5,x"], EXIT_CONFIG),
        (["frobnicate"], EXIT_CONFIG),
        (["--help"], EXIT_OK),
    ])
    def test_module_exit_code(self, argv, code):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "qdetect.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr

    def test_usage_error_keeps_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--reps", "1.5"])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: qdetect ")
        assert err.endswith("qdetect: error: argument --reps: invalid int value: '1.5'\n")
