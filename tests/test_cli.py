import math
import os
import subprocess
import sys
from pathlib import Path

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
    EXIT_INVARIANT,
    EXIT_OK,
    _props_checks,
    build_parser,
    main,
)

FAST_TABLE = ["table1", "--a-grid", "1.5,1.7", "--reps", "20000", "--seed", "9"]
SRC = Path(__file__).resolve().parent.parent / "src"

# Each bad flag, with the library check that rejects the same value (None
# for the one rule the CLI keeps: a nonempty --a-grid).
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
    # every command applies the whole p-grid rule, not only bayes-limit
    (["table1", "--p-grid", "0.005,0.01"], lambda: bayes.check_p_grid([0.005, 0.01])),
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


class TestHeaders:
    @pytest.mark.parametrize("argv", [
        ["table1", "--a-grid", "1.6,1.9", "--reps", "2000", "--seed", "9"],
        ["bayes-limit", "--a-grid", "1.6", "--p-grid", "0.05,0.02",
         "--c-star", "0.2", "--reps", "20000", "--seed", "9"],
    ])
    def test_header_regenerates_table(self, argv, capsys):
        code = main(argv)
        first = capsys.readouterr().out
        # header: "# qdetect <version> command=... key=value ..."
        regen = []
        for field in first.splitlines()[0].split()[3:]:
            key, _, value = field.partition("=")
            regen += [value] if key == "command" else [f"--{key.replace('_', '-')}", value]
        assert sorted(regen) == sorted(argv)  # every non-default flag is recorded
        assert main(regen) == code
        assert capsys.readouterr().out == first


class TestTruncationGate:
    @pytest.mark.parametrize("argv", [
        ["table1", "--a-grid", "1.5"],
        ["equalizer", "--a-grid", "1.5"],
        ["bayes-limit", "--a-grid", "1.5", "--p-grid", "0.05,0.02"],
    ])
    def test_flag_level_gates_every_monte_carlo_command(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(montecarlo, "TRUNCATION_FLAG_LEVEL", -1.0)
        assert main(argv + ["--reps", "5000", "--seed", "9"]) == EXIT_INVARIANT
        assert "truncation fraction" in capsys.readouterr().err


class TestBayesLimit:
    def test_small_run_emits_rows(self, capsys):
        main(["bayes-limit", "--a-grid", "1.5", "--p-grid", "0.05,0.02",
              "--reps", "20000", "--seed", "9"])
        out = capsys.readouterr().out
        assert "p,reps,ratio,ratio_se" in out
        assert "intercept=" in out

    def test_predictions_are_exact(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("bayes-limit ran an SR simulation")
        monkeypatch.setattr(montecarlo, "sr_replications", fail)
        main(["bayes-limit", "--a-grid", "1.5", "--p-grid", "0.05,0.02",
              "--reps", "20000", "--seed", "9"])
        out = capsys.readouterr().out
        assert "# eq3=3.3868 eq3_se=0.0000 z=" in out
        assert "# eq4=3.4475 eq4_se=0.0000 z=" in out


class TestEqualizer:
    def test_all_ten_rows_unflagged(self, capsys):
        assert main(["equalizer", "--a-grid", "1.5", "--reps", "50000",
                     "--seed", "9"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        body = [ln for ln in lines[2:] if not ln.startswith("#")]
        assert len(body) == 10
        assert all(ln.endswith(",0") for ln in body)

    def test_single_survivor_rows_missing(self, capsys):
        # the runs of 4 that survive to N >= k - 1, from the equalizer's own streams
        law = headstart.HeadStartLaw.yakir(1.5)
        survivors = {k: int((montecarlo.sr_replications(1.5, law, k, 4, 1)[0]
                             >= k - 1).sum()) for k in range(1, 11)}
        assert 1 in survivors.values()
        assert main(["equalizer", "--a-grid", "1.5", "--reps", "4",
                     "--seed", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()[2:]
        rows = {int(row[0]): row[1:] for row in (ln.split(",") for ln in lines)}
        assert sorted(rows) == list(range(1, 11))
        for k, (delay, delay_se, rejected, _) in rows.items():
            if survivors[k] < 2:
                # the rejected column counts the runs that stopped too early
                assert [delay, delay_se, rejected] == [
                    "missing", "missing", str(4 - survivors[k])]
            else:
                assert float(delay_se) > 0.0


class TestCheckSuites:
    def test_props_pass(self, capsys):
        assert main(["props", "--a-grid", "1.5", "--reps", "50000",
                     "--seed", "9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS martingale-drift" in out
        assert "FAIL" not in out
        # the two identity lines print what the library functions return
        assert f"pi0-round-trip: max rel error {coupling_round_trip(9)[1]:.2e}" in out
        assert (f"eq3-eq4-difference: max rel error "
                f"{limit_difference_identity(9)[1]:.2e}") in out

    def test_oracles_pass(self, capsys):
        assert main(["oracles", "--a-grid", "1.5,1.98", "--reps", "100000",
                     "--seed", "9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS erratum-rejected A=1.5" in out
        assert "FAIL" not in out

    def test_oracles_read_the_shared_bound(self, monkeypatch, capsys):
        monkeypatch.setattr(headstart, "ORACLE_Z_LIMIT", 0.0)
        assert main(["oracles", "--a-grid", "1.5", "--reps", "10000",
                     "--seed", "9"]) == EXIT_INVARIANT
        assert "FAIL p0-oracle A=1.5" in capsys.readouterr().out


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

    @pytest.mark.parametrize("check", [
        lambda: headstart.oracle_comparison(1.5, 10**4, -1),
        lambda: coupling_round_trip(-1),
        lambda: limit_difference_identity(-1),
        lambda: _props_checks(build_parser().parse_args(
            ["props", "--a-grid", "1.5", "--reps", "10000", "--seed", "-1"])),
        lambda: coupling_round_trip(1.5),  # not read as seed 1
    ], ids=["oracle_comparison", "coupling_round_trip",
            "limit_difference_identity", "props", "coupling_round_trip_fractional"])
    def test_direct_seed_streams_reject_negative_seed(self, check):
        # the checks that seed their own SeedSequence keep the one seed rule
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
