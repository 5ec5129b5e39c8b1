import pytest

from qdetect import montecarlo
from qdetect.cli import (
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_INVARIANT,
    EXIT_OK,
    build_parser,
    main,
)

FAST_TABLE = ["table1", "--a-grid", "1.5,1.7", "--reps", "20000", "--seed", "9"]


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

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("QDETECT_SEED", "777")
        assert build_parser().parse_args(["props"]).seed == 777

    def test_seed_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("QDETECT_SEED", "777")
        assert build_parser().parse_args(["props", "--seed", "5"]).seed == 5


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
    def test_single_p_point_is_inconclusive(self, capsys):
        code = main(["bayes-limit", "--a-grid", "1.5", "--p-grid", "0.02",
                     "--reps", "20000", "--seed", "9"])
        assert code == EXIT_INCONCLUSIVE
        out = capsys.readouterr().out
        assert "single grid point" in out
        assert "verdict=inconclusive" in out

    def test_small_run_emits_rows(self, capsys):
        main(["bayes-limit", "--a-grid", "1.5", "--p-grid", "0.05,0.02",
              "--reps", "20000", "--seed", "9"])
        out = capsys.readouterr().out
        assert "p,reps,ratio,ratio_se" in out
        assert "intercept=" in out


class TestEqualizer:
    def test_all_ten_rows_unflagged(self, capsys):
        assert main(["equalizer", "--a-grid", "1.5", "--reps", "50000",
                     "--seed", "9"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        body = [ln for ln in lines[2:] if not ln.startswith("#")]
        assert len(body) == 10
        assert all(ln.endswith(",0") for ln in body)

    def test_single_survivor_rows_missing(self, capsys):
        # at this seed one of 4 runs survives for k = 3 and for k = 6
        assert main(["equalizer", "--a-grid", "1.5", "--reps", "4",
                     "--seed", "1"]) == EXIT_OK
        rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[2:]]
        assert rows[2][1:3] == ["missing", "missing"]
        assert rows[5][1:3] == ["missing", "missing"]
        assert all(row[2] != "0.0000" for row in rows)


class TestCheckSuites:
    def test_props_pass(self, capsys):
        assert main(["props", "--a-grid", "1.5", "--reps", "50000",
                     "--seed", "9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS martingale-drift" in out
        assert "FAIL" not in out

    def test_oracles_pass(self, capsys):
        assert main(["oracles", "--a-grid", "1.5,1.98", "--reps", "100000",
                     "--seed", "9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS erratum-rejected A=1.5" in out
        assert "FAIL" not in out


class TestConfigErrors:
    @pytest.mark.parametrize("argv", [
        ["table1", "--reps", "0"],
        ["table1", "--a-grid", "2.5"],
        ["table1", "--a-grid", ","],
        ["table1", "--workers", "0"],
        ["bayes-limit", "--p-grid", ","],
        ["bayes-limit", "--c-star", "-0.1"],
        ["table1", "--reps", "1"],
        ["bayes-limit", "--reps", "1"],
    ])
    def test_exit_code_four(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
