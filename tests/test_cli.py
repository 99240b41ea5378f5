"""CLI harness tests: table content, rendering, determinism, exit codes."""

import csv
import json
import math
import os
import tracemalloc
from pathlib import Path

import pytest

from isbound import DivergenceKind, Gaussian1D, cli
from isbound.cli import (
    ConfigError,
    build_parser,
    main,
    render_csv,
    render_json,
    run_bounds,
    run_breakdown,
    run_ess,
    run_table1,
    run_table2,
    run_table3,
)

KL = DivergenceKind.KULLBACK_LEIBLER
CHI2 = DivergenceKind.CHI_SQUARED
TV = DivergenceKind.TOTAL_VARIATION
HELL = DivergenceKind.SQUARED_HELLINGER


def by_cell(records):
    return {(r.row_label, r.metric): r for r in records}


class TestTable2:
    def test_kl_and_hellinger_columns(self):
        cells = by_cell(run_table2())
        assert cells[("m=2", KL)].report.threshold == pytest.approx(5.11, abs=0.01)
        assert cells[("m=3.5", KL)].report.threshold == pytest.approx(217.45, abs=0.01)
        assert cells[("m=3.5", HELL)].report.threshold == pytest.approx(11.00, abs=0.01)

    def test_exact_chi2_column_is_flagged_closed_form(self):
        cell = by_cell(run_table2())[("m=2", CHI2)]
        assert cell.divergence.method == "closed_form"
        assert cell.report.threshold == pytest.approx(45.21, abs=0.01)

    def test_quadrature_method_agrees_with_closed(self):
        closed = by_cell(run_table2(method="closed"))
        quad = by_cell(run_table2(method="quadrature"))
        for key, cell in closed.items():
            assert quad[key].divergence.method == "quadrature"
            assert quad[key].divergence.value == pytest.approx(
                cell.divergence.value, rel=1e-8
            )

    def test_single_metric_filter(self):
        records = run_table2(metric="kl")
        assert len(records) == 4
        assert all(r.metric is KL for r in records)


class TestTable3:
    def test_kl_column(self):
        cells = by_cell(run_table3())
        assert cells[("sigma2=0.0001", KL)].report.threshold == pytest.approx(34.67, abs=0.01)
        assert cells[("sigma2=16", KL)].report.threshold == pytest.approx(215.23, abs=0.01)
        assert cells[("sigma2=1e-09", KL)].report.threshold == pytest.approx(6.50e3, rel=0.01)
        assert cells[("sigma2=25", KL)].report.threshold == pytest.approx(1.05e4, rel=0.01)

    def test_hellinger_column(self):
        cells = by_cell(run_table3())
        expected = {"sigma2=1e-09": 94.39, "sigma2=0.0001": 18.87, "sigma2=16": 1.78,
                    "sigma2=25": 2.12}
        for label, value in expected.items():
            assert cells[(label, HELL)].report.threshold == pytest.approx(value, abs=0.01)

    def test_mc_reports_an_infinite_chi2_without_sampling(self, capsys, monkeypatch):
        sample = cli.monte_carlo_divergence

        def no_infinite_chi2(pair, f, n, seed):
            assert not (f.kind is CHI2 and pair.target.variance >= 2), "sampled an infinite chi2"
            return sample(pair, f, n, seed)

        monkeypatch.setattr(cli, "monte_carlo_divergence", no_infinite_chi2)
        assert main(["table3", "--method", "mc", "--mc-samples", "100"]) == 0
        out = capsys.readouterr().out
        for label in ("sigma2=16", "sigma2=25"):
            assert f"\n{label},chi2,---,closed_form,,---,---,---," in out

    def test_heavy_chi2_rows_render_as_dashes(self):
        records = run_table3()
        csv_text = render_csv("table3", records)
        for line in csv_text.splitlines():
            if line.startswith("sigma2=16,chi2") or line.startswith("sigma2=25,chi2"):
                fields = line.split(",")
                assert fields[2] == "---"  # divergence
                assert fields[5] == "---"  # threshold
                assert fields[7] == "---"  # necessary integer
        payload = json.loads(render_json(records, config={}))
        heavy = [
            row
            for row in payload["rows"]
            if row["metric"] == "chi2" and row["row_label"] in ("sigma2=16", "sigma2=25")
        ]
        assert len(heavy) == 2
        assert all(row["divergence"] is None and row["threshold"] is None for row in heavy)


@pytest.mark.parametrize("kwargs, message", [
    pytest.param({"method": "bogus"}, "unknown divergence method 'bogus'", id="method"),
    pytest.param({"metric": "nope"}, "unknown metric 'nope'", id="metric"),
    pytest.param({"metric": "custom"}, "metric 'custom' has no Gaussian closed form",
                 id="custom-metric"),
])
def test_run_table2_rejects_unknown_settings(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        run_table2(**kwargs)


class TestTable1:
    def test_deviation_column_is_tiny(self):
        rows = run_table1([1, 10, 1000], [0.0, 0.1, 1.0])
        assert len(rows) == 3 * 3 * 4
        for row in rows:
            scale = max(1.0, abs(row["bound_symbolic"]))
            assert row["abs_deviation"] <= 1e-12 * scale

    def test_tv_entry(self):
        rows = run_table1([10], [0.1])
        tv_row = next(r for r in rows if r["metric"] == "tv")
        assert tv_row["bound_symbolic"] == pytest.approx(0.95)

    def test_hellinger_entry_at_four(self):
        rows = run_table1([4], [0.0])
        hell_row = next(r for r in rows if r["metric"] == "hellinger")
        assert hell_row["bound_symbolic"] == pytest.approx(1.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            run_table1([0], [0.0])


class TestBounds:
    def test_single_pair_report(self):
        records = run_bounds(Gaussian1D(2, 1), Gaussian1D(0, 1))
        cells = by_cell(records)
        label = "N(2;1)|N(0;1)"
        assert cells[(label, KL)].report.threshold == pytest.approx(5.11, abs=0.01)
        assert cells[(label, TV)].report.threshold == pytest.approx(2.14, abs=0.01)

    def test_labels_are_csv_safe(self):
        for record in run_bounds(Gaussian1D(2, 1), Gaussian1D(0, 1)):
            assert "," not in record.row_label


class TestBreakdown:
    def test_below_threshold_run(self):
        report = run_breakdown(
            Gaussian1D(3, 1), Gaussian1D(0, 1), "kl", n_particles=25, replicates=200, seed=1
        )
        assert report["threshold"] == pytest.approx(49.63, abs=0.01)
        assert report["below_threshold"] is True
        assert report["failure_frequency"] >= 0.5

    def test_identical_pair_runs_clean(self):
        report = run_breakdown(
            Gaussian1D(0, 1), Gaussian1D(0, 1), "kl", n_particles=50, replicates=100, seed=1
        )
        assert report["failure_frequency"] == 0.0
        assert report["below_threshold"] is False

    def test_refuses_infinite_chi2(self):
        from isbound.cli import NumericalError

        with pytest.raises(NumericalError, match="infinite"):
            run_breakdown(
                Gaussian1D(0, 16), Gaussian1D(0, 1), "chi2", n_particles=10, replicates=10
            )


class TestEss:
    def test_identical_pair_gives_full_ess(self):
        report = run_ess(Gaussian1D(0, 1), Gaussian1D(0, 1), n_particles=64, seed=0)
        assert report["ess_kl"] == pytest.approx(64.0, abs=1e-9)
        assert report["ess_chi2"] == pytest.approx(64.0, abs=1e-9)
        assert report["total_mass"] == pytest.approx(1.0, abs=1e-12)

    def test_heavy_pair_orders_diagnostics(self):
        report = run_ess(Gaussian1D(3, 1), Gaussian1D(0, 1), n_particles=100, seed=0)
        assert 1.0 <= report["ess_chi2"] <= report["ess_kl"] <= 100.0

    def test_at_most_two_particle_arrays_are_live(self):
        # the weights are taken without a copy, and the particles are freed
        # before the weights are normalized
        n = 1_000_000
        tracemalloc.start()
        try:
            run_ess(Gaussian1D(2, 1), Gaussian1D(0, 1), n_particles=n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * n


class TestMainEntry:
    def test_success_exit_code_and_stdout(self, capsys):
        assert main(["table2", "--metric", "kl"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("row_label,metric,divergence")
        assert "m=2,kl,2.0,closed_form" in out

    def test_threshold_has_two_decimals_and_full_companion(self, capsys):
        assert main(["table2", "--metric", "kl"]) == 0
        line = capsys.readouterr().out.splitlines()[1].split(",")
        assert line[5] == "5.11"
        assert float(line[6]) == pytest.approx(5.113901150400723, rel=1e-15)
        assert line[7] == "6"

    def test_csv_output_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["table3", "--seed", "5", "--out", str(first)]) == 0
        assert main(["table3", "--seed", "5", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_json_format(self, capsys):
        assert main(["bounds", "--target-mean", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["command"] == "bounds"
        assert len(payload["rows"]) == 4

    def test_config_error_exit_code(self, capsys):
        assert main(["table2", "--eps", "-0.5"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_single_mc_sample_is_a_config_error(self, capsys):
        argv = ["bounds", "--target-mean", "1", "--metric", "kl", "--method", "mc"]
        assert main(argv + ["--mc-samples", "1"]) == 2
        assert "--mc-samples must be at least 2" in capsys.readouterr().err
        assert main(argv + ["--mc-samples", "2"]) == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--bogus"])
        assert excinfo.value.code == 2

    def test_numerical_failure_exit_code(self, capsys):
        rc = main(
            ["breakdown", "--target-var", "16", "--metric", "chi2", "--particles", "5",
             "--replicates", "5"]
        )
        assert rc == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_threshold_at_the_cap_with_a_tiny_budget(self, capsys):
        argv = ["bounds", "--target-mean", "40", "--metric", "tv", "--eps", "1e-17",
                "--delta", "1e-17"]
        assert main(argv) == 0
        assert ",tv,1.0,closed_form,,66666666666666664.00," in capsys.readouterr().out

    def test_threshold_past_float_range_exits_one(self, capsys):
        # a squared Hellinger gap of 4e-400, and a KL of 800 under eps = delta = 0.1
        for flags in (["hellinger", "--eps", "1e-200", "--delta", "1e-200"], ["kl"]):
            assert main(["bounds", "--target-mean", "40", "--metric", *flags]) == 1
            err = capsys.readouterr().err
            assert "numerical failure" in err and "past float range" in err

    def test_seed_env_var_with_flag_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ISBOUND_SEED", "7")
        assert main(["ess", "--target-mean", "1", "--particles", "10"]) == 0
        from_env = capsys.readouterr().out
        assert from_env.splitlines()[1].split(",")[-1] == "7"
        assert main(["ess", "--target-mean", "1", "--particles", "10", "--seed", "9"]) == 0
        from_flag = capsys.readouterr().out
        assert from_flag.splitlines()[1].split(",")[-1] == "9"
        assert from_env != from_flag

    def test_table_without_rows_prints_its_header(self, capsys):
        assert main(["table1", "--n-list", ""]) == 0
        assert capsys.readouterr().out == ",".join(cli.TABLE1_FIELDS) + "\n"
        assert main(["table1", "--n-list", "", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == []

    def test_breakdown_csv_single_record(self, capsys):
        assert main(
            ["breakdown", "--target-mean", "1", "--metric", "kl", "--particles", "50",
             "--replicates", "20", "--seed", "3"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",")[0] == "metric"
        assert len(lines) == 2

    def test_mc_method_smoke(self, capsys):
        rc = main(
            ["bounds", "--target-mean", "1", "--metric", "kl", "--method", "mc",
             "--mc-samples", "20000", "--seed", "2"]
        )
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[1]
        fields = line.split(",")
        assert fields[3] == "monte_carlo"
        assert float(fields[4]) > 0  # stderr column populated
        assert float(fields[2]) == pytest.approx(0.5, abs=0.1)

    def test_cached_parser_serves_mixed_calls(self, capsys, monkeypatch):
        monkeypatch.delenv("ISBOUND_SEED", raising=False)
        first = ["bounds", "--target-mean", "2", "--format", "json"]
        assert main(first) == 0
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--bogus"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for command in ("table1", "table2", "table3", "bounds", "breakdown", "ess"):
            assert command in help_text
        assert main(["table2", "--eps", "-0.5"]) == 2
        assert main(["table3", "--metric", "kl", "--format", "json"]) == 0
        assert main(["bounds", "--target-mean", "1", "--metric", "tv", "--seed", "4"]) == 0
        assert main(["table1", "--n-list", "1,2"]) == 0
        assert main(["ess", "--particles", "10"]) == 0
        capsys.readouterr()
        assert main(first) == 0
        assert capsys.readouterr().out == expected
        assert build_parser() is build_parser()

    def test_seed_env_var_is_read_on_every_call(self, capsys, monkeypatch):
        argv = ["ess", "--target-mean", "1", "--particles", "10"]
        for seed in ("4", "5"):
            monkeypatch.setenv("ISBOUND_SEED", seed)
            assert main(argv) == 0
            assert capsys.readouterr().out.splitlines()[1].split(",")[-1] == seed


# commands that draw from the seed
SEEDED_ARGV = {
    "bounds-mc": ["bounds", "--target-mean", "1", "--metric", "kl", "--method", "mc",
                  "--mc-samples", "100"],
    "breakdown": ["breakdown", "--target-mean", "1", "--metric", "kl", "--particles", "5",
                  "--replicates", "5"],
    "ess": ["ess", "--particles", "10"],
}

NON_FINITE_ARGV = {
    "target-mean-nan": ["bounds", "--target-mean", "nan"],
    "target-var-inf": ["bounds", "--target-var", "inf"],
    "proposal-mean-minus-inf": ["ess", "--proposal-mean=-inf"],
    "proposal-var-nan": ["breakdown", "--proposal-var", "nan", "--metric", "kl"],
    "eps-nan": ["table2", "--eps", "nan"],
    "delta-inf": ["table3", "--delta", "inf"],
    "eps-list-nan": ["table1", "--eps-list", "0,nan"],
}


# the flags each command does not read, with a value each would accept
UNREAD_FLAGS = {
    "table1": ("--eps", "--delta", "--metric", "--method", "--mc-samples", "--target-mean",
               "--particles", "--replicates"),
    "table2": ("--target-mean", "--particles", "--replicates", "--n-list"),
    "table3": ("--target-mean", "--particles", "--replicates", "--n-list"),
    "bounds": ("--particles", "--replicates", "--n-list"),
    "breakdown": ("--method", "--mc-samples", "--n-list"),
    "ess": ("--eps", "--delta", "--metric", "--method", "--mc-samples", "--replicates",
            "--n-list"),
}
FLAG_VALUES = {"--eps": "9", "--delta": "0.2", "--metric": "tv", "--method": "mc",
               "--mc-samples": "10", "--target-mean": "1", "--particles": "5",
               "--replicates": "5", "--n-list": "1,2"}
COMMAND_ARGV = {
    "table1": ["table1", "--n-list", "1,2"],
    "table2": ["table2"],
    "table3": ["table3", "--metric", "kl"],
    "bounds": ["bounds"],
    "breakdown": ["breakdown", "--metric", "kl", "--particles", "5", "--replicates", "5"],
    "ess": ["ess", "--particles", "10"],
}


class TestCommandFlags:
    @pytest.mark.parametrize(
        "command,flag", [(c, f) for c, flags in sorted(UNREAD_FLAGS.items()) for f in flags]
    )
    def test_unread_flag_is_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*COMMAND_ARGV[command], flag, FLAG_VALUES[flag]])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
    def test_config_records_only_read_flags(self, command, capsys):
        assert main([*COMMAND_ARGV[command], "--seed", "2", "--format", "json"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["seed"] == 2
        assert not set(UNREAD_FLAGS[command]) & {
            "--" + key.replace("_", "-") for key in config
        }

    def test_breakdown_needs_a_single_metric(self, capsys):
        assert main(["breakdown", "--particles", "5", "--replicates", "5"]) == 2
        assert "single metric" in capsys.readouterr().err


class TestInvalidConfigExitsTwo:
    @pytest.mark.parametrize("command", sorted(SEEDED_ARGV))
    def test_negative_seed_flag(self, command, capsys):
        assert main([*SEEDED_ARGV[command], "--seed", "-1"]) == 2
        assert "config error: --seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SEEDED_ARGV))
    def test_negative_seed_env_var(self, command, capsys, monkeypatch):
        monkeypatch.setenv("ISBOUND_SEED", "-1")
        assert main(SEEDED_ARGV[command]) == 2
        assert "config error: ISBOUND_SEED must be non-negative" in capsys.readouterr().err

    def test_negative_seed_without_draws(self, capsys):
        assert main(["table2", "--seed", "-3"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(NON_FINITE_ARGV))
    def test_non_finite_value(self, case, capsys):
        assert main(NON_FINITE_ARGV[case]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_path(self, where, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
        assert main(["ess", "--particles", "10", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"isbound: config error: cannot write --out {path}: ")

    @pytest.mark.parametrize("where", ["missing-directory", "directory", "file-as-directory"])
    def test_unwritable_out_path_fails_before_computing(self, where, tmp_path, capsys,
                                                        monkeypatch):
        def no_sampling(*args):
            raise AssertionError("an unwritable --out must be refused before sampling")

        monkeypatch.setattr(cli, "sample_particles", no_sampling)
        (tmp_path / "file").write_text("kept")
        path = {"missing-directory": tmp_path / "missing" / "x.csv", "directory": tmp_path,
                "file-as-directory": tmp_path / "file" / "x.csv"}[where]
        assert main(["ess", "--particles", "5000000", "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"isbound: config error: cannot write --out {path}: "
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert (tmp_path / "file").read_text() == "kept"

    # the --out check also needs write access to /dev, which a non-root user lacks
    @pytest.mark.skipif(not (os.path.exists("/dev/full") and os.access("/dev", os.W_OK)),
                        reason="needs /dev/full in a writable /dev")
    def test_out_that_fails_while_writing(self, capsys):
        # /dev/full passes the --out check, and every write to it fails with ENOSPC
        assert main(["table1", "--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "isbound: config error: cannot write --out /dev/full: No space left on device\n"
        )

    def test_checking_out_leaves_an_existing_file_as_it_is(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("kept")
        # a writable path is checked, then the run fails before any output is written
        argv = ["breakdown", "--target-var", "16", "--metric", "chi2", "--out", str(path)]
        assert main(argv) == 1
        assert "numerical failure" in capsys.readouterr().err
        assert path.read_text() == "kept"

    def test_every_numeric_flag_declares_its_range(self):
        for name, command in cli._COMMANDS.items():
            for flag, options in command.flags:
                # --seed is checked with ISBOUND_SEED by _resolve_seed
                if options.get("type") in (int, float) and flag != "--seed":
                    assert "check" in options, (name, flag)

    @pytest.mark.parametrize("argv, message", [
        (["ess", "--target-var", "0"], "--target-var must be positive"),
        (["breakdown", "--proposal-var", "-1", "--metric", "kl"],
         "--proposal-var must be positive"),
        (["table3", "--delta", "0"], "--delta must be positive"),
        (["ess", "--particles", "0"], "--particles must be at least 1"),
        (["breakdown", "--replicates", "0", "--metric", "kl"], "--replicates must be at least 1"),
        (["table2", "--mc-samples", "0"], "--mc-samples must be at least 1"),
        # every value is finite before any range is checked
        (["bounds", "--target-var", "0", "--eps", "nan"], "--eps must be finite"),
        (["breakdown", "--eps", "0", "--particles", "0", "--metric", "kl"],
         "--eps must be positive"),
    ])
    def test_range_errors_name_the_flag(self, argv, message, capsys):
        assert main(argv) == 2
        assert f"isbound: config error: {message}\n" == capsys.readouterr().err

    def test_non_integer_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("ISBOUND_SEED", "7.5")
        assert main(["table2"]) == 2
        assert "config error: ISBOUND_SEED must be an integer, got '7.5'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag,raw,message", [
        ("--n-list", "1,two", "bad list '1,two'"),
        ("--eps-list", "0,-1", "table1 epsilons must be >= 0, got -1.0"),
    ], ids=["n-list-word", "eps-list-negative"])
    def test_malformed_list_entry(self, flag, raw, message, capsys):
        assert main(["table1", flag, raw]) == 2
        assert f"config error: {message}" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"

# byte-exact outputs; the closed-form runs were recorded before the CLI moved
# to one row serializer and do not depend on the platform's exp.  The Monte
# Carlo and quadrature runs do, and pin the clamp of a negative KL estimate
# and the quadrature table on this platform.
GOLDEN_CLI_RUNS = {
    "cli_table1.csv": "table1",
    "cli_table2.csv": "table2 --seed 3",
    "cli_table2.json": "table2 --seed 3 --format json",
    "cli_table3.csv": "table3 --seed 3",
    "cli_table3.json": "table3 --seed 3 --format json",
    "cli_bounds_infinite_chi2.csv": "bounds --target-mean 1.3 --target-var 3 --seed 3",
    "cli_bounds_infinite_chi2.json": "bounds --target-mean 1.3 --target-var 3 --seed 3 "
    "--format json",
    "cli_breakdown_kl_n25.csv": "breakdown --target-mean 3 --particles 25 --replicates 1000 "
    "--metric kl --seed 7",
    "cli_bounds_mc_clamped.csv": "bounds --target-mean 0.01 --method mc --mc-samples 1000 "
    "--seed 5",
    "cli_bounds_mc_clamped.json": "bounds --target-mean 0.01 --method mc --mc-samples 1000 "
    "--seed 5 --format json",
    "cli_table3_quadrature.csv": "table3 --method quadrature",
    "cli_table2_quadrature.json": "table2 --method quadrature --format json",
    "cli_bounds_infinite_chi2_quadrature.json": "bounds --target-mean 1.3 --target-var 3 "
    "--method quadrature --format json",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CLI_RUNS))
def test_cli_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*GOLDEN_CLI_RUNS[name].split(), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("cli_*.csv")), ids=lambda p: p.name)
def test_golden_csv_rows_match_header_width(path):
    header, *rows = csv.reader(path.read_text().splitlines())
    assert rows
    assert all(len(row) == len(header) for row in rows)
