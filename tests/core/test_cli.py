"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults_match_paper(self):
        args = build_parser().parse_args(["run"])
        assert args.samples == 128
        assert args.batch_size == 1
        assert args.solver == "evolutionary"

    def test_unknown_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--solver", "magic"])


class TestCommands:
    def test_run_small_experiment(self, capsys):
        exit_code = main(
            ["run", "--samples", "8", "--batch-size", "4", "--seed", "3", "--solver", "random"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Samples: 8" in output
        assert "Table 1" in output

    def test_run_json_output(self, capsys):
        exit_code = main(
            ["run", "--samples", "6", "--batch-size", "3", "--seed", "1", "--json"]
        )
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_samples"] == 6
        assert data["metrics"]["total_colors"] == 6

    def test_run_with_rgb_target(self, capsys):
        exit_code = main(
            ["run", "--samples", "4", "--batch-size", "2", "--seed", "1", "--target", "100,120,140"]
        )
        assert exit_code == 0

    def test_run_with_malformed_target_fails(self):
        with pytest.raises(SystemExit):
            main(["run", "--samples", "4", "--target", "1,2"])

    def test_sweep_command(self, capsys):
        exit_code = main(
            ["sweep", "--batch-sizes", "2,8", "--samples", "16", "--seed", "5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output
        assert "batch size" in output

    def test_sweep_rejects_malformed_batch_sizes(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--batch-sizes", "two,four"])

    def test_sweep_rejects_duplicate_batch_sizes(self, capsys):
        exit_code = main(["sweep", "--batch-sizes", "4,4,8", "--samples", "8"])
        assert exit_code == 2
        assert "error: duplicate batch size 4" in capsys.readouterr().err

    def test_campaign_command_with_portal_dir(self, capsys, tmp_path):
        portal_dir = tmp_path / "portal"
        exit_code = main(
            [
                "campaign",
                "--runs",
                "2",
                "--samples-per-run",
                "3",
                "--seed",
                "2",
                "--portal-dir",
                str(portal_dir),
            ]
        )
        assert exit_code == 0
        assert "summary view" in capsys.readouterr().out
        assert any(portal_dir.rglob("*.json"))

    def test_fleet_status_command_with_attach_and_drain(self, capsys):
        exit_code = main(
            [
                "fleet-status",
                "--runs", "5",
                "--samples-per-run", "3",
                "--seed", "5",
                "--n-workcells", "2",
                "--attach-after", "1",
                "--drain-after", "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "attached workcell-2" in out
        assert "draining workcell-0" in out
        assert "fleet event: workcell-attached workcell-2" in out
        assert "fleet event: workcell-retired workcell-0" in out
        assert "5 runs streamed to the portal (5 records)" in out

    def test_fleet_status_json_output(self, capsys):
        exit_code = main(
            ["fleet-status", "--runs", "2", "--samples-per-run", "3", "--seed", "5", "--json"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["status"]["n_active"] == 2
        assert len(payload["status"]["shards"]) == 2
        assert all(shard["state"] == "active" for shard in payload["status"]["shards"])

    def test_solvers_listing(self, capsys):
        assert main(["solvers"]) == 0
        output = capsys.readouterr().out
        for name in ("evolutionary", "bayesian", "random", "annealing", "sobol"):
            assert name in output

    def test_targets_listing(self, capsys):
        assert main(["targets"]) == 0
        assert "paper-grey" in capsys.readouterr().out

    def test_workcell_description(self, capsys):
        assert main(["workcell"]) == 0
        output = capsys.readouterr().out
        for module in ("sciclops", "pf400", "ot2", "barty", "camera"):
            assert module in output

    def test_invalid_configuration_returns_error_code(self, capsys):
        # batch size larger than sample budget -> ExperimentConfig ValueError.
        exit_code = main(["run", "--samples", "4", "--batch-size", "8", "--seed", "1"])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err


class TestPositiveIntValidation:
    @pytest.mark.parametrize("value", ["0", "-1", "-7"])
    def test_campaign_rejects_non_positive_n_ot2(self, value, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--n-ot2", value])
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_campaign_rejects_non_positive_n_workcells(self, value, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--n-workcells", value])
        assert "positive integer" in capsys.readouterr().err

    def test_sweep_rejects_non_positive_n_ot2(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--n-ot2", "0"])
        assert "positive integer" in capsys.readouterr().err

    def test_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--n-workcells", "two"])
        assert "expected an integer" in capsys.readouterr().err

    def test_campaign_command_accepts_n_workcells(self, capsys):
        exit_code = main(
            [
                "campaign",
                "--runs",
                "2",
                "--samples-per-run",
                "3",
                "--seed",
                "4",
                "--n-workcells",
                "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "sharded across 2 workcells" in out


class TestPositiveFloatValidation:
    @pytest.mark.parametrize("value", ["0", "-1.5", "-7"])
    def test_non_positive_speedup_rejected(self, value, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--speedup", value])
        assert "positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_speedup_rejected(self, value, capsys):
        with pytest.raises(SystemExit):
            # The '=' form keeps argparse from reading '-inf' as an option.
            main(["run", f"--speedup={value}"])
        assert "finite number" in capsys.readouterr().err

    def test_non_numeric_speedup_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--speedup", "fast"])
        assert "expected a number" in capsys.readouterr().err

    def test_fractional_speedup_accepted(self):
        args = build_parser().parse_args(["run", "--speedup", "2.5"])
        assert args.speedup == 2.5

    def test_speedup_defaults_to_1000(self):
        for command in ("run", "campaign"):
            args = build_parser().parse_args([command])
            assert args.transport == "sim"
            assert args.speedup == 1000.0


class TestPacedTransportCommands:
    def test_run_with_paced_transport_reports_delivery(self, capsys):
        exit_code = main(
            [
                "run",
                "--samples", "4",
                "--batch-size", "2",
                "--seed", "3",
                "--solver", "random",
                "--transport", "paced",
                "--speedup", "100000",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Transport paced-mock" in out
        assert "completions delivered out-of-band" in out

    def test_paced_run_scores_match_sim_run(self, capsys):
        args = ["run", "--samples", "4", "--batch-size", "2", "--seed", "11", "--json"]
        assert main(args) == 0
        sim = json.loads(capsys.readouterr().out)
        assert main(args + ["--transport", "paced", "--speedup", "100000"]) == 0
        paced = json.loads(capsys.readouterr().out)
        assert paced["best_score"] == sim["best_score"]
        assert [s["score"] for s in paced["samples"]] == [s["score"] for s in sim["samples"]]

    def test_campaign_with_paced_transport_reports_delivery(self, capsys):
        exit_code = main(
            [
                "campaign",
                "--runs", "2",
                "--samples-per-run", "3",
                "--seed", "2",
                "--transport", "paced",
                "--speedup", "100000",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Paced transport (speedup 100000x)" in out
        assert "completions delivered out-of-band" in out

    def test_unknown_transport_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--transport", "telepathy"])

    def test_campaign_accepts_stealing_lpt_assignment(self, capsys):
        exit_code = main(
            [
                "campaign",
                "--runs", "3",
                "--samples-per-run", "3",
                "--seed", "6",
                "--n-ot2", "2",
                "--assignment", "stealing-lpt",
            ]
        )
        assert exit_code == 0
        assert "summary view" in capsys.readouterr().out

    def test_fleet_status_table_shows_transport_column(self, capsys):
        exit_code = main(
            ["fleet-status", "--runs", "2", "--samples-per-run", "3", "--seed", "5"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "transport" in out
        assert "sim" in out

    def test_fleet_status_table_shows_retry_and_resync_columns(self, capsys):
        exit_code = main(
            ["fleet-status", "--runs", "2", "--samples-per-run", "3", "--seed", "5"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "retries" in out
        assert "resyncs" in out

    def test_fleet_status_json_includes_retry_counters(self, capsys):
        exit_code = main(
            ["fleet-status", "--runs", "2", "--samples-per-run", "3", "--seed", "5", "--json"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        for shard in payload["status"]["shards"]:
            assert shard["retries"] == 0 and shard["resyncs"] == 0  # sim shards


class TestModuleSpeedsFlag:
    @pytest.mark.parametrize("value", ["ot2=0", "ot2=-2", "ot2=nan", "pf400=inf"])
    def test_non_positive_or_non_finite_factor_rejected(self, value, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--module-speeds", value])
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["ot2", "ot2=fast", "=2.0"])
    def test_malformed_spec_rejected(self, value, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--module-speeds", value])
        assert "error" in capsys.readouterr().err

    def test_unknown_module_is_a_clean_error(self, capsys):
        exit_code = main(
            [
                "campaign",
                "--runs", "1",
                "--samples-per-run", "2",
                "--n-workcells", "2",
                "--module-speeds", "warp_drive=2.0",
            ]
        )
        assert exit_code == 2
        assert "unknown module" in capsys.readouterr().err

    def test_flag_count_must_match_fleet_size(self, capsys):
        exit_code = main(
            [
                "campaign",
                "--runs", "1",
                "--samples-per-run", "2",
                "--n-workcells", "3",
                "--module-speeds", "ot2=1.0",
                "--module-speeds", "ot2=2.0",
            ]
        )
        assert exit_code == 2
        assert "once per workcell" in capsys.readouterr().err

    def test_parsed_into_profiles(self):
        args = build_parser().parse_args(
            ["campaign", "--module-speeds", "ot2=2.5,pf400=0.5"]
        )
        assert len(args.module_speeds) == 1
        assert args.module_speeds[0].to_dict() == {"ot2": 2.5, "pf400": 0.5}

    def test_heterogeneous_campaign_runs_end_to_end(self, capsys):
        exit_code = main(
            [
                "campaign",
                "--runs", "2",
                "--samples-per-run", "3",
                "--seed", "4",
                "--n-workcells", "2",
                "--assignment", "lookahead",
                "--module-speeds", "ot2=1.0",
                "--module-speeds", "ot2=2.0,pf400=2.0",
            ]
        )
        assert exit_code == 0
        assert "sharded across 2 workcells" in capsys.readouterr().out

    def test_fleet_status_shows_drift_column(self, capsys):
        exit_code = main(
            [
                "fleet-status",
                "--runs", "3",
                "--samples-per-run", "3",
                "--seed", "5",
                "--assignment", "lookahead",
                "--module-speeds", "ot2=1.0",
                "--module-speeds", "ot2=2.0",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "drift" in out
        assert "queue mean" in out


class TestWireTransportCommands:
    def test_campaign_with_wire_transport_and_chaos_seed(self, capsys):
        exit_code = main(
            [
                "campaign",
                "--runs", "2",
                "--samples-per-run", "3",
                "--seed", "2",
                "--transport", "wire",
                "--speedup", "1000000",
                "--chaos-seed", "7",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Wire transport (speedup 1e+06x)" in out
        assert "Wire recovery:" in out
        assert "(chaos seed 7)" in out

    def test_chaos_seed_without_wire_transport_is_a_clean_error(self, capsys):
        # No traceback: run_campaign's ValueError surfaces as `error: ...`
        # with exit code 2, like every other invalid configuration.
        exit_code = main(
            ["campaign", "--runs", "1", "--samples-per-run", "2", "--chaos-seed", "7"]
        )
        assert exit_code == 2
        assert "chaos schedules require transport='wire'" in capsys.readouterr().err

    def test_wire_run_scores_match_sim_run(self, capsys):
        args = ["run", "--samples", "4", "--batch-size", "2", "--seed", "11", "--json"]
        assert main(args) == 0
        sim = json.loads(capsys.readouterr().out)
        assert main(args + ["--transport", "wire", "--speedup", "1000000"]) == 0
        wire = json.loads(capsys.readouterr().out)
        assert wire["best_score"] == sim["best_score"]
        assert [s["score"] for s in wire["samples"]] == [s["score"] for s in sim["samples"]]


class TestSoakCommand:
    SMALL = [
        "soak",
        "--runs", "1",
        "--samples-per-run", "2",
        "--batch-size", "2",
        "--n-workcells", "1",
        "--speedup", "1000000",
    ]

    def test_soak_invariant_holds_and_reports_per_seed(self, capsys):
        exit_code = main(self.SMALL + ["--seeds", "101,202"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "chaos seed    101: ok" in out
        assert "chaos seed    202: ok" in out
        assert "Soak invariant held for all 2 seed(s)" in out

    def test_soak_writes_frame_event_logs(self, capsys, tmp_path):
        log_dir = tmp_path / "soak-logs"
        exit_code = main(self.SMALL + ["--seeds", "101", "--log-dir", str(log_dir)])
        assert exit_code == 0
        assert (log_dir / "soak-seed-101.json").exists()
        summary = json.loads((log_dir / "summary.json").read_text())
        assert summary["ok"] is True
        assert "retries" in summary["cases"][0]["transport_stats"]

    def test_soak_json_output(self, capsys):
        exit_code = main(self.SMALL + ["--seeds", "303", "--json"])
        assert exit_code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["ok"] is True
        assert payload["cases"][0]["chaos_seed"] == 303

    def test_soak_rejects_malformed_seeds(self):
        with pytest.raises(SystemExit):
            main(["soak", "--seeds", "one,two"])
        with pytest.raises(SystemExit):
            main(["soak", "--seeds", ","])

    def test_soak_defaults_to_builtin_matrix(self):
        from repro.wei.chaos.soak import DEFAULT_SEED_MATRIX

        args = build_parser().parse_args(["soak"])
        assert args.seeds is None  # resolved to DEFAULT_SEED_MATRIX at run time
        assert len(DEFAULT_SEED_MATRIX) >= 3
