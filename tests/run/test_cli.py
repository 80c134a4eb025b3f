"""Unit tests for the CLI."""

import pytest

from repro.run.cli import build_parser, main


class TestArgumentParsing:
    def test_preset_and_model(self):
        args = build_parser().parse_args(
            ["--preset", "scale_sim_v2_default", "--model", "toy_gemm"]
        )
        assert args.preset == "scale_sim_v2_default"
        assert args.model == "toy_gemm"

    def test_config_and_topology(self):
        args = build_parser().parse_args(["-c", "x.cfg", "-t", "net.csv"])
        assert args.config == "x.cfg"
        assert args.topology == "net.csv"

    def test_source_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "toy_gemm"])

    def test_mutually_exclusive_sources(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["-c", "x.cfg", "--preset", "scale_sim_v2_default", "--model", "toy_gemm"]
            )


class TestMain:
    def test_preset_model_run(self, tmp_path, capsys):
        code = main(
            ["--preset", "scale_sim_v2_default", "--model", "toy_gemm", "-p", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total cycles:" in out
        assert "COMPUTE_REPORT" in out

    def test_sweep_summary_counts_a_lone_dram_config_as_a_grid_pass(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "sweep",
                "--preset",
                "google_tpu_v2",
                "--model",
                "toy_gemm",
                "--set",
                "dram.enabled=true,false",
                "-p",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # One DRAM config and one ideal-bandwidth point: the DRAM one
        # resolves as a grid of one.
        assert (
            "  unit 0: 2 points, 1 word-size line stream, 1 grid pass (1 DRAM configs)\n"
            in out
        )

    def test_no_reports_flag(self, tmp_path, capsys):
        code = main(
            [
                "--preset",
                "scale_sim_v2_default",
                "--model",
                "toy_gemm",
                "-p",
                str(tmp_path),
                "--no-reports",
            ]
        )
        assert code == 0
        assert "report:" not in capsys.readouterr().out

    def test_config_file_and_topology_csv(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[general]\nrun_name = cli_test\n")
        topo = tmp_path / "t.csv"
        topo.write_text("Layer name, M, N, K\ng1, 8, 8, 8\n")
        code = main(["-c", str(cfg), "-t", str(topo), "-p", str(tmp_path), "--no-reports"])
        assert code == 0
        assert "cli_test" in capsys.readouterr().out

    def test_scaled_model(self, tmp_path, capsys):
        code = main(
            [
                "--preset",
                "scale_sim_v2_default",
                "--model",
                "resnet18",
                "--scale",
                "16",
                "-p",
                str(tmp_path),
                "--no-reports",
            ]
        )
        assert code == 0
        assert "resnet18" in capsys.readouterr().out

    def test_layout_evaluator_rejects_unknown(self):
        # Neither subcommand has an engine or layout-evaluator option.
        from repro.run.cli import build_sweep_parser

        for flag, value in (("--layout-evaluator", "reference"), ("--engine", "batched")):
            for parser in (build_parser(), build_sweep_parser()):
                with pytest.raises(SystemExit):
                    parser.parse_args(
                        ["--preset", "scale_sim_v2_default", "--model", "toy_gemm",
                         flag, value]
                    )

    def test_energy_output_for_energy_preset(self, tmp_path, capsys):
        code = main(
            [
                "--preset",
                "eyeriss_like",
                "--model",
                "toy_gemm",
                "-p",
                str(tmp_path),
                "--no-reports",
            ]
        )
        assert code == 0
        assert "energy:" in capsys.readouterr().out
