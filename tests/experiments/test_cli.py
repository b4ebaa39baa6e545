"""Unit tests for the command-line interface."""

import argparse

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self):
        args = build_parser().parse_args(["analyze"])
        assert args.budget_divisor == 1000.0
        assert args.targets == [16.0, 24.0, 32.0, 40.0, 48.0, 56.0]

    def test_run_is_the_only_study_command(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert list(subparsers.choices) == [
            "analyze", "run", "gain", "lifetime", "lint", "worker",
            "serve", "cache",
        ]


class TestCommands:
    def test_analyze_prints_all_metrics(self, capsys):
        assert main(["analyze", "--targets", "16", "24"]) == 0
        out = capsys.readouterr().out
        assert "zeta" in out and "Phi" in out and "rho" in out
        assert "SNIP-RH" in out and "SNIP-OPT" in out and "SNIP-AT" in out

    def test_simulate_runs_small_grid(self, capsys):
        # One budget's simulation tables: the default study narrowed by
        # --set overrides.
        code = main(
            [
                "run",
                "--set", "scenario.zeta_targets=[16]",
                "--set", "scenario.epochs=1",
                "--set", "scenario.phi_maxes=[864]",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Simulation" in out
        assert "SNIP-RH" in out

    def test_gain_prints_surface(self, capsys):
        assert main(["gain"]) == 0
        out = capsys.readouterr().out
        assert "Phi_AT / Phi_rh" in out
        assert "frh/fother" in out
