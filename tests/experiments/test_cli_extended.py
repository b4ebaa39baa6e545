"""Unit tests for the lifetime subcommand, each study kind ``run``
launches (paper grid, agreement grid, fleet)."""

import json
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.spec import NetworkSection, StudySpec
from repro.units import DAY

#: The shipped fleet study (the emergent-rush-hour network demo).
FLEET_STUDY = str(
    Path(__file__).resolve().parents[2] / "examples" / "fleet_study.json"
)


def fleet_run(*extra):
    """``run`` argv for the shipped fleet study plus *extra* flags."""
    return ["run", "--spec", FLEET_STUDY, *extra]


class TestLifetimeCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["lifetime"])
        assert args.capacity_mah == 2500.0
        assert 1000.0 in args.divisors

    def test_prints_table(self, capsys):
        assert main(["lifetime", "--divisors", "1000", "100"]) == 0
        out = capsys.readouterr().out
        assert "Tepoch/1000" in out
        assert "lifetime (years)" in out

    def test_custom_capacity_appears_in_title(self, capsys):
        main(["lifetime", "--capacity-mah", "1200"])
        assert "1200 mAh" in capsys.readouterr().out

    @pytest.mark.parametrize("divisor", ["0", "inf"])
    def test_invalid_divisor_is_an_input_error(self, divisor, capsys):
        assert main(["lifetime", "--divisors", "1000", divisor]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "divisor" in captured.err
        assert "Tepoch/" not in captured.out


class TestNetworkCommand:
    """The fleet study: ``run --spec examples/fleet_study.json``."""

    def test_small_fleet_runs(self, capsys):
        code = main(
            fleet_run(
                "--set", "network.nodes=2",
                "--set", "network.commuters=15",
                "--set", "scenario.epochs=2",
                "--set", "scenario.seed=4",
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sensor-0" in out and "sensor-1" in out
        assert "fleet rho" in out

    def test_factory_defaults_to_registry_rh(self):
        spec = StudySpec.load(FLEET_STUDY)
        assert spec.network == NetworkSection(
            nodes=3, commuters=60, node_factory="SNIP-RH"
        )
        assert spec.zeta_targets == (16.0,)
        assert spec.phi_maxes == (DAY / 100.0,)
        assert spec.epochs == 7

    def test_jobs_with_registry_factory_takes_pool_path(self, capsys):
        # The acceptance criterion end-to-end: a fleet on --jobs 2 with a
        # registry-named factory must report the pool was actually used.
        code = main(
            fleet_run(
                "--set", "network.nodes=2",
                "--set", "network.commuters=10",
                "--set", "scenario.epochs=2",
                "--jobs", "2",
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pool used: yes" in out


class TestGridCommand:
    """The paper grid: ``run`` without ``--spec`` executes StudySpec()."""

    def test_defaults_cover_both_paper_budgets(self):
        args = build_parser().parse_args(["run"])
        assert args.spec is None
        spec = StudySpec()
        assert spec.phi_maxes == (DAY / 1000.0, DAY / 100.0)
        assert spec.replicates == 1
        assert spec.jobs == 1

    def test_streams_cells_and_prints_per_budget_tables(self, capsys):
        code = main(
            [
                "run",
                "--set", "scenario.zeta_targets=[16]",
                "--set", "scenario.epochs=1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Streaming: one progress line per (mechanism, target, budget,
        # replicate) cell, numbered to the full grid size.
        assert "[1/6]" in out and "[6/6]" in out
        # Both budgets appear in the streamed cells and in the tables.
        assert "Phi_max=Tepoch/1000" in out and "Phi_max=Tepoch/100 " in out
        assert "Phi_max = Tepoch/1000" in out and "Phi_max = Tepoch/100" in out
        assert "SNIP-RH" in out

    def test_no_progress_suppresses_streaming(self, capsys):
        code = main(
            [
                "run",
                "--set", "scenario.zeta_targets=[16]",
                "--set", "scenario.epochs=1",
                "--set", "scenario.phi_maxes=[864]",
                "--no-progress",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[1/3]" not in out
        assert "Simulation zeta" in out


#: The paired micro-vs-fast agreement grid on one small cell column.
AGREE = [
    "run",
    "--set", 'axes.engines=["fast", "micro"]',
    "--set", "outputs.with_predictions=false",
    "--set", "scenario.zeta_targets=[16]",
    "--set", "scenario.phi_maxes=[864]",
    "--set", "scenario.epochs=1",
]


class TestAgreeCommand:
    """The agreement grid: ``run`` with two engines on the axis."""

    def test_streams_both_engines_and_prints_delta_tables(self, capsys):
        code = main(AGREE + ["--set", "axes.replicates=2"])
        assert code == 0
        out = capsys.readouterr().out
        # Streaming lines label the engine of each completed run...
        assert "fast " in out and "micro" in out
        # ...and the delta tables carry paired CIs plus the summary.
        assert "Engine agreement (micro - fast)" in out
        assert "d_zeta" in out and "d_probed/epoch" in out
        assert "max |mean delta| across cells" in out

    def test_jobs_takes_pool_path(self, capsys):
        code = main(
            AGREE + ["--set", "axes.replicates=2", "--jobs", "2", "--no-progress"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pool used: yes" in out

    def test_out_writes_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "agree.json"
        csv_path = tmp_path / "agree.csv"
        for path in (json_path, csv_path):
            code = main(AGREE + ["--no-progress", "--out", str(path)])
            assert code == 0
            assert f"wrote {path}" in capsys.readouterr().out
        document = json.loads(json_path.read_text())
        assert document["agreements"]["micro"]["candidate_engine"] == "micro"
        # The study CSV holds both engines' cells, one row per mechanism.
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("engine,")
        assert [line.split(",")[0] for line in lines[1:]] == (
            ["fast"] * 3 + ["micro"] * 3
        )


class TestGridOut:
    def test_out_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code = main(
            [
                "run",
                "--set", "scenario.zeta_targets=[16]",
                "--set", "scenario.epochs=1",
                "--set", "scenario.phi_maxes=[864]",
                "--no-progress",
                "--out", str(path),
            ]
        )
        assert code == 0
        assert f"wrote {path}" in capsys.readouterr().out
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("engine,phi_max,")
        assert len(lines) == 1 + 3  # header + one row per mechanism


class TestNetworkEngine:
    def test_engine_flag_defaults_to_fast(self):
        assert StudySpec.load(FLEET_STUDY).engines == ("fast",)

    def test_micro_engine_fleet_runs(self, capsys):
        code = main(
            fleet_run(
                "--set", "network.nodes=2",
                "--set", "network.commuters=8",
                "--set", "scenario.epochs=1",
                "--set", 'axes.engines=["micro"]',
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet rho" in out
