"""CLI tests for the spec-driven study workflow.

``run --spec`` executes a StudySpec file (with ``--set`` dotted-path
overrides and the ``--gate`` agreement gate); without ``--spec`` it
executes ``StudySpec()``, and ``--emit-spec`` writes the effective
study file instead of running it.
"""

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.agreement import AgreementPoint, AgreementResult
from repro.experiments.cli import main
from repro.experiments.spec import StudyDocument, StudySpec
from repro.experiments.stats import IntervalEstimate

#: The shipped example specs.
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def write_spec(tmp_path, **overrides):
    """A tiny single-engine grid spec on disk."""
    kwargs = dict(
        name="cli-study",
        zeta_targets=(16.0,),
        phi_maxes=(864.0,),
        epochs=1,
        seed=1,
    )
    kwargs.update(overrides)
    path = tmp_path / "study.json"
    StudySpec(**kwargs).save(str(path))
    return str(path)


class TestRunCommand:
    def test_runs_spec_file_and_prints_tables(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        assert main(["run", "--spec", path, "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "study 'cli-study'" in out
        assert "Simulation zeta" in out
        assert "SNIP-RH" in out
        # A serial run reports the transport it ran on, like any other.
        assert "1 jobs via 'serial' transport, pool used: no" in out

    def test_serial_line_reports_one_job_whatever_the_spec_asks(
        self, tmp_path, capsys
    ):
        path = write_spec(tmp_path, jobs=4)
        assert main(
            ["run", "--spec", path, "--transport", "serial", "--no-progress"]
        ) == 0
        out = capsys.readouterr().out
        assert "study fan-out: 1 jobs via 'serial' transport, pool used: no" in out

    def test_pool_line_reports_the_jobs_it_fanned_out_on(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        assert main(["run", "--spec", path, "--jobs", "2", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "study fan-out: 2 jobs via 'pool' transport, pool used: yes" in out

    def test_streams_progress_by_default(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        assert main(["run", "--spec", path]) == 0
        out = capsys.readouterr().out
        assert "[1/3]" in out and "[3/3]" in out

    def test_jobs_flag_takes_pool_path(self, tmp_path, capsys):
        path = write_spec(tmp_path, zeta_targets=(16.0, 24.0))
        assert main(["run", "--spec", path, "--jobs", "2", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "pool used: yes" in out

    def test_out_writes_loadable_study_document(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        artifact = tmp_path / "result.json"
        code = main(
            ["run", "--spec", path, "--no-progress", "--out", str(artifact)]
        )
        assert code == 0
        assert f"wrote {artifact}" in capsys.readouterr().out
        document = StudyDocument.load(str(artifact))
        assert document.spec.name == "cli-study"
        assert document.spec.out == str(artifact)
        assert len(document.cells()) == 3
        assert document.cells()[0]["engine"] == "fast"

    def test_set_overrides_apply(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        code = main(
            [
                "run", "--spec", path, "--no-progress",
                "--set", "scenario.epochs=2",
                "--set", "scenario.zeta_targets=[16, 24]",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 epochs" in out
        assert "24.0" in out

    def test_bad_set_path_fails_with_diagnostic(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        code = main(["run", "--spec", path, "--set", "scenario.epoch=2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "scenario.epoch" in err

    def test_missing_spec_file_fails_with_diagnostic(self, capsys):
        code = main(["run", "--spec", "/nonexistent/study.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_spec_path_fails_with_diagnostic(self, tmp_path, capsys):
        code = main(["run", "--spec", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_spec_batch_size_reaches_the_executor(self, tmp_path, monkeypatch):
        seen = {}
        import repro.experiments.cli as cli_module

        real = cli_module.run_study

        def spy(spec, *, executor=None, **kwargs):
            seen["batch_size"] = executor.batch_size
            return real(spec, executor=executor, **kwargs)

        monkeypatch.setattr(cli_module, "run_study", spy)
        path = write_spec(tmp_path, zeta_targets=(16.0, 24.0), batch_size=7)
        assert main(["run", "--spec", path, "--jobs", "2", "--no-progress"]) == 0
        assert seen["batch_size"] == 7

    def test_emit_spec_writes_effective_spec(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        emitted = tmp_path / "effective.json"
        code = main(
            [
                "run", "--spec", path, "--set", "scenario.epochs=3",
                "--emit-spec", str(emitted),
            ]
        )
        assert code == 0
        assert f"wrote spec {emitted}" in capsys.readouterr().out
        assert StudySpec.load(str(emitted)).epochs == 3

    def test_emit_spec_without_spec_writes_the_default_study(self, tmp_path):
        emitted = tmp_path / "default.json"
        assert main(["run", "--emit-spec", str(emitted)]) == 0
        assert StudySpec.load(str(emitted)) == StudySpec()

    def test_agreement_study_prints_delta_tables(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            mechanisms=("SNIP-AT",),
            engines=("fast", "micro"),
            replicates=2,
            with_predictions=False,
        )
        assert main(["run", "--spec", path, "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "Engine agreement (micro - fast)" in out
        assert "max |mean delta| across cells" in out

    def test_network_study_prints_fleet_table(self, tmp_path, capsys):
        path = write_spec(tmp_path, epochs=2)
        spec = StudySpec.load(path).with_overrides(
            {"network.nodes": 2, "network.commuters": 10}
        )
        spec.save(path)
        assert main(["run", "--spec", path]) == 0
        out = capsys.readouterr().out
        assert "sensor-0" in out and "sensor-1" in out
        assert "fleet rho" in out

    def test_gate_passes_with_loose_tolerance(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            zeta_targets=(24.0,),
            seed=5,
            mechanisms=("SNIP-AT",),
            engines=("fast", "micro"),
            replicates=2,
            with_predictions=False,
        )
        code = main(["run", "--spec", path, "--no-progress", "--gate", "1e9"])
        assert code == 0
        assert "agreement gate passed" in capsys.readouterr().out

    def test_gate_requires_two_engines(self, tmp_path, capsys):
        path = write_spec(tmp_path)
        code = main(["run", "--spec", path, "--no-progress", "--gate", "1.0"])
        assert code == 2
        assert ">= 2 engines" in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_bad_gate_tolerance_fails_before_the_study_runs(
        self, tolerance, tmp_path, monkeypatch, capsys
    ):
        import repro.experiments.cli as cli_module

        def refuse(*args, **kwargs):
            raise AssertionError("the study ran before --gate was checked")

        monkeypatch.setattr(cli_module, "run_study", refuse)
        path = write_spec(tmp_path, engines=("fast", "micro"), replicates=2)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--spec", path, "--gate", tolerance])
        assert excinfo.value.code == 2
        assert "--gate" in capsys.readouterr().err


class TestEmitSpecConstructors:
    """``run --emit-spec`` turns any study invocation into a file."""

    def test_grid_emit_spec_round_trips_through_run(self, tmp_path, capsys):
        emitted = tmp_path / "grid.json"
        code = main(
            [
                "run", "--set", "scenario.zeta_targets=[16]",
                "--set", "scenario.epochs=1",
                "--set", "scenario.phi_maxes=[864]",
                "--emit-spec", str(emitted),
            ]
        )
        assert code == 0
        spec = StudySpec.load(str(emitted))
        assert spec.zeta_targets == (16.0,)
        assert spec.phi_maxes == (864.0,)
        assert spec.engines == ("fast",)
        capsys.readouterr()
        assert main(["run", "--spec", str(emitted), "--no-progress"]) == 0
        assert "Simulation zeta" in capsys.readouterr().out

    def test_agree_emit_spec(self, tmp_path):
        emitted = tmp_path / "agree.json"
        code = main(
            [
                "run", "--set", "axes.engines=fast,micro",
                "--set", "outputs.with_predictions=false",
                "--emit-spec", str(emitted),
            ]
        )
        assert code == 0
        spec = StudySpec.load(str(emitted))
        assert spec.engines == ("fast", "micro")
        assert spec.with_predictions is False

    def test_network_emit_spec(self, tmp_path):
        emitted = tmp_path / "network.json"
        code = main(
            [
                "run", "--spec", str(EXAMPLES / "fleet_study.json"),
                "--set", "network.nodes=2", "--set", "network.commuters=10",
                "--set", "scenario.epochs=2", "--emit-spec", str(emitted),
            ]
        )
        assert code == 0
        spec = StudySpec.load(str(emitted))
        assert spec.network is not None
        assert spec.network.nodes == 2
        assert spec.network.node_factory == "SNIP-RH"
        assert spec.epochs == 2


class TestAgreeGateFlag:
    def test_loose_gate_passes(self, capsys):
        code = main(
            [
                "run", "--spec", str(EXAMPLES / "agreement_gate.json"),
                "--set", 'axes.mechanisms=["SNIP-AT"]', "--jobs", "1",
                "--no-progress", "--gate", "1e9",
            ]
        )
        assert code == 0
        assert "agreement gate passed" in capsys.readouterr().out


def _fake_agreement(delta_low: float, delta_high: float) -> AgreementResult:
    """An AgreementResult with one cell whose deltas are injected."""
    from repro.experiments.spec import StudySpec, run_study

    spec = StudySpec(
        name="gate-fixture", zeta_targets=(16.0,), phi_maxes=(864.0,),
        epochs=1, seed=1, mechanisms=("SNIP-AT",), engines=("fast",),
        with_predictions=False,
    )
    run = run_study(spec).grid().budget(864.0).points["SNIP-AT"][0].simulated
    mean = (delta_low + delta_high) / 2.0
    interval = IntervalEstimate(
        mean=mean, half_width=delta_high - mean, confidence=0.95, replications=2
    )
    point = AgreementPoint(
        mechanism="SNIP-AT",
        zeta_target=16.0,
        phi_max=864.0,
        baseline=[run],
        candidate=[run],
        deltas={
            "mean_zeta": interval,
            "mean_phi": interval,
            "probed_per_epoch": interval,
        },
    )
    return AgreementResult(
        points=[point],
        engines=("fast", "micro"),
        phi_maxes=(864.0,),
        zeta_targets=(16.0,),
        mechanisms=("SNIP-AT",),
    )


class TestGateLogic:
    def test_ci_beyond_tolerance_violates(self):
        agreement = _fake_agreement(2.0, 3.0)
        violations = agreement.gate_violations(1.0)
        assert len(violations) == 3  # every metric uses the same interval
        assert "excludes 0" in violations[0]

    def test_ci_excluding_zero_within_tolerance_passes(self):
        agreement = _fake_agreement(0.5, 0.9)
        assert agreement.gate_violations(1.0) == []

    def test_ci_straddling_zero_passes(self):
        agreement = _fake_agreement(-5.0, 5.0)
        assert agreement.gate_violations(1.0) == []

    def test_negative_side_violates(self):
        agreement = _fake_agreement(-9.0, -2.0)
        assert agreement.gate_violations(1.0)

    def test_negative_tolerance_rejected(self):
        agreement = _fake_agreement(-1.0, 1.0)
        with pytest.raises(ConfigurationError, match="tolerance"):
            agreement.gate_violations(-0.5)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # Every comparison with NaN is False and no CI lies beyond inf,
        # so either tolerance would pass any grid vacuously.
        agreement = _fake_agreement(2.0, 3.0)
        with pytest.raises(ConfigurationError, match="tolerance"):
            agreement.gate_violations(tolerance)

    def test_single_replicate_gate_refuses_to_run(self):
        # Regression: a single replicate yields infinite delta CIs, so
        # the gate used to pass vacuously; now it must refuse outright.
        from repro.experiments.spec import StudySpec, run_study

        spec = StudySpec(
            name="one-rep", zeta_targets=(16.0,), phi_maxes=(864.0,),
            epochs=1, seed=1, mechanisms=("SNIP-AT",),
            engines=("fast", "micro"), with_predictions=False,
        )
        agreement = run_study(spec).agreement
        with pytest.raises(ConfigurationError, match="vacuous"):
            agreement.gate_violations(0.0)

    def test_two_replicate_gate_runs(self):
        from repro.experiments.spec import StudySpec, run_study

        spec = StudySpec(
            name="two-rep", zeta_targets=(16.0,), phi_maxes=(864.0,),
            epochs=1, seed=1, mechanisms=("SNIP-AT",), replicates=2,
            engines=("fast", "micro"), with_predictions=False,
        )
        agreement = run_study(spec).agreement
        assert agreement.gate_violations(6.0) == []
