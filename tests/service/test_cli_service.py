"""CLI surface of the service: ``run --server`` and ``serve`` parsing."""

from __future__ import annotations

import re

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.spec import run_study
from repro.scenarios import ScenarioRef
from repro.service.client import ServiceClient
from service_specs import make_tiny_spec


@pytest.fixture
def spec_path(tmp_path):
    """A tiny spec file on disk for ``run --spec``."""
    path = tmp_path / "study.json"
    make_tiny_spec().save(str(path))
    return str(path)


class TestRunServer:
    def test_remote_run_writes_byte_identical_artifact(
        self, live_server, spec_path, tmp_path, capsys
    ):
        out = tmp_path / "remote.json"
        code = main([
            "run", "--spec", spec_path,
            "--server", live_server.url,
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "submitted as" in printed
        assert "zeta_target=16" in printed  # streamed per-cell line
        assert f"wrote {out}" in printed
        direct = run_study(
            make_tiny_spec(out=str(out))
        ).to_json()
        assert out.read_text() == direct

    def test_remote_run_respects_set_overrides(
        self, live_server, spec_path, capsys
    ):
        code = main([
            "run", "--spec", spec_path,
            "--server", live_server.url,
            "--set", "scenario.epochs=2",
            "--no-progress",
        ])
        assert code == 0
        study = live_server.service.store.list()[-1]
        stored = live_server.service.store.load_spec(study.study_id)
        assert stored.epochs == 2

    def test_served_progress_lines_match_local_ones(
        self, live_server, tmp_path, capsys
    ):
        # Two scenarios, so each line must name its scenario to tell the
        # cells apart; completion order may differ, so compare sorted
        # lines with the [n/N] counters stripped.
        path = tmp_path / "two_scenarios.json"
        make_tiny_spec(
            engines=("vector",),
            scenarios=(
                ScenarioRef("paper-roadside"),
                ScenarioRef("diurnal", {"ratio": 12.0}),
            ),
        ).save(str(path))

        def progress_lines(extra):
            assert main(["run", "--spec", str(path), *extra]) == 0
            printed = capsys.readouterr().out.splitlines()
            return sorted(
                re.sub(r"^\[\s*\d+/\d+\] ", "", line)
                for line in printed
                if line.startswith("[")
            )

        local = progress_lines([])
        served = progress_lines(["--server", live_server.url])
        assert len(local) == 2
        assert served == local
        study = live_server.service.store.list()[-1]
        cells = [
            event
            for event in ServiceClient(live_server.url).stream(study.study_id)
            if event["event"] == "cell"
        ]
        assert sorted(event["scenario"] for event in cells) == [
            'diurnal{"ratio":12.0}', "paper-roadside",
        ]

    def test_gate_with_server_is_usage_error(
        self, live_server, spec_path, capsys
    ):
        code = main([
            "run", "--spec", spec_path,
            "--server", live_server.url,
            "--gate", "1.0",
        ])
        assert code == 2
        assert "--gate" in capsys.readouterr().err

    def test_invalid_override_surfaces_as_cli_error(
        self, live_server, spec_path, capsys
    ):
        # Strict spec validation fires before anything is submitted and
        # lands in the CLI's standard error path (exit 2); a dict that
        # only the server rejects flows back the same way via
        # ServiceError (also a ReproError).
        code = main([
            "run", "--spec", spec_path,
            "--server", live_server.url,
            "--set", "scenario.epochs=0",
        ])
        assert code == 2
        assert "epochs" in capsys.readouterr().err


class TestServeParser:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args([
            "serve", "--store", "/tmp/studies",
            "--port", "0",
            "--transport", "file-queue",
            "--transport-option", "queue_dir=/tmp/q",
            "--transport-option", "workers=2",
        ])
        assert args.command == "serve"
        assert args.store == "/tmp/studies"
        assert dict(args.transport_options) == {
            "queue_dir": "/tmp/q", "workers": 2,
        }

    def test_serve_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_bad_pinned_transport_is_cli_error(self, tmp_path, capsys):
        code = main([
            "serve", "--store", str(tmp_path / "s"),
            "--transport", "no-such-transport",
        ])
        assert code == 2
        assert "no-such-transport" in capsys.readouterr().err

    def test_bad_pinned_option_value_exits_before_binding(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_bind(*args, **kwargs):
            raise AssertionError("bound a port for an invalid transport")

        monkeypatch.setattr("repro.service.app.StudyServer", no_bind)
        code = main([
            "serve", "--store", str(tmp_path / "s"), "--port", "0",
            "--transport", "file-queue",
            "--transport-option", "workers=-1",
        ])
        assert code == 2
        assert "workers" in capsys.readouterr().err
