"""Tests for the pluggable Transport API and the file-queue backend.

The contract under test:

* execution resolves **by name** through the transport registry, with
  strict validation (unknown transport names and bad
  ``transport_options`` keys fail at spec-load time);
* the new ``execution.transport``/``execution.transport_options`` spec
  fields round-trip byte-stably and derive the historical defaults
  (``"pool"`` above one job, ``"serial"`` otherwise);
* ``run_study`` results are byte-identical across ``transport=serial``,
  ``transport=pool`` (jobs=4, plus a shuffled executor), and
  ``transport=file-queue`` (2 workers) on a 2×2×2 study — the
  acceptance pin for the redesign — and the legacy
  ``SerialExecutor``/``ParallelExecutor`` imports keep working;
* file-queue failure semantics match the pool: worker-side shard errors
  propagate exactly once, transport trouble degrades loudly to serial;
* ``run_study`` restores a caller-supplied executor's label even when
  the study raises mid-flight.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments.parallel import (
    ParallelExecutor,
    ParallelFallbackWarning,
    SerialExecutor,
)
from repro.experiments.registry import mechanism_factories, transport_factories
from repro.experiments.runner import RunResult, RunSpec, execute_run_spec
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.spec import StudySpec, run_study
from repro.experiments.transport import (
    BUILTIN_TRANSPORTS,
    FileQueueTransport,
    Transport,
    resolve_transport,
    transport_names,
    transport_option_names,
    validate_transport,
)
from repro.units import DAY

from test_spec import ShuffledExecutor, small_spec


def tiny_study(**overrides) -> StudySpec:
    """The acceptance 2×2×2 study: targets × budgets × replicates."""
    kwargs = dict(
        name="transport-id",
        zeta_targets=(16.0, 24.0),
        phi_maxes=(DAY / 1000.0, DAY / 100.0),
        epochs=1,
        seed=7,
        replicates=2,
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


def study_bytes(study) -> bytes:
    """The result's grids as canonical JSON bytes (spec excluded).

    Byte-identity across transports is about the *results*; the specs
    intentionally differ in their execution sections.
    """
    document = study.to_dict()
    return json.dumps(
        {"grids": document["grids"], "agreements": document["agreements"]},
        sort_keys=True,
    ).encode()


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTIN_TRANSPORTS) <= set(transport_names())

    def test_serial_and_pool_resolve_to_legacy_classes(self):
        assert isinstance(resolve_transport("serial"), SerialExecutor)
        pool = resolve_transport("pool", jobs=3, batch_size=2)
        assert isinstance(pool, ParallelExecutor)
        assert (pool.jobs, pool.batch_size) == (3, 2)

    def test_file_queue_resolves_with_options(self):
        transport = resolve_transport(
            "file-queue", jobs=2, options={"workers": 0, "poll_interval": 0.1}
        )
        assert isinstance(transport, FileQueueTransport)
        assert transport.workers == 0
        assert transport.poll_interval == 0.1

    def test_every_builtin_satisfies_the_protocol(self):
        for name in BUILTIN_TRANSPORTS:
            assert isinstance(resolve_transport(name, options={}), Transport)
            # Every study runs on a real Transport, plain serial included.
            built = tiny_study(transport=name).build_transport()
            try:
                assert isinstance(built, Transport)
            finally:
                built.close()
        for spec in (tiny_study(), tiny_study(transport="serial")):
            assert isinstance(spec.build_transport(), SerialExecutor)

    def test_unknown_transport_name(self):
        with pytest.raises(ConfigurationError, match="carrier-pigeon"):
            resolve_transport("carrier-pigeon")

    def test_unknown_option_key_names_the_dotted_path(self):
        with pytest.raises(
            ConfigurationError, match="execution.transport_options"
        ):
            validate_transport("file-queue", {"que_dir": "/tmp/q"})

    def test_serial_accepts_no_options(self):
        with pytest.raises(ConfigurationError, match="workers"):
            resolve_transport("serial", options={"workers": 2})

    def test_option_names_come_from_the_factory_signature(self):
        options = transport_option_names("file-queue")
        assert "queue_dir" in options and "workers" in options
        assert "jobs" not in options and "label" not in options

    def test_runtime_registration_resolves(self):
        @transport_factories.register("test-inline")
        def inline_transport(*, jobs=1, batch_size=1):
            """An inline test transport."""
            return SerialExecutor()

        try:
            assert isinstance(resolve_transport("test-inline"), SerialExecutor)
        finally:
            transport_factories.unregister("test-inline")

    def test_legacy_imports_unchanged(self):
        # The acceptance pin: the historical names keep working.
        assert repro.SerialExecutor is SerialExecutor
        assert repro.ParallelExecutor is ParallelExecutor


class TestSpecExecutionFields:
    def test_round_trip_with_transport_fields(self):
        spec = small_spec(
            transport="file-queue",
            transport_options={"workers": 2, "poll_interval": 0.1},
        )
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_json_byte_stable_regardless_of_option_order(self):
        a = small_spec(transport_options={"workers": 2, "max_wait": 30.0},
                       transport="file-queue")
        b = small_spec(transport_options={"max_wait": 30.0, "workers": 2},
                       transport="file-queue")
        assert a.to_json() == b.to_json()

    def test_save_load_byte_stable(self, tmp_path):
        first = tmp_path / "study.json"
        second = tmp_path / "again.json"
        spec = small_spec(transport="pool", transport_options={})
        spec.save(str(first))
        StudySpec.load(str(first)).save(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_default_derivation_matches_history(self):
        assert small_spec(jobs=1).resolved_transport == "serial"
        assert small_spec(jobs=4).resolved_transport == "pool"
        assert small_spec(jobs=4, transport="serial").resolved_transport == "serial"

    def test_pre_transport_documents_still_load(self):
        # A spec written before the transport fields existed.
        spec = StudySpec.from_dict(
            {"name": "old", "execution": {"jobs": 2, "batch_size": "auto"}}
        )
        assert spec.transport is None
        assert spec.resolved_transport == "pool"

    def test_unknown_transport_name_fails_at_load(self):
        with pytest.raises(ConfigurationError, match="warp-drive"):
            StudySpec.from_dict(
                {"name": "bad", "execution": {"transport": "warp-drive"}}
            )

    def test_bad_option_key_fails_at_load(self):
        with pytest.raises(
            ConfigurationError, match="execution.transport_options"
        ):
            StudySpec.from_dict(
                {
                    "name": "bad",
                    "execution": {
                        "transport": "file-queue",
                        "transport_options": {"qdir": "/tmp/q"},
                    },
                }
            )

    def test_options_against_derived_transport_validated_too(self):
        # No explicit transport: jobs=1 derives "serial", which takes
        # no options at all.
        with pytest.raises(ConfigurationError, match="workers"):
            StudySpec.from_dict(
                {
                    "name": "bad",
                    "execution": {"transport_options": {"workers": 2}},
                }
            )

    def test_set_override_switches_transport(self):
        spec = small_spec().with_overrides(
            {
                "execution.transport": "file-queue",
                "execution.transport_options": {"workers": 0},
            }
        )
        assert spec.resolved_transport == "file-queue"
        assert spec.transport_options == {"workers": 0}

    def test_non_mapping_options_rejected(self):
        with pytest.raises(ConfigurationError, match="transport_options"):
            small_spec(transport_options=[1, 2])


@pytest.fixture(scope="module")
def serial_reference():
    """The serial run of the 2×2×2 acceptance study."""
    return run_study(tiny_study(), executor=SerialExecutor())


class TestByteIdentityAcrossTransports:
    def test_pool_jobs4_matches_serial(self, serial_reference):
        pool = resolve_transport("pool", jobs=4)
        study = run_study(tiny_study(), executor=pool)
        assert pool.last_map_parallel
        assert study_bytes(study) == study_bytes(serial_reference)

    def test_shuffled_matches_serial(self, serial_reference):
        study = run_study(tiny_study(), executor=ShuffledExecutor())
        assert study_bytes(study) == study_bytes(serial_reference)

    def test_file_queue_two_workers_matches_serial(self, serial_reference):
        transport = resolve_transport(
            "file-queue", jobs=2, options={"workers": 2}
        )
        study = run_study(tiny_study(), executor=transport)
        assert study_bytes(study) == study_bytes(serial_reference)

    def test_spec_named_transports_match_serial(self, serial_reference):
        for name, options in (
            ("serial", {}),
            ("pool", {}),
            ("file-queue", {"workers": 2}),
        ):
            study = run_study(
                tiny_study(jobs=2, transport=name, transport_options=options)
            )
            assert study_bytes(study) == study_bytes(serial_reference), name


def collected_results(spec: StudySpec, executor) -> list:
    """Every result a study's progress observer receives."""
    results = []
    run_study(
        spec,
        executor=executor,
        progress=lambda shard, result, done, total: results.append(result),
    )
    return results


class TestOneOutcomeType:
    """Every transport and the cell cache yield one slim ``RunResult``."""

    OUTCOME_FIELDS = ["scenario", "metrics", "from_cache"]

    @pytest.mark.parametrize(
        "name, options",
        [("serial", {}), ("pool", {}), ("file-queue", {"workers": 2})],
    )
    def test_computed_and_cached_cells_share_one_type(
        self, tmp_path, name, options
    ):
        spec = tiny_study(
            replicates=1,
            jobs=2,
            transport=name,
            transport_options=options,
            cache=str(tmp_path / "cache"),
        )
        cold = collected_results(spec, None)
        warm = collected_results(spec, None)
        assert len(cold) == len(warm) == 12
        assert not any(result.from_cache for result in cold)
        assert all(result.from_cache for result in warm)
        for result in cold + warm:
            assert type(result) is RunResult
            assert [
                field.name for field in dataclasses.fields(result)
            ] == self.OUTCOME_FIELDS
            assert all(
                getattr(result, field) is not None for field in self.OUTCOME_FIELDS
            )

    def test_a_vector_paper_cell_pickles_small(self):
        scenario = paper_roadside_scenario(
            phi_max_divisor=100, zeta_target=24.0, epochs=14, seed=7
        )
        spec = RunSpec(scenario=scenario, mechanism="SNIP-RH", engine="vector")
        result = execute_run_spec(spec)
        assert len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)) < 4096


class TestFileQueueSemantics:
    def test_map_preserves_input_order(self):
        transport = FileQueueTransport(workers=0, jobs=2, batch_size=2)
        scenario = paper_roadside_scenario(epochs=1, seed=3)
        specs = [
            RunSpec(scenario=scenario, mechanism=name)
            for name in ("SNIP-AT", "SNIP-RH", "SNIP-OPT")
        ]
        results = transport.map(execute_run_spec, specs)
        expected = [execute_run_spec(spec) for spec in specs]
        assert [r.mean_zeta for r in results] == [e.mean_zeta for e in expected]

    def test_worker_side_shard_error_propagates_once(self):
        # _fail_on_two is module-level (picklable), so this exercises
        # the real queue path, not the pre-flight serial fallback; and
        # a ValueError overlaps _QUEUE_FAILURES on purpose — it must
        # surface as the shard's own error, never a silent serial
        # retry of the remaining shards.
        del _FAIL_CALLS[:]
        transport = FileQueueTransport(workers=0, jobs=1, batch_size=1)
        with pytest.raises(ValueError, match="shard 2 exploded"):
            transport.map(_fail_on_two, [0, 1, 2, 3])
        assert _FAIL_CALLS.count(2) == 1

    def test_unpicklable_fn_falls_back_serially_with_warning(self):
        bound = {"offset": 1}

        def closure(value):  # a closure cannot cross the queue
            return value + bound["offset"]

        transport = FileQueueTransport(workers=0, jobs=1)
        with pytest.warns(ParallelFallbackWarning, match="picklable"):
            results = transport.map(closure, [1, 2, 3])
        assert results == [2, 3, 4]

    def test_mid_enqueue_failure_still_returns_every_shard(
        self, monkeypatch
    ):
        # A queue failure while tickets are still being written must
        # not lose the not-yet-enqueued shards: the fallback recovers
        # from what was yielded, not from the enqueue bookkeeping.
        import repro.experiments.transport as transport_module

        real_write = transport_module.atomic_write
        calls = {"n": 0}

        def failing_write(path, data):
            calls["n"] += 1
            if calls["n"] > 2:
                raise OSError("disk full mid-enqueue")
            real_write(path, data)

        monkeypatch.setattr(transport_module, "atomic_write", failing_write)
        transport = FileQueueTransport(workers=0, jobs=1, batch_size=1)
        with pytest.warns(ParallelFallbackWarning, match="disk full"):
            results = transport.map(_double, [1, 2, 3, 4, 5])
        assert results == [2, 4, 6, 8, 10]

    def test_var_keyword_factory_accepts_any_option(self):
        @transport_factories.register("test-kwargs")
        def kwargs_transport(*, jobs=1, batch_size=1, **extras):
            """A catch-all factory: opts out of strict option checks."""
            assert extras == {"hosts": ["a", "b"]}
            return SerialExecutor()

        try:
            assert transport_option_names("test-kwargs") is None
            validate_transport("test-kwargs", {"hosts": ["a", "b"]})
            instance = resolve_transport(
                "test-kwargs", options={"hosts": ["a", "b"]}
            )
            assert isinstance(instance, SerialExecutor)
        finally:
            transport_factories.unregister("test-kwargs")

    def test_unwritable_queue_dir_falls_back_serially(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        transport = FileQueueTransport(queue_dir=str(blocked), workers=0)
        with pytest.warns(ParallelFallbackWarning, match="queue directory"):
            results = transport.map(_double, [1, 2, 3])
        assert results == [2, 4, 6]

    def test_fallback_streams_one_shard_at_a_time(self, tmp_path):
        # The in-process fallback used to run every shard before the
        # first pair; a cache storing each miss after its yield, or a
        # cancellation check in a progress callback, saw nothing until
        # the whole remainder had finished.
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        del _STARTED[:]
        transport = FileQueueTransport(queue_dir=str(blocked), workers=0)
        stream = transport.imap(_record_start, list(range(8)))
        with pytest.warns(ParallelFallbackWarning, match="queue directory"):
            assert next(stream) == (0, 0)
        assert _STARTED == [0]
        assert next(stream) == (1, 1)
        assert _STARTED == [0, 1]
        stream.close()

    def test_empty_items(self):
        assert FileQueueTransport(workers=0).map(_double, []) == []

    def test_coordinator_cleans_up_private_queue(self):
        transport = FileQueueTransport(workers=0, jobs=1)
        list(transport.imap(_double, [1, 2]))
        # Private temp queues leave nothing behind; nothing to assert
        # beyond successful completion (the dir path is not retained).
        assert transport.queue_dir is None

    def test_shared_queue_dir_left_clean(self, tmp_path):
        queue = tmp_path / "queue"
        transport = FileQueueTransport(queue_dir=str(queue), workers=0)
        assert transport.map(_double, [1, 2, 3]) == [2, 4, 6]
        for subdir in ("enqueue", "claim", "done", "payload"):
            assert os.listdir(queue / subdir) == []

    def test_external_worker_processes_tickets(self, tmp_path):
        queue = tmp_path / "queue"
        worker = _spawn_worker(queue)
        try:
            transport = FileQueueTransport(
                queue_dir=str(queue),
                workers=0,
                self_process=False,
                poll_interval=0.05,
                max_wait=120.0,
            )
            scenario = paper_roadside_scenario(epochs=1, seed=5)
            specs = [
                RunSpec(scenario=scenario, mechanism=name)
                for name in ("SNIP-AT", "SNIP-RH")
            ]
            results = transport.map(execute_run_spec, specs)
        finally:
            (queue / "stop").write_text("")
            worker.wait(timeout=60)
        assert transport.last_map_parallel, "external worker did no ticket"
        expected = [execute_run_spec(spec) for spec in specs]
        assert [r.mean_zeta for r in results] == [e.mean_zeta for e in expected]


def _double(value):
    """Module-level shard function (picklable by reference)."""
    return value * 2


_FAIL_CALLS = []
_STARTED = []


def _record_start(value):
    """Module-level shard that records that it started (in-process)."""
    _STARTED.append(value)
    return value


def _fail_on_two(value):
    """Module-level failing shard: records calls, explodes on 2."""
    _FAIL_CALLS.append(value)
    if value == 2:
        raise ValueError("shard 2 exploded")
    return value * 10


def _spawn_worker(queue_dir) -> subprocess.Popen:
    """Start one external `python -m repro worker` subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [entry for entry in sys.path if entry]
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--queue",
            str(queue_dir),
            "--poll",
            "0.05",
            "--max-idle",
            "120",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
    )


class TestWorkerLoop:
    def test_once_on_empty_queue_returns_zero(self, tmp_path):
        from repro.experiments.worker import worker_loop

        assert worker_loop(str(tmp_path / "queue"), once=True) == 0

    def test_stop_file_ends_the_loop(self, tmp_path):
        from repro.experiments.worker import worker_loop

        queue = tmp_path / "queue"
        queue.mkdir()
        (queue / "stop").write_text("")
        assert worker_loop(str(queue), poll_interval=0.01) == 0

    def test_worker_cli_subcommand(self, tmp_path, capsys):
        from repro.experiments.cli import main

        code = main(
            ["worker", "--queue", str(tmp_path / "queue"), "--once"]
        )
        assert code == 0
        assert "processed 0 ticket(s)" in capsys.readouterr().out


class _LabelledBoom(Transport):
    """A labellable transport whose stream always raises mid-flight."""

    def __init__(self, label=None):
        self.label = label

    def imap(self, fn, items):
        raise RuntimeError("boom mid-flight")


class TestStudyExecutorLabelRestore:
    def test_label_restored_when_run_study_raises_mid_flight(self):
        executor = _LabelledBoom()
        with pytest.raises(RuntimeError, match="mid-flight"):
            run_study(tiny_study(name="labelled-study"), executor=executor)
        assert executor.label is None

    def test_preset_label_survives_a_mid_flight_raise(self):
        executor = _LabelledBoom(label="mine")
        with pytest.raises(RuntimeError, match="mid-flight"):
            run_study(tiny_study(), executor=executor)
        assert executor.label == "mine"

    def test_pool_label_restored_after_shard_error(self):
        executor = ParallelExecutor(jobs=2)
        # A registered mechanism whose factory fails inside every worker:
        # the study passes parent-side validation, then fails mid-flight.
        mechanism_factories.register("SNIP-NOPE", _raise_factory)
        try:
            with pytest.raises(ConfigurationError, match="SNIP-NOPE"):
                run_study(
                    tiny_study(mechanisms=("SNIP-NOPE",)), executor=executor
                )
        finally:
            mechanism_factories.unregister("SNIP-NOPE")
        assert executor.label is None

    def test_file_queue_gets_labelled_too(self):
        transport = FileQueueTransport(workers=0)
        run_study(tiny_study(name="fq-label"), executor=transport)
        assert transport.label is None  # restored after the run


class TestJobsValidation:
    @pytest.mark.parametrize(
        "make", [ParallelExecutor, FileQueueTransport], ids=["pool", "file-queue"]
    )
    @pytest.mark.parametrize("jobs", [2.5, True, "2"], ids=repr)
    def test_bad_jobs_fails_loudly(self, make, jobs):
        with pytest.raises(ConfigurationError, match="jobs must be an int"):
            make(jobs=jobs)


def _raise_factory(scenario):
    """A mechanism factory that always fails (module-level, picklable)."""
    raise ConfigurationError("SNIP-NOPE cannot be built")


class TestCliTransport:
    def _write_spec(self, tmp_path, **overrides):
        kwargs = dict(
            name="cli-transport",
            zeta_targets=(16.0,),
            phi_maxes=(864.0,),
            epochs=1,
            seed=1,
            mechanisms=("SNIP-AT", "SNIP-RH"),
        )
        kwargs.update(overrides)
        path = tmp_path / "study.json"
        StudySpec(**kwargs).save(str(path))
        return str(path)

    @staticmethod
    def _result_payload(path):
        """An artifact's results with the execution section normalized.

        Transports intentionally differ in the serialized execution
        description; everything else must match byte-for-byte.
        """
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["study"]["execution"] = None
        document["study"]["outputs"] = None  # carries the --out path
        return json.dumps(document, sort_keys=True)

    def test_run_transport_flag_switches_backend_byte_identically(
        self, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        spec_path = self._write_spec(tmp_path)
        serial_out = tmp_path / "serial.json"
        queue_out = tmp_path / "queue.json"
        assert main(
            ["run", "--spec", spec_path, "--no-progress",
             "--transport", "serial", "--out", str(serial_out)]
        ) == 0
        assert main(
            ["run", "--spec", spec_path, "--no-progress",
             "--transport", "file-queue",
             "--set", 'execution.transport_options={"workers": 0}',
             "--out", str(queue_out)]
        ) == 0
        out = capsys.readouterr().out
        assert "transport 'file-queue'" in out
        assert self._result_payload(serial_out) == self._result_payload(queue_out)

    def test_run_unknown_transport_is_a_diagnostic(self, tmp_path, capsys):
        from repro.experiments.cli import main

        spec_path = self._write_spec(tmp_path)
        code = main(
            ["run", "--spec", spec_path, "--transport", "warp", "--no-progress"]
        )
        assert code == 2
        assert "warp" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options, key",
        [
            ('{"workers": -1}', "workers"),
            ('{"workers": 1.5}', "workers"),
            ('{"workers": true}', "workers"),
            ('{"poll_interval": "fast"}', "poll_interval"),
            ('{"poll_interval": Infinity}', "poll_interval"),
            ('{"poll_interval": NaN}', "poll_interval"),
            ('{"poll_interval": 0}', "poll_interval"),
            ('{"reclaim_after": -1}', "reclaim_after"),
            ('{"reclaim_after": NaN}', "reclaim_after"),
            ('{"max_wait": Infinity}', "max_wait"),
            ('{"max_wait": "soon"}', "max_wait"),
            ('{"self_process": "yes"}', "self_process"),
            ('{"queue_dir": ""}', "queue_dir"),
            ('{"queue_dir": 7}', "queue_dir"),
        ],
    )
    def test_run_bad_file_queue_option_is_a_diagnostic(
        self, tmp_path, capsys, options, key
    ):
        # Every bad value fails before any ticket is enqueued, with the
        # same exit-2 diagnostic as an unknown transport name.
        from repro.experiments.cli import main

        spec_path = self._write_spec(tmp_path)
        code = main(
            ["run", "--spec", spec_path, "--transport", "file-queue",
             "--set", f"execution.transport_options={options}",
             "--no-progress"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err

    def test_network_study_progress_flag_streams_node_lines(
        self, tmp_path, capsys
    ):
        from repro.experiments.cli import main
        from repro.experiments.spec import NetworkSection

        spec = StudySpec(
            name="fleet-progress",
            zeta_targets=(16.0,),
            phi_maxes=(864.0,),
            epochs=1,
            seed=2,
            network=NetworkSection(nodes=2, commuters=8),
        )
        path = tmp_path / "fleet.json"
        spec.save(str(path))
        assert main(["run", "--spec", str(path), "--progress"]) == 0
        out = capsys.readouterr().out
        assert "[1/2] node" in out and "[2/2] node" in out

    def test_network_study_quiet_by_default(self, tmp_path, capsys):
        from repro.experiments.cli import main
        from repro.experiments.spec import NetworkSection

        spec = StudySpec(
            name="fleet-quiet",
            zeta_targets=(16.0,),
            phi_maxes=(864.0,),
            epochs=1,
            seed=2,
            network=NetworkSection(nodes=2, commuters=8),
        )
        path = tmp_path / "fleet.json"
        spec.save(str(path))
        assert main(["run", "--spec", str(path)]) == 0
        assert "] node" not in capsys.readouterr().out

    def test_grid_transport_flag_reports_transport(self, capsys):
        from repro.experiments.cli import main

        code = main(
            ["run", "--set", "scenario.zeta_targets=[16]",
             "--set", "scenario.epochs=1", "--set", "scenario.phi_maxes=[864]",
             "--jobs", "2", "--transport", "pool", "--no-progress"]
        )
        assert code == 0
        assert "via 'pool' transport" in capsys.readouterr().out

    def test_emit_spec_captures_transport(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out_path = tmp_path / "emitted.json"
        code = main(
            ["run", "--transport", "file-queue", "--emit-spec", str(out_path)]
        )
        assert code == 0
        assert StudySpec.load(str(out_path)).transport == "file-queue"
