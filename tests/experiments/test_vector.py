"""Tests for the ``"vector"`` engine.

The contract under test:

* ``"vector"`` resolves through the engine registry — in this process
  and inside spawned pool / file-queue workers, where a
  :class:`~repro.experiments.runner.RunSpec` arrives carrying only the
  engine's name;
* unknown engine options (including the retired ``numba`` switch) fail
  fast with :class:`~repro.errors.ConfigurationError`;
* fast-vs-vector agreement: the gated metrics match per paired seed,
  SNIP-RH matches exactly on every registry workload shape (96-slot
  flash crowd, dead zones, churn, diurnal, an empty trace, contacts
  straddling an epoch boundary) including the learned contact length, the
  full two-engine study is byte-identical at jobs=1/jobs=4/shuffled
  completion order, and the CI agreement gate passes;
* the seed-independent kernel inputs (interval grid, slot indices,
  SNIP-AT/OPT timelines, SNIP-RH walk, contact columns) are built once
  per study, bounded and read-only, can never change a result (memos
  cleared before every cell, shuffled order), and an edited trace file
  is read again.
"""

from __future__ import annotations

import json

import pytest

from repro.core.snip_model import SnipModel
from repro.errors import ConfigurationError
from repro.experiments import vector
from repro.experiments.engine import available_engines, resolve_engine
from repro.experiments.parallel import ParallelExecutor, SerialExecutor, Transport
from repro.experiments.registry import mechanism_factories
from repro.experiments.runner import (
    FastRunner,
    RunSpec,
    execute_run_spec,
    generate_trace,
)
from repro.experiments.scenario import (
    PAPER_ZETA_TARGETS,
    Scenario,
    paper_roadside_scenario,
)
from repro.experiments.spec import StudySpec, run_study
from repro.experiments.transport import resolve_transport
from repro.experiments.vector import VectorEngine
from repro.mobility.contact import Contact, ContactTrace
from repro.mobility.traces import TraceFileSource
from repro.mobility.profiles import RushHourSpec
from repro.scenarios import ScenarioRef, materialize_scenario
from repro.units import DAY, HOUR

from test_spec import ShuffledExecutor

MECHANISMS = ("SNIP-AT", "SNIP-OPT", "SNIP-RH")


def tiny_scenario(**kwargs):
    kwargs.setdefault("phi_max_divisor", 100)
    kwargs.setdefault("zeta_target", 24.0)
    kwargs.setdefault("epochs", 2)
    kwargs.setdefault("seed", 3)
    return paper_roadside_scenario(**kwargs)


def scheduler_for(scenario, mechanism="SNIP-AT"):
    return mechanism_factories.resolve(mechanism)(scenario)


def vector_study(**overrides) -> StudySpec:
    """A small paired fast-vs-vector study (2 targets × 2 replicates)."""
    kwargs = dict(
        name="vector-agreement",
        zeta_targets=(16.0, 24.0),
        phi_maxes=(DAY / 100.0,),
        epochs=1,
        seed=7,
        engines=("fast", "vector"),
        replicates=2,
        with_predictions=False,
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


def study_bytes(study) -> bytes:
    document = study.to_dict()
    return json.dumps(
        {"grids": document["grids"], "agreements": document["agreements"]},
        sort_keys=True,
    ).encode()


class TestRegistry:
    def test_vector_engine_registered(self):
        assert "vector" in available_engines()

    def test_resolves_to_fresh_vector_engine_instances(self):
        first = resolve_engine("vector")
        second = resolve_engine("vector")
        assert isinstance(first, VectorEngine)
        assert first is not second
        assert first.name == "vector"

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="frobnicate"):
            VectorEngine(frobnicate=True)

    def test_non_boolean_numba_option_rejected(self):
        # The numba accelerator is gone; a leftover option is just an
        # unknown option, whatever its value.
        for value in ("yes", True, False, None):
            with pytest.raises(ConfigurationError, match=r"unknown .*'numba'"):
                VectorEngine(numba=value)


class TestFastVectorEquivalence:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("divisor", (1000.0, 100.0))
    def test_gated_metrics_match_fast(self, mechanism, divisor):
        scenario = tiny_scenario(phi_max_divisor=divisor)
        fast = execute_run_spec(RunSpec(scenario=scenario, mechanism=mechanism))
        vector = execute_run_spec(
            RunSpec(scenario=scenario, mechanism=mechanism, engine="vector")
        )
        assert vector.metrics.epochs == fast.metrics.epochs

    def test_buffer_end_level_subtracts_the_running_upload_total(self):
        # In this cell the sum of per-epoch upload totals differs from
        # the running total in the last bit at one epoch end; fast's
        # buffer level subtracts the running total, so vector must too.
        scenario = tiny_scenario(epochs=3, seed=2)
        fast = execute_run_spec(RunSpec(scenario=scenario, mechanism="SNIP-AT"))
        vector = execute_run_spec(
            RunSpec(scenario=scenario, mechanism="SNIP-AT", engine="vector")
        )
        assert vector.metrics.epochs == fast.metrics.epochs

    def test_rh_scheduler_end_state_matches_fast(self):
        # The walk feeds the real scheduler's EWMAs: after a run the
        # learned state must match the fast runner's exactly (both
        # engines compute the buffer level as rate * t - uploaded).
        scenario = tiny_scenario(phi_max_divisor=1000.0)
        fast_scheduler = scheduler_for(scenario, "SNIP-RH")
        FastRunner(scenario, fast_scheduler).run()
        vector_scheduler = scheduler_for(scenario, "SNIP-RH")
        VectorEngine().run(scenario, vector_scheduler)
        assert (
            vector_scheduler.contact_length_ewma.value
            == fast_scheduler.contact_length_ewma.value
        )
        assert vector_scheduler.upload_ewma.value == fast_scheduler.upload_ewma.value

    def test_unsupported_scheduler_falls_back_to_fast_runner(self):
        from repro.core.schedulers.base import Scheduler, SchedulerDecision
        from repro.radio.duty_cycle import DutyCycleConfig

        class OddScheduler(Scheduler):
            name = "odd"

            def decide(self, time, node):
                if node.account.exhausted:
                    return SchedulerDecision.off("budget")
                return SchedulerDecision(
                    DutyCycleConfig(t_on=0.02, duty_cycle=0.01)
                )

        scenario = tiny_scenario(epochs=1)
        reference = FastRunner(scenario, OddScheduler()).run()
        with pytest.warns(RuntimeWarning, match="no vectorized kernel"):
            result = VectorEngine().run(scenario, OddScheduler())
        assert result.mean_zeta == reference.mean_zeta
        assert result.mean_phi == reference.mean_phi


def midnight_rush_scenario(epochs=2):
    """Rush hours on both sides of midnight, so SNIP-RH probes across
    the epoch boundary."""
    return Scenario(
        profile=RushHourSpec(
            rush_windows=((0.0, 1.0), (23.0, 24.0)), rush_interval=120.0
        ).to_profile(),
        model=SnipModel(t_on=0.02),
        phi_max=DAY / 1000.0,
        zeta_target=16.0,
        epochs=epochs,
        seed=9,
    )


def epoch_straddling_trace(epochs=2):
    """Rush-hour contacts, one of them straddling each epoch boundary and
    one straddling into the rush window (probed only by beacons of the
    train that starts there, never by earlier ones)."""
    contacts = []
    for epoch in range(epochs):
        midnight = (epoch + 1) * DAY
        contacts.append(Contact(midnight - HOUR - 5.0, 10.0))
        for offset in range(150, 3000, 150):
            contacts.append(Contact(midnight - HOUR + offset, 1.5 + offset % 7))
        contacts.append(Contact(midnight - 0.75, 2.5))
        for offset in range(300, 3000, 200):
            contacts.append(Contact(midnight + offset, 2.0 + offset % 5))
    return ContactTrace(contacts)


class TestSnipRhDifferential:
    """SNIP-RH on ``vector`` equals ``fast`` exactly, workload by workload.

    Exact on the gated per-epoch quantities (ζ, Φ, probed / missed /
    arrived contacts) and on both learned EWMAs: the two engines share
    the buffer arithmetic (level = rate * t - uploaded), so uploads, and
    the thresholds learned from them, agree bit for bit.
    """

    @staticmethod
    def assert_rh_runs_equal(scenario, trace=None):
        fast_scheduler = scheduler_for(scenario, "SNIP-RH")
        fast = FastRunner(scenario, fast_scheduler, trace=trace).run()
        vector_scheduler = scheduler_for(scenario, "SNIP-RH")
        vector = VectorEngine().run(scenario, vector_scheduler, trace=trace)
        assert vector.mean_zeta == fast.mean_zeta
        assert vector.mean_phi == fast.mean_phi
        assert len(vector.metrics.epochs) == len(fast.metrics.epochs)
        for fast_epoch, vector_epoch in zip(fast.metrics.epochs, vector.metrics.epochs):
            assert vector_epoch.zeta == fast_epoch.zeta
            assert vector_epoch.phi == fast_epoch.phi
            assert vector_epoch.probed_contacts == fast_epoch.probed_contacts
            assert vector_epoch.missed_contacts == fast_epoch.missed_contacts
            assert vector_epoch.arrived_contacts == fast_epoch.arrived_contacts
        for name in ("contact_length_ewma", "upload_ewma"):
            assert (
                getattr(vector_scheduler, name).sample_count
                == getattr(fast_scheduler, name).sample_count
            )
        assert (
            vector_scheduler.contact_length_ewma.value
            == fast_scheduler.contact_length_ewma.value
        )
        assert vector_scheduler.upload_ewma.value == fast_scheduler.upload_ewma.value
        return fast

    @pytest.mark.parametrize(
        "name", ("flash-crowd", "dead-zone", "churn", "diurnal")
    )
    @pytest.mark.parametrize("divisor", (1000.0, 100.0))
    def test_registry_workloads(self, name, divisor):
        scenario = materialize_scenario(ScenarioRef(name), epochs=3, seed=5)
        scenario = scenario.with_budget(scenario.profile.epoch_length / divisor)
        if name == "flash-crowd":
            assert scenario.profile.slot_count == 96
        fast = self.assert_rh_runs_equal(scenario)
        assert fast.metrics.total_probed > 0

    def test_empty_trace(self):
        # A dead zone over the whole day: the generated trace is empty
        # (the fast runner regenerates on an empty override, so the
        # emptiness must come from the workload itself).
        scenario = materialize_scenario(
            ScenarioRef("dead-zone", {"dead_windows": [[0, 24]]}),
            epochs=2, seed=5,
        )
        assert len(generate_trace(scenario)) == 0
        fast = self.assert_rh_runs_equal(scenario)
        assert fast.metrics.total_probed == 0

    def test_contacts_straddling_epoch_boundaries(self):
        scenario = midnight_rush_scenario()
        trace = epoch_straddling_trace()
        for boundary in (DAY, 2 * DAY):
            assert any(c.start < boundary < c.end for c in trace)
        fast = self.assert_rh_runs_equal(scenario, trace)
        assert all(epoch.probed_contacts > 0 for epoch in fast.metrics.epochs)

    def test_contact_from_a_spent_stretch_straddles_into_next_epoch(self):
        # Epoch 0 spends its 10 s budget in the midnight rush hour, so
        # the walk leaves epoch 0 there; the 23:00 rush hour is never
        # walked.  One contact arrives in that spent stretch and is
        # missed; the next starts a second before midnight and is
        # probed by epoch 1's first rush interval.
        scenario = midnight_rush_scenario().with_budget(10.0)
        contacts = [Contact(120.0 + 240.0 * i, 3.0 + i % 3) for i in range(12)]
        contacts.append(Contact(DAY - HOUR + 600.0, 4.0))
        contacts.append(Contact(DAY - 1.0, 9.0))
        trace = ContactTrace(contacts)
        fast = self.assert_rh_runs_equal(scenario, trace)
        spent_epoch, next_epoch = fast.metrics.epochs
        assert spent_epoch.phi == pytest.approx(10.0)
        assert spent_epoch.missed_contacts >= 1
        assert next_epoch.probed_contacts == 1
        assert next_epoch.zeta > 7.0

    @pytest.mark.parametrize("mechanism", ("SNIP-AT", "SNIP-OPT"))
    def test_open_loop_mechanisms_straddling_epoch_boundaries(self, mechanism):
        scenario = midnight_rush_scenario()
        trace = epoch_straddling_trace()
        fast = FastRunner(
            scenario, scheduler_for(scenario, mechanism), trace=trace
        ).run()
        vector = VectorEngine().run(
            scenario, scheduler_for(scenario, mechanism), trace=trace
        )
        for fast_epoch, vector_epoch in zip(fast.metrics.epochs, vector.metrics.epochs):
            assert vector_epoch.zeta == fast_epoch.zeta
            assert vector_epoch.phi == fast_epoch.phi
            assert vector_epoch.probed_contacts == fast_epoch.probed_contacts
            assert vector_epoch.missed_contacts == fast_epoch.missed_contacts


class TestWorkerSideResolution:
    def test_vector_specs_cross_the_pool(self):
        scenario = tiny_scenario(epochs=1)
        specs = [
            RunSpec(scenario=scenario, mechanism="SNIP-AT", engine=engine)
            for engine in ("vector", "fast", "vector", "fast")
        ]
        pool = ParallelExecutor(jobs=2)
        results = pool.map(execute_run_spec, specs)
        assert pool.last_map_parallel, "vector specs fell back to serial"
        assert results[0].mean_zeta == results[2].mean_zeta
        assert results[0].mean_zeta == pytest.approx(
            results[1].mean_zeta, abs=1e-9
        )

    def test_vector_study_identical_at_jobs_1_4_and_shuffled(self):
        serial = run_study(vector_study(), executor=SerialExecutor())
        pool = ParallelExecutor(jobs=4)
        pooled = run_study(vector_study(), executor=pool)
        assert pool.last_map_parallel
        shuffled = run_study(vector_study(), executor=ShuffledExecutor())
        assert study_bytes(pooled) == study_bytes(serial)
        assert study_bytes(shuffled) == study_bytes(serial)

    def test_vector_study_through_file_queue_workers(self):
        serial = run_study(vector_study(), executor=SerialExecutor())
        transport = resolve_transport(
            "file-queue", jobs=2, options={"workers": 2}
        )
        queued = run_study(vector_study(), executor=transport)
        assert study_bytes(queued) == study_bytes(serial)

    def test_vector_agreement_gate_passes(self):
        study = run_study(vector_study(), executor=SerialExecutor())
        agreement = study.agreements["vector"]
        assert agreement.gate_violations(1e-6) == []


class TestValidationSurface:
    def test_vector_legal_in_spec_engines_axis(self):
        spec = vector_study()
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_unknown_engine_still_rejected(self):
        with pytest.raises(ConfigurationError, match="warp-drive"):
            run_study(vector_study(engines=("fast", "warp-drive")))

    def test_trace_is_shared_with_fast_engine_comparisons(self):
        scenario = tiny_scenario(epochs=1)
        fast = execute_run_spec(RunSpec(scenario=scenario, mechanism="SNIP-AT"))
        vector = execute_run_spec(
            RunSpec(scenario=scenario, mechanism="SNIP-AT", engine="vector")
        )
        assert list(generate_trace(vector.scenario)) == list(
            generate_trace(fast.scenario)
        )
        assert [e.arrived_contacts for e in vector.metrics.epochs] == [
            e.arrived_contacts for e in fast.metrics.epochs
        ]


#: The vector engine's shared per-process inputs, besides _TRACE_MEMO.
VECTOR_MEMOS = (
    vector._interval_grid,
    vector._slot_indices,
    vector._open_loop_timeline,
    vector._rush_walk,
)


def clear_vector_memos():
    """Forget every per-process input the vector engine shares."""
    for memo in VECTOR_MEMOS:
        memo.cache_clear()
    vector._TRACE_MEMO.clear()


class ClearingTransport(Transport):
    """Runs shards in order, clearing the vector memos before each."""

    def imap(self, fn, items):
        for index, item in enumerate(items):
            clear_vector_memos()
            yield index, fn(item)


def paper_shaped_study(**overrides) -> StudySpec:
    """The Fig. 7/8 study shape (3 x 6 x 2 x 3 = 108 vector cells)."""
    kwargs = dict(
        name="paper-shaped",
        zeta_targets=PAPER_ZETA_TARGETS,
        phi_maxes=(DAY / 1000.0, DAY / 100.0),
        epochs=2,
        seed=4,
        mechanisms=MECHANISMS,
        engines=("vector",),
        replicates=3,
        with_predictions=False,
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


class TestSharedInputs:
    """The seed-independent kernel inputs are built once per study, and
    sharing them can never change a result."""

    def test_paper_study_builds_each_input_once(self, monkeypatch):
        columns_built = []
        build_columns = vector._columns

        def counting_columns(trace):
            columns_built.append(len(trace))
            return build_columns(trace)

        monkeypatch.setattr(vector, "_columns", counting_columns)
        clear_vector_memos()
        spec = paper_shaped_study()
        assert spec.total_runs == 108
        run_study(spec, executor=SerialExecutor())
        # One open-loop timeline per (mechanism, Φmax, ζtarget), not
        # one per cell (72), and one grid and rush walk per study.
        assert 0 < vector._open_loop_timeline.cache_info().misses <= 24
        assert vector._interval_grid.cache_info().misses == 1
        assert vector._slot_indices.cache_info().misses == 1
        assert vector._rush_walk.cache_info().misses == 1
        assert len(columns_built) == 3  # once per replicate trace
        # ... and each trace is placed on the study's grid once.
        assert [
            len(columns.placements) for _, columns in vector._TRACE_MEMO.values()
        ] == [1, 1, 1]

    def test_memos_cannot_change_results(self):
        spec = vector_study(
            mechanisms=MECHANISMS,
            phi_maxes=(DAY / 1000.0, DAY / 100.0),
            epochs=2,
        )
        normal = run_study(spec, executor=SerialExecutor())
        cleared = run_study(spec, executor=ClearingTransport())
        shuffled = run_study(spec, executor=ShuffledExecutor())
        assert study_bytes(cleared) == study_bytes(normal)
        assert study_bytes(shuffled) == study_bytes(normal)
        assert normal.agreements["vector"].max_abs_delta("mean_zeta") == 0.0

    def test_memoized_arrays_are_read_only(self):
        scenario = tiny_scenario()
        grid_key = vector._grid_key(scenario)
        grid = vector._interval_grid(*grid_key)
        slot_key = vector._slot_key(scenario.profile)
        opt = scheduler_for(scenario, "SNIP-OPT")
        timeline = vector._open_loop_timeline(
            tuple(opt.plan.duty_cycles), opt.model.t_on, scenario.phi_max,
            slot_key, *grid_key,
        )
        _, columns = vector._memoized_trace(scenario)
        arrays = (
            grid.t0, grid.t1, grid.epoch_idx,
            vector._slot_indices(*slot_key, *grid_key),
            *timeline,
            columns.starts, columns.lengths, columns.ends,
            *vector._placement(columns, grid_key),
        )
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        flags = tuple(scenario.profile.rush_flags)
        walk = vector._rush_walk(flags, slot_key, *grid_key)
        assert all(isinstance(column, tuple) for column in walk)

    def test_every_memo_is_bounded(self):
        for memo in VECTOR_MEMOS:
            assert memo.cache_info().maxsize <= 4
        assert vector._TRACE_MEMO_LIMIT == 8
        _, columns = vector._memoized_trace(tiny_scenario())
        for epochs in range(1, 8):
            vector._placement(columns, (DAY, 60.0, epochs))
        assert len(columns.placements) == vector._PLACEMENT_LIMIT == 4
        assert list(columns.placements) == [(DAY, 60.0, e) for e in range(4, 8)]

    def test_rush_walk_follows_changed_rush_flags(self):
        scenario = tiny_scenario()
        flags = [False] * scenario.profile.slot_count
        flags[9] = flags[10] = flags[15] = True
        # Walk the profile's own flags first, so a walk memo keyed on
        # anything but the flags would serve that walk again.
        VectorEngine().run(scenario, scheduler_for(scenario, "SNIP-RH"))
        fast_scheduler = scheduler_for(scenario, "SNIP-RH")
        fast_scheduler.set_rush_flags(flags)
        fast = FastRunner(scenario, fast_scheduler).run()
        vector_scheduler = scheduler_for(scenario, "SNIP-RH")
        vector_scheduler.set_rush_flags(flags)
        vectorized = VectorEngine().run(scenario, vector_scheduler)
        assert fast.metrics.total_probed > 0
        for fast_epoch, vector_epoch in zip(
            fast.metrics.epochs, vectorized.metrics.epochs
        ):
            assert vector_epoch.zeta == fast_epoch.zeta
            assert vector_epoch.phi == fast_epoch.phi
            assert vector_epoch.probed_contacts == fast_epoch.probed_contacts

    def test_edited_trace_file_is_read_again(self, tmp_path):
        # A long-lived process (``repro serve``) must not replay a stale
        # trace after its file is rewritten under the same path.
        path = tmp_path / "contacts.csv"

        def write_rows(rows):
            lines = ["start,end"] + [
                f"{600 * i + 10},{600 * i + 15}" for i in range(rows)
            ]
            path.write_text("\n".join(lines) + "\n")

        scenario = materialize_scenario(
            ScenarioRef(
                "trace-driven", {"path": str(path), "repeat_every": DAY}
            ),
            epochs=2,
            seed=3,
        )

        def arrived(engine):
            result = execute_run_spec(
                RunSpec(scenario=scenario, mechanism="SNIP-AT", engine=engine)
            )
            return sum(epoch.arrived_contacts for epoch in result.metrics.epochs)

        write_rows(40)
        assert arrived("fast") == arrived("vector") == 80
        write_rows(120)
        assert arrived("fast") == arrived("vector") == 240

    def test_trace_file_is_read_once_per_study(self, tmp_path, monkeypatch):
        # A file replay ignores the seed, so the three replicates share
        # one read; the result is the one a fresh read per shard gives.
        path = tmp_path / "contacts.csv"
        path.write_text(
            "start,end\n"
            + "".join(f"{900 * i + 30},{900 * i + 36}\n" for i in range(96))
        )
        spec = vector_study(
            scenarios=({"name": "trace-driven", "options": {"path": str(path)}},),
            engines=("vector",),
            mechanisms=MECHANISMS,
            replicates=3,
        )
        reads = []
        replay = TraceFileSource.generate

        def counting_generate(source, scenario, streams):
            reads.append(scenario.seed)
            return replay(source, scenario, streams)

        monkeypatch.setattr(TraceFileSource, "generate", counting_generate)
        clear_vector_memos()
        shared = run_study(spec, executor=SerialExecutor())
        assert len(reads) == 1
        fresh = run_study(spec, executor=ClearingTransport())
        assert len(reads) == 1 + spec.total_runs
        assert study_bytes(shared) == study_bytes(fresh)
