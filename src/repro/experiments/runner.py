"""The fast contact-driven simulator.

Simulating two weeks of a duty-cycled radio cycle-by-cycle means
hundreds of thousands of events per run; the paper's quantities do not
require that.  Between contacts the radio's behaviour is statistically
determined by its duty-cycle (energy accrues at ``d`` per second), and
whether/when a contact is probed is pure arithmetic on the beacon train
(:class:`~repro.radio.beacon.BeaconSchedule`).  The fast runner
therefore advances time in CPU decision intervals (the paper's periodic
CPU wake-ups), charges energy analytically, and resolves each contact
in O(1).  The cycle-accurate :mod:`~repro.experiments.micro` engine
validates this equivalence in the test suite and in an ablation bench.

Invariants enforced here:

* epoch probing energy never exceeds Φmax — when a decision interval
  would cross the budget, probing is cut at the exact crossing time and
  later contacts in the interval are missed;
* a contact is probed only while probing is active, by a beacon of the
  train anchored at the activation instant (the train persists across
  decision intervals while the configuration is unchanged, exactly like
  a free-running radio).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.schedulers.base import Scheduler
from ..mobility.contact import Contact, ContactTrace
from ..mobility.synthetic import SyntheticTraceGenerator
from ..node.buffer import FluidBuffer
from ..node.sensor import ProbingAccount, SensorNode
from ..radio.beacon import BeaconSchedule
from ..radio.duty_cycle import DutyCycleConfig
from ..radio.link import LinkModel
from ..radio.states import RadioState
from ..scenarios import ScenarioRef
from ..sim.rng import RandomStreams
from ..sim.timeline import Timeline
from ..units import TIME_EPSILON
from .engine import resolve_engine
from .metrics import EpochMetrics, RunMetrics
from .registry import engine_factories, mechanism_factories
from .scenario import Scenario


def generate_trace(
    scenario: Scenario, streams: Optional[RandomStreams] = None
) -> ContactTrace:
    """The deterministic contact trace for *scenario*.

    Seeded by ``scenario.seed`` unless *streams* overrides the
    generator's RNG, so every engine given the same scenario simulates
    the identical contact process — the paired-comparison property the
    agreement grid (:mod:`repro.experiments.agreement`) relies on.

    A scenario with a ``contact_source`` (trace-driven and mixed-fleet
    workloads) delegates to it instead of the synthetic slot-profile
    generator; the source receives the same seeded streams, so the
    paired-comparison property holds for every workload.
    """
    resolved = streams if streams is not None else RandomStreams(scenario.seed)
    if scenario.contact_source is not None:
        return scenario.contact_source.generate(scenario, resolved)
    generator = SyntheticTraceGenerator(
        scenario.profile,
        scenario.trace_config,
        streams=resolved,
    )
    return generator.generate()


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation cell, safe to ship to a worker.

    The scenario already carries the cell's derived seed, so executing a
    spec is a pure function: the same spec produces the same
    :class:`RunResult` in any process, on any worker, in any order.
    This is the per-cell half of the declarative spec layer: a whole
    study's worth of cells is described once by a
    :class:`~repro.experiments.spec.StudySpec` and flattened into
    ``RunSpec`` shards by :func:`~repro.experiments.spec.run_study`.

    Attributes:
        scenario: the complete configuration, seed and Φmax included.
        mechanism: scheduler name; resolved worker-side through
            :data:`repro.experiments.registry.mechanism_factories`.
        replicate: replicate index within its (mechanism, ζtarget, Φmax)
            cell (bookkeeping for aggregation; does not affect
            execution).
        engine: simulation backend name, resolved worker-side through
            :data:`repro.experiments.registry.engine_factories` (the
            unified :class:`~repro.experiments.engine.Engine` protocol);
            default ``"fast"``, byte-identical to the historical path.
        scenario_ref: optional :class:`~repro.scenarios.ScenarioRef`
            recording which registry entry (name + canonical options)
            the materialized *scenario* came from.  Execution never
            reads it — it exists so :mod:`repro.cache.keys` can
            fingerprint registry-named scenarios canonically instead of
            hashing the whole materialized dataclass.
    """

    scenario: Scenario
    mechanism: str
    replicate: int = 0
    engine: str = "fast"
    scenario_ref: Optional[ScenarioRef] = None


def execute_run_spec(spec: RunSpec) -> RunResult:
    """Run one :class:`RunSpec` to completion (the worker entry point).

    Module-level (hence picklable by reference) so any transport can
    ship it across a process — or host — boundary: a pool task and a
    file-queue ticket (:mod:`repro.experiments.transport`) both carry
    exactly this function plus a shard list.  Both the mechanism and
    the engine cross the boundary as names and are re-resolved here, on
    the worker's side; an unknown name raises
    :class:`~repro.errors.ConfigurationError`, which propagates to the
    caller exactly once as a worker-side shard error (never a serial
    re-run of the workload).
    """
    scheduler = mechanism_factories.resolve(spec.mechanism)(spec.scenario)
    return resolve_engine(spec.engine).run(spec.scenario, scheduler)


@dataclass
class RunResult:
    """One cell's outcome: its scenario and per-epoch metrics.

    The one type every engine, transport and the cell cache produce, so
    a serial, pool, file-queue or cached cell looks the same to every
    consumer.  ``from_cache`` marks a result replayed from the
    content-addressed cell cache (:mod:`repro.cache`) instead of
    executed; its metrics are byte-identical to a fresh run's.

    Run state stays with whoever holds it: the caller keeps the
    scheduler it passed to ``engine.run``, a :class:`FastRunner` keeps
    its ``node`` (and ``timeline``) after ``run()``, and the contact
    trace is ``generate_trace(scenario)``.
    """

    scenario: Scenario
    metrics: RunMetrics
    from_cache: bool = False

    @property
    def mean_zeta(self) -> float:
        """Mean probed capacity per epoch (the paper's ζ plots)."""
        return self.metrics.mean_zeta

    @property
    def mean_phi(self) -> float:
        """Mean probing overhead per epoch (the paper's Φ plots)."""
        return self.metrics.mean_phi

    @property
    def mean_rho(self) -> float:
        """Mean per-unit cost (the paper's ρ plots)."""
        return self.metrics.mean_rho


class FastRunner:
    """Contact-driven simulation of one sensor node under a scheduler.

    After :meth:`run`, ``node`` holds the simulated sensor node and
    ``timeline`` the probe and probing-activity intervals (None unless
    *record_timeline*).
    """

    def __init__(
        self,
        scenario: Scenario,
        scheduler: Scheduler,
        *,
        record_timeline: bool = False,
        trace: Optional[ContactTrace] = None,
    ) -> None:
        self.scenario = scenario
        self.scheduler = scheduler
        self.link = LinkModel()
        self.record_timeline = record_timeline
        self._trace_override = trace
        self.node: Optional[SensorNode] = None
        self.timeline: Optional[Timeline] = None

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Simulate ``scenario.epochs`` epochs and return the result."""
        scenario = self.scenario
        profile = scenario.profile
        trace = self._trace_override or self._generate_trace()
        timeline = self.timeline = Timeline() if self.record_timeline else None

        node = self.node = SensorNode(
            node_id="sensor-0",
            account=ProbingAccount(budget=scenario.phi_max),
            buffer=FluidBuffer(),
        )
        metrics = RunMetrics()
        contacts = list(trace)
        cursor = 0  # next unprocessed contact
        period = scenario.decision_period
        epoch_length = profile.epoch_length

        # Beacon-train anchoring: persists across intervals while the
        # same configuration stays active (a free-running radio).
        train_anchor: Optional[float] = None
        train_config: Optional[DutyCycleConfig] = None
        # A contact extending past the current interval whose fate is not
        # yet known (probing may continue or resume next interval).  At
        # most one exists because contacts never overlap.
        pending: Optional[Contact] = None
        # FIFO latency accounting: data is generated fluidly at the
        # scenario rate, so the unit at cumulative position x was created
        # at time x / rate; uploads drain oldest-first.
        self._uploaded_cumulative = 0.0

        for epoch_index in range(scenario.epochs):
            epoch_start = epoch_index * epoch_length
            epoch_end = epoch_start + epoch_length
            self.scheduler.on_epoch_start(epoch_index, node)
            epoch = EpochMetrics(epoch_index=epoch_index)

            time = epoch_start
            while time < epoch_end - TIME_EPSILON:
                interval_end = min(time + period, epoch_end)
                # The decision at `time` sees the buffer as of `time`;
                # the interval's sensing data is deposited afterwards,
                # as the total generated by `interval_end` (no running
                # sum of deposits: see FluidBuffer).
                decision = self.scheduler.decide(time, node)
                node.buffer.fill_to(scenario.data_rate * interval_end)

                if not decision.active:
                    train_anchor = None
                    train_config = None
                    active_until = time  # probing off
                    schedule = None
                else:
                    config = decision.duty_cycle
                    if config != train_config:
                        train_anchor = time
                        train_config = config
                    # Charge probing energy, clipping at the epoch budget.
                    full_cost = config.duty_cycle * (interval_end - time)
                    remaining = node.account.remaining
                    if full_cost <= remaining + TIME_EPSILON:
                        active_until = interval_end
                        charge = min(full_cost, remaining)
                    else:
                        active_until = time + remaining / config.duty_cycle
                        charge = remaining
                    node.account.charge(charge)
                    node.ledger.record(RadioState.LISTEN, charge)
                    if timeline is not None and active_until > time:
                        timeline.add("probing_active", time, active_until)
                    schedule = BeaconSchedule(config, train_anchor)
                    if active_until < interval_end - TIME_EPSILON:
                        # Budget ran dry mid-interval; the train stops.
                        train_anchor = None
                        train_config = None

                # Resolve the deferred straddler first (beacons before
                # this interval's activation do not exist for it).
                if pending is not None:
                    pending = self._resolve_one(
                        pending, time, interval_end, active_until,
                        schedule, node, epoch, timeline,
                    )
                while cursor < len(contacts) and contacts[cursor].start < interval_end:
                    contact = contacts[cursor]
                    cursor += 1
                    leftover = self._resolve_one(
                        contact, contact.start, interval_end, active_until,
                        schedule, node, epoch, timeline,
                    )
                    if leftover is not None:
                        pending = leftover
                time = interval_end

            self._finish_epoch(node, epoch, contacts, epoch_start, epoch_end)
            metrics.append(epoch)

        return RunResult(scenario=scenario, metrics=metrics)

    # ------------------------------------------------------------------
    # contact resolution
    # ------------------------------------------------------------------
    def _resolve_one(
        self,
        contact: Contact,
        query_start: float,
        interval_end: float,
        active_until: float,
        schedule: Optional[BeaconSchedule],
        node: SensorNode,
        epoch: EpochMetrics,
        timeline: Optional[Timeline],
    ) -> Optional[Contact]:
        """Probe, miss, or defer one contact within the current interval.

        *query_start* bounds the beacon search from below: beacons before
        the probing activation (or before this interval, for a deferred
        contact) do not exist.  Returns the contact when its fate must be
        decided by a later interval (it extends past *interval_end* and
        was not probed), else None.
        """
        beacon_time = None
        if schedule is not None:
            window_start = max(contact.start, query_start)
            beacon_time = schedule.first_beacon_in(window_start, contact.end)
            if beacon_time is not None and beacon_time >= active_until:
                beacon_time = None
        if beacon_time is not None:
            probed_seconds = contact.end - beacon_time
            uploaded = node.buffer.upload(self.link.usable_window(probed_seconds))
            node.ledger.record(RadioState.TRANSMIT, uploaded)
            node.record_probe(probed_seconds)
            epoch.zeta += probed_seconds
            epoch.uploaded += uploaded
            epoch.probed_contacts += 1
            if uploaded > 0:
                self._account_latency(contact.end, uploaded, epoch)
            self.scheduler.on_probe(beacon_time, contact, probed_seconds, uploaded)
            if timeline is not None:
                timeline.add("probe", beacon_time, contact.end)
            return None
        if contact.end > interval_end + TIME_EPSILON:
            # The contact outlives this interval: probing may resume or
            # continue, so defer the verdict.
            return contact
        self._miss(contact, node, epoch)
        return None

    def _account_latency(
        self, delivery_time: float, uploaded: float, epoch: EpochMetrics
    ) -> None:
        """FIFO delivery-delay bookkeeping for one upload.

        The drained span covers cumulative positions
        [U, U + uploaded); its units were created fluidly at x / rate, so
        the amount-weighted mean creation time is (U + uploaded/2) / rate
        and the oldest unit dates from U / rate.
        """
        rate = self.scenario.data_rate
        oldest_creation = self._uploaded_cumulative / rate
        mean_creation = (self._uploaded_cumulative + uploaded / 2.0) / rate
        epoch.delivery_delay_weight += uploaded * max(
            0.0, delivery_time - mean_creation
        )
        epoch.max_delivery_delay = max(
            epoch.max_delivery_delay, delivery_time - oldest_creation
        )
        self._uploaded_cumulative += uploaded

    def _miss(self, contact: Contact, node: SensorNode, epoch: EpochMetrics) -> None:
        node.record_miss()
        epoch.missed_contacts += 1
        self.scheduler.on_miss(contact.start, contact)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _finish_epoch(
        self,
        node: SensorNode,
        epoch: EpochMetrics,
        contacts: List[Contact],
        epoch_start: float,
        epoch_end: float,
    ) -> None:
        epoch.phi = node.account.rollover()
        epoch.buffer_end_level = node.buffer.level
        arrived = [c for c in contacts if epoch_start <= c.start < epoch_end]
        epoch.arrived_contacts = len(arrived)
        epoch.arrived_capacity = sum(c.length for c in arrived)

    def _generate_trace(self) -> ContactTrace:
        return generate_trace(self.scenario)


class FastEngine:
    """The fast contact-driven engine behind the unified run API.

    The ``"fast"`` entry of
    :data:`repro.experiments.registry.engine_factories`: a stateless
    adapter satisfying the :class:`~repro.experiments.engine.Engine`
    protocol by delegating to :class:`FastRunner`.  This is the default
    engine everywhere (sweeps, grids, fleets, the CLI) and the one the
    Fig. 7/8 reproductions run on.
    """

    name = "fast"

    def run(
        self,
        scenario: Scenario,
        scheduler: Scheduler,
        *,
        trace: Optional[ContactTrace] = None,
    ) -> RunResult:
        """Simulate *scenario* under *scheduler* with beacon arithmetic.

        See :meth:`repro.experiments.engine.Engine.run` for the
        parameter contract.  Byte-identical to the historical
        ``FastRunner(scenario, scheduler).run()`` path.
        """
        if trace is None:
            trace = generate_trace(scenario)
        return FastRunner(scenario, scheduler, trace=trace).run()


engine_factories.register("fast", FastEngine)
