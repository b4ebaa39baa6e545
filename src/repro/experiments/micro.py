"""The cycle-accurate micro simulator (the COOJA-fidelity substitute).

Unlike the fast engine (:class:`~repro.experiments.runner.FastEngine`),
this engine enumerates *every* radio wake-up as a discrete event: the
duty-cycled radio (:class:`~repro.radio.duty_cycle.DutyCycledRadio`)
beacons at each turn-on through
:class:`~repro.protocols.snip.SnipProbing`, contacts open and close
presence windows, a CPU process consults the scheduler at the decision
period, and a data generator fills the buffer.  It is two to three
orders of magnitude slower, so it runs short horizons — the test suite,
the engine-agreement ablation, and the replicated agreement grid
(:mod:`repro.experiments.agreement`) use it to validate both equation 1
and the fast engine.

:class:`MicroEngine` is the ``"micro"`` entry of the engine registry
(:data:`repro.experiments.registry.engine_factories`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.schedulers.base import Scheduler
from ..mobility.contact import Contact, ContactTrace
from ..node.buffer import DataBuffer
from ..node.datagen import ConstantRateDataGenerator
from ..node.sensor import ProbingAccount, SensorNode
from ..protocols.snip import SnipProbe, SnipProbing
from ..radio.duty_cycle import DutyCycleConfig, DutyCycledRadio
from ..radio.states import RadioState
from ..sim.engine import Simulator
from ..sim.events import Event, EventKind
from ..sim.rng import RandomStreams
from ..units import TIME_EPSILON
from .metrics import EpochMetrics, RunMetrics
from .registry import engine_factories
from .runner import RunResult, generate_trace
from .scenario import Scenario


class MicroEngine:
    """Event-per-radio-cycle simulation of one sensor node.

    The ``"micro"`` engine of the unified run API
    (:class:`~repro.experiments.engine.Engine`): stateless, so one
    instance serves any number of runs, and a
    :class:`~repro.experiments.runner.RunSpec` carrying
    ``engine="micro"`` resolves it by name on whichever worker executes
    the shard.
    """

    name = "micro"

    def run(
        self,
        scenario: Scenario,
        scheduler: Scheduler,
        *,
        trace: Optional[ContactTrace] = None,
    ) -> RunResult:
        """Simulate ``scenario.epochs`` epochs event-by-event.

        See :meth:`repro.experiments.engine.Engine.run` for the
        parameter contract.  The trace, when not supplied, is the same
        deterministic one the fast engine derives from
        ``scenario.seed`` — identical contact processes are what make
        cross-engine comparisons paired.
        """
        if trace is None:
            trace = generate_trace(scenario)
        sim = Simulator()
        node = SensorNode(
            node_id="sensor-0",
            account=ProbingAccount(budget=scenario.phi_max),
            buffer=DataBuffer(),
        )
        metrics = RunMetrics()
        epoch_box = {"current": EpochMetrics(epoch_index=0)}

        # Radio: starts disabled; the CPU process drives it.
        idle_config = DutyCycleConfig(t_on=scenario.model.t_on, duty_cycle=0.5)
        radio = DutyCycledRadio(sim, idle_config, ledger=node.ledger)
        generator = ConstantRateDataGenerator(
            sim, node.buffer, scenario.data_rate, tick=scenario.decision_period
        )

        def handle_probe(probe: SnipProbe) -> None:
            generator.deposit_up_to_now()
            probed = probe.probed_seconds
            uploaded = node.buffer.upload(probed)
            node.ledger.record(RadioState.TRANSMIT, uploaded)
            node.record_probe(probed)
            epoch = epoch_box["current"]
            epoch.zeta += probed
            epoch.uploaded += uploaded
            epoch.probed_contacts += 1
            scheduler.on_probe(probe.probe_time, probe.contact, probed, uploaded)

        probing = SnipProbing(sim, radio, on_probe=handle_probe)

        # Charge the probing account per wake (Ton of on-time per cycle)
        # by wrapping the probing beacon hook.  The wake hook also
        # enforces the hard budget between CPU decisions: with Tcycle far
        # below the decision period, waiting for the next decision could
        # overshoot Φmax by many cycles.
        inner_wake = radio.on_wake

        def charged_wake(now: float) -> None:
            if node.account.remaining < radio.config.t_on - TIME_EPSILON:
                radio.disable()
                return
            node.account.charge(radio.config.t_on)
            inner_wake(now)

        radio.on_wake = charged_wake

        # CPU decision process.
        def decide(event: Event) -> None:
            generator.deposit_up_to_now()
            decision = scheduler.decide(sim.now, node)
            if decision.active and node.account.remaining >= radio.config.t_on:
                radio.set_config(decision.duty_cycle)
                radio.enable()
            else:
                radio.disable()
            sim.schedule_after(
                scenario.decision_period, decide, kind=EventKind.CPU_WAKEUP
            )

        # Contact events.
        def contact_start(event: Event) -> None:
            probing.contact_started(event.payload)

        def contact_end(event: Event) -> None:
            contact = event.payload
            before = probing.missed_count
            probing.contact_ended(contact)
            if probing.missed_count > before:
                node.record_miss()
                epoch_box["current"].missed_contacts += 1
                scheduler.on_miss(sim.now, contact)

        for contact in trace:
            sim.schedule(
                contact.start, contact_start,
                kind=EventKind.CONTACT_START, payload=contact,
            )
            sim.schedule(
                contact.end, contact_end,
                kind=EventKind.CONTACT_END, payload=contact,
            )

        # Drive epoch-by-epoch; negative priority so the boundary work
        # happens before user events at the same instant.
        epoch_length = scenario.profile.epoch_length
        scheduler.on_epoch_start(0, node)
        generator.start()
        # The radio starts parked; the first CPU decision enables it.
        radio.disable()
        radio.start()
        sim.schedule(0.0, decide, kind=EventKind.CPU_WAKEUP, priority=-1)
        for epoch_index in range(scenario.epochs):
            epoch_start = epoch_index * epoch_length
            epoch_end = epoch_start + epoch_length
            if epoch_index > 0:
                scheduler.on_epoch_start(epoch_index, node)
            sim.run_until(epoch_end, inclusive=False)
            # The generator's tick at epoch_end belongs to this epoch's
            # data; every reader deposits before it looks, so depositing
            # early moves no decision.
            generator.deposit_up_to_now()
            epoch = epoch_box["current"]
            epoch.phi = node.account.rollover()
            epoch.buffer_end_level = node.buffer.level
            arrived = trace.between(epoch_start, epoch_end)
            epoch.arrived_contacts = len(arrived)
            epoch.arrived_capacity = arrived.total_capacity
            metrics.append(epoch)
            epoch_box["current"] = EpochMetrics(epoch_index=epoch_index + 1)

        radio.stop()
        return RunResult(scenario=scenario, metrics=metrics)


engine_factories.register("micro", MicroEngine)


# ----------------------------------------------------------------------
# equation-1 validation harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UpsilonMeasurement:
    """Monte-Carlo estimate of Υ from the cycle-accurate engine."""

    duty_cycle: float
    contact_length: float
    measured_upsilon: float
    probed_contacts: int
    total_contacts: int


def measure_upsilon(
    config: DutyCycleConfig,
    contact_length: float,
    *,
    contact_count: int = 400,
    seed: int = 7,
) -> UpsilonMeasurement:
    """Measure Υ(d, Tcontact) by running real beacon trains over contacts.

    Contacts are dropped at uniformly random phases relative to the
    beacon train (the model's assumption); the measured mean
    ``Tprobed / Tcontact`` converges to equation 1.
    """
    sim = Simulator()
    radio = DutyCycledRadio(sim, config)
    probing = SnipProbing(sim, radio)
    rng = RandomStreams(seed).stream("upsilon.phase")

    gap = max(config.t_cycle, contact_length) * 2.0
    cursor = gap
    contacts = []
    for _ in range(contact_count):
        start = cursor + float(rng.uniform(0.0, config.t_cycle))
        contacts.append(Contact(start, contact_length))
        cursor = start + contact_length + gap

    for contact in contacts:
        sim.schedule(
            contact.start,
            lambda ev: probing.contact_started(ev.payload),
            kind=EventKind.CONTACT_START,
            payload=contact,
        )
        sim.schedule(
            contact.end,
            lambda ev: probing.contact_ended(ev.payload),
            kind=EventKind.CONTACT_END,
            payload=contact,
        )

    radio.start()
    sim.run_until(contacts[-1].end + gap)
    radio.stop()

    total_probed = probing.probed_seconds
    measured = total_probed / (contact_count * contact_length)
    return UpsilonMeasurement(
        duty_cycle=config.duty_cycle,
        contact_length=contact_length,
        measured_upsilon=measured,
        probed_contacts=probing.probed_count,
        total_contacts=contact_count,
    )
