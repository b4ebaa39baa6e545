"""Duty-cycle configuration and the duty-cycled radio state machine.

The reference model (paper §II): a sensor radio alternates a fixed
on-period ``Ton`` and off-period ``Toff``; the cycle is
``Tcycle = Ton + Toff`` and the duty-cycle ``d = Ton / Tcycle``.  SNIP
broadcasts a beacon immediately after each turn-on.

:class:`DutyCycleConfig` is the immutable arithmetic view (used by the
closed-form model and the schedulers); :class:`DutyCycledRadio` is the
executable process used by the cycle-accurate micro simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ConfigurationError
from ..sim.engine import Simulator
from ..sim.events import EventKind
from ..sim.process import Process
from ..sim.timeline import Timeline
from ..units import require_positive
from .energy import EnergyLedger
from .states import RadioState


@dataclass(frozen=True)
class DutyCycleConfig:
    """An (Ton, duty-cycle) pair with derived quantities.

    The paper treats ``Ton`` as a platform constant (time to boot the
    radio, send one beacon, and listen briefly for a reply) and varies
    ``d`` by stretching ``Toff``.
    """

    t_on: float
    duty_cycle: float

    def __post_init__(self) -> None:
        require_positive("t_on", self.t_on)
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ConfigurationError(
                f"duty_cycle must lie in (0, 1], got {self.duty_cycle}"
            )

    @classmethod
    def unchecked(cls, t_on: float, duty_cycle: float) -> "DutyCycleConfig":
        """Build without re-running ``__post_init__``'s checks.

        For hot paths whose inputs already pass them: a positive finite
        ``t_on`` and a duty-cycle in ``(0, 1]``.  The result equals (and
        pickles like) ``DutyCycleConfig(t_on, duty_cycle)``.
        """
        config = object.__new__(cls)
        config.__dict__.update(t_on=t_on, duty_cycle=duty_cycle)
        return config

    @classmethod
    def from_cycle(cls, t_on: float, t_cycle: float) -> "DutyCycleConfig":
        """Build from (Ton, Tcycle) instead of (Ton, d)."""
        require_positive("t_cycle", t_cycle)
        if t_cycle < t_on:
            raise ConfigurationError(
                f"t_cycle {t_cycle} must be at least t_on {t_on}"
            )
        return cls(t_on=t_on, duty_cycle=t_on / t_cycle)

    @property
    def t_cycle(self) -> float:
        """Cycle length ``Tcycle = Ton / d``."""
        return self.t_on / self.duty_cycle

    @property
    def t_off(self) -> float:
        """Off period ``Toff = Tcycle - Ton``."""
        return self.t_cycle - self.t_on

    def on_time_during(self, duration: float) -> float:
        """Expected radio-on time accumulated over *duration* seconds."""
        return self.duty_cycle * duration

    def with_duty_cycle(self, duty_cycle: float) -> "DutyCycleConfig":
        """Return a copy with a different duty-cycle, same ``Ton``."""
        return DutyCycleConfig(t_on=self.t_on, duty_cycle=duty_cycle)


class DutyCycledRadio(Process):
    """Executable duty-cycled radio.

    Ticks alternate ON and OFF phases.  At each turn-on the radio invokes
    ``on_wake`` (SNIP hooks its beacon broadcast there), records state
    dwells into an :class:`~repro.radio.energy.EnergyLedger`, and logs
    radio-on windows to an optional :class:`~repro.sim.timeline.Timeline`
    under the label ``"radio_on"``.

    The radio can be retuned between cycles via :meth:`set_config`
    (SNIP-RH changes duty-cycle as its contact-length estimate evolves)
    and halted/restarted with :meth:`disable` / :meth:`enable` (SNIP-RH
    turns probing off outside rush hours).
    """

    TIMELINE_LABEL = "radio_on"

    def __init__(
        self,
        sim: Simulator,
        config: DutyCycleConfig,
        *,
        ledger: Optional[EnergyLedger] = None,
        timeline: Optional[Timeline] = None,
        on_wake: Optional[Callable[[float], None]] = None,
        phase: float = 0.0,
    ) -> None:
        super().__init__(sim, name="duty-cycled-radio", kind=EventKind.RADIO_ON)
        self.config = config
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self.timeline = timeline
        self.on_wake = on_wake
        self.radio_state = RadioState.SLEEP
        self._enabled = True
        self._radio_on = False
        self._initial_phase = phase % config.t_cycle
        self._pending_config: Optional[DutyCycleConfig] = None
        self._phase_started_at: Optional[float] = None
        self.wake_count = 0

    # ------------------------------------------------------------------
    # Process hooks
    # ------------------------------------------------------------------
    def on_start(self) -> Optional[float]:
        # The phase offsets the first turn-on relative to time zero so
        # that fleets of radios are not accidentally synchronized.
        return self._initial_phase

    def on_tick(self) -> Optional[float]:
        if self._radio_on:
            return self._turn_off()
        return self._turn_on()

    def on_stop(self) -> None:
        if self._radio_on:
            self._close_on_window()

    # ------------------------------------------------------------------
    # control surface
    # ------------------------------------------------------------------
    def set_config(self, config: DutyCycleConfig) -> None:
        """Retune the radio; takes effect at the next turn-on."""
        self._pending_config = config

    def disable(self) -> None:
        """Stop cycling after the current on-window closes."""
        self._enabled = False

    def enable(self, delay: float = 0.0) -> None:
        """Resume cycling (no-op if already enabled)."""
        if self._enabled:
            return
        self._enabled = True
        if self.state_machine_idle:
            self.resume(delay)

    @property
    def state_machine_idle(self) -> bool:
        """True when the process is paused waiting for :meth:`enable`."""
        return not self.is_running and not self._radio_on

    @property
    def is_on(self) -> bool:
        """True while the radio is in an on-window."""
        return self._radio_on

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _turn_on(self) -> Optional[float]:
        self._settle_sleep_dwell()
        if not self._enabled:
            # Park until enable() resumes us.  Sleep dwell keeps accruing
            # lazily from _phase_started_at once we resume.
            self._phase_started_at = self.sim.now
            self.pause()
            return None
        if self._pending_config is not None:
            self.config = self._pending_config
            self._pending_config = None
        self._radio_on = True
        self.radio_state = RadioState.LISTEN
        self.wake_count += 1
        self._phase_started_at = self.sim.now
        if self.timeline is not None:
            self.timeline.open(self.TIMELINE_LABEL, self.sim.now)
        if self.on_wake is not None:
            self.on_wake(self.sim.now)
        return self.config.t_on

    def _turn_off(self) -> float:
        self._close_on_window()
        self.radio_state = RadioState.SLEEP
        self._phase_started_at = self.sim.now
        return self.config.t_off

    def _settle_sleep_dwell(self) -> None:
        """Record the sleep time elapsed since the last phase change."""
        if not self._radio_on and self._phase_started_at is not None:
            self.ledger.record(RadioState.SLEEP, self.sim.now - self._phase_started_at)
            self._phase_started_at = None

    def _close_on_window(self) -> None:
        self._radio_on = False
        if self._phase_started_at is not None:
            self.ledger.record(RadioState.LISTEN, self.sim.now - self._phase_started_at)
            self._phase_started_at = None
        if self.timeline is not None:
            self.timeline.close(self.TIMELINE_LABEL, self.sim.now)
