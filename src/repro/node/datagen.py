"""Constant-rate data generation.

The paper's simulation generates sensed data "with a constant rate
derived from ζtarget" (§VII-A-2): producing exactly ζtarget
upload-seconds of reports per epoch means the target capacity is just
enough to keep the buffer drained.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Simulator
from ..sim.events import EventKind
from ..sim.process import Process
from ..units import require_positive
from .buffer import DataBuffer


class ConstantRateDataGenerator(Process):
    """Deposits sensed data into a buffer at a constant rate.

    Data accrual is continuous in the model; the process ticks at a
    configurable granularity and deposits ``rate * tick`` each time,
    which converges to the fluid limit for any tick far below the epoch
    length.  A finer tick costs more events; the default (one minute) is
    ~0.07 upload-seconds per tick at the paper's smallest target.
    """

    def __init__(
        self,
        sim: Simulator,
        buffer: DataBuffer,
        rate: float,
        *,
        tick: float = 60.0,
    ) -> None:
        super().__init__(sim, name="data-generator", kind=EventKind.DATA_GENERATED)
        self.buffer = buffer
        self.rate = require_positive("rate", rate)
        self.tick = require_positive("tick", tick)
        self._last_deposit_time: Optional[float] = None

    def on_start(self) -> float:
        self._last_deposit_time = self.sim.now
        return self.tick

    def on_tick(self) -> float:
        self.deposit_up_to_now()
        return self.tick

    def deposit_up_to_now(self) -> None:
        """Deposit data accrued since the last deposit.

        Also invoked by the simulators right before a probing decision,
        so the buffer level a scheduler sees is exact regardless of tick
        granularity.
        """
        if self._last_deposit_time is None:
            return
        elapsed = self.sim.now - self._last_deposit_time
        if elapsed > 0:
            self.buffer.generate(self.rate * elapsed)
            self._last_deposit_time = self.sim.now
