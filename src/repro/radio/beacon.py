"""Beacon frames and beacon timing arithmetic.

In SNIP the *sensor node* broadcasts one beacon immediately after every
radio turn-on.  Because the mobile node's radio is always on, a contact
is probed exactly when the first beacon after contact start falls inside
the contact window.  :class:`BeaconSchedule` performs that arithmetic
analytically, which lets the fast simulator avoid enumerating the
hundreds of thousands of wake-ups between contacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..units import TIME_EPSILON, require_non_negative
from .duty_cycle import DutyCycleConfig


@dataclass(frozen=True)
class Beacon:
    """A single beacon broadcast."""

    sender_id: str
    time: float
    #: Airtime of the beacon frame; a 16-byte frame at 250 kbps is ~0.5 ms,
    #: well inside the radio's on-window (Ton is tens of milliseconds).
    airtime: float = 0.5e-3


class BeaconSchedule:
    """Analytic view of a periodic beacon train.

    The radio turns on (and beacons) at times ``phase + k * Tcycle`` for
    integer ``k >= 0``.  All queries are O(1).
    """

    def __init__(self, config: DutyCycleConfig, phase: float = 0.0) -> None:
        self.config = config
        self.phase = require_non_negative("phase", phase) % config.t_cycle

    def beacon_index_at_or_after(self, time: float) -> int:
        """Index of the first beacon at or after *time* (clamped at 0)."""
        if time <= self.phase:
            return 0
        return math.ceil((time - self.phase - TIME_EPSILON) / self.config.t_cycle)

    def next_beacon_at_or_after(self, time: float) -> float:
        """Time of the first beacon at or after *time*."""
        index = self.beacon_index_at_or_after(time)
        return self.phase + index * self.config.t_cycle

    def first_beacon_in(self, start: float, end: float) -> Optional[float]:
        """Time of the first beacon inside [start, end), or None.

        This is the probing predicate of SNIP: a contact spanning
        [start, end) is probed iff a beacon lands inside it.
        """
        if end <= start:
            return None
        candidate = self.next_beacon_at_or_after(start)
        return candidate if candidate < end else None

    def beacons_in(self, start: float, end: float) -> int:
        """Number of beacons inside [start, end)."""
        if end <= start:
            return 0
        first = self.beacon_index_at_or_after(start)
        last = self.beacon_index_at_or_after(end)
        return max(0, last - first)
