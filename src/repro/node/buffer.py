"""The sensor node's report buffer.

Data is measured in *upload seconds* — the probed contact time needed to
ship it — which keeps the unit system identical to the paper's capacity
metric ζ.  :class:`~repro.radio.link.LinkModel` converts to bytes when
an application wants physical units.

The buffer supports a capacity limit with drop accounting, because a
node whose scheduler under-probes (e.g. SNIP-AT under a tight energy
budget) will eventually overflow storage; the drop counter makes that
failure visible in experiments.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError


class DataBuffer:
    """FIFO-equivalent fluid buffer of pending sensor reports."""

    def __init__(self, capacity: Optional[float] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._level = 0.0
        self.total_generated = 0.0
        self.total_uploaded = 0.0
        self.total_dropped = 0.0

    @property
    def level(self) -> float:
        """Currently buffered data, in upload-seconds."""
        return self._level

    @property
    def free_space(self) -> float:
        """Remaining space (inf when uncapped)."""
        if self.capacity is None:
            return float("inf")
        return self.capacity - self._level

    def generate(self, amount: float) -> float:
        """Add newly sensed data; returns the amount actually stored.

        Data beyond capacity is dropped and counted in
        :attr:`total_dropped`.
        """
        if amount < 0:
            raise ConfigurationError(f"generated amount must be >= 0, got {amount}")
        self.total_generated += amount
        stored = min(amount, self.free_space)
        self._level += stored
        self.total_dropped += amount - stored
        return stored

    def upload(self, window: float) -> float:
        """Drain up to *window* upload-seconds; returns the amount shipped."""
        if window < 0:
            raise ConfigurationError(f"upload window must be >= 0, got {window}")
        shipped = min(window, self._level)
        self._level -= shipped
        self.total_uploaded += shipped
        return shipped

    def conservation_error(self) -> float:
        """|generated - uploaded - dropped - level|; zero is the invariant."""
        return abs(
            self.total_generated
            - self.total_uploaded
            - self.total_dropped
            - self._level
        )


class FluidBuffer(DataBuffer):
    """An uncapped buffer fed at a constant rate, read off a clock.

    It is fed through :meth:`fill_to`, which sets the total generated
    so far (``rate * t`` at clock time ``t``); after each fill and each
    upload the level is recomputed as ``generated - uploaded``, clamped
    at 0, instead of kept as a running sum.  The level at time ``t`` is then ``rate * t - uploaded``
    to one rounding, however long the run: the same arithmetic as the
    vector engine's, so both engines take the same decisions even where
    a level ties an activation threshold.
    """

    def __init__(self) -> None:
        super().__init__(capacity=None)

    def fill_to(self, generated: float) -> None:
        """Set the total generated so far to *generated*."""
        self.total_generated = generated
        self._refresh()

    def upload(self, window: float) -> float:
        shipped = super().upload(window)
        self._refresh()
        return shipped

    def _refresh(self) -> None:
        level = self.total_generated - self.total_uploaded
        self._level = level if level > 0.0 else 0.0
