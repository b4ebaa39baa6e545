"""Contact records and contact traces.

A *contact* (paper §II) is the event of a mobile node dwelling within
the communication range of a sensor node; its length ``Tcontact`` is the
dwell time.  A :class:`ContactTrace` is a chronologically ordered list
of contacts seen by one sensor node, the common currency between the
mobility generators, the simulators, and the trace file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

from ..errors import ConfigurationError
from ..units import DAY


@dataclass(frozen=True)
class Contact:
    """One mobile-node pass within range of a sensor node."""

    start: float
    length: float
    mobile_id: str = "mobile"

    def __post_init__(self) -> None:
        if not math.isfinite(self.start) or self.start < 0:
            raise ConfigurationError(
                f"contact start must be finite and >= 0, got {self.start}"
            )
        if not math.isfinite(self.length) or self.length <= 0:
            raise ConfigurationError(
                f"contact length must be finite and > 0, got {self.length}"
            )

    @property
    def end(self) -> float:
        """Time the mobile node leaves communication range."""
        return self.start + self.length

    def overlaps(self, other: "Contact") -> bool:
        """True when the two contact windows intersect."""
        return self.start < other.end and other.start < self.end

    def shifted(self, offset: float) -> "Contact":
        """A copy translated in time by *offset* seconds."""
        return Contact(self.start + offset, self.length, self.mobile_id)


@dataclass
class ContactTrace:
    """A chronologically sorted sequence of contacts.

    The paper's sparse-network assumption (at most one mobile node in
    range at a time) is surfaced via :meth:`has_overlaps`, and enforced
    by generators rather than by this container, so that real-world
    traces with overlapping contacts can still be loaded and inspected.
    """

    contacts: List[Contact] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.contacts = sorted(self.contacts, key=lambda c: (c.start, c.end))

    def __len__(self) -> int:
        return len(self.contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self.contacts)

    def __getitem__(self, index: int) -> Contact:
        return self.contacts[index]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, contact: Contact) -> None:
        """Append a contact that starts no earlier than the last one."""
        if self.contacts and contact.start < self.contacts[-1].start:
            raise ConfigurationError(
                "contacts must be appended in chronological order"
            )
        self.contacts.append(contact)

    @classmethod
    def merged(cls, traces: Iterable["ContactTrace"]) -> "ContactTrace":
        """Merge several traces into one sorted trace."""
        contacts: List[Contact] = []
        for trace in traces:
            contacts.extend(trace.contacts)
        return cls(contacts)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Time of the last contact end (0 for an empty trace)."""
        return max((c.end for c in self.contacts), default=0.0)

    @property
    def total_capacity(self) -> float:
        """Sum of contact lengths — the theoretical upper bound on ζ."""
        return sum(c.length for c in self.contacts)

    def between(self, start: float, end: float) -> "ContactTrace":
        """Contacts that *start* within [start, end)."""
        return ContactTrace(
            [c for c in self.contacts if start <= c.start < end]
        )

    def capacity_between(self, start: float, end: float) -> float:
        """Total contact-length seconds of contacts starting in [start, end)."""
        return sum(c.length for c in self.contacts if start <= c.start < end)

    def has_overlaps(self) -> bool:
        """True if any two consecutive contacts intersect."""
        return any(
            earlier.overlaps(later)
            for earlier, later in zip(self.contacts, self.contacts[1:])
        )

    def inter_contact_times(self) -> List[float]:
        """Gaps between consecutive contact starts (``Tinterval`` samples)."""
        return [
            later.start - earlier.start
            for earlier, later in zip(self.contacts, self.contacts[1:])
        ]

    def mean_contact_length(self) -> Optional[float]:
        """Average ``Tcontact``, or None for an empty trace."""
        if not self.contacts:
            return None
        return self.total_capacity / len(self.contacts)

    # ------------------------------------------------------------------
    # epoch views
    # ------------------------------------------------------------------
    def epochs(self, epoch_length: float = DAY) -> List["ContactTrace"]:
        """Split into per-epoch traces, each rebased to start at 0."""
        if epoch_length <= 0:
            raise ConfigurationError("epoch_length must be positive")
        buckets: List[List[Contact]] = []
        for contact in self.contacts:
            index = int(contact.start // epoch_length)
            while len(buckets) <= index:
                buckets.append([])
            # Floor division can round up by one ulp when the start sits
            # on an epoch boundary; clamp the rebased start at zero so a
            # float artefact never produces a (invalid) negative time.
            rebased = max(0.0, contact.start - index * epoch_length)
            buckets[index].append(
                Contact(rebased, contact.length, contact.mobile_id)
            )
        return [ContactTrace(bucket) for bucket in buckets]

    def slot_capacities(
        self, epoch_length: float, slot_count: int
    ) -> List[float]:
        """Per-slot contact capacity folded across all epochs.

        Returns ``slot_count`` totals: entry *i* is the summed length of
        contacts whose start falls in slot *i* of any epoch.  This is the
        statistic a sensor node would learn to identify rush hours.
        """
        if slot_count <= 0:
            raise ConfigurationError("slot_count must be positive")
        slot_length = epoch_length / slot_count
        totals = [0.0] * slot_count
        for contact in self.contacts:
            position = contact.start % epoch_length
            index = min(int(position // slot_length), slot_count - 1)
            totals[index] += contact.length
        return totals
