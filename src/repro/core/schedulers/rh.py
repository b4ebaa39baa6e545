"""SNIP-RH: activate SNIP only during rush hours (paper §VI).

At each CPU wake-up the scheduler activates SNIP iff all three paper
conditions hold:

1. the current time-slot is marked "1" (rush hour);
2. enough data is buffered to fill the next probed contact — the
   threshold is the EWMA of data uploaded in previous probed contacts;
3. the probing energy spent in the current epoch is below the budget.

The duty-cycle is the knee of the *learned* mean contact length,
``d_rh = Ton / mean(Tcontact)``, itself an EWMA with a small new-sample
weight (§VI-C).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from ...errors import ConfigurationError
from ...mobility.contact import Contact
from ...mobility.profiles import SlotProfile
from ...node.sensor import SensorNode
from ...radio.duty_cycle import DutyCycleConfig
from ...units import require_positive
from ..ewma import Ewma
from ..snip_model import SnipModel
from .base import Scheduler, SchedulerDecision


class SnipRhScheduler(Scheduler):
    """The paper's practical rush-hour scheduler.

    Args:
        profile: supplies the slot geometry and the rush-hour markings
            (engineer-provided, or re-marked by the learning module via
            :meth:`set_rush_flags`).
        model: the SNIP closed-form model (binds ``Ton``).
        initial_contact_length: prior for the mean contact length before
            the first probe (an engineer's deployment estimate).  The
            paper notes SNIP-RH "is not very sensitive to the accuracy"
            of this estimate because ρ is flat around the knee.
        ewma_weight: the small new-sample weight for both estimators.
        min_threshold: lower bound on the data-activation threshold so
            the mechanism never requires literally zero data.
    """

    name = "SNIP-RH"

    def __init__(
        self,
        profile: SlotProfile,
        model: SnipModel,
        *,
        initial_contact_length: float = 1.0,
        ewma_weight: float = 0.125,
        min_threshold: float = 1e-3,
    ) -> None:
        require_positive("initial_contact_length", initial_contact_length)
        require_positive("min_threshold", min_threshold)
        self.profile = profile
        self.model = model
        self.contact_length_ewma = Ewma(ewma_weight, initial=initial_contact_length)
        self.upload_ewma = Ewma(ewma_weight)
        self.min_threshold = min_threshold
        self._rush_flags = tuple(profile.rush_flags)
        if not any(self._rush_flags):
            raise ConfigurationError("SNIP-RH requires at least one rush-hour slot")
        # (mean contact length, its config): the EWMA moves only at
        # probes, while the config is read on every rush interval.
        self._config_memo: Optional[Tuple[float, DutyCycleConfig]] = None

    # ------------------------------------------------------------------
    # policy
    # ------------------------------------------------------------------
    def decide(self, time: float, node: SensorNode) -> SchedulerDecision:
        slot = self.profile.slot_index(time)
        if not self._rush_flags[slot]:
            return SchedulerDecision.off("not-rush")
        if node.buffer.level < self.data_threshold():
            return SchedulerDecision.off("no-data")
        if node.account.exhausted:
            return SchedulerDecision.off("budget")
        return SchedulerDecision(self.duty_cycle_config())

    def duty_cycle_config(self) -> DutyCycleConfig:
        """Current ``d_rh = Ton / mean(Tcontact)`` as a radio config.

        Memoized on the contact-length estimate, so it is rebuilt only
        after the EWMA moves.  The EWMA moves at every probe, so the
        rebuild skips the checks its inputs already pass: for a positive
        finite float estimate, ``Ton / mean`` clamped to 1 is
        ``model.knee(mean)`` bit for bit, and a ratio in ``(0, 1]`` over
        the model's validated ``Ton`` is a valid config.  Any other
        estimate (None, zero, negative, an int) takes the validating
        path and fails there, naming ``contact_length``.
        """
        mean_length = self.contact_length_ewma.value
        memo = self._config_memo
        if memo is not None and memo[0] == mean_length:
            return memo[1]
        t_on = self.model.t_on
        duty = 0.0
        if type(mean_length) is float and 0.0 < mean_length < math.inf:
            ratio = t_on / mean_length
            duty = ratio if ratio < 1.0 else 1.0  # min(1.0, ratio)
        if duty > 0.0:
            config = DutyCycleConfig.unchecked(t_on, duty)
        else:
            config = DutyCycleConfig(t_on=t_on, duty_cycle=self.model.knee(mean_length))
        self._config_memo = (mean_length, config)
        return config

    def data_threshold(self) -> float:
        """Buffered data required before SNIP activates (condition 2).

        ``max(min_threshold, estimate)``, the minimum before the first
        probe, written without the builtin calls (the vector engine
        reads it after every probe).
        """
        estimate = self.upload_ewma.value
        minimum = self.min_threshold
        return estimate if estimate is not None and estimate > minimum else minimum

    # ------------------------------------------------------------------
    # learning feedback
    # ------------------------------------------------------------------
    def on_probe(
        self,
        time: float,
        contact: Contact,
        probed_seconds: float,
        uploaded: float,
    ) -> None:
        # The node observes the *probed* window p, not the full contact
        # length L; invert the SNIP geometry to estimate L.  With cycle
        # length c (the radio's Tcycle at probe time):
        #   * if L <= c, the beacon lands uniformly in the contact, so
        #     p ~ U(0, L) and E[2p] = L;
        #   * if L > c, a beacon always lands within c of the contact
        #     start, so p = L - U(0, c) and E[p + c/2] = L.
        # p >= c proves the second branch; otherwise the first estimator
        # applies (their disagreement region p in (c/2, c) is small and
        # the EWMA filters the residual noise).
        t_cycle = self.duty_cycle_config().t_cycle
        if probed_seconds >= t_cycle:
            observed_length = probed_seconds + t_cycle / 2.0
        else:
            observed_length = 2.0 * probed_seconds
        if observed_length > 0:
            self.contact_length_ewma.observe(observed_length)
        self.upload_ewma.observe(uploaded)

    def set_rush_flags(self, flags: Sequence[bool]) -> None:
        """Replace the rush-hour markings (used by the learning module)."""
        if len(flags) != self.profile.slot_count:
            raise ConfigurationError(
                f"expected {self.profile.slot_count} flags, got {len(flags)}"
            )
        if not any(flags):
            raise ConfigurationError("at least one slot must stay marked as rush")
        self._rush_flags = tuple(bool(flag) for flag in flags)

    @property
    def rush_flags(self) -> Sequence[bool]:
        """The markings currently in force."""
        return self._rush_flags
