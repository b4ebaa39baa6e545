"""SNIP-AT: run SNIP at all times with one well-chosen duty-cycle.

The paper's straightforward baseline (§IV): a single duty-cycle ``d0``
selected so the probed contact capacity over an epoch just reaches
ζtarget — capped by the energy budget ``d ≤ Φmax / Tepoch`` (a higher
``d0`` would violate Φmax before the epoch ends; the cap maximizes
capacity within the budget instead).

In the paper's simulations the value is "calculated based on the
simulated environment and incorporated into the codes"; we do the same
by solving the closed-form model at construction time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from ...errors import ConfigurationError
from ...mobility.profiles import SlotProfile
from ...node.sensor import SensorNode
from ...radio.duty_cycle import DutyCycleConfig
from ...units import require_positive
from ..snip_model import SnipModel, upsilon_unchecked
from .base import Scheduler, SchedulerDecision


def at_duty_cycle_for_target(
    profile: SlotProfile, model: SnipModel, zeta_target: float
) -> float:
    """Smallest constant d whose epoch capacity reaches ζtarget.

    The epoch capacity ``ζ(d) = Σ_i E[contacts_i] · L_i · Υ(d, L_i)`` is
    continuous and increasing in d; solve by bisection (the linear
    closed form only holds below every slot's knee).

    The solve depends only on ``(profile, Ton, ζtarget)`` and is
    memoized on that key (bounded; failures are never cached), so every
    scheduler build and prediction of one grid shares it.

    Raises:
        ConfigurationError: if even ``d = 1`` cannot reach the target.
    """
    require_positive("zeta_target", zeta_target)
    return _solve_at(profile, model.t_on, zeta_target)


@lru_cache(maxsize=256)
def _solve_at(profile: SlotProfile, t_on: float, zeta_target: float) -> float:
    terms = _capacity_terms(profile, t_on)

    def capacity(duty: float) -> float:
        return sum(
            weight * upsilon_unchecked(duty, length, t_on)
            for weight, length in terms
        )

    if capacity(1.0) < zeta_target - 1e-9:
        raise ConfigurationError(
            f"zeta_target {zeta_target} exceeds the epoch's probe-able capacity "
            f"{capacity(1.0):.3f} even with the radio always on"
        )
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if capacity(mid) < zeta_target:
            lo = mid
        else:
            hi = mid
    return hi


def _capacity_terms(profile: SlotProfile, t_on: float) -> List[Tuple[float, float]]:
    """Validated ``(E[contacts_i] · L_i, L_i)`` for every slot with contacts.

    The bisection's duty-cycles all lie in (0, 1], so once the lengths
    and ``Ton`` pass here the unchecked Υ is safe inside the loop.
    """
    terms = []
    for i in range(profile.slot_count):
        if profile.rate(i) > 0:
            length = profile.mean_lengths[i]
            require_positive("contact_length", length)
            require_positive("t_on", t_on)
            terms.append((profile.expected_contacts(i) * length, length))
    return terms


class SnipAtScheduler(Scheduler):
    """Always-on SNIP with a fixed duty-cycle.

    The duty-cycle is ``min(d_target, Φmax / Tepoch)``: sized for the
    capacity target when affordable, otherwise spending the whole budget
    uniformly (which is how a constant-d mechanism maximizes capacity).
    """

    name = "SNIP-AT"

    def __init__(
        self,
        profile: SlotProfile,
        model: SnipModel,
        *,
        zeta_target: float,
        phi_max: float,
    ) -> None:
        require_positive("phi_max", phi_max)
        self.profile = profile
        self.model = model
        self.zeta_target = zeta_target
        self.phi_max = phi_max
        budget_cap = phi_max / profile.epoch_length
        try:
            d_target = at_duty_cycle_for_target(profile, model, zeta_target)
        except ConfigurationError:
            # Target unreachable outright; spend the budget.
            d_target = 1.0
        self.duty_cycle = min(d_target, budget_cap, 1.0)
        if self.duty_cycle <= 0:
            raise ConfigurationError("SNIP-AT derived a non-positive duty-cycle")
        self._config = DutyCycleConfig(t_on=model.t_on, duty_cycle=self.duty_cycle)

    def decide(self, time: float, node: SensorNode) -> SchedulerDecision:
        if node.account.exhausted:
            return SchedulerDecision.off("budget")
        return SchedulerDecision(self._config)
