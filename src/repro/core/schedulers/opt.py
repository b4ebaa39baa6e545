"""SNIP-OPT: execute the two-step optimizer's per-slot plan.

The oracle mechanism of §V: it assumes perfect knowledge of every slot's
contact arrival process and an offline solver.  At runtime it simply
looks up the pre-computed duty-cycle for the current slot.  The paper
notes it is impractical on real motes; it exists as the upper bound
SNIP-RH is compared against.
"""

from __future__ import annotations

from ...mobility.profiles import SlotProfile
from ...node.sensor import SensorNode
from ...radio.duty_cycle import DutyCycleConfig
from ..optimizer import OptimizationResult, SlotPlan, solve_profile
from ..snip_model import SnipModel
from .base import Scheduler, SchedulerDecision


class SnipOptScheduler(Scheduler):
    """Open-loop execution of an optimal per-slot duty-cycle plan."""

    name = "SNIP-OPT"

    def __init__(
        self,
        profile: SlotProfile,
        model: SnipModel,
        *,
        zeta_target: float,
        phi_max: float,
    ) -> None:
        self.profile = profile
        self.model = model
        self.zeta_target = zeta_target
        self.phi_max = phi_max
        self.result: OptimizationResult = solve_profile(
            profile, model, phi_max, zeta_target
        )
        self.plan: SlotPlan = self.result.plan
        self._configs = [
            DutyCycleConfig(t_on=model.t_on, duty_cycle=d) if d > 0 else None
            for d in self.plan.duty_cycles
        ]

    def decide(self, time: float, node: SensorNode) -> SchedulerDecision:
        if node.account.exhausted:
            return SchedulerDecision.off("budget")
        slot = self.profile.slot_index(time)
        config = self._configs[slot]
        if config is None:
            return SchedulerDecision.off("plan-idle")
        return SchedulerDecision(config)
