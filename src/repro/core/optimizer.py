"""The two-step optimization behind SNIP-OPT (paper §V).

Given per-slot contact statistics (rate ``f_i``, mean length ``L_i``,
slot length ``t_i``) and the SNIP model, choose per-slot duty-cycles
``d_i``:

* **Step 1** — maximize probed capacity ``ζ = Σ ζ_i(d_i)`` subject to
  ``Φ = Σ t_i d_i ≤ Φmax`` and ``0 ≤ d_i ≤ 1``.
* **Step 2** — if step 1 reaches ``ζtarget``, minimize ``Φ`` subject to
  ``ζ ≥ ζtarget`` instead (extend node life).

Because each ``ζ_i(d_i) = t_i f_i L_i Υ(d_i, L_i)`` is concave
(linear below the knee, diminishing above it) both problems are convex
and solved *exactly* by greedy marginal allocation / water-filling — no
iterative solver needed.  The structure:

* below the knee a slot yields capacity at constant unit cost
  ``ρ_i = 2 Ton / (f_i L_i²)``;
* above the knee the marginal capacity per energy decays as
  ``f_i Ton / (2 d²)``.

So the exact optimum fills slots in ascending-ρ order up to their knees,
then water-fills the saturating branches by equalizing marginals.  A
brute-force / scipy cross-check lives in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError, InfeasibleError
from ..mobility.profiles import SlotProfile
from ..units import require_non_negative, require_positive
from .snip_model import SnipModel, knee_duty_cycle, upsilon


@dataclass(frozen=True)
class SlotSpec:
    """One slot's contact statistics, as the optimizer consumes them."""

    duration: float
    rate: float
    mean_length: float

    def __post_init__(self) -> None:
        require_positive("duration", self.duration)
        require_non_negative("rate", self.rate)
        require_positive("mean_length", self.mean_length)


@dataclass(frozen=True)
class SlotPlan:
    """A per-slot duty-cycle assignment with its predicted outcome."""

    duty_cycles: Tuple[float, ...]
    capacity: float
    energy: float

    @property
    def cost_per_unit(self) -> float:
        """ρ = Φ / ζ (inf when nothing is probed)."""
        return float("inf") if self.capacity == 0 else self.energy / self.capacity

    def active_slots(self) -> List[int]:
        """Indices of slots with a non-zero duty-cycle."""
        return [i for i, d in enumerate(self.duty_cycles) if d > 0]


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the full two-step procedure."""

    plan: SlotPlan
    #: True when step 1 could reach ζtarget, i.e. step 2 produced `plan`.
    target_feasible: bool
    #: The step-1 (capacity-maximizing) plan, kept for reporting.
    max_capacity_plan: SlotPlan


class TwoStepOptimizer:
    """Exact solver for the SNIP-OPT scheduling problem."""

    def __init__(self, slots: Sequence[SlotSpec], model: SnipModel) -> None:
        if not slots:
            raise ConfigurationError("optimizer needs at least one slot")
        self.slots = list(slots)
        self.model = model

    @classmethod
    def from_profile(cls, profile: SlotProfile, model: SnipModel) -> "TwoStepOptimizer":
        """Build from a :class:`~repro.mobility.profiles.SlotProfile`."""
        slots = [
            SlotSpec(
                duration=profile.slot_length,
                rate=profile.rate(i),
                mean_length=profile.mean_lengths[i],
            )
            for i in range(profile.slot_count)
        ]
        return cls(slots, model)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(self, phi_max: float, zeta_target: float) -> OptimizationResult:
        """Run the paper's two-step procedure."""
        require_positive("phi_max", phi_max)
        require_positive("zeta_target", zeta_target)
        step1 = self.maximize_capacity(phi_max)
        if step1.capacity + 1e-9 < zeta_target:
            # Target unreachable under the budget: step 1's plan is the
            # answer, and the node should lower its data rate (paper §V).
            return OptimizationResult(
                plan=step1, target_feasible=False, max_capacity_plan=step1
            )
        step2 = self.minimize_energy(zeta_target)
        return OptimizationResult(
            plan=step2, target_feasible=True, max_capacity_plan=step1
        )

    def maximize_capacity(self, phi_max: float) -> SlotPlan:
        """Step 1: max ζ s.t. Φ ≤ Φmax, 0 ≤ d_i ≤ 1.

        Exact water-filling on the shared marginal λ = dζ/dΦ.  A slot's
        allocation at marginal λ is

        * ``0`` when its (constant) linear marginal ``m_i`` is below λ —
          its capacity is too expensive at this water level;
        * ``min(1, sqrt(f_i·Ton / 2λ))`` otherwise — at least the knee,
          extended into the saturating branch until that branch's
          marginal decays to λ.

        Total energy is decreasing in λ with a jump of ``t_i·knee_i`` at
        each λ = m_i (the degenerate linear segment, along which any
        partial fill is equally optimal).  We locate the segment or the
        continuous stretch containing the budget and allocate exactly.
        """
        require_positive("phi_max", phi_max)
        duties = self._water_fill_energy(phi_max)
        return self._plan(duties)

    def minimize_energy(self, zeta_target: float) -> SlotPlan:
        """Step 2: min Φ s.t. ζ ≥ ζtarget, 0 ≤ d_i ≤ 1.

        The same water-filling as step 1 — by concavity, the minimum-
        energy plan for a capacity target is the maximum-capacity plan of
        its own energy — except the search variable is capacity.

        Raises:
            InfeasibleError: when ζtarget exceeds the capacity probed
                with every slot at d = 1.
        """
        require_positive("zeta_target", zeta_target)
        max_plan = self._plan([1.0] * len(self.slots))
        if zeta_target > max_plan.capacity + 1e-9:
            raise InfeasibleError(
                f"zeta_target {zeta_target} exceeds the maximum probe-able "
                f"capacity {max_plan.capacity:.3f}"
            )
        duties = self._water_fill_to(
            lambda ds: sum(self._slot_capacity(i, d) for i, d in enumerate(ds)),
            zeta_target,
        )
        return self._plan(duties)

    # ------------------------------------------------------------------
    # exact water-filling
    # ------------------------------------------------------------------
    def _duties_at_marginal(self, lam: float, *, include_ties: bool) -> List[float]:
        """Per-slot allocation at water level λ (ties at/below knee)."""
        duties = []
        for index in range(len(self.slots)):
            marginal = self._linear_marginal(index)
            if marginal <= 0:
                duties.append(0.0)
            elif marginal > lam + 1e-15:
                duties.append(self._saturating_duty_at_marginal(index, lam))
            elif include_ties and abs(marginal - lam) <= 1e-15 + 1e-9 * lam:
                duties.append(self._knee(index))
            else:
                duties.append(0.0)
        return duties

    def _water_fill_energy(self, phi_max: float) -> List[float]:
        """Allocation spending exactly min(phi_max, total) energy."""
        return self._water_fill_to(
            lambda ds: sum(
                self.slots[i].duration * d for i, d in enumerate(ds)
            ),
            phi_max,
        )

    def _water_fill_to(self, measure, target: float) -> List[float]:
        """Water-fill until *measure* (energy or capacity) reaches *target*.

        Both energy and capacity are continuous decreasing functions of λ
        except for equal jumps at the linear-marginal levels, and both
        are linear in the tie-slot fill fraction along a jump, so the
        same segment search serves step 1 and step 2.
        """
        marginals = sorted(
            {
                self._linear_marginal(i)
                for i in range(len(self.slots))
                if self._linear_marginal(i) > 0
            },
            reverse=True,
        )
        if not marginals:
            return [0.0] * len(self.slots)
        full = [
            1.0 if self.slots[i].rate > 0 else 0.0
            for i in range(len(self.slots))
        ]
        if measure(full) <= target + 1e-12:
            return full
        previous_level = None  # the marginal above the current one
        for level in marginals:
            before = self._duties_at_marginal(level, include_ties=False)
            after = self._duties_at_marginal(level, include_ties=True)
            if measure(before) >= target - 1e-12:
                # Target sits in the continuous stretch λ ∈ (level, prev).
                lo, hi = level, (previous_level or marginals[0] * 10.0)
                for _ in range(200):
                    mid = math.sqrt(lo * hi)
                    duties = self._duties_at_marginal(mid, include_ties=False)
                    if measure(duties) > target:
                        lo = mid
                    else:
                        hi = mid
                return self._duties_at_marginal(hi, include_ties=False)
            if measure(after) >= target - 1e-12:
                # Target sits on this linear segment: fill tie knees
                # fractionally (any split is optimal; proportional keeps
                # the plan symmetric across equal slots).
                gap = measure(after) - measure(before)
                fraction = 0.0 if gap <= 0 else (target - measure(before)) / gap
                duties = list(before)
                for index in range(len(self.slots)):
                    tied = (
                        self._linear_marginal(index) > 0
                        and abs(self._linear_marginal(index) - level)
                        <= 1e-15 + 1e-9 * level
                        and before[index] == 0.0
                    )
                    if tied:
                        duties[index] = self._knee(index) * fraction
                return duties
            previous_level = level
        # Below the smallest marginal: continuous saturating stretch for
        # every slot down to d = 1.
        lo, hi = 1e-18, marginals[-1]
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            duties = self._duties_at_marginal(mid, include_ties=False)
            if measure(duties) > target:
                lo = mid
            else:
                hi = mid
        return self._duties_at_marginal(hi, include_ties=False)

    # ------------------------------------------------------------------
    # slot arithmetic
    # ------------------------------------------------------------------
    def _knee(self, index: int) -> float:
        return knee_duty_cycle(self.slots[index].mean_length, self.model.t_on)

    def _linear_marginal(self, index: int) -> float:
        """dζ/dΦ on the linear branch of slot *index*."""
        spec = self.slots[index]
        return spec.rate * spec.mean_length**2 / (2.0 * self.model.t_on)

    def _slot_capacity(self, index: int, duty: float) -> float:
        spec = self.slots[index]
        if duty <= 0 or spec.rate == 0:
            return 0.0
        return (
            spec.duration
            * spec.rate
            * spec.mean_length
            * upsilon(duty, spec.mean_length, self.model.t_on)
        )

    def _plan(self, duties: Sequence[float]) -> SlotPlan:
        capacity = sum(self._slot_capacity(i, d) for i, d in enumerate(duties))
        energy = sum(
            self.slots[i].duration * d for i, d in enumerate(duties)
        )
        return SlotPlan(tuple(duties), capacity, energy)

    # ------------------------------------------------------------------
    # water-filling on the saturating branch
    # ------------------------------------------------------------------
    def _saturating_duty_at_marginal(self, index: int, lam: float) -> float:
        """d(λ): duty-cycle where slot *index*'s marginal equals λ.

        On the saturating branch the marginal is ``f Ton / (2 d²)``, so
        ``d(λ) = sqrt(f Ton / (2 λ))``, clamped to [knee, 1].
        """
        spec = self.slots[index]
        if spec.rate == 0 or lam <= 0:
            return self._knee(index) if spec.rate > 0 else 0.0
        duty = math.sqrt(spec.rate * self.model.t_on / (2.0 * lam))
        return min(1.0, max(self._knee(index), duty))


def solve_profile(
    profile: SlotProfile, model: SnipModel, phi_max: float, zeta_target: float
) -> OptimizationResult:
    """The two-step optimum for *profile*, memoized per process.

    Equivalent to ``TwoStepOptimizer.from_profile(profile, model)
    .solve(phi_max, zeta_target)``.  The result is immutable and depends
    only on its four arguments, so SNIP-OPT scheduler builds and
    analytical predictions share one bounded memo; failures are never
    cached.  ``phi_max`` and ``zeta_target`` are validated before the
    lookup.
    """
    require_positive("phi_max", phi_max)
    require_positive("zeta_target", zeta_target)
    return _solve_profile(profile, model, phi_max, zeta_target)


@lru_cache(maxsize=256)
def _solve_profile(
    profile: SlotProfile, model: SnipModel, phi_max: float, zeta_target: float
) -> OptimizationResult:
    return TwoStepOptimizer.from_profile(profile, model).solve(phi_max, zeta_target)
