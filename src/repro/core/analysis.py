"""Closed-form evaluation of the SNIP scheduling mechanisms.

This module regenerates the paper's *numerical* results:

* :func:`rush_hour_gain` — the Fig. 4 surface, the energy ratio
  ``ΦAT / Φrh`` of all-time probing versus rush-hour-only probing;
* :func:`evaluate_schedulers` — the Fig. 5 / Fig. 6 sweeps: for each
  ζtarget, the probed capacity ζ, probing overhead Φ, and per-unit cost
  ρ of SNIP-AT, SNIP-OPT and SNIP-RH under an energy budget Φmax.

All quantities follow the paper's models: SNIP-AT picks one duty-cycle
for the whole epoch (§IV), SNIP-OPT solves the two-step optimization
(§V), and SNIP-RH probes at the knee duty-cycle during rush hours only,
consuming no more capacity than it needs thanks to its data-threshold
condition (§VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from ..errors import ConfigurationError
from ..mobility.profiles import SlotProfile
from ..units import require_positive
from .optimizer import solve_profile
from .schedulers.at import at_duty_cycle_for_target
from .snip_model import SnipModel, upsilon


@dataclass(frozen=True)
class AnalysisPoint:
    """One mechanism's predicted epoch outcome at one ζtarget."""

    mechanism: str
    zeta_target: float
    #: Probed contact capacity per epoch, seconds (the paper's ζ).
    zeta: float
    #: Probing overhead per epoch, radio-on seconds (the paper's Φ).
    phi: float

    @property
    def rho(self) -> float:
        """Energy cost per unit of probed capacity, ρ = Φ / ζ."""
        return float("inf") if self.zeta == 0 else self.phi / self.zeta

    @property
    def meets_target(self) -> bool:
        """True when the mechanism probes at least ζtarget."""
        return self.zeta + 1e-9 >= self.zeta_target


# ----------------------------------------------------------------------
# Fig. 4 — the motivating energy ratio
# ----------------------------------------------------------------------
def rush_hour_gain(rush_fraction: float, rate_ratio: float) -> float:
    """ΦAT / Φrh for the simplified two-rate epoch of §IV.

    With rush hours covering a fraction ``x = Trh / Tepoch`` of the epoch
    and contacts arriving ``r = frh / fother`` times more often inside
    them, probing only during rush hours needs

    .. math::  \\frac{\\Phi_{AT}}{\\Phi_{rh}} = \\frac{r}{x r + (1 - x)}

    (both mechanisms sized to probe the same capacity, both in the
    linear regime of equation 1).  The ratio grows when rush hours are
    short and busy — the paper's motivation for SNIP-RH.
    """
    if not 0 < rush_fraction < 1:
        raise ConfigurationError(f"rush_fraction must lie in (0, 1), got {rush_fraction}")
    require_positive("rate_ratio", rate_ratio)
    return rate_ratio / (rush_fraction * rate_ratio + (1.0 - rush_fraction))


def rush_hour_gain_surface(
    rush_fractions: Sequence[float], rate_ratios: Sequence[float]
) -> List[List[float]]:
    """The full Fig. 4 surface: rows over *rate_ratios*, columns over
    *rush_fractions*."""
    return [
        [rush_hour_gain(fraction, ratio) for fraction in rush_fractions]
        for ratio in rate_ratios
    ]


# ----------------------------------------------------------------------
# Figs. 5 and 6 — scheduler comparison under a budget
# ----------------------------------------------------------------------
def analyze_snip_at(
    profile: SlotProfile, model: SnipModel, *, zeta_target: float, phi_max: float
) -> AnalysisPoint:
    """SNIP-AT's predicted (ζ, Φ) at one target."""
    require_positive("phi_max", phi_max)
    budget_cap = phi_max / profile.epoch_length
    try:
        d_target = at_duty_cycle_for_target(profile, model, zeta_target)
    except ConfigurationError:
        d_target = 1.0
    duty = min(d_target, budget_cap, 1.0)
    zeta = _epoch_capacity(profile, model, duty)
    phi = profile.epoch_length * duty
    return AnalysisPoint("SNIP-AT", zeta_target, zeta, phi)


def analyze_snip_opt(
    profile: SlotProfile, model: SnipModel, *, zeta_target: float, phi_max: float
) -> AnalysisPoint:
    """SNIP-OPT's predicted (ζ, Φ): the two-step optimum."""
    plan = solve_profile(profile, model, phi_max, zeta_target).plan
    return AnalysisPoint("SNIP-OPT", zeta_target, plan.capacity, plan.energy)


def analyze_snip_rh(
    profile: SlotProfile, model: SnipModel, *, zeta_target: float, phi_max: float
) -> AnalysisPoint:
    """SNIP-RH's predicted (ζ, Φ).

    SNIP-RH probes rush-hour slots at the knee duty-cycle of each slot's
    mean contact length.  Its data-threshold condition means it stops
    probing once the necessary capacity has been collected, so it runs
    for only the fraction of rush time it needs; its budget condition
    caps spending at Φmax.  Analytically:

    * available rush capacity at the knee:
      ``ζ_max = Σ_rush E[contacts] · L · Υ(knee, L)``;
    * full-rush energy: ``Φ_full = Σ_rush t · d_knee``;
    * the realized point scales both by the needed fraction
      ``α = min(1, ζtarget / ζ_max, Φmax / Φ_full)``.
    """
    require_positive("phi_max", phi_max)
    rush_slots = profile.rush_slot_indices()
    if not rush_slots:
        raise ConfigurationError("profile has no rush-hour slots")
    zeta_max = 0.0
    phi_full = 0.0
    for index in rush_slots:
        length = profile.mean_lengths[index]
        knee = model.knee(length)
        zeta_max += (
            profile.expected_contacts(index)
            * length
            * upsilon(knee, length, model.t_on)
        )
        phi_full += profile.slot_length * knee
    if zeta_max == 0:
        return AnalysisPoint("SNIP-RH", zeta_target, 0.0, 0.0)
    alpha = min(1.0, zeta_target / zeta_max, phi_max / phi_full)
    return AnalysisPoint(
        "SNIP-RH", zeta_target, alpha * zeta_max, alpha * phi_full
    )


_ANALYZERS = {
    "SNIP-AT": analyze_snip_at,
    "SNIP-OPT": analyze_snip_opt,
    "SNIP-RH": analyze_snip_rh,
}


def evaluate_schedulers(
    profile: SlotProfile,
    model: SnipModel,
    *,
    zeta_targets: Iterable[float],
    phi_max: float,
    mechanisms: Sequence[str] = ("SNIP-AT", "SNIP-OPT", "SNIP-RH"),
) -> Dict[str, List[AnalysisPoint]]:
    """The Fig. 5 / Fig. 6 sweep: one series per mechanism."""
    unknown = [name for name in mechanisms if name not in _ANALYZERS]
    if unknown:
        raise ConfigurationError(f"unknown mechanisms: {unknown}")
    results: Dict[str, List[AnalysisPoint]] = {name: [] for name in mechanisms}
    for target in zeta_targets:
        for name in mechanisms:
            results[name].append(
                _ANALYZERS[name](
                    profile, model, zeta_target=target, phi_max=phi_max
                )
            )
    return results


def _epoch_capacity(profile: SlotProfile, model: SnipModel, duty: float) -> float:
    """ζ(d) for a constant duty-cycle across the epoch."""
    if duty <= 0:
        return 0.0
    return sum(
        profile.expected_contacts(i)
        * profile.mean_lengths[i]
        * upsilon(duty, profile.mean_lengths[i], model.t_on)
        for i in range(profile.slot_count)
        if profile.rate(i) > 0
    )
