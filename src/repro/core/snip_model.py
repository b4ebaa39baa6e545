"""The closed-form SNIP probing model (paper equation 1) and inverses.

For a contact of length ``Tc`` probed by beacons every ``Tcycle = Ton/d``
seconds (random phase), the probed fraction is:

.. math::

    \\Upsilon(d, T_c) = \\begin{cases}
        \\frac{T_c}{2 T_{on}} \\, d          & T_{cycle} \\ge T_c \\\\
        1 - \\frac{T_{on}}{2 d T_c}          & T_{cycle} < T_c
    \\end{cases}

Key structure exploited throughout the repository:

* Υ is continuous and increasing in d, with value ``1/2`` at the *knee*
  ``d = Ton / Tc`` (where ``Tcycle = Tc``);
* below the knee Υ is linear in d, so the energy cost per probed second
  ``ρ = Φ / ζ`` is *constant*;
* above the knee marginal returns diminish, so ρ grows — which is why
  SNIP-RH pins its duty-cycle at the knee of the learned mean contact
  length (§VI-C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import require_positive


def upsilon(duty_cycle: float, contact_length: float, t_on: float) -> float:
    """Equation 1: probed fraction Υ(d, Tcontact).

    Args:
        duty_cycle: d in (0, 1].
        contact_length: Tcontact in seconds.
        t_on: the radio on-period Ton in seconds.
    """
    _validate(duty_cycle, contact_length, t_on)
    return upsilon_unchecked(duty_cycle, contact_length, t_on)


def upsilon_unchecked(duty_cycle: float, contact_length: float, t_on: float) -> float:
    """:func:`upsilon` without argument validation.

    For inner loops whose arguments were validated once up front, such
    as the SNIP-AT bisection over a fixed set of slots.
    """
    t_cycle = t_on / duty_cycle
    if t_cycle >= contact_length:
        return (contact_length / (2.0 * t_on)) * duty_cycle
    return 1.0 - t_on / (2.0 * duty_cycle * contact_length)


def knee_duty_cycle(contact_length: float, t_on: float) -> float:
    """The duty-cycle at which ``Tcycle = Tcontact`` (Υ = 1/2).

    This is SNIP-RH's operating point, ``d_rh = Ton / mean(Tcontact)``;
    values above 1 are clamped (contacts shorter than ``Ton`` cannot be
    cycled slower than always-on).
    """
    require_positive("contact_length", contact_length)
    require_positive("t_on", t_on)
    return min(1.0, t_on / contact_length)


def duty_cycle_for_upsilon(
    target_upsilon: float, contact_length: float, t_on: float
) -> float:
    """Inverse of equation 1: smallest d achieving *target_upsilon*.

    Raises:
        ConfigurationError: when the target is not achievable with any
            d <= 1 (Υ caps at ``1 - Ton / (2 Tc)`` for d = 1).
    """
    require_positive("contact_length", contact_length)
    require_positive("t_on", t_on)
    if not 0.0 <= target_upsilon < 1.0:
        raise ConfigurationError(f"target upsilon must lie in [0, 1), got {target_upsilon}")
    if target_upsilon == 0.0:
        return 0.0
    if target_upsilon <= 0.5:
        # Linear branch: Υ = Tc d / (2 Ton).
        duty = target_upsilon * 2.0 * t_on / contact_length
    else:
        # Saturating branch: Υ = 1 - Ton / (2 d Tc).
        duty = t_on / (2.0 * contact_length * (1.0 - target_upsilon))
    if duty > 1.0:
        raise ConfigurationError(
            f"upsilon {target_upsilon} unreachable for Tc={contact_length}, "
            f"Ton={t_on} (max {upsilon(1.0, contact_length, t_on):.4f})"
        )
    return duty


def upsilon_exponential_lengths(
    duty_cycle: float, mean_length: float, t_on: float
) -> float:
    """Expected Υ when contact lengths are Exp(mean_length).

    Footnote 1 of the paper notes that with exponential lengths Υ is no
    longer piecewise linear but still shows a visible slope change near
    ``Tcycle = mean(Tc)``; this expectation lets tests and ablations
    verify that claim.  Computed as
    ``E[Tprobed] / E[Tc]`` with ``E[Tprobed] = E[Υ(d, L) · L]``
    integrated against the exponential density.
    """
    _validate(duty_cycle, mean_length, t_on)
    t_cycle = t_on / duty_cycle
    beta = 1.0 / mean_length
    # Split the expectation at L = Tcycle.
    # Short contacts (L <= Tcycle):   Tprobed = L^2 / (2 Tcycle).
    # E[L^2 1{L<=c}] = (2 - e^{-bc}(b^2 c^2 + 2 b c + 2)) / b^2
    c = t_cycle
    b = beta
    exp_bc = math.exp(-b * c)
    e_l2_short = (2.0 - exp_bc * (b * b * c * c + 2 * b * c + 2.0)) / (b * b)
    short_part = e_l2_short / (2.0 * c)
    # Long contacts (L > Tcycle):     Tprobed = L - Tcycle / 2.
    # E[(L - c/2) 1{L>c}] = e^{-bc} (c + 1/b - c/2) = e^{-bc} (c/2 + 1/b)
    long_part = exp_bc * (c / 2.0 + 1.0 / b)
    return (short_part + long_part) / mean_length


@dataclass(frozen=True)
class SnipModel:
    """Equation 1 bound to a platform ``Ton``.

    The paper treats ``Ton`` as a platform constant; binding it once
    keeps call sites honest about which platform they model.  The
    default 20 ms is the value recovered from the paper's reported
    feasibility boundaries (see DESIGN.md §3).
    """

    t_on: float = 0.020

    def __post_init__(self) -> None:
        require_positive("t_on", self.t_on)

    def upsilon(self, duty_cycle: float, contact_length: float) -> float:
        """Probed fraction for one contact length."""
        return upsilon(duty_cycle, contact_length, self.t_on)

    def knee(self, contact_length: float) -> float:
        """SNIP-RH's operating duty-cycle for a mean contact length."""
        return knee_duty_cycle(contact_length, self.t_on)

    def expected_probed_seconds(
        self, duty_cycle: float, contact_length: float
    ) -> float:
        """E[Tprobed] = Tc · Υ(d, Tc)."""
        return contact_length * self.upsilon(duty_cycle, contact_length)

    def cost_per_probed_second(
        self, duty_cycle: float, rate: float, contact_length: float
    ) -> float:
        """ρ = Φ/ζ for a stationary contact process at *rate*.

        Over a window t: Φ = t·d, ζ = t·rate·Tc·Υ(d, Tc).
        """
        require_positive("duty_cycle", duty_cycle)
        require_positive("rate", rate)
        zeta_per_second = rate * self.expected_probed_seconds(duty_cycle, contact_length)
        if zeta_per_second == 0:
            return float("inf")
        return duty_cycle / zeta_per_second


def _validate(duty_cycle: float, contact_length: float, t_on: float) -> None:
    if not 0.0 < duty_cycle <= 1.0:
        raise ConfigurationError(f"duty_cycle must lie in (0, 1], got {duty_cycle}")
    require_positive("contact_length", contact_length)
    require_positive("t_on", t_on)
