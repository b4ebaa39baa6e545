"""Named scenarios: the workload as a fifth study axis.

The paper evaluates SNIP on exactly one workload — the §VII-A roadside
rush-hour scenario.  This package makes the workload pluggable by name,
exactly like mechanisms, engines, and transports:
:data:`repro.experiments.registry.scenario_factories` maps a name to a
``factory(**options) -> Scenario`` callable, and ``StudySpec`` sweeps a
tuple of :class:`ScenarioRef` entries (``axes.scenarios``) over the
mechanism × ζtarget × Φmax × replicate × engine grid.

Built-ins (registered in :mod:`repro.scenarios.builtin`, imported
lazily by :func:`resolve_scenario` / :func:`available_scenarios`):

* ``"paper-roadside"`` — the unchanged §VII-A scenario
  (:func:`repro.experiments.scenario.paper_roadside_scenario`);
* ``"diurnal"`` — parameterized multi-peak time-of-day contact-rate
  profiles (peak hours, widths, peak-to-baseline interval ratio);
* ``"trace-driven"`` — contacts replayed from a CSV/JSONL/native trace
  file through the streaming reader in :mod:`repro.mobility.traces`
  (city-scale inputs are never fully materialized);
* ``"mixed-fleet"`` — heterogeneous node classes (vehicles, pedestrian
  sensors, roadside units), each with its own
  :class:`repro.mobility.arrival.ArrivalProcess`;
* ``"flash-crowd"`` / ``"dead-zone"`` / ``"churn"`` — adversarial
  workloads: a short extreme-density burst, coverage holes with zero
  contact opportunity, and epoch-to-epoch rate drift + rush-hour shift.

Module-level imports here are deliberately light (no
``repro.experiments`` import): ``experiments.spec`` imports this module
at its own import time, so the registry and the built-in factories are
pulled in lazily inside the resolution helpers to keep the import graph
acyclic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..experiments.scenario import Scenario

__all__ = [
    "DEFAULT_SCENARIO",
    "ScenarioRef",
    "available_scenarios",
    "materialize_scenario",
    "resolve_scenario",
]

#: The scenario every pre-existing spec implicitly ran: omitting
#: ``axes.scenarios`` is byte-identical to ``("paper-roadside",)``.
DEFAULT_SCENARIO = "paper-roadside"


def _json_clean(value: Any, where: str) -> Any:
    """Normalize an option value to canonical JSON-clean python.

    Sequences become lists, mappings become key-sorted dicts with
    string keys, scalars pass through — so two refs that serialize to
    the same JSON document compare equal regardless of how they were
    constructed (tuples from python code, lists from a spec file).
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_clean(item, where) for item in value]
    if isinstance(value, Mapping):
        for key in value:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"{where}: option keys must be strings, got {key!r}"
                )
        return {key: _json_clean(value[key], where) for key in sorted(value)}
    raise ConfigurationError(
        f"{where}: option values must be JSON-clean "
        f"(str/int/float/bool/None/list/dict), got {type(value).__name__}"
    )


@dataclass(frozen=True)
class ScenarioRef:
    """One ``axes.scenarios`` entry: a registry name plus factory options.

    Serializes as the bare name string when ``options`` is empty and as
    ``{"name": ..., "options": {...}}`` otherwise; options are
    normalized to canonical JSON form (key-sorted, lists not tuples) so
    serialization is byte-stable and equality is representation-free.
    """

    name: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"scenario name must be a non-empty string, got {self.name!r}"
            )
        if not isinstance(self.options, Mapping):
            raise ConfigurationError(
                f"scenario {self.name!r} options must be a mapping, "
                f"got {type(self.options).__name__}"
            )
        where = f"scenario {self.name!r}"
        object.__setattr__(self, "options", _json_clean(dict(self.options), where))

    @classmethod
    def from_entry(cls, entry: Any, where: str = "scenarios") -> "ScenarioRef":
        """Parse a spec entry (``name`` or ``{name, options}``) strictly."""
        if isinstance(entry, ScenarioRef):
            return entry
        if isinstance(entry, str):
            return cls(name=entry)
        if isinstance(entry, Mapping):
            unknown = sorted(set(entry) - {"name", "options"})
            if unknown:
                raise ConfigurationError(
                    f"unknown {where} key(s) {unknown}; "
                    "entries are a name string or {'name': ..., 'options': {...}}"
                )
            if "name" not in entry:
                raise ConfigurationError(f"{where}: entry is missing 'name'")
            return cls(name=entry["name"], options=entry.get("options") or {})
        raise ConfigurationError(
            f"{where}: expected a scenario name or {{'name', 'options'}} "
            f"mapping, got {type(entry).__name__}"
        )

    def to_entry(self) -> Any:
        """The JSON-clean spec form: bare name, or ``{name, options}``."""
        if not self.options:
            return self.name
        return {"name": self.name, "options": dict(self.options)}

    @property
    def label(self) -> str:
        """A stable human-readable identity, unique per (name, options)."""
        if not self.options:
            return self.name
        encoded = json.dumps(
            self.options, sort_keys=True, separators=(",", ":")
        )
        return f"{self.name}{encoded}"


def resolve_scenario(name: str):
    """Return the registered scenario factory for ``name``.

    Imports :mod:`repro.scenarios.builtin` first so the built-in
    registrations exist in any process (workers included) regardless of
    import order, mirroring
    :func:`repro.experiments.engine.resolve_engine`.
    """
    from ..experiments.registry import scenario_factories
    from . import builtin  # noqa: F401  (registers the built-ins)

    return scenario_factories.resolve(name)


def available_scenarios() -> List[str]:
    """Sorted names of every registered scenario (built-ins included)."""
    from ..experiments.registry import scenario_factories
    from . import builtin  # noqa: F401  (registers the built-ins)

    return scenario_factories.names()



def materialize_scenario(
    ref: ScenarioRef,
    *,
    epochs: Optional[int] = None,
    seed: Optional[int] = None,
) -> "Scenario":
    """Build the :class:`Scenario` a ref names, applying study overrides.

    The factory owns the workload shape (profile, contact source,
    decision period); the study owns the horizon and base seed, so
    ``epochs`` and ``seed`` — when given — replace whatever the factory
    returned, exactly as ``StudySpec.base_scenario`` always did for the
    paper scenario.
    """
    import dataclasses

    factory = resolve_scenario(ref.name)
    try:
        scenario = factory(**dict(ref.options))
    except TypeError as exc:
        raise ConfigurationError(
            f"scenario {ref.name!r} rejected options "
            f"{sorted(ref.options)}: {exc}"
        ) from exc
    if epochs is not None:
        scenario = dataclasses.replace(scenario, epochs=epochs)
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return scenario
