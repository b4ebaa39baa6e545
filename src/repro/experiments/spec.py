"""Declarative study specifications: one description for every experiment.

The paper's evaluation is one object — a grid of mechanism × ζtarget ×
Φmax × replicate under the §VII-A scenario — so this module makes the
study itself **data**:

* :class:`StudySpec` — a frozen, picklable, JSON-round-trippable
  description of a whole study: scenario overrides (ζtargets, Φmax
  values, epochs, seed), axes (mechanisms, engines, replicates),
  execution (jobs, batch size), and outputs.  Every factory is
  referenced by **registry name** (:mod:`repro.experiments.registry`),
  so a spec crosses process — and, later, host — boundaries as plain
  strings, exactly like the :class:`~repro.experiments.runner.RunSpec`
  layer underneath it.  Shipping a study to another machine is a file
  copy.
* :func:`run_study` — the single entry point for every study: a grid
  (one engine listed), a paired agreement grid (two or more engines:
  per-cell deltas become paired automatically, replicate seeds shared
  between engines), or a fleet (a ``network`` section: one cell per
  sensor node), streaming cells through the
  :meth:`~repro.experiments.parallel.Transport.imap` contract, so every
  determinism guarantee (byte-identical for jobs=1/N/shuffled) and the
  cell cache hold on one orchestration path.
* :class:`StudyResult` / :class:`StudyDocument` — the assembled rich
  results (per-engine :class:`~repro.experiments.sweep.GridResult`,
  paired :class:`~repro.experiments.agreement.AgreementResult` per
  candidate engine, fleet :class:`~repro.network.runner.NetworkResult`)
  and their serialized, re-loadable document form.

CLI: ``repro-snip run --spec study.json [--set key=value]`` executes a
spec file with dotted-path overrides; without ``--spec`` it executes
the default ``StudySpec()``, and ``--emit-spec PATH`` writes the
effective spec instead of running it.

Sharding/seeding semantics are those of
:mod:`repro.experiments.parallel`: the study flattens scenario
outermost, then Φmax, ζtarget, mechanism, replicate, and engine
innermost.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    TYPE_CHECKING,
    Tuple,
    Union,
)

from ..errors import ConfigurationError
from ..scenarios import DEFAULT_SCENARIO, ScenarioRef, materialize_scenario
from ..units import DAY
from .agreement import AgreementPoint, AgreementResult
from .engine import resolve_engine
from .parallel import Transport, _validate_batch_size, replicate_seed
from .registry import PAPER_MECHANISMS, mechanism_factories
from .transport import resolve_transport, validate_transport
from .runner import RunResult, RunSpec
from .scenario import PAPER_ZETA_TARGETS, Scenario, paper_roadside_scenario
from .sweep import (
    GRID_EXPORT_COLUMNS,
    GridResult,
    ProgressCallback,
    SweepResult,
    _assemble_sweep,
    _finite_or_none,
    _predictions_for,
    _stream_results,
)

if TYPE_CHECKING:  # pragma: no cover - type-only (heavy import)
    from ..network.runner import NetworkResult

__all__ = [
    "NetworkSection",
    "StudySpec",
    "StudyResult",
    "StudyDocument",
    "run_study",
]

#: The paper's two Φmax budgets, figure order (Figs. 5/7 then 6/8).
PAPER_PHI_MAXES: Tuple[float, ...] = (DAY / 1000.0, DAY / 100.0)

#: The implicit scenario axis of every pre-axis spec: just the paper
#: workload.  ``to_dict`` omits ``axes.scenarios`` when it equals this,
#: so existing spec files and artifacts stay byte-identical.
_DEFAULT_SCENARIOS: Tuple[ScenarioRef, ...] = (ScenarioRef(DEFAULT_SCENARIO),)


def _is_int(value: Any) -> bool:
    """True for a real int: ``bool`` subclasses ``int`` but is no count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class NetworkSection:
    """The fleet fan-out portion of a :class:`StudySpec`.

    When present, the study is a *network study*: a commuter population
    is synthesized over an evenly spaced roadside deployment, and every
    sensor node runs as one ordinary cell on its own contact trace (a
    :class:`~repro.network.runner.CommuterNodeSource`) under the
    mechanism *node_factory* names in
    :data:`~repro.experiments.registry.mechanism_factories` — streamed
    through the study's transport and cell cache like any grid cell.
    The study's ``epochs`` are the simulated days, its seed seeds the
    population, its first ζtarget/Φmax configure each node's scenario,
    and its one engine is each node's simulation backend.
    """

    nodes: int = 3
    commuters: int = 60
    node_factory: str = "SNIP-RH"

    def __post_init__(self) -> None:
        if not _is_int(self.nodes) or self.nodes < 1:
            raise ConfigurationError(
                f"network.nodes must be an int >= 1, got {self.nodes!r}"
            )
        if not _is_int(self.commuters) or self.commuters < 1:
            raise ConfigurationError(
                f"network.commuters must be an int >= 1, got {self.commuters!r}"
            )
        if not self.node_factory or not isinstance(self.node_factory, str):
            raise ConfigurationError(
                "network.node_factory must be a non-empty registry name"
            )

    def to_dict(self) -> Dict[str, Any]:
        """The section as a JSON-clean dict."""
        return {
            "nodes": self.nodes,
            "commuters": self.commuters,
            "node_factory": self.node_factory,
        }


#: ``to_dict`` section name → StudySpec field names, in emission order.
#: ``from_dict`` uses the same table for strict unknown-key validation,
#: so the serialized document and the dataclass can never drift apart.
_SECTION_FIELDS: Dict[str, Tuple[str, ...]] = {
    "scenario": ("zeta_targets", "phi_maxes", "epochs", "seed"),
    "axes": (
        "mechanisms", "engines", "replicates", "replicate_seeds",
        "scenarios",
    ),
    "execution": (
        "jobs", "batch_size", "transport", "transport_options",
        "cache", "cache_options",
    ),
    "outputs": ("out", "with_predictions"),
}

#: StudySpec fields serialized as tuples (JSON lists).
_TUPLE_FIELDS = ("zeta_targets", "phi_maxes", "mechanisms", "engines")


def _as_tuple(value: Any) -> Tuple[Any, ...]:
    """Normalize a tuple-field input: sequences pass through, scalars
    wrap, and strings split on commas (``--set axes.engines=fast,micro``)."""
    if isinstance(value, str):
        return tuple(part.strip() for part in value.split(",") if part.strip())
    if isinstance(value, (int, float)):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class StudySpec:
    """One serializable description of a whole experiment study.

    A spec is pure data: every mechanism, engine, and node factory is a
    **registry name**, every seed is explicit or derivable, and the
    §VII-A paper scenario is the template the scenario overrides apply
    to.  ``from_dict(to_dict(spec)) == spec`` and the JSON file form is
    byte-stable, so specs can be checked in, diffed, shipped to other
    hosts, and executed bit-identically by :func:`run_study`.

    Sections (mirrored by :meth:`to_dict` / ``--set`` dotted paths):

    * **scenario** — ``zeta_targets`` (ζtarget sweep values, seconds),
      ``phi_maxes`` (Φmax budgets, seconds; the paper uses
      ``Tepoch/1000`` and ``Tepoch/100``), ``epochs``, ``seed``;
    * **axes** — ``mechanisms`` (registry names), ``engines`` (registry
      names; two or more turn the study into a paired agreement grid
      with the first engine as baseline), ``replicates`` /
      ``replicate_seeds`` (explicit seeds override derivation), and
      ``scenarios`` (named workloads from
      :data:`~repro.experiments.registry.scenario_factories`: each
      entry is a name string or ``{"name": ..., "options": {...}}``;
      the default ``("paper-roadside",)`` reproduces every pre-axis
      spec byte-identically, and the key is omitted from serialized
      form when left at that default);
    * **execution** — ``jobs`` (worker processes; 1 = in-process),
      ``batch_size`` (shards per pool task or file-queue ticket, or
      ``"auto"``: one near-equal contiguous batch per worker
      per round, see :mod:`~repro.experiments.parallel`),
      ``transport`` (a transport-registry name — ``"serial"``,
      ``"pool"``, ``"file-queue"``, or any runtime registration; null
      derives ``"pool"`` when ``jobs > 1``, else ``"serial"``),
      ``transport_options`` (a strict per-transport options dict, e.g.
      the file queue's ``queue_dir``/``workers``), and ``cache`` /
      ``cache_options`` (a content-addressed cell-cache directory plus
      its strict options — ``max_bytes``, ``max_age_days``,
      ``readonly``; see :mod:`repro.cache` — decorating whatever
      transport the study runs on);
    * **outputs** — ``out`` (default artifact path for the CLI) and
      ``with_predictions`` (pair cells with closed-form predictions);
    * **network** — optional :class:`NetworkSection` for per-node fleet
      fan-out instead of the grid.
    """

    name: str = "study"
    # scenario overrides (applied to the paper's §VII-A template)
    zeta_targets: Tuple[float, ...] = PAPER_ZETA_TARGETS
    phi_maxes: Tuple[float, ...] = PAPER_PHI_MAXES
    epochs: int = 14
    seed: int = 1
    # axes
    mechanisms: Tuple[str, ...] = PAPER_MECHANISMS
    engines: Tuple[str, ...] = ("fast",)
    replicates: int = 1
    replicate_seeds: Optional[Tuple[int, ...]] = None
    scenarios: Tuple[ScenarioRef, ...] = _DEFAULT_SCENARIOS
    # execution
    jobs: int = 1
    batch_size: Union[int, str] = "auto"
    transport: Optional[str] = None
    transport_options: Mapping[str, Any] = field(default_factory=dict)
    cache: Optional[str] = None
    cache_options: Mapping[str, Any] = field(default_factory=dict)
    # outputs
    out: Optional[str] = None
    with_predictions: bool = True
    # optional fleet fan-out
    network: Optional[NetworkSection] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("name must be a non-empty string")
        try:
            zeta_targets = tuple(float(t) for t in _as_tuple(self.zeta_targets))
            phi_maxes = tuple(float(p) for p in _as_tuple(self.phi_maxes))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"zeta_targets/phi_maxes must be numbers: {exc}"
            ) from exc
        object.__setattr__(self, "zeta_targets", zeta_targets)
        object.__setattr__(self, "phi_maxes", phi_maxes)
        object.__setattr__(self, "mechanisms", _as_tuple(self.mechanisms))
        object.__setattr__(self, "engines", _as_tuple(self.engines))
        if self.replicate_seeds is not None:
            seeds = tuple(self.replicate_seeds)
            if not all(_is_int(seed) for seed in seeds):
                raise ConfigurationError(
                    f"replicate_seeds must be ints, got {list(seeds)!r}"
                )
            object.__setattr__(self, "replicate_seeds", seeds)
        if not self.zeta_targets:
            raise ConfigurationError("zeta_targets must be non-empty")
        if not all(math.isfinite(t) and t > 0 for t in self.zeta_targets):
            raise ConfigurationError(
                f"zeta_targets must be positive finite numbers, "
                f"got {list(self.zeta_targets)}"
            )
        if not self.phi_maxes:
            raise ConfigurationError("phi_maxes must be non-empty")
        if not all(math.isfinite(p) and p > 0 for p in self.phi_maxes):
            raise ConfigurationError(
                f"phi_maxes must be positive finite numbers, "
                f"got {list(self.phi_maxes)}"
            )
        if len(set(self.phi_maxes)) != len(self.phi_maxes):
            raise ConfigurationError(
                f"phi_maxes must be distinct, got {list(self.phi_maxes)}"
            )
        if not _is_int(self.epochs) or self.epochs < 1:
            raise ConfigurationError(
                f"epochs must be an int >= 1, got {self.epochs!r}"
            )
        if not _is_int(self.seed):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")
        if not self.mechanisms:
            raise ConfigurationError("mechanisms must be non-empty")
        if not all(isinstance(name, str) and name for name in self.mechanisms):
            raise ConfigurationError(
                f"mechanisms must be registry names, got {list(self.mechanisms)}"
            )
        if len(set(self.mechanisms)) != len(self.mechanisms):
            raise ConfigurationError(
                f"mechanisms must be distinct, got {list(self.mechanisms)}"
            )
        if not self.engines:
            raise ConfigurationError("engines must be non-empty")
        if not all(isinstance(name, str) and name for name in self.engines):
            raise ConfigurationError(
                f"engines must be registry names, got {list(self.engines)}"
            )
        if len(set(self.engines)) != len(self.engines):
            raise ConfigurationError(
                f"engines must be distinct, got {list(self.engines)}"
            )
        if not _is_int(self.replicates) or self.replicates < 1:
            raise ConfigurationError(
                f"replicates must be an int >= 1, got {self.replicates!r}"
            )
        if self.replicate_seeds is not None:
            if not self.replicate_seeds:
                raise ConfigurationError("replicate_seeds must be non-empty")
            if self.replicates not in (1, len(self.replicate_seeds)):
                raise ConfigurationError(
                    f"replicates={self.replicates} conflicts with "
                    f"{len(self.replicate_seeds)} explicit replicate_seeds"
                )
        raw_scenarios = self.scenarios
        if isinstance(raw_scenarios, str):
            raw_scenarios = _as_tuple(raw_scenarios)
        elif isinstance(raw_scenarios, (Mapping, ScenarioRef)):
            raw_scenarios = (raw_scenarios,)
        try:
            entries = tuple(raw_scenarios)
        except TypeError:
            raise ConfigurationError(
                f"axes.scenarios must be a sequence of scenario entries, "
                f"got {type(self.scenarios).__name__}"
            ) from None
        if not entries:
            raise ConfigurationError("axes.scenarios must be non-empty")
        refs = tuple(
            ScenarioRef.from_entry(entry, where=f"axes.scenarios[{index}]")
            for index, entry in enumerate(entries)
        )
        labels = [ref.label for ref in refs]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(
                f"axes.scenarios entries must be distinct, got {labels}"
            )
        object.__setattr__(self, "scenarios", refs)
        if not _is_int(self.jobs) or self.jobs < 1:
            raise ConfigurationError(f"jobs must be an int >= 1, got {self.jobs!r}")
        _validate_batch_size(self.batch_size)
        if self.transport is not None and (
            not isinstance(self.transport, str) or not self.transport
        ):
            raise ConfigurationError(
                f"transport must be a transport-registry name or null, "
                f"got {self.transport!r}"
            )
        if not isinstance(self.transport_options, Mapping):
            raise ConfigurationError(
                f"transport_options must be a mapping, "
                f"got {self.transport_options!r}"
            )
        if not all(
            isinstance(key, str) and key for key in self.transport_options
        ):
            raise ConfigurationError(
                f"transport_options keys must be non-empty strings, "
                f"got {sorted(map(repr, self.transport_options))}"
            )
        # Normalize to a sorted plain dict so to_json stays byte-stable
        # regardless of the insertion order a caller used.
        object.__setattr__(
            self,
            "transport_options",
            {key: self.transport_options[key] for key in sorted(self.transport_options)},
        )
        if self.cache is not None and (
            not isinstance(self.cache, str) or not self.cache
        ):
            raise ConfigurationError(
                f"cache must be a cache-directory path or null, "
                f"got {self.cache!r}"
            )
        if not isinstance(self.cache_options, Mapping):
            raise ConfigurationError(
                f"cache_options must be a mapping, got {self.cache_options!r}"
            )
        # Strict known-key/type validation plus the same sorted-dict
        # normalization as transport_options (byte-stable to_json).
        from ..cache.store import validate_cache_options

        object.__setattr__(
            self,
            "cache_options",
            validate_cache_options(
                dict(self.cache_options), where="execution.cache_options"
            ),
        )
        if self.out is not None and (
            not isinstance(self.out, str) or not self.out
        ):
            raise ConfigurationError(
                f"out must be a non-empty path or null, got {self.out!r}"
            )
        if not isinstance(self.with_predictions, bool):
            raise ConfigurationError(
                f"with_predictions must be a bool, got {self.with_predictions!r}"
            )
        if self.network is not None:
            # A fleet is one cell per node: every axis that would
            # multiply those cells applies to grid studies only.
            for grid_axis, used, reason in (
                ("axes.scenarios", self.scenarios != _DEFAULT_SCENARIOS,
                 "synthesize their own commuter fleet"),
                ("a multi-engine axes.engines", len(self.engines) > 1,
                 "run every node on one engine"),
                ("axes.replicates > 1", self.replicates > 1,
                 "run every node once, on the study seed"),
                ("axes.replicate_seeds", self.replicate_seeds is not None,
                 "run every node once, on the study seed"),
            ):
                if used:
                    raise ConfigurationError(
                        f"network studies {reason}; "
                        f"{grid_axis} applies to grid studies only"
                    )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    @property
    def is_network(self) -> bool:
        """True when the study fans out per-node instead of per-cell."""
        return self.network is not None

    @property
    def n_replicates(self) -> int:
        """Seed replicates per cell (explicit seeds take precedence)."""
        if self.replicate_seeds is not None:
            return len(self.replicate_seeds)
        return self.replicates

    @property
    def resolved_transport(self) -> str:
        """The transport name this study executes on.

        An explicit ``transport`` wins; otherwise the historical
        derivation applies — ``"pool"`` when ``jobs > 1``, else
        ``"serial"`` — so specs written before transports existed keep
        their exact execution behaviour.
        """
        if self.transport is not None:
            return self.transport
        return "pool" if self.jobs > 1 else "serial"

    @property
    def total_runs(self) -> int:
        """Simulation runs the study will execute."""
        if self.network is not None:
            return self.network.nodes
        return (
            len(self.scenarios)
            * len(self.phi_maxes)
            * len(self.zeta_targets)
            * len(self.mechanisms)
            * self.n_replicates
            * len(self.engines)
        )

    @property
    def has_default_scenarios(self) -> bool:
        """True when the axis is the implicit paper workload alone."""
        return self.scenarios == _DEFAULT_SCENARIOS

    def scenario_labels(self) -> Tuple[str, ...]:
        """The stable per-entry labels of the scenario axis."""
        return tuple(ref.label for ref in self.scenarios)

    def resolved_seeds(self) -> List[int]:
        """The per-replicate scenario seeds this study will use.

        Explicit seeds must be distinct: a repeated seed re-runs one
        contact process, so paired delta CIs would collapse to ± 0 and
        fake the replication the agreement gate requires.  The check
        runs here — at load time via :meth:`from_dict` and before any
        shard via :func:`run_study` — not at construction, so a spec can
        still serve as a shape template (``total_runs``) before its
        seeds are chosen.
        """
        if self.replicate_seeds is None:
            return [replicate_seed(self.seed, r) for r in range(self.replicates)]
        repeated = sorted(
            seed
            for seed, count in Counter(self.replicate_seeds).items()
            if count > 1
        )
        if repeated:
            raise ConfigurationError(
                f"replicate_seeds must be distinct; repeated: {repeated}"
            )
        return list(self.replicate_seeds)

    def build_transport(self) -> Transport:
        """The transport this spec's execution section describes.

        The one construction path, shared by :func:`run_study` and the
        CLI: :meth:`build_inner_transport` decorated by
        :meth:`wrap_cache`.  The service runs the same two steps apart,
        so one inner transport (and its pool) can serve many studies.
        Whoever calls this closes the transport it returns.
        """
        return self.wrap_cache(self.build_inner_transport())

    def build_inner_transport(self) -> Transport:
        """The transport this spec names, before any cache decorates it.

        :attr:`resolved_transport` resolves through
        :func:`~repro.experiments.transport.resolve_transport` with the
        spec's jobs, batch size, and options, so a plain serial spec
        builds a :class:`~repro.experiments.parallel.SerialExecutor`.
        """
        return resolve_transport(
            self.resolved_transport,
            jobs=self.jobs,
            batch_size=self.batch_size,
            options=self.transport_options,
        )

    def wrap_cache(self, executor: Transport) -> Transport:
        """*executor* behind this spec's cell cache, if it names one.

        When the spec names a ``cache`` directory the transport is
        decorated with :class:`~repro.cache.transport.CachedTransport`,
        so cells hit the content-addressed cache before the inner
        transport runs; otherwise *executor* is returned as it is.
        """
        if self.cache is None:
            return executor
        from ..cache.transport import wrap_with_cache

        return wrap_with_cache(executor, self.cache, dict(self.cache_options))

    def base_scenario(self) -> Scenario:
        """The §VII-A scenario template with this spec's overrides applied.

        The grid path re-budgets/re-targets it per cell; the network
        path runs every node on it (first ζtarget, first Φmax), with the
        node's own contact source.
        """
        scenario = paper_roadside_scenario(epochs=self.epochs, seed=self.seed)
        return scenario.with_budget(self.phi_maxes[0]).with_target(
            self.zeta_targets[0]
        )

    def budget_divisors(self) -> Tuple[float, ...]:
        """Each Φmax as the paper's ``Tepoch/divisor`` form (display).

        Rounded to 9 decimals so ``DAY / (DAY / 1000)`` reads back as
        the 1000 a human wrote, not 999.9999999999999.
        """
        return tuple(round(DAY / phi_max, 9) for phi_max in self.phi_maxes)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The spec as a nested JSON-clean dict (the file format).

        Key order is fixed (name, scenario, axes, execution, outputs,
        network), so :meth:`to_json` output is byte-stable across
        round-trips.
        """
        document: Dict[str, Any] = {"name": self.name}
        for section, field_names in _SECTION_FIELDS.items():
            body: Dict[str, Any] = {}
            for field_name in field_names:
                value = getattr(self, field_name)
                if field_name == "scenarios":
                    # Omitted at the default so pre-axis documents (and
                    # every artifact embedding one) stay byte-identical.
                    if value == _DEFAULT_SCENARIOS:
                        continue
                    value = [ref.to_entry() for ref in value]
                elif field_name in _TUPLE_FIELDS:
                    value = list(value)
                elif field_name == "replicate_seeds" and value is not None:
                    value = list(value)
                elif field_name in ("transport_options", "cache_options"):
                    value = dict(value)  # already key-sorted (post-init)
                body[field_name] = value
            document[section] = body
        document["network"] = (
            self.network.to_dict() if self.network is not None else None
        )
        return document

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        """Build a spec from its dict form, strictly.

        Unknown keys — top-level or inside any section — raise
        :class:`~repro.errors.ConfigurationError` naming the offending
        dotted path; registry names (mechanisms, engines, the network
        node factory) are resolved eagerly so a bad name fails here, at
        load time, not inside a worker.  Missing keys take the dataclass
        defaults, so a minimal ``{"name": ...}`` document is valid.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"StudySpec document must be a mapping, got {type(data).__name__}"
            )
        known_top = ("name",) + tuple(_SECTION_FIELDS) + ("network",)
        for key in data:
            if key not in known_top:
                raise ConfigurationError(
                    f"unknown StudySpec key {key!r}; known: {sorted(known_top)}"
                )
        kwargs: Dict[str, Any] = {}
        if "name" in data:
            kwargs["name"] = data["name"]
        for section, field_names in _SECTION_FIELDS.items():
            body = data.get(section)
            if body is None:
                continue
            if not isinstance(body, Mapping):
                raise ConfigurationError(
                    f"StudySpec section {section!r} must be a mapping, "
                    f"got {type(body).__name__}"
                )
            for key in body:
                if key not in field_names:
                    raise ConfigurationError(
                        f"unknown StudySpec key {section + '.' + key!r}; "
                        f"known: {sorted(section + '.' + name for name in field_names)}"
                    )
            for field_name in field_names:
                if field_name in body:
                    value = body[field_name]
                    if field_name in _TUPLE_FIELDS and isinstance(
                        value, (list, tuple)
                    ):
                        value = tuple(value)
                    elif field_name == "replicate_seeds" and isinstance(
                        value, (list, tuple)
                    ):
                        value = tuple(value)
                    kwargs[field_name] = value
        network = data.get("network")
        if network is not None:
            if not isinstance(network, Mapping):
                raise ConfigurationError(
                    f"StudySpec section 'network' must be a mapping or null, "
                    f"got {type(network).__name__}"
                )
            known_network = ("nodes", "commuters", "node_factory")
            for key in network:
                if key not in known_network:
                    raise ConfigurationError(
                        f"unknown StudySpec key {'network.' + key!r}; known: "
                        f"{sorted('network.' + name for name in known_network)}"
                    )
            kwargs["network"] = NetworkSection(**dict(network))
        spec = cls(**kwargs)
        spec.validate_registry_names()
        spec.resolved_seeds()  # repeated explicit seeds fail at load time
        return spec

    def validate_registry_names(self) -> None:
        """Resolve every registry name the spec references, failing fast.

        Mechanisms resolve against
        :data:`~repro.experiments.registry.mechanism_factories`, engines
        through :func:`~repro.experiments.engine.resolve_engine`,
        scenarios through :func:`~repro.scenarios.materialize_scenario`
        (options included — a bad option fails at load time, not in a
        worker), and the network node factory against
        :data:`~repro.experiments.registry.mechanism_factories` — the same
        resolution the workers will perform, so a spec that validates
        here executes anywhere the same registrations exist.
        """
        for name in self.mechanisms:
            mechanism_factories.resolve(name)
        for name in self.engines:
            resolve_engine(name)
        for ref in self.scenarios:
            # Materialize (not just resolve): a misspelled option key or
            # bad value fails here, at load time, naming the scenario.
            materialize_scenario(ref, epochs=self.epochs, seed=self.seed)
        validate_transport(self.resolved_transport, self.transport_options)
        if self.network is not None:
            mechanism_factories.resolve(self.network.node_factory)

    def to_json(self, *, indent: int = 2) -> str:
        """The spec as canonical JSON text (trailing newline included)."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StudySpec":
        """Parse a spec from JSON text (see :meth:`from_dict`)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid StudySpec JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        """Write the spec to *path* as canonical JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "StudySpec":
        """Read a spec from a JSON file written by :meth:`save` (or hand)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def with_overrides(self, overrides: Mapping[str, Any]) -> "StudySpec":
        """A copy with dotted-path *overrides* applied (CLI ``--set``).

        Paths address the :meth:`to_dict` document: ``name``,
        ``scenario.epochs``, ``axes.engines``, ``execution.jobs``,
        ``network.nodes``, ...  Setting a ``network.*`` key on a
        grid-only spec materializes the network section with defaults;
        setting ``network`` itself to ``None`` removes it.  Unknown
        paths raise :class:`~repro.errors.ConfigurationError` naming the
        path; the result is re-validated from scratch.
        """
        document = self.to_dict()
        for path, value in overrides.items():
            parts = path.split(".")
            if len(parts) == 1:
                key = parts[0]
                if key not in document:
                    raise ConfigurationError(
                        f"unknown StudySpec key {path!r}; known: "
                        f"{sorted(document)}"
                    )
                document[key] = value
            elif len(parts) == 2:
                section, key = parts
                if section not in document:
                    raise ConfigurationError(
                        f"unknown StudySpec key {path!r}; known sections: "
                        f"{sorted(k for k in document if k != 'name')}"
                    )
                if section == "network" and document[section] is None:
                    document[section] = NetworkSection().to_dict()
                body = document[section]
                known_section = key in _SECTION_FIELDS.get(section, ())
                if not isinstance(body, dict) or (
                    key not in body and not known_section
                ):
                    raise ConfigurationError(
                        f"unknown StudySpec key {path!r}"
                    )
                body[key] = value
            else:
                raise ConfigurationError(
                    f"StudySpec override paths have at most two segments, "
                    f"got {path!r}"
                )
        return type(self).from_dict(document)


@dataclass
class StudyResult:
    """Everything one executed study produced.

    *grids* holds one :class:`~repro.experiments.sweep.GridResult` per
    listed engine (empty for network studies); *agreements* pairs every
    non-baseline engine against the baseline (the first listed engine)
    as an :class:`~repro.experiments.agreement.AgreementResult`;
    *network* is the fleet result for network studies.  Studies
    sweeping several named scenarios hold one grid per
    (engine, scenario) under the key ``"engine@label"`` — and one
    agreement per (candidate, scenario) likewise — with each grid's
    ``scenario`` field carrying the label; single-scenario studies keep
    the plain engine/candidate keys (the historical artifact shape).

    *cells_computed* / *cells_cached* partition the study's runs into
    freshly executed cells and cells replayed from the content-addressed
    cache (:mod:`repro.cache`).  They describe *this execution*, not
    the results — cached and computed cells are byte-identical — so
    they are deliberately absent from :meth:`to_dict`: a warm-cache
    artifact must equal the cold-run artifact exactly.
    """

    spec: StudySpec
    grids: Dict[str, GridResult] = field(default_factory=dict)
    agreements: Dict[str, AgreementResult] = field(default_factory=dict)
    network: Optional["NetworkResult"] = None
    cells_computed: int = 0
    cells_cached: int = 0

    def grid(
        self, engine: Optional[str] = None, scenario: Optional[str] = None
    ) -> GridResult:
        """The grid for *engine* (default: the spec's first engine).

        Multi-scenario studies key grids ``"engine@label"``; pass the
        scenario label to pick one (or address the composite key via
        *engine* directly).
        """
        if not self.grids:
            raise ConfigurationError(
                "this study has no grid results (network study?)"
            )
        key = engine if engine is not None else self.spec.engines[0]
        if scenario is not None:
            key = f"{key}@{scenario}"
        if key not in self.grids:
            raise ConfigurationError(
                f"no grid for engine {key!r}; have {sorted(self.grids)}"
            )
        return self.grids[key]

    @property
    def agreement(self) -> Optional[AgreementResult]:
        """The paired comparison, when the study listed exactly two engines."""
        if not self.agreements:
            return None
        if len(self.agreements) > 1:
            raise ConfigurationError(
                f"study compared {sorted(self.agreements)} against "
                f"{self.spec.engines[0]!r}; pick one via .agreements[name]"
            )
        return next(iter(self.agreements.values()))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The whole study as one JSON-clean document.

        Top level: ``study`` (the spec's :meth:`StudySpec.to_dict`),
        ``grids`` (engine → grid document), ``agreements`` (candidate
        engine → agreement document), ``network`` (fleet document or
        None).  :meth:`StudyDocument.load` reads this format back.
        """
        return {
            "study": self.spec.to_dict(),
            "grids": {
                engine: grid.to_dict() for engine, grid in self.grids.items()
            },
            "agreements": {
                candidate: agreement.to_dict()
                for candidate, agreement in self.agreements.items()
            },
            "network": self.network.to_dict() if self.network else None,
        }

    def to_json(self, *, indent: int = 2) -> str:
        """The study document as strict JSON text."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def to_csv(self) -> str:
        """The study's cells as CSV.

        Grid studies concatenate every grid's cell rows (the ``engine``
        column — plus a leading ``scenario`` column when the study
        swept named scenarios — disambiguates); network studies emit
        one row per node.
        """
        from .reporting import format_csv

        if self.network is not None:
            headers = ("node", "contacts", "zeta", "phi", "rho", "delivery_ratio")
            rows = [
                [
                    node_id,
                    outcome.contacts,
                    outcome.zeta,
                    outcome.phi,
                    _finite_or_none(outcome.rho),
                    outcome.delivery_ratio,
                ]
                for node_id, outcome in sorted(self.network.outcomes.items())
            ]
            return format_csv(headers, rows)
        columns = GRID_EXPORT_COLUMNS
        if any(grid.scenario is not None for grid in self.grids.values()):
            columns = ("scenario",) + GRID_EXPORT_COLUMNS
        rows = []
        for grid in self.grids.values():
            rows.extend(
                [row.get(column) for column in columns]
                for row in grid.cell_rows()
            )
        return format_csv(columns, rows)

    def save(self, path: str) -> None:
        """Write the study to *path*: ``.json`` document or CSV cells."""
        from .reporting import write_artifact

        write_artifact(path, self)


@dataclass
class StudyDocument:
    """A re-loaded study artifact (the serialized half of a result).

    Loading a :meth:`StudyResult.to_json` file recovers the full
    :class:`StudySpec` plus the tabular cell data; the rich in-memory
    objects (schedulers, traces, run metrics) intentionally do not
    round-trip — the spec does, and re-running it regenerates them
    bit-identically.
    """

    spec: StudySpec
    grids: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    agreements: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    network: Optional[Dict[str, Any]] = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudyDocument":
        """Parse a study document, validating its spec strictly."""
        if not isinstance(data, Mapping) or "study" not in data:
            raise ConfigurationError(
                "not a study document: missing the 'study' spec section"
            )
        return cls(
            spec=StudySpec.from_dict(data["study"]),
            grids=dict(data.get("grids") or {}),
            agreements=dict(data.get("agreements") or {}),
            network=data.get("network"),
        )

    @classmethod
    def load(cls, path: str) -> "StudyDocument":
        """Read a study document from a ``.json`` artifact file."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"invalid study document JSON in {path}: {exc}"
                ) from exc
        return cls.from_dict(data)

    def cells(
        self, engine: Optional[str] = None, scenario: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """The loaded grid cell rows for *engine* (default: baseline).

        Multi-scenario artifacts key grids ``"engine@label"``; pass the
        scenario label (or the composite key as *engine*) to pick one.
        """
        if not self.grids:
            return []
        key = engine if engine is not None else self.spec.engines[0]
        if scenario is not None:
            key = f"{key}@{scenario}"
        if key not in self.grids:
            raise ConfigurationError(
                f"no grid for engine {key!r}; have {sorted(self.grids)}"
            )
        return list(self.grids[key].get("cells", []))


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def run_study(
    spec: StudySpec,
    *,
    executor: Optional[Transport] = None,
    progress: Optional[ProgressCallback] = None,
) -> StudyResult:
    """Execute one :class:`StudySpec` end to end.

    The single orchestration path for every study: a grid (one engine),
    a paired agreement grid (two or more engines), and a fleet (a
    ``network`` section: one shard per sensor node, in node-id order,
    each on the base scenario with that node's
    :class:`~repro.network.runner.CommuterNodeSource`).  The study
    flattens into pure
    :class:`~repro.experiments.runner.RunSpec` shards (scenario
    outermost, then Φmax, ζtarget, mechanism, replicate, engine
    innermost) on the seeding contract of
    :mod:`repro.experiments.parallel`, streams them through the
    executor's :meth:`~repro.experiments.parallel.Transport.imap`, and
    reassembles by shard index — byte-identical for any worker count or
    completion order.  Replicate seeds are shared across engines, so
    multi-engine studies are *paired*: per-cell candidate−baseline
    deltas (computed automatically into ``result.agreements``) measure
    the engines, not the traces.

    Args:
        spec: the study description.  Registry names are resolved before
            any shard runs; unknown names raise
            :class:`~repro.errors.ConfigurationError` parent-side.
        executor: overrides the spec's execution section (e.g. a
            pre-built pool, or a test's shuffled executor); any object
            with an ``imap`` will do.  A passed *executor* stays open:
            its caller reuses and closes it.  When None the spec builds
            its transport through :meth:`StudySpec.build_transport` (its
            :attr:`~StudySpec.resolved_transport` name with the spec's
            jobs, batch size, and ``transport_options``), and that
            transport is closed when the study ends.  Either way an
            unset ``label`` is set to the study name for the run, so a
            fallback warning names the study, and is unset again
            afterwards, even when the study raises.
        progress: optional streaming observer
            (:data:`~repro.experiments.sweep.ProgressCallback`), called
            as ``progress(shard, result, completed, total)`` once per
            finished shard — a grid cell or a fleet node alike;
            :func:`~repro.experiments.sweep.progress_event` describes
            one call.  Every result is a
            :class:`~repro.experiments.runner.RunResult` (scenario and
            metrics); one replayed from the cache has ``from_cache=True``.

    Returns:
        A :class:`StudyResult` with one grid per engine, paired
        agreements for every non-baseline engine, or the fleet result
        for network studies.
    """
    # Unknown names and repeated seeds fail fast, before any shard runs.
    for engine_name in spec.engines:
        resolve_engine(engine_name)
    if spec.network is not None:
        shards = _fleet_shards(spec)
    else:
        templates, shards = _grid_shards(spec)
    owned = executor is None
    if owned:
        executor = spec.build_transport()
    # Only an unset label is tagged: an explicit one always wins, and an
    # imap-only executor without the attribute is left alone.
    labelled = getattr(executor, "label", "") is None
    if labelled:
        executor.label = spec.name
    try:
        results = _stream_results(executor, shards, progress)
    finally:
        if labelled:
            executor.label = None
        if owned:
            executor.close()
    if spec.network is not None:
        return _fleet_result(spec, shards, results)
    return _grid_result(spec, templates, results)


def _grid_shards(
    spec: StudySpec,
) -> Tuple[List[Tuple[ScenarioRef, Scenario]], List[RunSpec]]:
    """A grid study's scenario templates and its shards, in shard order.

    Scenario outermost, then Φmax, ζtarget, mechanism, replicate, and
    engine innermost.
    """
    for name in spec.mechanisms:
        mechanism_factories.resolve(name)
    seeds = spec.resolved_seeds()

    # The scenario axis, outermost: every entry materializes through the
    # registry with the spec's epochs/seed applied (for the default axis
    # this equals spec.base_scenario() field-for-field).
    templates = [
        (ref, materialize_scenario(ref, epochs=spec.epochs, seed=spec.seed))
        for ref in spec.scenarios
    ]
    shards: List[RunSpec] = []
    for ref, template in templates:
        for phi_max in spec.phi_maxes:
            budget_base = template.with_budget(phi_max)
            for target in spec.zeta_targets:
                cell_base = budget_base.with_target(target)
                for name in spec.mechanisms:
                    for index, seed in enumerate(seeds):
                        seeded = cell_base.with_seed(seed)
                        for engine_name in spec.engines:
                            shards.append(
                                RunSpec(
                                    scenario=seeded,
                                    mechanism=name,
                                    replicate=index,
                                    engine=engine_name,
                                    scenario_ref=ref,
                                )
                            )
    return templates, shards


def _grid_result(
    spec: StudySpec,
    templates: List[Tuple[ScenarioRef, Scenario]],
    results: List[RunResult],
) -> StudyResult:
    """Fold a grid study's index-ordered *results* into its grids."""
    names = list(spec.mechanisms)
    engines = spec.engines
    targets = spec.zeta_targets
    seeds = spec.resolved_seeds()

    # One GridResult per (scenario, engine): each scenario owns a
    # contiguous result block, inside which the shard list interleaves
    # engines innermost, so engine e's runs are block[e::n_engines] in
    # (Φmax, ζtarget, mechanism, replicate) order.  Single-scenario
    # studies key grids by the engine name alone (the historical shape);
    # multi-scenario studies key by "engine@label".  Closed-form
    # predictions depend on the budget *and* the profile, so they are
    # computed once per (scenario, Φmax) and shared across engines.
    n_engines = len(engines)
    n_scenarios = len(templates)
    multi_scenario = n_scenarios > 1
    block = len(targets) * len(names) * len(seeds)
    per_scenario = len(spec.phi_maxes) * block * n_engines
    grids: Dict[str, GridResult] = {}
    agreements: Dict[str, AgreementResult] = {}
    for scenario_index, (ref, template) in enumerate(templates):
        scenario_results = results[
            scenario_index * per_scenario : (scenario_index + 1) * per_scenario
        ]
        # Record the scenario label on results only when the axis is
        # explicit — the implicit paper workload stays untagged so
        # pre-axis artifacts remain byte-identical.
        tag = None if spec.has_default_scenarios else ref.label
        predictions_by_budget: Dict[float, Mapping[str, list]] = {}
        for engine_index, engine_name in enumerate(engines):
            engine_results = scenario_results[engine_index::n_engines]
            budgets: Dict[float, SweepResult] = {}
            for budget_index, phi_max in enumerate(spec.phi_maxes):
                if spec.with_predictions:
                    if phi_max not in predictions_by_budget:
                        predictions_by_budget[phi_max] = _predictions_for(
                            template.with_budget(phi_max), names, targets
                        )
                    predictions = predictions_by_budget[phi_max]
                else:
                    predictions = {}
                block_results = engine_results[
                    budget_index * block : (budget_index + 1) * block
                ]
                budgets[phi_max] = _assemble_sweep(
                    names, targets, len(seeds), block_results, predictions
                )
            key = (
                f"{engine_name}@{ref.label}" if multi_scenario else engine_name
            )
            grids[key] = GridResult(
                budgets=budgets,
                phi_maxes=spec.phi_maxes,
                zeta_targets=targets,
                engine=engine_name,
                scenario=tag,
            )

        # Two or more engines: deltas become paired automatically.
        # Engine runs of one replicate share that replicate's seed (the
        # shards were built from one `seeded` scenario), so every
        # candidate−baseline comparison is paired on an identical
        # contact process.
        if n_engines >= 2:
            baseline_name = engines[0]
            for candidate_offset, candidate_name in enumerate(
                engines[1:], start=1
            ):
                points: List[AgreementPoint] = []
                cursor = 0
                for phi_max in spec.phi_maxes:
                    for target in targets:
                        for name in names:
                            baseline_runs = []
                            candidate_runs = []
                            for _ in seeds:
                                baseline_runs.append(scenario_results[cursor])
                                candidate_runs.append(
                                    scenario_results[cursor + candidate_offset]
                                )
                                cursor += n_engines
                            points.append(
                                AgreementPoint(
                                    mechanism=name,
                                    zeta_target=target,
                                    phi_max=phi_max,
                                    baseline=baseline_runs,
                                    candidate=candidate_runs,
                                )
                            )
                key = (
                    f"{candidate_name}@{ref.label}"
                    if multi_scenario
                    else candidate_name
                )
                agreements[key] = AgreementResult(
                    points=points,
                    engines=(baseline_name, candidate_name),
                    phi_maxes=spec.phi_maxes,
                    zeta_targets=targets,
                    mechanisms=tuple(names),
                )

    return _study_result(spec, results, grids=grids, agreements=agreements)


def _fleet_shards(spec: StudySpec) -> List[RunSpec]:
    """A network study's shards: one ordinary cell per node, by node id."""
    from ..network.runner import commuter_node_sources

    assert spec.network is not None
    mechanism_factories.resolve(spec.network.node_factory)
    base = spec.base_scenario()
    return [
        RunSpec(
            scenario=dataclasses.replace(base, contact_source=source),
            mechanism=spec.network.node_factory,
            engine=spec.engines[0],
        )
        for source in commuter_node_sources(
            spec.network.nodes, spec.network.commuters
        )
    ]


def _fleet_result(
    spec: StudySpec, shards: List[RunSpec], results: List[RunResult]
) -> StudyResult:
    """Fold a network study's per-node *results* into its fleet result."""
    from ..network.runner import NetworkResult, NodeOutcome

    network = NetworkResult()
    for shard, result in zip(shards, results):
        node_id = shard.scenario.contact_source.node_id
        network.outcomes[node_id] = NodeOutcome(node_id=node_id, result=result)
    return _study_result(spec, results, network=network)


def _study_result(spec: StudySpec, results: List[Any], **parts: Any) -> StudyResult:
    """The :class:`StudyResult` of *results*, with its cache counts."""
    cells_cached = sum(1 for result in results if result.from_cache)
    return StudyResult(
        spec=spec,
        cells_computed=len(results) - cells_cached,
        cells_cached=cells_cached,
        **parts,
    )
