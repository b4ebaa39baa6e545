"""Canonical, versioned content addresses for study cells.

Every shard of a study is a pure function of its
:class:`~repro.experiments.runner.RunSpec` — the scenario (seed and
Φmax budget included), the mechanism name, and the engine name.  That
purity is pinned by the jobs=1/N/shuffled byte-identity tests, and it
is exactly what makes a cell outcome memoizable: two specs with the
same fingerprint *must* produce byte-identical results, so a cached
outcome can stand in for a re-execution.

The address is ``sha256`` over a byte-stable canonical encoding of the
fingerprint (:func:`cell_fingerprint`), salted with
:data:`CACHE_SCHEMA_VERSION`:

* **Stable** — the encoding recurses over frozen dataclasses, enums,
  tuples, and mappings with sorted keys and compact separators, so the
  bytes never depend on insertion order, process, or host.
* **Exact** — floats are encoded via :func:`repr` (Python's shortest
  round-trip form), which distinguishes every distinct double and
  survives non-finite values such as the ``inf`` gaps in
  :class:`~repro.mobility.profiles.SlotProfile.mean_intervals` that
  strict JSON cannot carry.
* **Versioned** — bump :data:`CACHE_SCHEMA_VERSION` whenever the
  *meaning* of an outcome changes (engine semantics, metrics fields,
  seeding): every old entry then misses by construction, and stale
  results can never leak into a new-code run.

A file-backed scenario (a :class:`~repro.mobility.traces.TraceFileSource`
contact source) also carries the ``sha256`` of its trace file, so an
edited file lands on a fresh address instead of replaying a stale
outcome; the digest is computed once per ``(path, st_size,
st_mtime_ns)`` in a process.  Keys of every other scenario are
unchanged by that rule.

One deliberate exclusion: ``RunSpec.replicate`` is bookkeeping for
aggregation and does not affect execution (the replicate's seed already
lives inside the scenario), so it is left out of the fingerprint —
replicate 2 of one study can hit an outcome computed as replicate 0 of
another.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, Optional

from ..experiments.runner import RunSpec
from ..mobility.traces import TraceFileSource

__all__ = ["CACHE_SCHEMA_VERSION", "cell_fingerprint", "cache_key"]

#: Outcome-semantics version, hashed into every cell address.  Bump it
#: whenever a change alters what a cached outcome *means* — engine
#: behaviour, metrics fields, seed derivation — so every existing entry
#: becomes unreachable instead of silently wrong.
#: v2: named-scenario fingerprints (``RunSpec.scenario_ref``) and the
#: ``Scenario.contact_source`` field.
#: v3: micro's last epoch buffer level includes the data generated in
#: its final decision period (``buffer_end_level``, ``delivery_ratio``).
CACHE_SCHEMA_VERSION = 3


def _canonical(value: Any) -> Any:
    """*value* as a JSON-clean structure with a byte-stable encoding.

    Frozen dataclasses become ``{"__kind__": <type>, <field>: ...}``
    records, enums become ``["__enum__", <type>, <member>]``, floats
    become ``["__float__", repr(value)]`` (exact and non-finite-safe),
    and tuples become lists.  Anything else that is not a JSON scalar
    raises :class:`TypeError` — the caller treats that as "not
    cacheable" rather than guessing an encoding.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["__float__", repr(value)]
    if isinstance(value, enum.Enum):
        return ["__enum__", type(value).__name__, value.name]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        record: Dict[str, Any] = {"__kind__": type(value).__name__}
        for field in dataclasses.fields(value):
            record[field.name] = _canonical(getattr(value, field.name))
        return record
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(value[key]) for key in sorted(value)}
    raise TypeError(
        f"no canonical cache encoding for {type(value).__name__!r}"
    )


def cell_fingerprint(spec: RunSpec) -> Optional[Dict[str, Any]]:
    """The identity of *spec*'s outcome, or None when not cacheable.

    Covers everything execution reads — the scenario (fingerprinted by
    registry name + canonical options + the per-cell budget, target,
    epochs, and seed when ``spec.scenario_ref`` names it; by the full
    materialized object otherwise), the mechanism name, and the engine
    name — plus the :data:`CACHE_SCHEMA_VERSION` salt, and the trace
    file's ``sha256`` when the scenario replays a file.  Excludes
    ``replicate`` (aggregation bookkeeping, never consumed by execution)
    and refuses specs with an unencodable scenario field or an
    unreadable trace file (the cell then executes and raises the real
    error).
    """
    if spec.scenario_ref is not None:
        # A registry-named scenario: the (name, canonical options) pair
        # plus the study overrides uniquely determine the materialized
        # Scenario, so hash that compact identity instead of the full
        # materialized object — trace-driven and mixed-fleet workloads
        # then fingerprint by reference, not by megabytes of contacts.
        scenario: Any = {
            "ref": {
                "name": spec.scenario_ref.name,
                "options": _canonical(dict(spec.scenario_ref.options)),
            },
            "zeta_target": _canonical(spec.scenario.zeta_target),
            "phi_max": _canonical(spec.scenario.phi_max),
            "epochs": spec.scenario.epochs,
            "seed": spec.scenario.seed,
        }
    else:
        try:
            scenario = _canonical(spec.scenario)
        except TypeError:
            return None  # an unencodable scenario field: execute, don't cache
    fingerprint = {
        "schema": CACHE_SCHEMA_VERSION,
        "mechanism": spec.mechanism,
        "engine": spec.engine,
        "scenario": scenario,
    }
    source = spec.scenario.contact_source
    if isinstance(source, TraceFileSource):
        digest = source.file_sha256()
        if digest is None:
            return None
        fingerprint["trace_sha256"] = digest
    return fingerprint


def cache_key(spec: RunSpec) -> Optional[str]:
    """The content address of *spec*'s outcome, or None when not cacheable.

    ``sha256`` (via :mod:`hashlib` — builtin ``hash()`` is salted per
    process) over the compact, key-sorted JSON encoding of
    :func:`cell_fingerprint`.  Equal fingerprints give equal keys on
    every host; any semantic change is pushed through
    :data:`CACHE_SCHEMA_VERSION` and lands on a fresh address.
    """
    fingerprint = cell_fingerprint(spec)
    if fingerprint is None:
        return None
    encoded = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
