"""Crash-safe on-disk store for content-addressed cell outcomes.

Layout (one directory per cache)::

    cache_dir/
      meta.json            # format marker + schema version at creation
      cells/
        <sha256 key>.json  # one entry per cached cell outcome

Every entry is a self-contained JSON document carrying the cache
format marker, the :data:`~repro.cache.keys.CACHE_SCHEMA_VERSION` it
was written under, its own key, the outcome payload, and a sha256
checksum of the payload.  Writes go through the same-directory
temp-file-plus-:func:`os.replace` idiom the study store and the file
queue use, so a crash mid-write can never leave a half-entry under a
live key — concurrent writers racing on one key each write a complete
file and the last rename wins (both wrote the same bytes: the key *is*
the content address).

Corruption is detected on read — unparsable JSON, a key or checksum
mismatch, a missing field — and **healed by re-execution**: the entry
is deleted, a loud :class:`CacheCorruptionWarning` names the file and
the reason, and the caller simply recomputes the cell.  A corrupt
cache can cost time, never correctness.

The outcome payload is the per-epoch
:class:`~repro.experiments.metrics.EpochMetrics` series — with the
scenario, the whole of a cell's
:class:`~repro.experiments.runner.RunResult`.  Python's JSON float
round-trip is exact (shortest-repr), so a decoded outcome reproduces
the cold-run artifact byte for byte; it differs from a computed one
only in ``from_cache=True``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..experiments.metrics import EpochMetrics, RunMetrics
from ..experiments.runner import RunResult, RunSpec
from ..fsio import atomic_write
from .keys import CACHE_SCHEMA_VERSION

__all__ = [
    "CACHE_OPTION_NAMES",
    "CacheCorruptionWarning",
    "CellCache",
    "decode_result",
    "encode_result",
    "validate_cache_options",
]

#: Marker naming the on-disk format, in ``meta.json`` and every entry.
CACHE_FORMAT = "repro-cell-cache-v1"

#: The keys ``execution.cache_options`` (and ``CellCache``) accept.
CACHE_OPTION_NAMES = ("max_age_days", "max_bytes", "readonly")


class CacheCorruptionWarning(UserWarning):
    """A cache entry failed validation and was discarded.

    Emitted loudly (never swallowed) whenever an entry cannot be
    parsed, carries the wrong key, or fails its checksum: the entry is
    deleted and the cell re-executes, so the run stays correct — this
    warning is how the operator learns the cache directory is unwell.
    """


def encode_result(result: RunResult) -> Dict[str, Any]:
    """*result* as a JSON-clean outcome payload (the cached bytes).

    The payload is the full per-epoch metrics series — the complete
    input to grid assembly, agreement deltas, and progress lines.  All
    fields are ints and finite floats, so strict JSON round-trips them
    exactly.  Every field is a scalar, so a shallow copy of each
    epoch's fields is the whole record (``dataclasses.asdict`` would
    deep-copy them one by one).
    """
    return {"epochs": [dict(vars(epoch)) for epoch in result.metrics.epochs]}


def decode_result(spec: RunSpec, payload: Dict[str, Any]) -> RunResult:
    """Rebuild *spec*'s :class:`RunResult` from a cached *payload*.

    The scenario comes from the spec being executed (it hashed into
    the key, so it is identical to the one that produced the payload).
    A payload whose shape does not match the current
    :class:`~repro.experiments.metrics.EpochMetrics` raises
    ``TypeError``/``KeyError`` — callers treat that as corruption.
    """
    epochs = [EpochMetrics(**epoch) for epoch in payload["epochs"]]
    return RunResult(
        scenario=spec.scenario, metrics=RunMetrics(epochs=epochs), from_cache=True
    )


def validate_cache_options(
    options: Any, *, where: str = "execution.cache_options"
) -> Dict[str, Any]:
    """Strictly validate cache options, returning a key-sorted dict.

    Unknown keys and ill-typed values raise
    :class:`~repro.errors.ConfigurationError` naming *where* — the same
    fail-fast contract as transport options, so a typo in a study file
    or on the CLI dies at load time, not inside a run.
    """
    if options is None:
        return {}
    if not isinstance(options, dict):
        raise ConfigurationError(
            f"{where} must be a mapping, got {options!r}"
        )
    for key in options:
        if key not in CACHE_OPTION_NAMES:
            raise ConfigurationError(
                f"unknown {where} key {key!r}; known: "
                f"{sorted(CACHE_OPTION_NAMES)}"
            )
    validated: Dict[str, Any] = {}
    for key in sorted(options):
        value = options[key]
        if key == "readonly":
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"{where}.readonly must be a bool, got {value!r}"
                )
        elif key == "max_bytes":
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigurationError(
                    f"{where}.max_bytes must be an int >= 1, got {value!r}"
                )
        elif key == "max_age_days":
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or not math.isfinite(value)
                or value <= 0
            ):
                raise ConfigurationError(
                    f"{where}.max_age_days must be a finite number > 0, "
                    f"got {value!r}"
                )
        validated[key] = value
    return validated


def _compact(value: Any) -> str:
    """The compact, key-sorted JSON encoding entries and checksums use."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _payload_checksum(payload: Dict[str, Any]) -> str:
    """sha256 over the compact, key-sorted JSON encoding of *payload*."""
    return hashlib.sha256(_compact(payload).encode("utf-8")).hexdigest()


class CellCache:
    """A content-addressed, crash-safe store of cell outcomes.

    ``get``/``put`` are the hot path (used by
    :class:`~repro.cache.transport.CachedTransport`); ``stats``,
    ``gc``, and ``verify`` back the ``repro cache`` CLI.  When
    *max_bytes* or *max_age_days* is configured the same bounds are
    applied opportunistically at open time, so a long-lived cache
    directory referenced from a study file stays within its budget
    without a separate cron.

    A *readonly* cache serves hits but silently skips writes and
    deletions — for sharing one warm directory across CI jobs that must
    not change it.  A corrupt entry still warns and reads as a miss, but
    stays on disk.
    """

    def __init__(
        self,
        root: str,
        *,
        max_bytes: Optional[int] = None,
        max_age_days: Optional[float] = None,
        readonly: bool = False,
    ) -> None:
        """Open (and create, unless readonly) the cache at *root*."""
        validate_cache_options(
            {
                key: value
                for key, value in (
                    ("max_bytes", max_bytes),
                    ("max_age_days", max_age_days),
                    ("readonly", readonly),
                )
                if value is not None
            }
        )
        self.root = str(root)
        self.readonly = readonly
        self.max_bytes = max_bytes
        self.max_age_days = max_age_days
        self._cells_dir = os.path.join(self.root, "cells")
        if os.path.isfile(self.root):
            raise ConfigurationError(
                f"cache directory {self.root!r} is an existing file"
            )
        if not readonly:
            os.makedirs(self._cells_dir, exist_ok=True)
            meta_path = os.path.join(self.root, "meta.json")
            if not os.path.exists(meta_path):
                atomic_write(
                    meta_path,
                    (
                        json.dumps(
                            {
                                "format": CACHE_FORMAT,
                                "schema_version": CACHE_SCHEMA_VERSION,
                            },
                            indent=2,
                            sort_keys=True,
                        )
                        + "\n"
                    ).encode("utf-8"),
                )
            if max_bytes is not None or max_age_days is not None:
                self.gc(max_bytes=max_bytes, max_age_days=max_age_days)

    # ------------------------------------------------------------------
    # hot path
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The outcome payload stored under *key*, or None on a miss.

        Any validation failure — unreadable file, bad JSON, key or
        checksum mismatch, missing fields — deletes the entry (unless
        readonly), emits a :class:`CacheCorruptionWarning`, and reports
        a miss, so the caller re-executes the cell (the
        heal-by-recompute contract).
        """
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self.discard(key, f"unreadable ({exc})")
            return None
        try:
            entry = json.loads(text)
            if entry["format"] != CACHE_FORMAT:
                raise ValueError(f"format marker {entry['format']!r}")
            if entry["key"] != key:
                raise ValueError(f"entry says key {entry['key']!r}")
            payload = entry["payload"]
            if entry["checksum"] != _payload_checksum(payload):
                raise ValueError("payload checksum mismatch")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            self.discard(key, str(exc))
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store *payload* under *key* (atomic; no-op when readonly).

        Idempotent by construction: the key is the content address, so
        every writer racing on one key writes identical bytes and the
        last atomic rename wins harmlessly.
        """
        if self.readonly:
            return
        # The payload is encoded once: the checksum is taken over that
        # text and the entry is spliced around it, field by field in
        # sorted-key order — the bytes of _compact(entry) + "\n".
        payload_text = _compact(payload)
        checksum = hashlib.sha256(payload_text.encode("utf-8")).hexdigest()
        text = (
            f'{{"checksum":{_compact(checksum)},'
            f'"format":{_compact(CACHE_FORMAT)},'
            f'"key":{_compact(key)},'
            f'"payload":{payload_text},'
            f'"schema":{_compact(CACHE_SCHEMA_VERSION)}}}\n'
        )
        atomic_write(self._entry_path(key), text.encode("utf-8"))

    def invalidate(self, key: str) -> None:
        """Drop the entry under *key*, if present (no-op when readonly)."""
        self._remove(self._entry_path(key))

    def discard(self, key: str, reason: str) -> None:
        """Warn loudly that the entry under *key* is corrupt, and delete
        it unless readonly (heal-by-recompute)."""
        action = "leaving it (readonly)" if self.readonly else "discarding it"
        warnings.warn(
            f"cell cache entry '{key}.json' in {self.root!r} "
            f"is corrupt ({reason}); {action} — the cell will "
            f"re-execute",
            CacheCorruptionWarning,
            stacklevel=3,
        )
        self.invalidate(key)

    # ------------------------------------------------------------------
    # maintenance (the `repro cache` CLI)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Entry count, total bytes, and identity of this cache."""
        entries = list(self._scan())
        return {
            "root": self.root,
            "format": CACHE_FORMAT,
            "schema_version": CACHE_SCHEMA_VERSION,
            "entries": len(entries),
            "total_bytes": sum(size for _, size, _ in entries),
        }

    def gc(
        self,
        *,
        max_bytes: Optional[int] = None,
        max_age_days: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Evict entries by age and total size, oldest first.

        Entries older than *max_age_days* (by file mtime — a wall-clock
        read, legitimate here: eviction policy never feeds simulation
        results) are removed first; if the survivors still exceed
        *max_bytes*, the oldest are evicted until the total fits.
        Returns removal/retention counts and byte totals.
        """
        entries = sorted(self._scan(), key=lambda item: item[2])  # oldest first
        removed = 0
        removed_bytes = 0
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            survivors = []
            for path, size, mtime in entries:
                if mtime < cutoff:
                    self._remove(path)
                    removed += 1
                    removed_bytes += size
                else:
                    survivors.append((path, size, mtime))
            entries = survivors
        if max_bytes is not None:
            total = sum(size for _, size, _ in entries)
            index = 0
            while total > max_bytes and index < len(entries):
                path, size, _ = entries[index]
                self._remove(path)
                removed += 1
                removed_bytes += size
                total -= size
                index += 1
            entries = entries[index:]
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "kept": len(entries),
            "kept_bytes": sum(size for _, size, _ in entries),
        }

    def verify(self) -> Dict[str, Any]:
        """Re-validate every entry, counting corrupt ones found and removed.

        Runs each entry through the same checks as :meth:`get` — parse,
        format marker, key, checksum — so a bit-flipped or truncated
        file is found *before* a study trusts it.  Corrupt entries warn
        loudly and are deleted (``corrupt_removed``), unless the cache
        is readonly, which leaves them on disk (``corrupt_removed`` is
        0 and only ``corrupt_found`` counts them); the next run
        re-executes those cells.
        """
        checked = 0
        corrupt = 0
        for path, _, _ in list(self._scan()):
            checked += 1
            key = os.path.splitext(os.path.basename(path))[0]
            if self.get(key) is None:
                corrupt += 1
        return {
            "entries": checked,
            "ok": checked - corrupt,
            "corrupt_found": corrupt,
            "corrupt_removed": 0 if self.readonly else corrupt,
        }

    def keys(self) -> List[str]:
        """Every key currently stored, sorted."""
        return sorted(
            os.path.splitext(os.path.basename(path))[0]
            for path, _, _ in self._scan()
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self._cells_dir, f"{key}.json")

    def _scan(self) -> Iterator[Tuple[str, int, float]]:
        """Yield ``(path, size, mtime)`` for every entry file present."""
        try:
            names = os.listdir(self._cells_dir)
        except FileNotFoundError:
            return
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self._cells_dir, name)
            try:
                status = os.stat(path)
            except OSError:
                continue  # raced with a concurrent gc/invalidate
            yield path, status.st_size, status.st_mtime

    def _remove(self, path: str) -> None:
        if self.readonly:
            return
        try:
            os.unlink(path)
        except OSError:
            pass  # already gone (concurrent writer/gc) — that is fine

    def __repr__(self) -> str:
        return f"CellCache({self.root!r})"
