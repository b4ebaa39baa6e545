"""The caching transport decorator: hits from disk, misses downstream.

:class:`CachedTransport` wraps any registered transport ("serial",
"pool", "file-queue", or a runtime registration) and partitions each
shard list into cache hits and misses: hits are decoded straight from
the :class:`~repro.cache.store.CellCache` and yielded first, misses
run over the inner transport with their indices remapped back to the
caller's order — so reassembly-by-index (sharding-contract rule 3)
sees exactly the stream it would have seen from the inner transport
alone, and the assembled artifact is byte-identical to a cold run.

Two properties make crashed or cancelled studies resumable:

* **Store-before-yield.**  Every computed miss is written to the cache
  *before* its ``(index, result)`` pair is yielded.  Progress
  callbacks — including the service scheduler's cancellation check —
  fire after the yield, so by the time a run aborts, every completed
  cell is already on disk; re-running the same study computes only the
  cells that never finished.
* **File-queue warming.**  When the inner transport ingests externally
  completed work (the file queue's ``done/`` records), it feeds each
  outcome through the duck-typed ``outcome_sink`` hook as it drains —
  before queue cleanup deletes the record — so outcomes computed by
  other hosts land in the cache even if the coordinating process dies
  before consuming them.

The decorator only engages for the study shard function
(:func:`~repro.experiments.runner.execute_run_spec` over cacheable
:class:`~repro.experiments.runner.RunSpec` shards, grid cells and fleet
nodes alike); any other workload passes through to the inner transport
untouched.  A result replayed from the cache carries
``from_cache=True``, the one per-cell record of a hit.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..experiments.parallel import Transport
from ..experiments.runner import RunSpec, execute_run_spec
from .keys import cache_key
from .store import CellCache, decode_result, encode_result, validate_cache_options

__all__ = ["CachedTransport", "wrap_with_cache"]


class CachedTransport(Transport):
    """A transport decorator memoizing cell outcomes in a :class:`CellCache`.

    A :class:`~repro.experiments.parallel.Transport` itself (``imap``
    with index reassembly) that forwards the attributes the study layer
    reads — ``label`` and ``last_map_parallel`` — to the wrapped
    transport, so wrapping is invisible to everything except wall-clock
    time.
    """

    def __init__(self, inner: Transport, cache: CellCache) -> None:
        """Wrap transport *inner* with *cache*."""
        self.inner = inner
        self.cache = cache

    # ------------------------------------------------------------------
    # forwarded transport surface
    # ------------------------------------------------------------------
    @property
    def label(self) -> Optional[str]:
        """The wrapped transport's workload label (study name tagging)."""
        return self.inner.label

    @label.setter
    def label(self, value: Optional[str]) -> None:
        self.inner.label = value

    @property
    def last_map_parallel(self) -> bool:
        """Whether the inner transport's last run actually fanned out."""
        return self.inner.last_map_parallel

    def close(self) -> None:
        """Close the wrapped transport; the cache holds nothing open."""
        self.inner.close()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def imap(self, fn: Callable, items: Sequence) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` pairs: hits first, then computed misses.

        Only study shards are memoized: when *fn* is not
        :func:`execute_run_spec` (or a shard is not a cacheable
        :class:`RunSpec`), the work goes to the inner transport
        verbatim.  Every miss is stored before its pair is yielded
        (resumability) and the inner transport's ``outcome_sink`` hook
        is armed for the duration so externally ingested outcomes warm
        the cache too.
        """
        items = list(items)
        if fn is not execute_run_spec:
            yield from self.inner.imap(fn, items)
            return
        misses: List[Tuple[int, Any, Optional[str]]] = []
        for index, item in enumerate(items):
            key = cache_key(item) if isinstance(item, RunSpec) else None
            result = None if key is None else self._lookup(item, key)
            if result is not None:
                yield index, result
            else:
                misses.append((index, item, key))
        if not misses:
            return
        keys_by_position = [key for _, _, key in misses]

        def sink(position: int, value: Any) -> None:
            """Warm the cache from externally ingested outcomes."""
            key = keys_by_position[position]
            if key is not None:
                self.cache.put(key, encode_result(value))

        self.inner.outcome_sink = sink
        try:
            pairs = self.inner.imap(
                execute_run_spec, [item for _, item, _ in misses]
            )
            for position, value in pairs:
                index, _, key = misses[position]
                if key is not None:
                    self.cache.put(key, encode_result(value))
                yield index, value
        finally:
            self.inner.outcome_sink = None

    def _lookup(self, item: RunSpec, key: str) -> Optional[Any]:
        """The decoded result cached under *item*'s *key*, or None on a miss.

        A payload that no longer decodes (metrics schema drift inside
        one :data:`~repro.cache.keys.CACHE_SCHEMA_VERSION` — a bug, but
        a survivable one) is treated exactly like corruption: a
        :class:`~repro.cache.store.CacheCorruptionWarning` names the
        entry, it is deleted unless the cache is readonly, and the cell
        recomputes.
        """
        payload = self.cache.get(key)
        if payload is None:
            return None
        try:
            return decode_result(item, payload)
        except (KeyError, TypeError, ValueError) as exc:
            self.cache.discard(key, f"payload does not decode ({exc!r})")
            return None

    def __repr__(self) -> str:
        return f"CachedTransport({self.inner!r}, {self.cache!r})"


def wrap_with_cache(
    executor: Transport,
    cache_dir: str,
    options: Optional[dict] = None,
) -> CachedTransport:
    """Decorate transport *executor* with a :class:`CellCache` at *cache_dir*.

    The single construction path behind
    :meth:`~repro.experiments.spec.StudySpec.wrap_cache` (which
    :meth:`~repro.experiments.spec.StudySpec.build_transport` and the
    service scheduler both go through): *options* are validated strictly
    (:func:`~repro.cache.store.validate_cache_options`).  *executor* is
    the downstream transport the misses run on — a plain serial study
    passes its :class:`~repro.experiments.parallel.SerialExecutor` — and
    closing the returned decorator closes it.
    """
    validated = validate_cache_options(options)
    return CachedTransport(executor, CellCache(cache_dir, **validated))
