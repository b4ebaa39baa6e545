"""CellCache behaviour: crash-safe writes, heal-by-recompute, gc.

The store contract (:mod:`repro.cache.store`): entries are complete or
absent (temp-file + rename), corruption of any kind is detected on
read and healed by deleting the entry with a loud
:class:`~repro.cache.store.CacheCorruptionWarning`, and gc bounds the
directory by age and size without ever affecting correctness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import CACHE_SCHEMA_VERSION, cache_key
from repro.cache.store import (
    CACHE_OPTION_NAMES,
    CacheCorruptionWarning,
    CellCache,
    decode_result,
    encode_result,
    validate_cache_options,
)
from repro.cache.transport import wrap_with_cache
from repro.errors import ConfigurationError
from repro.experiments.parallel import SerialExecutor
from repro.experiments.runner import RunResult, RunSpec, execute_run_spec
from repro.experiments.scenario import paper_roadside_scenario
from repro.experiments.transport import _TEMP_SUFFIX

KEY_A = "a" * 64
KEY_B = "b" * 64
PAYLOAD = {"epochs": [{"probes": 3, "contacts": 1}]}

#: Strict-JSON values, nested: what a payload may hold.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)


def entry_path(cache: CellCache, key: str) -> str:
    """The on-disk path of *key*'s entry file."""
    return os.path.join(cache.root, "cells", f"{key}.json")


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        cache.put(KEY_A, PAYLOAD)
        assert cache.get(KEY_A) == PAYLOAD

    def test_missing_key_is_a_quiet_miss(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(KEY_A) is None

    def test_entry_file_is_self_describing(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        cache.put(KEY_A, PAYLOAD)
        entry = json.loads(open(entry_path(cache, KEY_A)).read())
        assert entry["format"] == "repro-cell-cache-v1"
        assert entry["key"] == KEY_A
        assert entry["payload"] == PAYLOAD
        assert "checksum" in entry and "schema" in entry

    def test_invalidate_drops_the_entry(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        cache.put(KEY_A, PAYLOAD)
        cache.invalidate(KEY_A)
        assert cache.get(KEY_A) is None
        cache.invalidate(KEY_A)  # idempotent

    def test_root_collision_with_file_is_an_error(self, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_text("hello")
        with pytest.raises(ConfigurationError):
            CellCache(str(path))

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
        payload=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4),
    )
    def test_entry_bytes_are_the_compact_entry_encoding(self, key, payload):
        # put() splices the entry around one payload encoding; the bytes
        # must be exactly what encoding the whole entry would give.
        with tempfile.TemporaryDirectory() as root:
            cache = CellCache(root)
            cache.put(key, payload)
            with open(entry_path(cache, key), "rb") as handle:
                written = handle.read()
            compact = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            entry = {
                "format": "repro-cell-cache-v1",
                "schema": CACHE_SCHEMA_VERSION,
                "key": key,
                "payload": payload,
                "checksum": hashlib.sha256(compact.encode("utf-8")).hexdigest(),
            }
            expected = (
                json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
            )
            assert written == expected.encode("utf-8")
            assert cache.get(key) == payload

    @pytest.mark.parametrize("engine", ["fast", "vector"])
    def test_result_encoding_is_the_dataclass_field_dict(self, engine):
        scenario = paper_roadside_scenario(
            phi_max_divisor=100, zeta_target=24.0, epochs=2, seed=3
        )
        result = execute_run_spec(
            RunSpec(scenario=scenario, mechanism="SNIP-RH", engine=engine)
        )
        assert encode_result(result) == {
            "epochs": [dataclasses.asdict(e) for e in result.metrics.epochs]
        }

    def test_result_encoding_round_trips_metrics(self):
        scenario = paper_roadside_scenario(
            phi_max_divisor=1000, zeta_target=16.0, epochs=1, seed=1
        )
        spec = RunSpec(scenario=scenario, mechanism="SNIP-RH")
        result = execute_run_spec(spec)
        decoded = decode_result(spec, encode_result(result))
        assert decoded.from_cache is True
        assert type(decoded) is RunResult
        assert [field.name for field in dataclasses.fields(decoded)] == [
            "scenario", "metrics", "from_cache",
        ]
        assert decoded.scenario == result.scenario
        assert decoded.metrics.epochs == result.metrics.epochs
        assert decoded.mean_zeta == result.mean_zeta
        assert decoded.mean_phi == result.mean_phi


class TestCorruption:
    def corrupt(self, tmp_path, text):
        """A cache whose only entry holds *text* verbatim."""
        cache = CellCache(str(tmp_path / "cc"))
        cache.put(KEY_A, PAYLOAD)
        with open(entry_path(cache, KEY_A), "w") as handle:
            handle.write(text)
        return cache

    def assert_healed(self, cache):
        """Reading the bad entry warns, misses, and deletes the file."""
        with pytest.warns(CacheCorruptionWarning, match="re-execute"):
            assert cache.get(KEY_A) is None
        assert not os.path.exists(entry_path(cache, KEY_A))
        # The key is writable again afterwards.
        cache.put(KEY_A, PAYLOAD)
        assert cache.get(KEY_A) == PAYLOAD

    def test_truncated_entry_heals(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        cache.put(KEY_A, PAYLOAD)
        path = entry_path(cache, KEY_A)
        text = open(path).read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        self.assert_healed(cache)

    def test_garbage_entry_heals(self, tmp_path):
        self.assert_healed(self.corrupt(tmp_path, "not json at all"))

    def test_wrong_format_marker_heals(self, tmp_path):
        entry = {
            "format": "some-other-tool",
            "schema": 1,
            "key": KEY_A,
            "payload": PAYLOAD,
            "checksum": "0" * 64,
        }
        self.assert_healed(self.corrupt(tmp_path, json.dumps(entry)))

    def test_key_mismatch_heals(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        cache.put(KEY_B, PAYLOAD)
        # Entry written under B, then copied to A's path (a botched
        # restore): its embedded key disagrees with its address.
        os.replace(entry_path(cache, KEY_B), entry_path(cache, KEY_A))
        self.assert_healed(cache)

    def test_checksum_mismatch_heals(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        cache.put(KEY_A, PAYLOAD)
        path = entry_path(cache, KEY_A)
        entry = json.loads(open(path).read())
        entry["payload"]["epochs"][0]["probes"] = 999  # bit rot
        with open(path, "w") as handle:
            handle.write(json.dumps(entry))
        self.assert_healed(cache)

    def test_verify_counts_and_removes_corrupt_entries(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        cache.put(KEY_A, PAYLOAD)
        cache.put(KEY_B, PAYLOAD)
        with open(entry_path(cache, KEY_B), "w") as handle:
            handle.write("garbage")
        with pytest.warns(CacheCorruptionWarning):
            report = cache.verify()
        assert report == {
            "entries": 2, "ok": 1, "corrupt_found": 1, "corrupt_removed": 1
        }
        assert cache.verify() == {
            "entries": 1, "ok": 1, "corrupt_found": 0, "corrupt_removed": 0
        }

    def test_decode_failure_warns_and_recomputes_once(self, tmp_path):
        # A checksum-valid payload that no longer decodes is corruption:
        # it warns, names the entry, and is replaced by the recomputed
        # cell.
        root = str(tmp_path / "cc")
        spec = RunSpec(
            scenario=paper_roadside_scenario(
                phi_max_divisor=1000, zeta_target=16.0, epochs=1, seed=1
            ),
            mechanism="SNIP-RH",
        )
        key = cache_key(spec)
        CellCache(root).put(key, {"epochs": [{"no_such_metric": 1}]})
        transport = wrap_with_cache(SerialExecutor(), root)
        with pytest.warns(CacheCorruptionWarning, match=key):
            [result] = transport.map(execute_run_spec, [spec])
        assert result.from_cache is False
        assert CellCache(root).get(key) == encode_result(result)
        [again] = transport.map(execute_run_spec, [spec])
        assert again.from_cache is True


class TestGc:
    def test_gc_by_age_uses_mtime(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        cache.put(KEY_A, PAYLOAD)
        cache.put(KEY_B, PAYLOAD)
        week_ago = os.stat(entry_path(cache, KEY_A)).st_mtime - 7 * 86400
        os.utime(entry_path(cache, KEY_A), (week_ago, week_ago))
        report = cache.gc(max_age_days=1.0)
        assert report["removed"] == 1 and report["kept"] == 1
        assert cache.get(KEY_A) is None
        assert cache.get(KEY_B) == PAYLOAD

    def test_gc_by_size_evicts_oldest_first(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        cache.put(KEY_A, PAYLOAD)
        cache.put(KEY_B, PAYLOAD)
        older = os.stat(entry_path(cache, KEY_A)).st_mtime - 3600
        os.utime(entry_path(cache, KEY_A), (older, older))
        size = os.stat(entry_path(cache, KEY_B)).st_size
        report = cache.gc(max_bytes=size)  # room for exactly one entry
        assert report["removed"] == 1 and report["kept"] == 1
        assert cache.get(KEY_A) is None  # the older entry went first
        assert cache.get(KEY_B) == PAYLOAD

    def test_open_time_gc_applies_configured_bounds(self, tmp_path):
        root = str(tmp_path / "cc")
        cache = CellCache(root)
        cache.put(KEY_A, PAYLOAD)
        week_ago = os.stat(entry_path(cache, KEY_A)).st_mtime - 7 * 86400
        os.utime(entry_path(cache, KEY_A), (week_ago, week_ago))
        reopened = CellCache(root, max_age_days=1.0)
        assert reopened.get(KEY_A) is None

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = CellCache(str(tmp_path / "cc"))
        assert cache.stats()["entries"] == 0
        cache.put(KEY_A, PAYLOAD)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == os.stat(entry_path(cache, KEY_A)).st_size


class TestReadonly:
    def test_readonly_serves_hits_and_skips_writes(self, tmp_path):
        root = str(tmp_path / "cc")
        CellCache(root).put(KEY_A, PAYLOAD)
        cache = CellCache(root, readonly=True)
        assert cache.get(KEY_A) == PAYLOAD
        cache.put(KEY_B, PAYLOAD)
        assert cache.get(KEY_B) is None

    def test_readonly_never_creates_the_directory(self, tmp_path):
        root = str(tmp_path / "never-made")
        cache = CellCache(root, readonly=True)
        assert cache.get(KEY_A) is None
        assert not os.path.exists(root)

    def test_readonly_get_leaves_a_corrupt_entry(self, tmp_path):
        root = str(tmp_path / "cc")
        CellCache(root).put(KEY_A, PAYLOAD)
        path = entry_path(CellCache(root), KEY_A)
        with open(path, "w") as handle:
            handle.write("not json at all")
        before = open(path, "rb").read()
        cache = CellCache(root, readonly=True)
        with pytest.warns(CacheCorruptionWarning, match="re-execute"):
            assert cache.get(KEY_A) is None
        assert open(path, "rb").read() == before
        cache.invalidate(KEY_A)
        assert open(path, "rb").read() == before

    def test_readonly_verify_finds_but_keeps_a_corrupt_entry(self, tmp_path):
        root = str(tmp_path / "cc")
        CellCache(root).put(KEY_A, PAYLOAD)
        path = entry_path(CellCache(root), KEY_A)
        with open(path, "w") as handle:
            handle.write("garbage")
        cache = CellCache(root, readonly=True)
        with pytest.warns(CacheCorruptionWarning, match="leaving it"):
            report = cache.verify()
        assert report == {
            "entries": 1, "ok": 0, "corrupt_found": 1, "corrupt_removed": 0
        }
        assert open(path).read() == "garbage"

    def test_readonly_decode_failure_leaves_the_entry(self, tmp_path):
        # A checksum-valid payload that no longer decodes: the writable
        # transport discards it, a readonly one must not.
        root = str(tmp_path / "cc")
        spec = RunSpec(
            scenario=paper_roadside_scenario(
                phi_max_divisor=1000, zeta_target=16.0, epochs=1, seed=1
            ),
            mechanism="SNIP-RH",
        )
        writable = CellCache(root)
        writable.put(cache_key(spec), {"epochs": [{"no_such_metric": 1}]})
        path = entry_path(writable, cache_key(spec))
        before = open(path, "rb").read()
        transport = wrap_with_cache(SerialExecutor(), root, {"readonly": True})
        with pytest.warns(CacheCorruptionWarning, match="leaving it"):
            [result] = transport.map(execute_run_spec, [spec])
        assert result.from_cache is False
        assert open(path, "rb").read() == before

class TestConcurrency:
    def test_concurrent_writers_one_directory(self, tmp_path):
        # Many threads hammering overlapping keys: every surviving
        # entry must be complete and valid (atomic rename), with no
        # temp-file debris left behind.
        cache = CellCache(str(tmp_path / "cc"))
        keys = [format(index, "064x") for index in range(8)]
        errors = []

        def writer(seed: int) -> None:
            try:
                local = CellCache(cache.root)
                for round_index in range(20):
                    key = keys[(seed + round_index) % len(keys)]
                    local.put(key, PAYLOAD)
                    got = local.get(key)
                    assert got is None or got == PAYLOAD
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.verify()["corrupt_removed"] == 0
        assert sorted(cache.keys()) == sorted(keys)
        debris = [
            name
            for name in os.listdir(os.path.join(cache.root, "cells"))
            if name.endswith(_TEMP_SUFFIX)
        ]
        assert debris == []


class TestOptionValidation:
    def test_known_option_names_are_frozen(self):
        assert CACHE_OPTION_NAMES == ("max_age_days", "max_bytes", "readonly")

    def test_unknown_key_names_the_location(self):
        with pytest.raises(ConfigurationError, match="execution.cache_options"):
            validate_cache_options({"max_byte": 10})

    def test_custom_where_label(self):
        with pytest.raises(ConfigurationError, match="serve --cache-option"):
            validate_cache_options(
                {"bogus": 1}, where="serve --cache-option"
            )

    @pytest.mark.parametrize(
        "options",
        [
            {"readonly": 1},
            {"max_bytes": 0},
            {"max_bytes": True},
            {"max_bytes": "big"},
            {"max_age_days": 0},
            {"max_age_days": False},
            {"max_age_days": "old"},
            {"max_age_days": float("nan")},
            {"max_age_days": float("inf")},
            {"max_age_days": -1.0},
        ],
    )
    def test_ill_typed_values_rejected(self, options):
        with pytest.raises(ConfigurationError):
            validate_cache_options(options)

    def test_valid_options_round_trip_sorted(self):
        validated = validate_cache_options(
            {"readonly": True, "max_bytes": 10, "max_age_days": 1.5}
        )
        assert list(validated) == ["max_age_days", "max_bytes", "readonly"]
        assert validate_cache_options(None) == {}
        with pytest.raises(ConfigurationError):
            validate_cache_options([("max_bytes", 1)])
