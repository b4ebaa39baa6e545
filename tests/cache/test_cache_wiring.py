"""Cache wiring: StudySpec execution keys and the CLI surface.

``execution.cache`` / ``execution.cache_options`` follow the transport
keys' contract — declarative, strictly validated at load time,
round-tripping through spec files — and the CLI exposes the cache as
``run --cache DIR`` (with the greppable hit/computed summary the CI
smoke asserts) plus the ``cache stats|gc|verify`` maintenance
subcommand.
"""

from __future__ import annotations

import json

import pytest

from repro.cache.store import CellCache
from repro.cache.transport import CachedTransport
from repro.errors import ConfigurationError
from repro.experiments.cli import build_parser, main
from repro.experiments.parallel import SerialExecutor
from repro.experiments.spec import StudySpec


def make_spec(**overrides) -> StudySpec:
    """A small three-cell grid spec."""
    kwargs = dict(
        name="wiring",
        zeta_targets=(16.0,),
        phi_maxes=(864.0,),
        epochs=1,
        seed=1,
    )
    kwargs.update(overrides)
    return StudySpec(**kwargs)


class TestSpecWiring:
    def test_cache_keys_round_trip_through_files(self, tmp_path):
        spec = make_spec(
            cache=str(tmp_path / "cc"), cache_options={"readonly": True}
        )
        path = tmp_path / "spec.json"
        spec.save(str(path))
        document = json.loads(path.read_text())
        assert document["execution"]["cache"] == str(tmp_path / "cc")
        assert document["execution"]["cache_options"] == {"readonly": True}
        loaded = StudySpec.load(str(path))
        assert loaded.cache == spec.cache
        assert loaded.cache_options == {"readonly": True}

    def test_default_is_cacheless(self):
        spec = make_spec()
        assert spec.cache is None
        assert dict(spec.cache_options) == {}
        assert spec.to_dict()["execution"]["cache"] is None

    def test_non_string_cache_rejected(self):
        with pytest.raises(ConfigurationError, match="cache-directory path"):
            make_spec(cache=123)
        with pytest.raises(ConfigurationError, match="cache-directory path"):
            make_spec(cache="")

    def test_unknown_cache_option_rejected_at_load(self):
        with pytest.raises(
            ConfigurationError, match="execution.cache_options"
        ):
            make_spec(cache="/tmp/cc", cache_options={"max_byte": 1})

    def test_set_override_reaches_the_cache_key(self, tmp_path):
        spec = make_spec().with_overrides(
            {"execution.cache": str(tmp_path / "cc")}
        )
        assert spec.cache == str(tmp_path / "cc")

    def test_build_transport_decorates_cached_specs_only(self, tmp_path):
        spec = make_spec(cache=str(tmp_path / "cc"))
        transport = spec.build_transport()
        assert isinstance(transport, CachedTransport)
        # Plain serial is a real transport too, left undecorated.
        assert isinstance(make_spec().build_transport(), SerialExecutor)


class TestCliRun:
    def spec_path(self, tmp_path) -> str:
        path = tmp_path / "study.json"
        make_spec().save(str(path))
        return str(path)

    def test_cache_flag_prints_hit_summary_and_cached_markers(
        self, tmp_path, capsys
    ):
        path = self.spec_path(tmp_path)
        cache_dir = str(tmp_path / "cc")
        assert main(["run", "--spec", path, "--cache", cache_dir,
                     "--no-progress"]) == 0
        cold = capsys.readouterr().out
        assert "cache: 0 hit(s), 3 computed" in cold
        assert main(["run", "--spec", path, "--cache", cache_dir]) == 0
        warm = capsys.readouterr().out
        assert "cache: 3 hit(s), 0 computed" in warm
        assert warm.count("(cached)") == 3

    def test_no_cache_no_summary_line(self, tmp_path, capsys):
        assert main(["run", "--spec", self.spec_path(tmp_path),
                     "--no-progress"]) == 0
        assert "cache:" not in capsys.readouterr().out

    def test_warm_artifacts_are_byte_identical(self, tmp_path, capsys):
        path = self.spec_path(tmp_path)
        cache_dir = str(tmp_path / "cc")
        out = tmp_path / "artifact.json"
        argv = ["run", "--spec", path, "--cache", cache_dir,
                "--out", str(out), "--no-progress"]
        assert main(argv) == 0
        cold_bytes = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == cold_bytes
        capsys.readouterr()


class TestCliCacheSubcommand:
    def warm_cache(self, tmp_path, capsys) -> str:
        path = tmp_path / "study.json"
        make_spec().save(str(path))
        cache_dir = str(tmp_path / "cc")
        assert main(["run", "--spec", str(path), "--cache", cache_dir,
                     "--no-progress"]) == 0
        capsys.readouterr()
        return cache_dir

    def test_stats_counts_entries(self, tmp_path, capsys):
        cache_dir = self.warm_cache(tmp_path, capsys)
        assert main(["cache", "stats", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "3 entr(ies)" in out and "schema v" in out

    def test_verify_reports_clean_and_corrupt(self, tmp_path, capsys):
        cache_dir = self.warm_cache(tmp_path, capsys)
        assert main(["cache", "verify", cache_dir]) == 0
        assert "3/3 entr(ies) ok" in capsys.readouterr().out
        cache = CellCache(cache_dir)
        victim = cache.keys()[0]
        with open(cache._entry_path(victim), "w") as handle:
            handle.write("garbage")
        with pytest.warns(Warning):
            assert main(["cache", "verify", cache_dir]) == 1
        assert "1 corrupt entr(ies) removed" in capsys.readouterr().out

    def test_gc_requires_a_bound(self, tmp_path, capsys):
        cache_dir = self.warm_cache(tmp_path, capsys)
        assert main(["cache", "gc", cache_dir]) == 2
        assert "needs" in capsys.readouterr().err
        assert main(["cache", "gc", cache_dir, "--max-age-days", "30"]) == 0
        assert "removed 0 entr(ies)" in capsys.readouterr().out
        assert main(["cache", "gc", cache_dir, "--max-bytes", "1"]) == 0
        assert "kept 0" in capsys.readouterr().out
        assert CellCache(cache_dir).keys() == []

    @pytest.mark.parametrize(
        "flags",
        [
            ["--max-age-days", "-1"],
            ["--max-age-days", "0"],
            ["--max-age-days", "nan"],
            ["--max-age-days", "inf"],
            ["--max-bytes", "-5"],
            ["--max-bytes", "0"],
            ["--max-bytes", "1000", "--max-age-days", "-1"],
        ],
    )
    def test_gc_rejects_bad_bounds_and_keeps_every_entry(
        self, tmp_path, capsys, flags
    ):
        cache_dir = self.warm_cache(tmp_path, capsys)
        assert main(["cache", "gc", cache_dir, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cache gc.max_")
        assert len(CellCache(cache_dir).keys()) == 3

    @pytest.mark.parametrize(
        "command", [["stats"], ["gc", "--max-bytes", "1"], ["verify"]]
    )
    def test_non_cache_directory_is_an_error(self, tmp_path, capsys, command):
        missing = tmp_path / "not-a-cache"
        plain = tmp_path / "plain"
        plain.mkdir()
        name, *flags = command
        for path in (missing, plain):
            assert main(["cache", name, str(path), *flags]) == 2
            assert "is not a cell cache" in capsys.readouterr().err
        assert not missing.exists()
        assert list(plain.iterdir()) == []


class TestServeFlags:
    def test_serve_parser_accepts_cache_flags(self):
        args = build_parser().parse_args(
            ["serve", "--store", "/tmp/store", "--cache", "/tmp/cc",
             "--cache-option", "readonly=true",
             "--cache-option", "max_bytes=1000"]
        )
        assert args.cache == "/tmp/cc"
        assert dict(args.cache_options) == {
            "readonly": True, "max_bytes": 1000,
        }
