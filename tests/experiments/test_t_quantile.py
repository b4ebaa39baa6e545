"""The standard-library Student-t quantile behind every confidence interval.

:mod:`repro.experiments.stats` computes critical values without scipy;
these tests pin it against ``scipy.stats.t.ppf`` where scipy is
installed, against closed forms where none is needed, and check that
the runtime import path no longer loads scipy at all.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from statistics import NormalDist

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.experiments import stats
from repro.experiments.stats import _t_critical, _t_quantile

#: Confidence levels spanning the supported range (0.5 - 0.999).
CONFIDENCES = [0.5 + 0.499 * i / 40 for i in range(41)]


class TestAgainstScipy:
    def test_matches_scipy_over_df_1_to_500(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        worst = 0.0
        for df in range(1, 501):
            levels = [(1 + confidence) / 2 for confidence in CONFIDENCES]
            for p, reference in zip(levels, scipy_stats.t.ppf(levels, df)):
                error = abs(_t_quantile(p, df) - reference) / reference
                worst = max(worst, error)
        assert worst <= 1e-12

    def test_expansion_range_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in (stats._EXPANSION_DF, stats._EXPANSION_DF + 1, 10**4, 10**6):
            for confidence in (0.5, 0.9, 0.95, 0.99, 0.999):
                p = (1 + confidence) / 2
                reference = float(scipy_stats.t.ppf(p, df))
                assert _t_quantile(p, df) == pytest.approx(reference, rel=1e-12)


class TestClosedForms:
    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_one_degree_of_freedom_is_cauchy(self, confidence):
        p = (1 + confidence) / 2
        expected = math.tan(math.pi * (p - 0.5))
        assert _t_quantile(p, 1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("confidence", CONFIDENCES)
    def test_two_degrees_of_freedom(self, confidence):
        p = (1 + confidence) / 2
        expected = (2 * p - 1) / math.sqrt(2 * p * (1 - p))
        assert _t_quantile(p, 2) == pytest.approx(expected, rel=1e-12)

    def test_median_and_symmetry(self):
        assert _t_quantile(0.5, 7) == 0.0
        assert _t_quantile(0.1, 7) == -_t_quantile(0.9, 7)

    def test_known_textbook_value(self):
        assert _t_critical(0.95, 3) == pytest.approx(3.182446305284263, rel=1e-12)


class TestProperties:
    @given(
        df=st.integers(min_value=1, max_value=10**6),
        p=st.floats(min_value=0.5, max_value=0.99),
        gap=st.floats(min_value=1e-6, max_value=0.009),
    )
    def test_monotone_in_p(self, df, p, gap):
        assert _t_quantile(p, df) < _t_quantile(p + gap, df)

    @given(
        dfs=st.lists(
            st.integers(min_value=1, max_value=10**6), min_size=2, max_size=2, unique=True
        ).map(sorted),
        confidence=st.floats(min_value=0.5, max_value=0.999),
    )
    def test_decreasing_in_df(self, dfs, confidence):
        p = (1 + confidence) / 2
        fewer, more = dfs
        assert _t_quantile(p, fewer) >= _t_quantile(p, more)

    @given(confidence=st.floats(min_value=0.5, max_value=0.999))
    def test_approaches_the_normal_quantile(self, confidence):
        p = (1 + confidence) / 2
        z = NormalDist().inv_cdf(p)
        t = _t_quantile(p, 10**6)
        # t = z + (z^3 + z) / (4 df) + O(df^-2), from above.
        assert z <= t
        assert t - z == pytest.approx((z**3 + z) / 4e6, rel=1e-4)


class TestMemo:
    def test_critical_values_are_memoized_and_bounded(self):
        _t_critical.cache_clear()
        first = _t_critical(0.95, 2)
        assert _t_critical(0.95, 2) == first
        info = _t_critical.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize is not None


def test_runtime_imports_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "import repro, repro.experiments.cli, repro.service.app, "
        "repro.experiments.worker\n"
        "loaded = sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(loaded)\n"
        "sys.exit(1 if loaded else 0)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(repro.__file__)), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
