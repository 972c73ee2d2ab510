"""Unit tests for the statistical hypothesis-test helpers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.analysis.hypothesis_tests as hypothesis_tests
from repro.analysis.hypothesis_tests import (
    KsResult,
    ks_two_sample,
    mann_whitney_auc,
)


class TestKsTwoSample:
    def test_same_distribution_not_rejected(self):
        rng = np.random.default_rng(0)
        a = rng.normal(5, 1, 400)
        b = rng.normal(5, 1, 400)
        result = ks_two_sample(a, b)
        assert result.indistinguishable_at(0.01)
        assert result.statistic < 0.15

    def test_shifted_distribution_rejected(self):
        rng = np.random.default_rng(1)
        a = rng.normal(5, 1, 400)
        b = rng.normal(7, 1, 400)
        result = ks_two_sample(a, b)
        assert not result.indistinguishable_at(0.01)
        assert result.p_value < 1e-6

    def test_statistic_bounds(self):
        result = ks_two_sample([1.0, 2.0], [10.0, 11.0])
        assert result.statistic == pytest.approx(1.0)
        result = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.statistic == pytest.approx(0.0)

    def test_sample_sizes_recorded(self):
        result = ks_two_sample([1.0] * 10, [1.0] * 20)
        assert result.n1 == 10 and result.n2 == 20

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_countermeasure_validation_scenario(self):
        """AlwaysDelay's disguised hits are distributionally identical to
        genuine misses: the KS test must not reject."""
        rng = np.random.default_rng(2)
        fetch_delays = 5 + 20 * rng.lognormal(0.5, 0.5, 300)
        genuine = fetch_delays + rng.normal(0, 0.5, 300)
        disguised = fetch_delays + rng.normal(0, 0.5, 300)
        assert ks_two_sample(genuine, disguised).indistinguishable_at(0.01)


class TestMannWhitneyAuc:
    def test_no_separation_is_half(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(0, 1, 2000)
        auc = mann_whitney_auc(samples, rng.normal(0, 1, 2000))
        assert auc == pytest.approx(0.5, abs=0.03)

    def test_full_separation_is_one(self):
        assert mann_whitney_auc([1.0, 2.0], [10.0, 20.0]) == 1.0

    def test_reversed_separation_is_zero(self):
        assert mann_whitney_auc([10.0, 20.0], [1.0, 2.0]) == 0.0

    def test_ties_count_half(self):
        assert mann_whitney_auc([5.0], [5.0]) == 0.5

    def test_matches_analytic_gaussian(self):
        """AUC for N(0,1) vs N(d,1) is Φ(d/√2)."""
        from math import erf, sqrt

        rng = np.random.default_rng(4)
        d = 1.5
        auc = mann_whitney_auc(
            rng.normal(0, 1, 20000), rng.normal(d, 1, 20000)
        )
        analytic = 0.5 * (1 + erf(d / sqrt(2) / sqrt(2)))
        assert auc == pytest.approx(analytic, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_auc([1.0], [])


class TestLazyScipy:
    def test_importing_analysis_does_not_import_scipy(self):
        """scipy costs ~1 s to import and only ks_two_sample uses it."""
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.analysis, repro.cli\n"
             "print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_scipy_and_fallback_paths(self, monkeypatch):
        rng = np.random.default_rng(4)
        a = rng.normal(5, 1, 300)
        b = rng.normal(5.3, 1, 250)
        with_scipy = ks_two_sample(a, b)
        scipy_stats = hypothesis_tests._scipy_stats()
        if scipy_stats is not None:
            reference = scipy_stats.ks_2samp(np.sort(a), np.sort(b))
            assert with_scipy.statistic == float(reference.statistic)
            assert with_scipy.p_value == float(reference.pvalue)
        monkeypatch.setattr(hypothesis_tests, "_scipy_stats", lambda: None)
        fallback = ks_two_sample(a, b)
        assert fallback.statistic == pytest.approx(with_scipy.statistic)
        assert (fallback.n1, fallback.n2) == (300, 250)
        assert 0.0 <= fallback.p_value <= 1.0
