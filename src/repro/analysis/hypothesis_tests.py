"""Statistical hypothesis tests for defense validation.

Bayes-success estimates answer "how well could an adversary do?"; these
tests answer the complementary question "is there statistically
detectable signal at all?".  Used to validate that a countermeasure's
disguised responses are drawn from (effectively) the same distribution as
genuine misses.

Kolmogorov–Smirnov machinery is implemented directly (two-sample statistic
and the asymptotic Kolmogorov distribution) so the module works without
scipy; when scipy is installed its exact small-sample p-value is used
instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@functools.lru_cache(maxsize=1)
def _scipy_stats():
    """``scipy.stats``, or None without scipy.

    Imported on first use: it costs about a second, and only
    :func:`ks_two_sample` needs it, so importing this package stays cheap.
    """
    try:  # pragma: no cover - environment-dependent
        from scipy import stats
    except ImportError:  # pragma: no cover
        return None
    return stats


@dataclass(frozen=True)
class KsResult:
    """Two-sample Kolmogorov–Smirnov test outcome."""

    statistic: float
    p_value: float
    n1: int
    n2: int

    def indistinguishable_at(self, alpha: float = 0.01) -> bool:
        """True iff the samples are NOT significantly different at α.

        Failing to reject is of course not proof of equality; the bench
        reports effect sizes (Bayes success) alongside.
        """
        return self.p_value > alpha


def _kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution (asymptotic)."""
    if x <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = (-1) ** (k - 1) * math.exp(-2.0 * (k * x) ** 2)
        total += term
        if abs(term) < 1e-12:
            break
    return max(0.0, min(1.0, 2.0 * total))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample KS test: are ``a`` and ``b`` from the same distribution?"""
    x = np.sort(np.asarray(a, dtype=float))
    y = np.sort(np.asarray(b, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValueError("both sample sets must be non-empty")
    scipy_stats = _scipy_stats()
    if scipy_stats is not None:
        result = scipy_stats.ks_2samp(x, y)
        return KsResult(
            statistic=float(result.statistic),
            p_value=float(result.pvalue),
            n1=int(x.size),
            n2=int(y.size),
        )
    # Manual D statistic + asymptotic p-value.
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    effective_n = math.sqrt(x.size * y.size / (x.size + y.size))
    p = _kolmogorov_sf((effective_n + 0.12 + 0.11 / effective_n) * d)
    return KsResult(statistic=d, p_value=p, n1=int(x.size), n2=int(y.size))


def mann_whitney_auc(a: Sequence[float], b: Sequence[float]) -> float:
    """P[X < Y] + ½P[X = Y] — the ROC AUC of 'a is smaller than b'.

    0.5 means an RTT-threshold adversary has no edge; 1.0 means class a
    (hits) is always faster than class b (misses).  Complements the
    binned Bayes-success estimate with a bin-free effect size.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("both sample sets must be non-empty")
    order = np.sort(y)
    less = np.searchsorted(order, x, side="left")
    less_equal = np.searchsorted(order, x, side="right")
    wins = (y.size - less_equal) + 0.5 * (less_equal - less)
    return float(np.mean(wins) / y.size)
