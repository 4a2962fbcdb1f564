"""Exposure inequality: Gini coefficient and Lorenz curves.

The Gini coefficient is computed with the sorted-rank identity
G = 2 * sum(i * x_(i)) / (n * sum(x)) - (n + 1) / n over ascending
x_(i), which is algebraically equal to the mean-absolute-difference
double sum and to 1 - 2 * AUC of the Lorenz curve below. Group-level
comparisons test the per-monitor Gini distributions of two groups with
the Mann-Whitney U test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AnalysisError, ConfigError, DataError
from .metrics import ExposureTable
from .model import GROUP_ORDER, GroupLabel
from .mwu import MODE_AUTO, mann_whitney_u

# numpy renamed trapz to trapezoid in 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _as_exposure_vector(values: Iterable[float]) -> np.ndarray:
    x = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                   dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise AnalysisError("gini requires a non-empty one-dimensional vector")
    if not np.isfinite(x).all():
        raise AnalysisError("gini requires finite values")
    if (x < 0).any():
        raise AnalysisError("gini is undefined for negative exposures")
    if x.sum() <= 0.0:
        raise AnalysisError("gini is undefined when all exposures are zero")
    return x


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative exposure vector, in [0, 1)."""
    x = np.sort(_as_exposure_vector(values))
    n = len(x)
    total = float(x.sum())
    weighted = float((np.arange(1, n + 1, dtype=np.float64) * x).sum())
    g = 2.0 * weighted / (n * total) - (n + 1.0) / n
    return g if g > 0.0 else 0.0


@dataclass(frozen=True)
class LorenzCurve:
    """Lorenz curve points (population share, cumulative exposure share).

    Starts at (0, 0), ends at (1, 1), convex and non-decreasing.
    """

    points: tuple[tuple[float, float], ...]

    @property
    def x(self) -> tuple[float, ...]:
        return self._axes()[0]

    @property
    def y(self) -> tuple[float, ...]:
        return self._axes()[1]

    def _axes(self) -> tuple[tuple[float, ...], ...]:
        return tuple(zip(*self.points)) or ((), ())


def lorenz(values: Iterable[float]) -> LorenzCurve:
    """Lorenz curve of a non-negative exposure vector."""
    x = np.sort(_as_exposure_vector(values))
    n = len(x)
    cum = np.cumsum(x) / x.sum()
    shares = np.arange(1, n + 1) / n
    return LorenzCurve(points=((0.0, 0.0), *zip(shares.tolist(), cum.tolist())))


def lorenz_auc(curve: LorenzCurve) -> float:
    """Trapezoidal area under a Lorenz curve; Gini = 1 - 2 * AUC."""
    xs = np.asarray(curve.x)
    ys = np.asarray(curve.y)
    return float(_trapezoid(ys, xs))


@dataclass(frozen=True)
class LorenzBand:
    """Pointwise mean and spread of several Lorenz curves on a common grid."""

    grid: tuple[float, ...]
    mean: tuple[float, ...]
    std: tuple[float, ...]


def average_lorenz(curves: Sequence[LorenzCurve], grid_size: int = 100) -> LorenzBand:
    """Average Lorenz curves by linear resampling onto a uniform grid.

    ``std`` is the population standard deviation across curves at each
    grid point.
    """
    if not curves:
        raise DataError("cannot average zero Lorenz curves")
    if grid_size < 2:
        raise ConfigError(f"grid_size must be >= 2, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size)
    resampled = np.stack(
        [np.interp(grid, np.asarray(c.x), np.asarray(c.y)) for c in curves]
    )
    return LorenzBand(
        grid=tuple(float(v) for v in grid),
        mean=tuple(float(v) for v in resampled.mean(axis=0)),
        std=tuple(float(v) for v in resampled.std(axis=0)),
    )


@dataclass(frozen=True)
class GiniComparison:
    """Mann-Whitney comparison of two groups' per-monitor Gini values."""

    group_a: str
    group_b: str
    statistic: float
    pvalue: float
    significant: bool
    method: str


@dataclass(frozen=True)
class GiniReport:
    """Per-group Gini distributions plus all pairwise comparisons."""

    per_group: Mapping[str, tuple[float, ...]]
    comparisons: tuple[GiniComparison, ...]
    alpha: float

    def medians(self) -> dict[str, float]:
        return {g: float(np.median(v)) for g, v in self.per_group.items()}


def _group_sort_key(group: object) -> tuple[int, str]:
    try:
        return (GROUP_ORDER.index(GroupLabel(str(group))), str(group))
    except ValueError:
        return (len(GROUP_ORDER), str(group))


def group_gini_distribution(
    tables_by_group: Mapping[object, Sequence[ExposureTable]],
    alpha: float = 0.001,
    mode: str = MODE_AUTO,
) -> GiniReport:
    """Per-monitor Gini values by group, with pairwise rank tests.

    Each monitor's Gini is computed over the exposures of the authors
    that appear in its table (a roster-free definition: authors with no
    appearances are not padded in as zeros). Every group needs at least
    two monitors.
    """
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if not tables_by_group:
        raise DataError("no groups to compare")
    per_group: dict[str, tuple[float, ...]] = {}
    for key in sorted(tables_by_group, key=_group_sort_key):
        tables = tables_by_group[key]
        if len(tables) < 2:
            raise DataError(
                f"group {key!s} has {len(tables)} monitor(s); need at least 2"
            )
        per_group[str(key)] = tuple(
            gini(list(t.entries.values())) for t in tables
        )
    comparisons = []
    for ga, gb in combinations(per_group, 2):
        res = mann_whitney_u(per_group[ga], per_group[gb], mode=mode)
        comparisons.append(
            GiniComparison(
                group_a=ga,
                group_b=gb,
                statistic=res.statistic,
                pvalue=res.pvalue,
                significant=res.pvalue < alpha,
                method=res.method,
            )
        )
    return GiniReport(per_group=per_group, comparisons=tuple(comparisons), alpha=alpha)
