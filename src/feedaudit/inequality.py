"""Exposure inequality: Gini coefficient and Lorenz curves.

The Gini coefficient is computed with the sorted-rank identity
G = 2 * sum(i * x_(i)) / (n * sum(x)) - (n + 1) / n over ascending
x_(i), which is algebraically equal to the mean-absolute-difference
double sum and to 1 - 2 * AUC of the Lorenz curve below. Group-level
comparisons test the per-monitor Gini distributions of two groups with
the Mann-Whitney U test. Lorenz curves stay float64 arrays from
:func:`lorenz` through :func:`average_lorenz` and :func:`lorenz_auc`;
their tuples of Python floats are built only for callers that read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AnalysisError, ConfigError, DataError
from .metrics import ExposureTable, _exposures
from .model import GROUP_ORDER, GroupLabel
from .mwu import MODE_AUTO, mann_whitney_u

# numpy renamed trapz to trapezoid in 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz
# Sums of exposures below which neither a sum nor its rounding can
# overflow float64, so they need no check.
_SUM_LIMIT = float(np.finfo(np.float64).max) / 4


def _sorted_exposures(values: Iterable[float]) -> np.ndarray:
    """``values`` as a float64 vector in ascending order, checked to be
    non-empty, one-dimensional, finite, non-negative and not all zero.

    The checks after the sort read its ends only: a -inf or a negative
    value sorts first, a +inf or NaN last.
    """
    x = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                   dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        raise AnalysisError("gini requires a non-empty one-dimensional vector")
    x = np.sort(x)
    low, high = float(x[0]), float(x[-1])
    if not (math.isfinite(low) and math.isfinite(high)):
        raise AnalysisError("gini requires finite values")
    if low < 0.0:
        raise AnalysisError("gini is undefined for negative exposures")
    if high <= 0.0:
        raise AnalysisError("gini is undefined when all exposures are zero")
    return x


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative exposure vector, in [0, 1)."""
    x = _sorted_exposures(values)
    n = len(x)
    ranks = np.arange(1, n + 1, dtype=np.float64)

    def terms(x: np.ndarray) -> tuple[float, float]:
        """2 * sum(i * x_(i)) and n * sum(x), at most n * (n + 1) * max(x)."""
        return 2.0 * float((ranks * x).sum()), n * float(x.sum())

    if float(x[-1]) * n * (n + 1.0) > _SUM_LIMIT:
        with np.errstate(over="ignore"):
            numerator, denominator = terms(x)
        if not (math.isfinite(numerator) and math.isfinite(denominator)):
            # Past the float64 range; the ratio does not change with the scale.
            x = x / x[-1]
    numerator, denominator = terms(x)
    g = numerator / denominator - (n + 1.0) / n
    return g if g > 0.0 else 0.0


@dataclass(frozen=True)
class LorenzCurve:
    """Lorenz curve as its two axes: population shares ``x`` and
    cumulative exposure shares ``y``.

    Starts at (0, 0), ends at (1, 1), convex and non-decreasing.

    A curve from :func:`lorenz` holds its axes as two read-only float64
    arrays and builds the tuples ``x`` and ``y`` on their first read;
    :func:`average_lorenz` and :func:`lorenz_auc` read the arrays and
    build none. In equality, hash, repr, ``dataclasses`` functions and
    pickle it is the curve built by hand from the same tuples.
    """

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __getattr__(self, name: str) -> tuple[float, ...]:
        # Reached only for attributes not set: the axes of a curve from
        # lorenz before their first read, and names the curve lacks.
        axes = self.__dict__.get("_arrays")
        if axes is None or name not in ("x", "y"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = tuple(axes[name == "y"].tolist())
        object.__setattr__(self, name, value)
        return value

    def __reduce__(self) -> tuple:
        # Pickled as the hand-built curve, without the arrays.
        return LorenzCurve, (self.x, self.y)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        """The curve as (population share, exposure share) pairs."""
        return tuple(zip(self.x, self.y))


def _axes(curve: LorenzCurve) -> tuple[np.ndarray, np.ndarray]:
    """The axes of ``curve`` as float64 arrays: the arrays of a curve
    from :func:`lorenz`, or a hand-built curve's tuples converted."""
    axes = getattr(curve, "_arrays", None)
    if axes is None:
        # np.fromiter reads a tuple of floats faster than np.asarray,
        # which first discovers the tuple's shape and dtype.
        axes = tuple(np.fromiter(v, np.float64, len(v)) for v in (curve.x, curve.y))
    return axes


def lorenz(values: Iterable[float]) -> LorenzCurve:
    """Lorenz curve of a non-negative exposure vector, backed by arrays
    (see :class:`LorenzCurve`)."""
    x = _sorted_exposures(values)
    n = len(x)
    if float(x[-1]) * n > _SUM_LIMIT:  # the sums are at most n * max(x)
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.cumsum(x)[-1]) and np.isfinite(x.sum())
        if not finite:
            # Past the float64 range; the shares do not change with the scale.
            x = x / x[-1]
    shares = np.arange(n + 1) / n
    cum = np.concatenate(((0.0,), np.cumsum(x) / x.sum()))
    shares.flags.writeable = cum.flags.writeable = False
    curve = object.__new__(LorenzCurve)
    object.__setattr__(curve, "_arrays", (shares, cum))
    return curve


def lorenz_auc(curve: LorenzCurve) -> float:
    """Trapezoidal area under a Lorenz curve; Gini = 1 - 2 * AUC."""
    xs, ys = _axes(curve)
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
    resampled = np.stack([np.interp(grid, *_axes(c)) for c in curves])
    return LorenzBand(
        grid=tuple(grid.tolist()),
        mean=tuple(resampled.mean(axis=0).tolist()),
        std=tuple(resampled.std(axis=0).tolist()),
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
        # np.median's value, taken by hand: on numpy 2, np.median
        # imports numpy.ma on first use.
        out = {}
        for g, v in self.per_group.items():
            s, mid = sorted(v), len(v) // 2
            out[g] = float(s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2)
        return out


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
        per_group[str(key)] = tuple(gini(_exposures(t)) for t in tables)
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
