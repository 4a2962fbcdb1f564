"""Two-sided Mann-Whitney U rank test.

Two modes. ``exact`` enumerates the null distribution of the rank sum
by dynamic programming over doubled midranks (doubling keeps tied
midranks integral), so it is correct under ties; it refuses inputs
where the subset count C(n+m, n) exceeds 10^7. ``normal`` uses the
tie-corrected Gaussian approximation with a continuity correction plus
an Edgeworth refinement for the fourth cumulant of U. On tie-free data
that keeps the approximation within 0.01 of the exact p-value even at
n = m = 8; the Edgeworth term uses the tie-free kurtosis, so under
ties the error can be larger. ``auto`` picks exact for small tie-free
samples and normal whenever the pooled sample has any tie. Heavy-zero
samples, such as per-author amplification exposures where a monitor
that never saw the author counts 0, therefore always take the normal
path; on such samples at n = m = 10, normal and exact p-values gave
opposite decisions at alpha = 0.05 in about 2.3% of cases.

The reported statistic is U = min(U_a, U_b); the two-sided p-value is
min(1, 2 * min(P(U_a <= u), P(U_a >= u))), which matches the usual
convention of doubling the smaller tail.

``mann_whitney_u_many`` runs many tests of equal sample sizes at once:
row i of a (k, n) and a (k, m) array is one test. It ranks whole blocks
of rows with array operations and returns, for every row, the result
that ``mann_whitney_u`` gives on that row, bit for bit;
``mann_whitney_u`` is its one-row case. The normal path is vectorised
over the block as well: U, the variance, sd and z are array
expressions, which round each step as Python floats do. erfc, exp and
z**3 stay in ``math``, one value at a time, because numpy's exp and
power differ from it in the last bit on some inputs; so the p-values
stay bit-identical to the per-row formula.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AnalysisError, ConfigError, DataError

MODE_AUTO = "auto"
MODE_EXACT = "exact"
MODE_NORMAL = "normal"
_MODES = (MODE_AUTO, MODE_EXACT, MODE_NORMAL)

# Exact mode enumerates C(n+m, n) assignments; refuse beyond this.
EXACT_LIMIT = 10_000_000
# Auto prefers exact only when the smaller sample is at most this size.
_AUTO_EXACT_MAX = 8
# Rows ranked together by the batched test. Bounds its temporaries to a
# few (block x (n + m)) arrays however many tests a call holds.
_BLOCK_ROWS = 256

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class MannWhitneyResult(NamedTuple):
    statistic: float
    pvalue: float
    method: str


def _rank_block(
    pooled: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank each row of ``pooled``, whose first ``n`` columns are sample A.

    Returns the doubled midranks of each row in ascending order, the
    doubled rank sum of sample A per row, and the tie term sum(t^3 - t)
    over each row's runs of equal values. Doubling keeps tied midranks
    integral, so all three are exact integers.
    """
    rows, big_n = pooled.shape
    order = np.argsort(pooled, axis=1, kind="stable")
    values = np.take_along_axis(pooled, order, axis=1)
    pos = np.arange(big_n)
    run_start = np.ones((rows, big_n), dtype=bool)
    np.not_equal(values[:, 1:], values[:, :-1], out=run_start[:, 1:])
    run_end = np.ones_like(run_start)
    run_end[:, :-1] = run_start[:, 1:]
    # Each position's run spans [first, last]: the latest run start at or
    # before it and the earliest run end at or after it.
    first = np.maximum.accumulate(np.where(run_start, pos, 0), axis=1)
    last_rev = np.where(run_end, pos, big_n - 1)[:, ::-1]
    last = np.minimum.accumulate(last_rev, axis=1)[:, ::-1]
    doubled = first + last + 2
    doubled_sum_a = np.where(order < n, doubled, 0).sum(axis=1)
    # Every member of a run of length t adds t^2 - 1, so the run adds t^3 - t.
    run_len = last - first + 1
    tie_terms = (run_len * run_len - 1).sum(axis=1)
    return doubled, doubled_sum_a, tie_terms


@lru_cache(maxsize=256)
def _rank_sum_counts(doubled: tuple[int, ...], k: int) -> tuple[np.ndarray, int]:
    """Null distribution of the doubled rank sum of a k-subset of ``doubled``.

    Returns (counts indexed by doubled rank sum, total subset count).
    Counting the smaller sample keeps every count at or below
    C(n+m, min(n, m)), which the feasibility gate caps at 10^7, so the
    float64 accumulators hold exact integers throughout.
    """
    max_sum = sum(doubled[-k:])
    dp = np.zeros((k + 1, max_sum + 1), dtype=np.float64)
    dp[0, 0] = 1.0
    for val in doubled:
        for kk in range(k, 0, -1):
            dp[kk, val:] += dp[kk - 1, : max_sum + 1 - val]
    counts = dp[k]
    counts.setflags(write=False)
    return counts, math.comb(len(doubled), k)


def _exact_pvalue(doubled: tuple[int, ...], k: int, observed: int) -> float:
    """Two-sided p-value of the doubled rank sum ``observed`` of a sample
    of size ``k`` among the sorted pooled doubled midranks ``doubled``.

    Callers pass the smaller sample; the two-sided p-value is invariant
    under swapping the samples.
    """
    counts, total = _rank_sum_counts(doubled, k)
    below = float(counts[: observed + 1].sum())
    above = total - below + float(counts[observed])
    p = 2.0 * min(below, above) / total
    return min(1.0, p)


def _normal_pvalues(u_a: np.ndarray, tie_terms: np.ndarray, n: int, m: int) -> np.ndarray:
    """Normal-approximation p-values for the U_a statistics ``u_a`` with
    tie terms ``tie_terms``, one per test. erfc, exp and the cube go
    through ``math`` one value at a time; see the module docstring."""
    big_n = n + m
    big_u = np.maximum(u_a, n * m - u_a)

    # Tie correction for the variance.
    var = (n * m / 12.0) * ((big_n + 1.0) - tie_terms / (big_n * (big_n - 1.0)))
    p = np.ones(len(var))  # every pooled value identical where var <= 0
    live = var > 0.0
    z = (big_u[live] - 0.5 * n * m - 0.5) / np.sqrt(var[live])
    # Excess kurtosis of U under the null (tie-free closed form); the
    # Edgeworth term corrects the platykurtic tails of the U lattice.
    g2 = -1.2 * (n * n + m * m + n * m + n + m) / (n * m * (big_n + 1.0))
    count = len(z)
    erfc = np.fromiter(map(math.erfc, (z / _SQRT2).tolist()), dtype=np.float64, count=count)
    cube = np.fromiter(map(pow, z.tolist(), repeat(3)), dtype=np.float64, count=count)
    gauss = np.fromiter(map(math.exp, (-0.5 * z * z).tolist()), dtype=np.float64, count=count)
    tail = 0.5 * erfc
    tail += (g2 / 24.0) * (cube - 3.0 * z) * gauss * _INV_SQRT_2PI
    tail = np.minimum(np.maximum(tail, 0.0), 1.0)
    p[live] = np.minimum(1.0, 2.0 * tail)
    return p


def mann_whitney_u_many(
    samples_a: np.ndarray,
    samples_b: np.ndarray,
    mode: str = MODE_AUTO,
) -> tuple[MannWhitneyResult, ...]:
    """Row-wise two-sided Mann-Whitney U tests.

    ``samples_a`` is a (k, n) array and ``samples_b`` a (k, m) array;
    row i of each is the i-th test. Returns k results, each equal to
    ``mann_whitney_u(samples_a[i], samples_b[i], mode)``. Exact mode
    raises AnalysisError when C(n+m, n) exceeds 10^7 and k > 0.
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {_MODES}")
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigError("sample arrays must be two-dimensional: tests x values")
    if len(a) != len(b):
        raise ConfigError(f"sample arrays hold {len(a)} and {len(b)} tests")
    k, n = a.shape
    m = b.shape[1]
    if n == 0 or m == 0:
        raise DataError("both samples must be non-empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("samples must be finite")

    feasible = math.comb(n + m, n) <= EXACT_LIMIT
    if mode == MODE_EXACT and k and not feasible:
        raise AnalysisError(
            f"exact mode infeasible: C({n + m}, {n}) exceeds {EXACT_LIMIT}"
        )
    exact_if_untied = mode == MODE_AUTO and min(n, m) <= _AUTO_EXACT_MAX and feasible
    doubled_total = (n + m) * (n + m + 1)

    results: list[MannWhitneyResult] = []
    for start in range(0, k, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        pooled = np.concatenate([a[start:stop], b[start:stop]], axis=1)
        doubled, doubled_sums_a, tie_terms = _rank_block(pooled, n)
        u_a = 0.5 * doubled_sums_a - 0.5 * n * (n + 1)
        if mode == MODE_EXACT:
            exact = np.ones(len(u_a), dtype=bool)
        else:
            exact = (tie_terms == 0) & exact_if_untied
        pvalues = np.empty(len(u_a))
        pvalues[~exact] = _normal_pvalues(u_a[~exact], tie_terms[~exact], n, m)
        for i in np.flatnonzero(exact).tolist():
            doubled_sum_a = int(doubled_sums_a[i])
            smaller, observed = (
                (n, doubled_sum_a) if n <= m else (m, doubled_total - doubled_sum_a)
            )
            pvalues[i] = _exact_pvalue(tuple(doubled[i].tolist()), smaller, observed)
        results.extend(
            map(
                MannWhitneyResult,
                np.minimum(u_a, n * m - u_a).tolist(),
                pvalues.tolist(),
                [MODE_EXACT if e else MODE_NORMAL for e in exact.tolist()],
            )
        )
    return tuple(results)


def mann_whitney_u(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    mode: str = MODE_AUTO,
) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test of ``sample_a`` vs ``sample_b``.

    Returns U = min(U_a, U_b) and the two-sided p-value. ``mode`` is
    "exact", "normal", or "auto". Exact mode raises AnalysisError when
    C(n+m, n) exceeds 10^7.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ConfigError("samples must be one-dimensional")
    return mann_whitney_u_many(a[np.newaxis], b[np.newaxis], mode)[0]
