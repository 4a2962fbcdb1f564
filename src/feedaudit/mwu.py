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
row i of a (k, n) and a (k, m) array is one test. It ranks blocks of
rows with array operations and returns, for every row, the result
that ``mann_whitney_u`` gives on that row, bit for bit;
``mann_whitney_u`` is its one-row case. The normal path is vectorised
over the block as well: U, the variance, sd and z are array
expressions, which round each step as Python floats do. erfc, exp and
z**3 stay in ``math``, one value at a time, because numpy's exp and
power differ from it in the last bit on some inputs; so the p-values
stay bit-identical to the per-row formula.

The ranking is zero-aware, because those samples are mostly zeros: at
30 monitors a group, about 91% of an amplification test's values are.
The rank kernel takes only the non-zero entries of a block of tests,
as (row, value, in sample A) triples, and sorts them. A row's z zeros
are one run whose doubled midrank, 2 * (negatives in the row) + z + 1,
and tie term z^3 - z are closed forms, and the row's positive entries
rank z places past its negatives. Dense (k, n) and (k, m) arrays reach
the kernel through an adapter that finds their non-zero entries; the
amplification report passes the entries of its exposure tables
directly, so it builds no (authors x monitors) matrix. Rank sums and
tie terms are the same exact integers as a dense sort of every value
gives, so every p-value is too. The normal path still returns p = 0
for completely separated samples, below the smallest p the test can
attain, 2 / C(n+m, n).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

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
# few (block x (n + m)) arrays however many tests a call holds, and its
# row numbers to 16 bits.
_BLOCK_ROWS = 1024

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class MannWhitneyResult(NamedTuple):
    statistic: float
    pvalue: float
    method: str


class _Ranks(NamedTuple):
    """Doubled midranks of a block of pooled rows, kept for the non-zero
    entries only; a row's zeros are one run whose rank is closed-form.

    Per row: ``doubled_sum_a``, the doubled rank sum of sample A;
    ``tie_terms``, sum(t^3 - t) over the runs of equal values; and the
    counts of ``negatives`` and ``zeros``. Row i's non-zero entries have
    the doubled midranks ``doubled[starts[i]:starts[i + 1]]``, in
    ascending order of value.
    """

    doubled_sum_a: np.ndarray
    tie_terms: np.ndarray
    doubled: np.ndarray
    starts: np.ndarray
    negatives: np.ndarray
    zeros: np.ndarray

    def sorted_doubled(self, i: int) -> tuple[int, ...]:
        """Row i's doubled midranks, all of them, in ascending order."""
        nonzero = self.doubled[self.starts[i] : self.starts[i + 1]].tolist()
        neg, z = int(self.negatives[i]), int(self.zeros[i])
        return (*nonzero[:neg], *repeat(2 * neg + z + 1, z), *nonzero[neg:])


def _rank_entries(row: np.ndarray, values: np.ndarray, in_a: np.ndarray, rows: int, n: int, m: int) -> _Ranks:
    """Rank the pooled rows of a block of ``rows`` tests (at most 2^15),
    each of ``n`` values in sample A and ``m`` in sample B, from their
    non-zero entries: entry j is the value ``values[j]`` of row
    ``row[j]`` (16-bit), in sample A where ``in_a[j]``. The values a row
    does not list are its zeros.

    The entries are sorted by value, then stably by row, so each row's
    entries end up in ascending order. The order within a run of equal
    values does not matter, since the run shares one midrank. A row
    with z zeros and g negative entries holds its zeros at sorted
    positions g .. g + z - 1, so they share the doubled midrank
    2g + z + 1 and add z^3 - z to the tie term; the row's positive
    entries sit z places further on. Doubling keeps tied midranks
    integral, so rank sums and tie terms are exact integers.
    """
    order = np.argsort(values)
    # A stable sort of 16-bit keys is a radix sort.
    order = order[np.argsort(row[order], kind="stable")]
    values, row, in_a = values[order], row[order], in_a[order]

    starts = np.zeros(rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=rows), out=starts[1:])
    negatives = np.bincount(row[values < 0.0], minlength=rows)
    zeros = (n + m) - np.diff(starts)
    zeros_a = n - np.bincount(row[in_a], minlength=rows)
    # Sorted position within the row: the negatives come first, then
    # the zeros, then the positives.
    pos = np.arange(len(values)) - starts[row]
    pos += np.where(pos >= negatives[row], zeros[row], 0)
    run_start = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=run_start[1:])
    run_start[1:] |= row[1:] != row[:-1]
    firsts = np.flatnonzero(run_start)
    run_len = np.diff(firsts, append=len(values))
    run = np.cumsum(run_start) - 1
    t = run_len[run]
    doubled = 2 * pos[firsts][run] + t + 1

    def row_sums(x: np.ndarray) -> np.ndarray:
        total = np.zeros(len(x) + 1, dtype=np.int64)
        np.cumsum(x, out=total[1:])
        return total[starts[1:]] - total[starts[:-1]]

    zero_rank = 2 * negatives + zeros + 1
    doubled_sum_a = row_sums(np.where(in_a, doubled, 0)) + zeros_a * zero_rank
    # Every member of a run of length t adds t^2 - 1, so the run adds t^3 - t.
    tie_terms = row_sums(t * t - 1) + zeros * zeros * zeros - zeros
    return _Ranks(doubled_sum_a, tie_terms, doubled, starts, negatives, zeros)


def _rank_rows(a: np.ndarray, b: np.ndarray) -> _Ranks:
    """Rank the pooled rows of the samples ``a`` (rows x n) and ``b``
    (rows x m), row i of both being one test; at most 2^15 rows. The
    dense form of ``_rank_entries``: it finds the non-zero entries.
    """
    rows, n = a.shape
    m = b.shape[1]
    # np.nonzero is several times faster on a mask than on floats.
    flat_a = np.flatnonzero(a != 0.0)
    flat_b = np.flatnonzero(b != 0.0)
    row = np.concatenate(((flat_a // n).astype(np.int16), (flat_b // m).astype(np.int16)))
    values = np.concatenate((a.ravel()[flat_a], b.ravel()[flat_b]))
    in_a = np.arange(len(values)) < len(flat_a)
    return _rank_entries(row, values, in_a, rows, n, m)


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
    through ``math`` one value at a time; see the module docstring.

    Heavy-zero rows repeat their (U_a, tie term) pair, so each distinct
    pair is computed once and its p-value gathered for every row.
    """
    order = np.lexsort((tie_terms, u_a))
    u_a, tie_terms = u_a[order], tie_terms[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (u_a[1:] != u_a[:-1]) | (tie_terms[1:] != tie_terms[:-1])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    u_a, tie_terms = u_a[new], tie_terms[new]
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
    return p[inverse]


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {_MODES}")


def _exact_feasible(n: int, m: int) -> bool:
    """Whether C(n + m, n) <= EXACT_LIMIT. The running product
    C(max + i, i), i = 1 .. min(n, m), grows with i, so it stops at the
    first term past the limit and never holds a big integer."""
    small, large = min(n, m), max(n, m)
    count = 1
    for i in range(1, small + 1):
        count = count * (large + i) // i
        if count > EXACT_LIMIT:
            return False
    return True


def _mann_whitney_arrays(
    samples_a: np.ndarray,
    samples_b: np.ndarray,
    mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise tests as arrays: the statistics, the p-values and which
    rows took the exact path. See ``mann_whitney_u_many``."""
    _check_mode(mode)
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
    blocks = (
        _rank_rows(a[start : start + _BLOCK_ROWS], b[start : start + _BLOCK_ROWS])
        for start in range(0, k, _BLOCK_ROWS)
    )
    return _ranked_tests(blocks, k, n, m, mode)


def _mann_whitney_entries(
    row: np.ndarray,
    values: np.ndarray,
    in_a: np.ndarray,
    k: int,
    n: int,
    m: int,
    mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_mann_whitney_arrays`` of k tests of n >= 1 values in sample A
    and m >= 1 in sample B, given by their non-zero entries in any
    order: entry j is the value ``values[j]`` of test ``row[j]``, in
    sample A where ``in_a[j]``. Each test's unlisted values are zeros.
    """
    _check_mode(mode)
    if not np.isfinite(values).all():
        raise DataError("samples must be finite")
    starts = range(0, k, _BLOCK_ROWS)
    # Block numbers in the smallest unsigned type that holds them, so
    # that the stable sort grouping the entries by block is a radix sort.
    block = (row // _BLOCK_ROWS).astype(np.min_scalar_type(len(starts)))
    order = np.argsort(block, kind="stable")
    ends = np.cumsum(np.bincount(block, minlength=len(starts))).tolist()

    def blocks() -> Iterator[_Ranks]:
        for start, low, high in zip(starts, [0, *ends], ends):
            take = order[low:high]
            row_in_block = (row[take] - start).astype(np.int16)
            yield _rank_entries(row_in_block, values[take], in_a[take], min(_BLOCK_ROWS, k - start), n, m)

    return _ranked_tests(blocks(), k, n, m, mode)


def _ranked_tests(
    blocks: Iterable[_Ranks], k: int, n: int, m: int, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The statistics, p-values and exact-path flags of k tests of n
    values against m, from the ranks of their consecutive blocks of
    ``_BLOCK_ROWS`` rows, which are ranked one at a time as they are
    drawn."""
    feasible = _exact_feasible(n, m)
    if mode == MODE_EXACT and k and not feasible:
        raise AnalysisError(
            f"exact mode infeasible: C({n + m}, {n}) exceeds {EXACT_LIMIT}"
        )
    exact_if_untied = mode == MODE_AUTO and min(n, m) <= _AUTO_EXACT_MAX and feasible
    doubled_total = (n + m) * (n + m + 1)

    u_a = np.empty(k)
    tie_terms = np.empty(k, dtype=np.int64)
    pvalues = np.empty(k)
    exact = np.full(k, mode == MODE_EXACT)
    for start, ranks in zip(range(0, k, _BLOCK_ROWS), blocks):
        stop = min(start + _BLOCK_ROWS, k)
        u_a[start:stop] = 0.5 * ranks.doubled_sum_a - 0.5 * n * (n + 1)
        tie_terms[start:stop] = ranks.tie_terms
        if exact_if_untied:
            exact[start:stop] = ranks.tie_terms == 0
        for i in np.flatnonzero(exact[start:stop]).tolist():
            doubled_sum_a = int(ranks.doubled_sum_a[i])
            smaller, observed = (
                (n, doubled_sum_a) if n <= m else (m, doubled_total - doubled_sum_a)
            )
            pvalues[start + i] = _exact_pvalue(ranks.sorted_doubled(i), smaller, observed)
    # The normal rows of every block at once: each distinct (U_a, tie
    # term) pair among them is computed once.
    pvalues[~exact] = _normal_pvalues(u_a[~exact], tie_terms[~exact], n, m)
    return np.minimum(u_a, n * m - u_a), pvalues, exact


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
    statistics, pvalues, exact = _mann_whitney_arrays(samples_a, samples_b, mode)
    methods = np.where(exact, MODE_EXACT, MODE_NORMAL).tolist()
    return tuple(map(MannWhitneyResult, statistics.tolist(), pvalues.tolist(), methods))


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
