"""Mann-Whitney U against an independent full-enumeration oracle.

The oracle ranks the pooled sample with midranks, then walks every
C(n+m, n) assignment of pooled positions to sample A via
itertools.combinations. It shares no code with the implementation under
test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from feedaudit import (
    AnalysisError,
    ConfigError,
    DataError,
    MODE_AUTO,
    MODE_EXACT,
    MODE_NORMAL,
    mann_whitney_u,
    mann_whitney_u_many,
)


def midranks(pooled):
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def oracle_exact(sample_a, sample_b):
    """Two-sided exact p-value by full enumeration, as a Fraction.

    p = 2 * min(P(U_a <= u_a), P(U_a >= u_a)) over all labelings,
    capped at 1; the reported statistic is min(U_a, U_b).
    """
    n, m = len(sample_a), len(sample_b)
    pooled = list(sample_a) + list(sample_b)
    ranks = midranks(pooled)
    r_a = sum(ranks[:n])
    u_a = r_a - n * (n + 1) / 2

    total = math.comb(n + m, n)
    at_or_below = 0
    at_or_above = 0
    for positions in itertools.combinations(range(n + m), n):
        r = sum(ranks[p] for p in positions)
        u1 = r - n * (n + 1) / 2
        if u1 <= u_a + 1e-9:
            at_or_below += 1
        if u1 >= u_a - 1e-9:
            at_or_above += 1
    p = 2 * Fraction(min(at_or_below, at_or_above), total)
    return min(u_a, n * m - u_a), min(p, Fraction(1))


def reference_normal(sample_a, sample_b):
    """Statistic and tie-corrected normal p-value with Edgeworth term,
    row by row with Python floats and ``math``.

    Loop midranks and np.unique tie counts, in the same arithmetic order
    as the implementation, so results must agree bit for bit.
    """
    n, m = len(sample_a), len(sample_b)
    big_n = n + m
    ranks = midranks(list(sample_a) + list(sample_b))
    u_a = float(sum(ranks[:n])) - 0.5 * n * (n + 1)
    statistic = min(u_a, n * m - u_a)
    big_u = max(u_a, n * m - u_a)
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(((tie_counts**3) - tie_counts).sum())
    var = (n * m / 12.0) * ((big_n + 1.0) - tie_term / (big_n * (big_n - 1.0)))
    if var <= 0.0:
        return statistic, 1.0
    z = (big_u - 0.5 * n * m - 0.5) / math.sqrt(var)
    g2 = -1.2 * (n * n + m * m + n * m + n + m) / (n * m * (big_n + 1.0))
    tail = 0.5 * math.erfc(z / math.sqrt(2.0))
    tail += (g2 / 24.0) * (z**3 - 3.0 * z) * math.exp(-0.5 * z * z) * (
        1.0 / math.sqrt(2.0 * math.pi)
    )
    return statistic, min(1.0, 2.0 * min(max(tail, 0.0), 1.0))


def mixed_rows(seed, k, n, m):
    """(k, n) and (k, m) samples cycling through heavy-zero tied rows,
    tie-free rows and rows whose pooled values are all identical."""
    rng = np.random.default_rng(seed)
    a, b = np.empty((k, n)), np.empty((k, m))
    for i in range(k):
        kind = i % 3
        if kind == 0:
            row = np.where(rng.random(n + m) < 0.75, 0.0, rng.integers(1, 4, n + m))
        elif kind == 1:
            row = rng.permutation(n + m) + rng.normal(scale=0.01)
        else:
            row = np.full(n + m, 2.5)
        a[i], b[i] = row[:n], row[n:]
    return a, b


class TestFrozenCases:
    def test_separated_pairs(self):
        res = mann_whitney_u([1, 2], [3, 4], mode=MODE_EXACT)
        assert res.statistic == 0.0
        assert res.pvalue == pytest.approx(1 / 3, abs=1e-15)

    def test_textbook_five_by_five(self):
        res = mann_whitney_u([19, 22, 25, 26, 29], [15, 16, 18, 20, 21], mode=MODE_EXACT)
        assert res.statistic == 2.0
        assert res.pvalue == pytest.approx(0.031746031746031744, abs=1e-15)

    def test_tied_blocks(self):
        res = mann_whitney_u([1, 1, 2, 2], [3, 3, 4, 4], mode=MODE_EXACT)
        assert res.pvalue == pytest.approx(2 / 70, abs=1e-15)

    def test_identical_samples(self):
        exact = mann_whitney_u([5, 5, 5], [5, 5, 5], mode=MODE_EXACT)
        approx = mann_whitney_u([5.0] * 4, [5.0] * 4, mode=MODE_NORMAL)
        assert exact.pvalue == 1.0
        assert approx.pvalue == 1.0


class TestAgainstOracle:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 5), (3, 3), (3, 6), (4, 4), (5, 5)])
    def test_no_ties_random(self, n, m):
        rng = np.random.default_rng(100 + 10 * n + m)
        for _ in range(8):
            a = rng.normal(size=n).tolist()
            b = rng.normal(size=m).tolist()
            u_exp, p_exp = oracle_exact(a, b)
            res = mann_whitney_u(a, b, mode=MODE_EXACT)
            assert res.statistic == pytest.approx(u_exp, abs=1e-9)
            assert res.pvalue == pytest.approx(float(p_exp), abs=1e-12)

    @pytest.mark.parametrize("n,m", [(3, 3), (4, 4), (4, 6), (5, 5)])
    def test_with_ties_random(self, n, m):
        rng = np.random.default_rng(200 + 10 * n + m)
        for _ in range(8):
            a = rng.integers(0, 4, size=n).tolist()
            b = rng.integers(0, 4, size=m).tolist()
            if len(set(a) | set(b)) == 1:
                continue
            u_exp, p_exp = oracle_exact(a, b)
            res = mann_whitney_u(a, b, mode=MODE_EXACT)
            assert res.statistic == pytest.approx(u_exp, abs=1e-9)
            assert res.pvalue == pytest.approx(float(p_exp), abs=1e-12)

    def test_auto_matches_exact_when_small(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=6).tolist()
        b = rng.normal(size=8).tolist()
        assert mann_whitney_u(a, b).pvalue == mann_whitney_u(a, b, mode=MODE_EXACT).pvalue
        assert mann_whitney_u(a, b).method == "exact"

    def test_auto_uses_normal_for_ties_or_size(self):
        assert mann_whitney_u([1, 1, 2], [2, 3, 4]).method == "normal"
        rng = np.random.default_rng(8)
        a = rng.normal(size=9).tolist()
        b = rng.normal(size=9).tolist()
        assert mann_whitney_u(a, b).method == "normal"


class TestNormalApproximation:
    def test_close_to_exact_at_eight(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(25):
            a = rng.normal(size=8).tolist()
            b = rng.normal(size=8).tolist()
            exact = mann_whitney_u(a, b, mode=MODE_EXACT).pvalue
            approx = mann_whitney_u(a, b, mode=MODE_NORMAL).pvalue
            worst = max(worst, abs(exact - approx))
        assert worst < 0.01

    def test_shifted_samples_reject(self):
        rng = np.random.default_rng(4)
        a = (rng.normal(size=30) + 3.0).tolist()
        b = rng.normal(size=30).tolist()
        assert mann_whitney_u(a, b, mode=MODE_NORMAL).pvalue < 1e-6

    def test_probability_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=rng.integers(2, 20)).tolist()
            b = rng.normal(size=rng.integers(2, 20)).tolist()
            p = mann_whitney_u(a, b, mode=MODE_NORMAL).pvalue
            assert 0.0 <= p <= 1.0


class TestBatched:
    # k = 600 spans three blocks of the batched kernel.
    @pytest.mark.parametrize("mode", [MODE_AUTO, MODE_EXACT, MODE_NORMAL])
    @pytest.mark.parametrize("n,m,k", [(6, 9, 600), (9, 6, 7), (4, 4, 1)])
    def test_rows_equal_single_test(self, mode, n, m, k):
        a, b = mixed_rows(10 * n + m, k, n, m)
        results = mann_whitney_u_many(a, b, mode=mode)
        assert len(results) == k
        methods = set()
        for i, res in enumerate(results):
            single = mann_whitney_u(a[i].tolist(), b[i].tolist(), mode=mode)
            assert res.statistic == single.statistic
            assert res.pvalue == single.pvalue
            assert res.method == single.method
            methods.add(res.method)
        if mode == MODE_AUTO and k > 1:
            assert methods == {MODE_EXACT, MODE_NORMAL}
        if k > 2:
            assert any(res.pvalue == 1.0 for res in results[2::3])

    @pytest.mark.parametrize("mode", [MODE_AUTO, MODE_NORMAL])
    def test_large_rows_equal_reference(self, mode):
        a, b = mixed_rows(11, 600, 30, 25)
        for i, res in enumerate(mann_whitney_u_many(a, b, mode=mode)):
            assert res == mann_whitney_u(a[i].tolist(), b[i].tolist(), mode=mode)
            assert res.method == MODE_NORMAL
            assert res.pvalue == reference_normal(a[i].tolist(), b[i].tolist())[1]

    def test_normal_path_bitwise(self):
        # Heavy-zero rows whose two samples have their own zero share
        # give many distinct z values, large ones too, where the
        # Edgeworth term weighs most: enough that math.exp or z**3
        # swapped for numpy's exp or power shows. Every 97th row is
        # all-equal (variance 0, p = 1). 10,240 rows span 40 blocks.
        rng = np.random.default_rng(2024)
        k, n, m = 10_240, 30, 25
        zero_share = np.repeat(rng.uniform(0.05, 0.97, size=(k, 2)), [n, m], axis=1)
        pooled = np.where(rng.random((k, n + m)) < zero_share, 0.0, rng.exponential(size=(k, n + m)))
        pooled[::97] = 1.5
        a, b = pooled[:, :n], pooled[:, n:]
        results = mann_whitney_u_many(a, b, mode=MODE_AUTO)
        assert len(results) == k
        for i, res in enumerate(results):
            statistic, pvalue = reference_normal(a[i].tolist(), b[i].tolist())
            assert res.method == MODE_NORMAL
            assert float.hex(res.statistic) == float.hex(statistic)
            assert float.hex(res.pvalue) == float.hex(pvalue), i
        assert all(res.pvalue == 1.0 for res in results[::97])

    def test_auto_mixes_exact_and_normal_rows(self):
        # n <= 8: auto takes the exact path on tie-free rows and the
        # normal path on tied ones, across three blocks.
        a, b = mixed_rows(13, 600, 4, 5)
        results = mann_whitney_u_many(a, b, mode=MODE_AUTO)
        for i, res in enumerate(results):
            if i % 3 == 1:
                statistic, pvalue = oracle_exact(a[i].tolist(), b[i].tolist())
                assert res.method == MODE_EXACT
                pvalue = float(pvalue)
            else:
                statistic, pvalue = reference_normal(a[i].tolist(), b[i].tolist())
                assert res.method == MODE_NORMAL
            assert float.hex(res.statistic) == float.hex(statistic)
            assert float.hex(res.pvalue) == float.hex(pvalue), i

    def test_empty_batch(self):
        empty = np.empty((0, 15))
        assert mann_whitney_u_many(empty, empty, MODE_EXACT) == ()

    def test_shape_errors(self):
        with pytest.raises(ConfigError):
            mann_whitney_u_many(np.zeros((3, 4)), np.zeros((2, 4)))
        with pytest.raises(ConfigError):
            mann_whitney_u_many(np.zeros(4), np.zeros(4))
        with pytest.raises(ConfigError):
            mann_whitney_u_many(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
        with pytest.raises(ConfigError):
            mann_whitney_u_many(np.zeros((2, 4)), np.zeros((2, 4)), mode="bootstrap")

    def test_data_errors(self):
        with pytest.raises(DataError):
            mann_whitney_u_many(np.zeros((2, 0)), np.zeros((2, 3)))
        with pytest.raises(DataError):
            mann_whitney_u_many(np.zeros((2, 3)), np.zeros((2, 0)))
        bad = np.zeros((300, 3))
        bad[299, 1] = np.nan
        with pytest.raises(DataError):
            mann_whitney_u_many(np.zeros((300, 3)), bad)
        bad[299, 1] = -np.inf
        with pytest.raises(DataError):
            mann_whitney_u_many(bad, np.zeros((300, 3)))

    def test_exact_infeasible(self):
        a, b = mixed_rows(12, 2, 15, 15)  # C(30, 15) ~ 1.55e8 > 1e7
        with pytest.raises(AnalysisError):
            mann_whitney_u_many(a, b, mode=MODE_EXACT)


class TestSymmetry:
    def test_swap_invariance(self):
        rng = np.random.default_rng(6)
        for mode in (MODE_EXACT, MODE_NORMAL):
            a = rng.normal(size=6).tolist()
            b = rng.normal(size=7).tolist()
            r1 = mann_whitney_u(a, b, mode=mode)
            r2 = mann_whitney_u(b, a, mode=mode)
            assert r1.statistic == r2.statistic
            assert r1.pvalue == pytest.approx(r2.pvalue, abs=1e-15)


class TestNullCalibration:
    def test_exact_super_uniform(self):
        # Under the null, P(p <= alpha) <= alpha for the exact test.
        rng = np.random.default_rng(12)
        alpha = 0.05
        hits = 0
        reps = 600
        for _ in range(reps):
            a = rng.normal(size=10).tolist()
            b = rng.normal(size=10).tolist()
            if mann_whitney_u(a, b, mode=MODE_EXACT).pvalue <= alpha:
                hits += 1
        # 3-sigma slack over the binomial(reps, alpha) upper bound.
        bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / reps)
        assert hits / reps <= bound


class TestErrors:
    def test_empty_sample(self):
        with pytest.raises(DataError):
            mann_whitney_u([], [1.0])
        with pytest.raises(DataError):
            mann_whitney_u([1.0], [])

    def test_non_finite(self):
        with pytest.raises(DataError):
            mann_whitney_u([1.0, float("nan")], [2.0])
        with pytest.raises(DataError):
            mann_whitney_u([1.0], [float("inf")])

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            mann_whitney_u([1.0], [2.0], mode="bootstrap")

    def test_exact_infeasible(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=15).tolist()
        b = rng.normal(size=15).tolist()  # C(30,15) ~ 1.55e8 > 1e7
        with pytest.raises(AnalysisError):
            mann_whitney_u(a, b, mode=MODE_EXACT)
