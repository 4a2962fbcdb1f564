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
from hypothesis import given, settings
from hypothesis import strategies as st

from feedaudit import (
    AnalysisError,
    ConfigError,
    DataError,
    MODE_AUTO,
    MODE_EXACT,
    MODE_NORMAL,
    MannWhitneyResult,
    mann_whitney_u,
    mann_whitney_u_many,
)
from feedaudit import mwu


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


def reference_rank(pooled, n):
    """Dense ranking of each row of ``pooled``, whose first ``n`` columns
    are sample A: a stable argsort of every cell, zeros included.

    Returns the doubled midranks of each row in ascending order, the
    doubled rank sum of sample A per row, and the tie term sum(t^3 - t).
    This is the kernel the batched test used before it ranked only the
    non-zero entries, kept here as the reference for the zero-aware one.
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
    run_len = last - first + 1
    tie_terms = (run_len * run_len - 1).sum(axis=1)
    return doubled, doubled_sum_a, tie_terms


def reference_many(a, b, mode):
    """``mann_whitney_u_many`` row by row from ``reference_rank``; the
    p-value formulas are the module's own, so only the ranking differs."""
    n, m = a.shape[1], b.shape[1]
    doubled, sums, ties = reference_rank(np.concatenate([a, b], axis=1), n)
    small_exact = min(n, m) <= mwu._AUTO_EXACT_MAX and math.comb(n + m, n) <= mwu.EXACT_LIMIT
    results = []
    for i in range(len(a)):
        u_a = 0.5 * sums[i] - 0.5 * n * (n + 1)
        exact = mode == MODE_EXACT or (mode == MODE_AUTO and ties[i] == 0 and small_exact)
        if exact:
            smaller, observed = (n, int(sums[i])) if n <= m else (m, (n + m) * (n + m + 1) - int(sums[i]))
            p = mwu._exact_pvalue(tuple(doubled[i].tolist()), smaller, observed)
        else:
            p = float(mwu._normal_pvalues(np.array([u_a]), ties[i : i + 1], n, m)[0])
        results.append(
            MannWhitneyResult(float(min(u_a, n * m - u_a)), p, MODE_EXACT if exact else MODE_NORMAL)
        )
    return tuple(results)


def zero_heavy_rows(seed, k, n, m):
    """(k, n) and (k, m) samples that are at least 90% zeros, with -0.0
    among the zeros and tied negative and positive values, led by the
    rows that take the zero-aware ranking's edge cases."""
    rng = np.random.default_rng(seed)
    big_n = n + m
    pooled = rng.choice([-2.0, -0.5, 0.25, 1.0, 3.0], size=(k, big_n))
    pooled[rng.random((k, big_n)) < 0.92] = 0.0
    pooled[rng.random((k, big_n)) < 0.3] *= -1.0  # more negatives, and -0.0 zeros
    pooled[:, rng.integers(big_n)] = 0.0  # no row free of zeros
    special = np.zeros((8, big_n))
    special[1, :] = -0.0  # every zero negative
    special[2, 0] = 1.5  # one non-zero, in A
    special[3, -1] = -1.5  # one non-zero, negative, in B
    special[4, ::2] = 2.0  # tied non-zeros in both samples
    special[5, 1::3] = -3.0  # tied negatives
    special[6, :] = 7.0  # no zero, all tied
    special[7, :] = rng.normal(size=big_n)  # no zero, tie-free
    pooled[: min(k, 8)] = special[: min(k, 8)]
    return pooled[:, :n], pooled[:, n:]


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
    # k = 600 rows fill most of one block of the batched kernel.
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

    def test_normal_pvalues_once_per_distinct_pair(self, monkeypatch):
        # Rows that repeat a (U_a, tie term) pair share one p-value, bit
        # for bit the value of the pair on its own; all-tied rows
        # (variance 0) take p = 1 without a computation.
        n, m = 12, 9
        rng = np.random.default_rng(7)
        u_a = rng.integers(0, 2 * n * m + 1, size=400) * 0.5
        ties = rng.choice([0, 6, 24, 60, 9240], size=400).astype(np.int64)
        ties[::50] = (n + m) ** 3 - (n + m)
        alone = [mwu._normal_pvalues(u_a[i : i + 1], ties[i : i + 1], n, m)[0] for i in range(400)]
        calls = []
        erfc = math.erfc
        monkeypatch.setattr(math, "erfc", lambda x: calls.append(x) or erfc(x))
        p = mwu._normal_pvalues(u_a, ties, n, m)
        assert [float.hex(float(x)) for x in p] == [float.hex(float(x)) for x in alone]
        live = {(u, t) for u, t in zip(u_a.tolist(), ties.tolist()) if t != (n + m) ** 3 - (n + m)}
        assert len(calls) == len(live) < 400
        assert (p[::50] == 1.0).all()

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


def assert_results_bitwise(results, expected):
    assert len(results) == len(expected)
    for i, (res, ref) in enumerate(zip(results, expected)):
        assert res.method == ref.method, i
        assert float.hex(res.statistic) == float.hex(ref.statistic), i
        assert float.hex(res.pvalue) == float.hex(ref.pvalue), i


class TestZeroAwareRanking:
    """The ranking sorts only the non-zero entries; every rank sum, tie
    term, midrank and result must equal the dense reference's."""

    @pytest.mark.parametrize(
        "n,m,k",
        [(30, 30, 2000), (30, 25, 300), (5, 7, 0), (5, 7, 1), (7, 5, 400), (1, 1, 50), (1, 9, 50)],
    )
    def test_ranks_equal_reference(self, n, m, k):
        a, b = zero_heavy_rows(10 * n + m, k, n, m)
        ranks = mwu._rank_rows(a, b)
        doubled, sums, ties = reference_rank(np.concatenate([a, b], axis=1), n)
        assert ranks.doubled_sum_a.tolist() == sums.tolist()
        assert ranks.tie_terms.tolist() == ties.tolist()
        assert [ranks.sorted_doubled(i) for i in range(k)] == [tuple(row) for row in doubled.tolist()]
        if k >= 8:
            # The all-zero rows: one run of n + m at the middle rank.
            assert ranks.tie_terms[0] == ranks.tie_terms[1] == (n + m) ** 3 - (n + m)
            assert ranks.doubled_sum_a[1] == n * (n + m + 1)

    # k = 0, 1, and past one block of the kernel.
    @pytest.mark.parametrize("k", [0, 1, mwu._BLOCK_ROWS + 9])
    @pytest.mark.parametrize("n,m", [(5, 7), (7, 5), (4, 4)])
    @pytest.mark.parametrize("mode", [MODE_AUTO, MODE_EXACT, MODE_NORMAL])
    def test_results_equal_reference(self, mode, n, m, k):
        a, b = zero_heavy_rows(100 * n + m, k, n, m)
        assert_results_bitwise(mann_whitney_u_many(a, b, mode), reference_many(a, b, mode))

    @pytest.mark.parametrize("mode", [MODE_AUTO, MODE_NORMAL])
    def test_paper_scale_results_equal_reference(self, mode):
        # 30 monitors a group, as the paper's amplification tests; rows
        # span three blocks.
        a, b = zero_heavy_rows(30, 2 * mwu._BLOCK_ROWS + 100, 30, 30)
        assert (np.concatenate([a, b], axis=1) == 0).mean() >= 0.9
        assert_results_bitwise(mann_whitney_u_many(a, b, mode), reference_many(a, b, mode))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=7),
        m=st.integers(min_value=1, max_value=7),
        k=st.integers(min_value=0, max_value=6),
    )
    def test_hypothesis_rows(self, data, n, m, k):
        value = st.one_of(
            st.sampled_from([0.0, -0.0, 0.0, 1.0, -1.0, 2.5]),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        )
        rows = data.draw(st.lists(st.lists(value, min_size=n + m, max_size=n + m), min_size=k, max_size=k))
        pooled = np.array(rows, dtype=np.float64).reshape(k, n + m)
        a, b = pooled[:, :n], pooled[:, n:]
        ranks = mwu._rank_rows(a, b)
        doubled, sums, ties = reference_rank(pooled, n)
        assert ranks.doubled_sum_a.tolist() == sums.tolist()
        assert ranks.tie_terms.tolist() == ties.tolist()
        assert [ranks.sorted_doubled(i) for i in range(k)] == [tuple(row) for row in doubled.tolist()]
        for mode in (MODE_AUTO, MODE_EXACT, MODE_NORMAL):
            assert_results_bitwise(mann_whitney_u_many(a, b, mode), reference_many(a, b, mode))


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


def as_entries(a, b, seed):
    """The non-zero entries of ``a`` and ``b`` as (row, value, in_a)
    arrays, in a shuffled order."""
    row_a, col_a = np.nonzero(a)
    row_b, col_b = np.nonzero(b)
    row = np.concatenate([row_a, row_b])
    values = np.concatenate([a[row_a, col_a], b[row_b, col_b]])
    in_a = np.arange(len(row)) < len(row_a)
    shuffle = np.random.default_rng(seed).permutation(len(row))
    return row[shuffle], values[shuffle], in_a[shuffle]


def assert_ranks_equal(ranks, expected, k):
    assert ranks.doubled_sum_a.tolist() == expected.doubled_sum_a.tolist()
    assert ranks.tie_terms.tolist() == expected.tie_terms.tolist()
    assert [ranks.sorted_doubled(i) for i in range(k)] == [expected.sorted_doubled(i) for i in range(k)]


class TestEntryKernel:
    """Tests given by their non-zero entries, in any order, against the
    dense adapter, the dense reference ranking and the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=0, max_value=5),
    )
    def test_hypothesis_heavy_zero_blocks(self, data, n, m, k):
        value = st.one_of(
            st.sampled_from([0.0, -0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 2.5, -2.5]),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        )
        rows = data.draw(st.lists(st.lists(value, min_size=n + m, max_size=n + m), min_size=k, max_size=k))
        pooled = np.array(rows, dtype=np.float64).reshape(k, n + m)
        # All-zero rows and rows that are non-zero on one side only.
        kind = data.draw(st.lists(st.sampled_from(["as drawn", "zero", "a only", "b only"]), min_size=k, max_size=k))
        for i, what in enumerate(kind):
            if what == "zero":
                pooled[i] = 0.0
            elif what == "a only":
                pooled[i, n:] = 0.0
            elif what == "b only":
                pooled[i, :n] = 0.0
        a, b = pooled[:, :n], pooled[:, n:]
        row, values, in_a = as_entries(a, b, seed=k)
        ranks = mwu._rank_entries(row.astype(np.int16), values, in_a, k, n, m)
        assert_ranks_equal(ranks, mwu._rank_rows(a, b), k)
        doubled, sums, ties = reference_rank(pooled, n)
        assert ranks.doubled_sum_a.tolist() == sums.tolist()
        assert ranks.tie_terms.tolist() == ties.tolist()
        for mode in (MODE_AUTO, MODE_EXACT, MODE_NORMAL):
            statistics, pvalues, exact = mwu._mann_whitney_entries(row, values, in_a, k, n, m, mode)
            results = mann_whitney_u_many(a, b, mode)
            assert [float.hex(x) for x in statistics.tolist()] == [float.hex(r.statistic) for r in results]
            assert [float.hex(x) for x in pvalues.tolist()] == [float.hex(r.pvalue) for r in results]
            assert [MODE_EXACT if e else MODE_NORMAL for e in exact.tolist()] == [r.method for r in results]
        statistics, pvalues, _ = mwu._mann_whitney_entries(row, values, in_a, k, n, m, MODE_EXACT)
        for i in range(k):
            statistic, p = oracle_exact(a[i].tolist(), b[i].tolist())
            assert float(statistics[i]) == statistic
            assert pvalues[i] == pytest.approx(float(p), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mode", [MODE_AUTO, MODE_NORMAL])
    @pytest.mark.parametrize("n,m", [(30, 30), (5, 7)])
    def test_past_one_block(self, mode, n, m):
        k = 2 * mwu._BLOCK_ROWS + 37
        a, b = zero_heavy_rows(n * m, k, n, m)
        row, values, in_a = as_entries(a, b, seed=n)
        results = mwu._mann_whitney_entries(row, values, in_a, k, n, m, mode)
        expected = mwu._mann_whitney_arrays(a, b, mode)
        for got, want in zip(results, expected):
            assert got.tolist() == want.tolist()
        if (n, m) == (5, 7) and mode == MODE_AUTO:
            assert 0 < results[2].sum() < k  # exact and normal rows both

    def test_more_candidate_rows_than_16_bits(self):
        # Row numbers past 2^15 are ranked within their blocks of
        # _BLOCK_ROWS, so their 16-bit keys never wrap.
        k, n, m = 2**15 + 700, 3, 4
        a, b = zero_heavy_rows(15, k, n, m)
        a[-300:] = np.arange(1.0, 301.0)[:, None] + np.arange(n) / 8  # tie-free: exact rows
        b[-300:] = -np.arange(1.0, 301.0)[:, None] - np.arange(m) / 8
        row, values, in_a = as_entries(a, b, seed=1)
        assert row.max() > 2**15
        for mode in (MODE_AUTO, MODE_NORMAL):
            statistics, pvalues, exact = mwu._mann_whitney_entries(row, values, in_a, k, n, m, mode)
            results = mann_whitney_u_many(a, b, mode)
            assert statistics.tolist() == [r.statistic for r in results]
            assert pvalues.tolist() == [r.pvalue for r in results]
            assert [MODE_EXACT if e else MODE_NORMAL for e in exact.tolist()] == [r.method for r in results]
            assert exact[-300:].all() == (mode == MODE_AUTO)

    def test_no_entries(self):
        empty = np.empty(0)
        for k in (0, 3):
            statistics, pvalues, exact = mwu._mann_whitney_entries(
                empty.astype(np.intp), empty, empty.astype(bool), k, 30, 30, MODE_NORMAL
            )
            assert statistics.tolist() == [450.0] * k
            assert pvalues.tolist() == [1.0] * k

    def test_errors_in_order(self):
        row = np.array([0, 1])
        in_a = np.array([True, False])
        nan = np.array([np.nan, 1.0])
        with pytest.raises(ConfigError):
            mwu._mann_whitney_entries(row, nan, in_a, 2, 30, 30, "bootstrap")
        for bad in (nan, np.array([1.0, np.inf]), np.array([-np.inf, 1.0])):
            with pytest.raises(DataError, match="samples must be finite"):
                mwu._mann_whitney_entries(row, bad, in_a, 2, 30, 30, MODE_EXACT)
        with pytest.raises(AnalysisError, match=r"exact mode infeasible: C\(60, 30\) exceeds 10000000"):
            mwu._mann_whitney_entries(row, np.array([1.0, 2.0]), in_a, 2, 30, 30, MODE_EXACT)
        empty = np.empty(0)
        assert len(mwu._mann_whitney_entries(empty.astype(np.intp), empty, empty.astype(bool), 0, 30, 30, MODE_EXACT)[0]) == 0


def gate_grid():
    """(n, m) pairs up to 3,000 a side: a grid, and for every n from 3 to
    40 the pairs either side of the 10^7 boundary, both ways round."""
    sizes = sorted({*range(1, 41), 50, 64, 100, 128, 255, 256, 387, 388, 389, 390, 500, 1000, 1350, 1650, 1800, 2000, 2999, 3000})
    pairs = {(n, m) for n in sizes for m in sizes}
    for n in range(3, 41):
        m = 1
        while math.comb(n + m + 1, n) <= mwu.EXACT_LIMIT:
            m += 1
        pairs |= {(n, m), (n, m + 1), (m, n), (m + 1, n)}
    return sorted(pairs)


class TestExactGate:
    def test_decision_equals_big_integer(self):
        pairs = gate_grid()
        decisions = [mwu._exact_feasible(n, m) for n, m in pairs]
        assert decisions == [math.comb(n + m, n) <= mwu.EXACT_LIMIT for n, m in pairs]
        # The grid holds pairs on both sides of the boundary.
        assert any(decisions) and not all(decisions)
        # C(392, 3) = 9,962,680 and C(393, 3) = 10,039,316.
        assert {(3, 389), (3, 390), (389, 3), (390, 3)} <= set(pairs)

    @pytest.mark.parametrize("n", [3, 4, 7, 10, 12])
    def test_infeasible_error_at_boundary(self, n):
        m = 1
        while math.comb(n + m + 1, n) <= mwu.EXACT_LIMIT:
            m += 1
        for small, large in ((n, m), (m, n)):
            a = np.arange(1.0, small + 1.0)[np.newaxis]
            b = -np.arange(1.0, large + 1.0)[np.newaxis]
            res = mann_whitney_u_many(a, b, MODE_EXACT)[0]
            assert res.method == MODE_EXACT
            assert res.pvalue == 2.0 / math.comb(small + large, small)
        for small, large in ((n, m + 1), (m + 1, n)):
            a = np.arange(1.0, small + 1.0)[np.newaxis]
            b = -np.arange(1.0, large + 1.0)[np.newaxis]
            message = rf"exact mode infeasible: C\({small + large}, {small}\) exceeds {mwu.EXACT_LIMIT}"
            with pytest.raises(AnalysisError, match=message):
                mann_whitney_u_many(a, b, MODE_EXACT)
            assert mann_whitney_u_many(a[:0], b[:0], MODE_EXACT) == ()
            assert mann_whitney_u_many(a, b, MODE_AUTO)[0].method == MODE_NORMAL
