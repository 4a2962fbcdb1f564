"""Gini/Lorenz against the brute-force double-sum definition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedaudit import (
    AnalysisError,
    ConfigError,
    DataError,
    ExposureTable,
    average_lorenz,
    gini,
    group_gini_distribution,
    lorenz,
    lorenz_auc,
)


def gini_double_sum(values):
    """G = sum_i sum_j |x_i - x_j| / (2 n^2 mean)."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    return float(np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n * x.mean()))


def _table(monitor_id, entries, group=None):
    return ExposureTable(
        monitor_id=monitor_id, total_tweets=1000, entries=entries, group=group
    )


class TestGini:
    def test_perfect_equality(self):
        for c in (1.0, 0.25, 300.0):
            assert gini([c, c, c, c]) == pytest.approx(0.0, abs=1e-15)

    def test_single_holder(self):
        assert gini([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_arithmetic_sequence(self):
        assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-15)

    def test_single_value(self):
        assert gini([5.0]) == pytest.approx(0.0, abs=1e-15)

    def test_order_invariance(self):
        assert gini([4, 1, 3, 2]) == pytest.approx(gini([1, 2, 3, 4]), abs=1e-15)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 201))
            x = rng.exponential(scale=rng.uniform(0.1, 50), size=n)
            if rng.random() < 0.3:
                x[rng.random(n) < 0.4] = 0.0
            if x.sum() == 0:
                continue
            assert gini(x) == pytest.approx(gini_double_sum(x), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            x = rng.exponential(size=int(rng.integers(2, 50)))
            g = gini(x)
            assert 0.0 <= g < 1.0

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=40
        ),
        scale=st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_scale_invariance(self, values, scale):
        if sum(values) == 0:
            return
        scaled = [v * scale for v in values]
        if sum(scaled) == 0:
            return
        assert gini(scaled) == pytest.approx(gini(values), abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=25
        ),
        reps=st.integers(min_value=2, max_value=4),
    )
    def test_replication_invariance(self, values, reps):
        if sum(values) == 0:
            return
        assert gini(list(values) * reps) == pytest.approx(gini(values), abs=1e-12)

    def test_errors(self):
        with pytest.raises(AnalysisError):
            gini([])
        with pytest.raises(AnalysisError):
            gini([0.0, 0.0])
        with pytest.raises(AnalysisError):
            gini([1.0, -0.5])
        with pytest.raises(AnalysisError):
            gini([1.0, float("nan")])


class TestLorenz:
    def test_single_holder_points(self):
        curve = lorenz([0, 0, 0, 1])
        assert curve.points == ((0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (0.75, 0.0), (1.0, 1.0))

    def test_equal_values_on_diagonal(self):
        curve = lorenz([2, 2, 2, 2])
        for x, y in curve.points:
            assert y == pytest.approx(x, abs=1e-15)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            x = rng.exponential(size=int(rng.integers(2, 60)))
            curve = lorenz(x)
            xs, ys = curve.x, curve.y
            assert (xs[0], ys[0]) == (0.0, 0.0)
            assert xs[-1] == pytest.approx(1.0) and ys[-1] == pytest.approx(1.0)
            assert np.all(np.diff(xs) > 0)
            assert np.all(np.diff(ys) >= 0)
            assert np.all(np.asarray(ys) <= np.asarray(xs) + 1e-12)

    @pytest.mark.parametrize("n", [1, 3, 7, 49, 1000])
    def test_points_match_loop_formula(self, n):
        rng = np.random.default_rng(n)
        values = np.where(rng.random(n) < 0.3, 0.0, rng.exponential(size=n))
        values[0] = 1.0
        x = np.sort(values)
        cum = np.cumsum(x) / x.sum()
        expected = [(0.0, 0.0)] + [((i + 1) / n, float(cum[i])) for i in range(n)]
        curve = lorenz(values)

        def hexed(points):
            return [(float.hex(px), float.hex(py)) for px, py in points]

        assert hexed(curve.points) == hexed(expected)
        assert all(type(v) is float for p in curve.points for v in p)
        assert [float.hex(v) for v in curve.x] == [float.hex(p[0]) for p in expected]
        assert [float.hex(v) for v in curve.y] == [float.hex(p[1]) for p in expected]

    def test_gini_consistency(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            x = rng.exponential(size=int(rng.integers(2, 200)))
            curve = lorenz(x)
            assert 1 - 2 * lorenz_auc(curve) == pytest.approx(gini(x), abs=1e-9)


class TestAverageLorenz:
    def test_hand_example(self):
        band = average_lorenz([lorenz([1, 1]), lorenz([0, 1])], grid_size=3)
        assert list(band.grid) == [0.0, 0.5, 1.0]
        assert list(band.mean) == pytest.approx([0.0, 0.25, 1.0])
        assert list(band.std) == pytest.approx([0.0, 0.25, 0.0])

    def test_identical_curves_zero_std(self):
        curves = [lorenz([1, 2, 3])] * 4
        band = average_lorenz(curves)
        assert np.allclose(band.std, 0.0)

    def test_errors(self):
        with pytest.raises(DataError):
            average_lorenz([])
        with pytest.raises(ConfigError):
            average_lorenz([lorenz([1, 2])], grid_size=1)


class TestGroupGiniDistribution:
    def test_identical_groups_not_significant(self):
        tables = {
            "left": [_table("l1", {"a": 1.0, "b": 3.0}), _table("l2", {"a": 2.0, "b": 5.0})],
            "right": [_table("r1", {"a": 1.0, "b": 3.0}), _table("r2", {"a": 2.0, "b": 5.0})],
        }
        report = group_gini_distribution(tables, alpha=0.001)
        assert report.per_group["left"] == report.per_group["right"]
        (comp,) = report.comparisons
        assert comp.pvalue == 1.0 and not comp.significant

    def test_per_monitor_values(self):
        tables = {"neutral": [_table("n1", {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}),
                              _table("n2", {"a": 1.0})]}
        report = group_gini_distribution(tables)
        assert report.per_group["neutral"][0] == pytest.approx(0.25, abs=1e-15)
        assert report.per_group["neutral"][1] == pytest.approx(0.0, abs=1e-15)
        assert report.medians()["neutral"] == pytest.approx(0.125)

    def test_pairwise_count_and_order(self):
        groups = ["neutral", "left", "right", "balanced"]
        tables = {
            g: [_table(f"{g}{i}", {"a": 1.0 + i, "b": 2.0}) for i in range(3)]
            for g in groups
        }
        report = group_gini_distribution(tables)
        assert len(report.comparisons) == 6
        pairs = [(c.group_a, c.group_b) for c in report.comparisons]
        assert pairs == [
            ("neutral", "left"),
            ("neutral", "right"),
            ("neutral", "balanced"),
            ("left", "right"),
            ("left", "balanced"),
            ("right", "balanced"),
        ]

    def test_separated_groups_significant(self):
        lo = {f"a{i}": 1.0 for i in range(10)}
        tables = {
            "left": [_table(f"l{i}", lo) for i in range(6)],
            "right": [
                _table(f"r{i}", {"a0": 10.0 + i, **{f"a{j}": 0.01 for j in range(1, 10)}})
                for i in range(6)
            ],
        }
        report = group_gini_distribution(tables, alpha=0.05)
        (comp,) = report.comparisons
        assert comp.significant and comp.pvalue < 0.05

    def test_single_monitor_rejected(self):
        with pytest.raises(DataError):
            group_gini_distribution({"left": [_table("l1", {"a": 1.0})]})

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            group_gini_distribution({})
