"""Gini/Lorenz against the brute-force double-sum definition."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedaudit import (
    AnalysisError,
    ConfigError,
    DataError,
    ExposureTable,
    LorenzCurve,
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


def heavy_zero_vectors(seed, count):
    """``count`` exposure vectors of 1 to 399 values, about 70% zeros."""
    rng = np.random.default_rng(seed)
    vectors = []
    for n in rng.integers(1, 400, size=count):
        v = np.where(rng.random(n) < 0.7, 0.0, rng.exponential(size=n))
        v[-1] = 1.0
        vectors.append(v)
    return vectors


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

    @pytest.mark.parametrize(
        "values, small",
        [
            ([0.0, 1e308, 1e308], [0.0, 1.0, 1.0]),  # the sums overflow
            ([0.0, 0.0, 5e307], [0.0, 0.0, 1.0]),  # twice the weighted sum overflows
            ([1e300] * 999 + [1e306], [1e-6] * 999 + [1.0]),
        ],
    )
    def test_sums_past_float64_range(self, values, small):
        # Finite exposures whose sums overflow give the Gini and Lorenz
        # curve of the same vector scaled down.
        assert gini(values) == pytest.approx(gini(small), abs=1e-12)
        curve = lorenz(values)
        assert curve.y[-1] == pytest.approx(1.0, abs=1e-12)
        assert curve.y == pytest.approx(lorenz(small).y, abs=1e-12)

    def test_large_finite_sums_keep_their_bits(self):
        # Sums near the top of the float64 range that stay finite are
        # taken as they are, unscaled.
        x = np.sort(np.random.default_rng(3).uniform(0.5, 1.0, size=12) * 1e306)
        n = len(x)
        weighted = float((np.arange(1, n + 1, dtype=np.float64) * x).sum())
        total = float(x.sum())
        assert 2.0 * weighted < float("inf")
        assert float.hex(gini(x)) == float.hex(2.0 * weighted / (n * total) - (n + 1.0) / n)
        x *= 10.0  # the sum stays finite; twice the weighted sum would not
        assert lorenz(x).y[1:] == tuple((np.cumsum(x) / x.sum()).tolist())

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


class TestLorenzCurveContract:
    """What callers may rely on in a ``LorenzCurve`` from :func:`lorenz`:
    the same as in a hand-built curve with the same tuples."""

    VALUES = [0.0, 3.5, 0.0, 1.25, 7.0, 0.0, 2.0]

    def pair(self):
        """A fresh curve from :func:`lorenz`, whose axes no caller has
        read, and a hand-built copy of it."""
        probe = lorenz(self.VALUES)
        return lorenz(self.VALUES), LorenzCurve(x=tuple(probe.x), y=tuple(probe.y))

    def test_equality_and_hash(self):
        curve, hand = self.pair()
        assert curve == hand and hand == curve
        curve, hand = self.pair()
        assert hash(curve) == hash(hand)
        assert len({self.pair()[0], hand}) == 1
        assert curve != LorenzCurve(x=hand.x, y=(0.0,) * len(hand.y))

    def test_repr(self):
        curve, hand = self.pair()
        assert repr(curve) == repr(hand)
        assert repr(curve).startswith("LorenzCurve(x=(0.0, 0.14285714285714285, ")

    def test_dataclass_functions(self):
        curve, hand = self.pair()
        assert dataclasses.is_dataclass(curve)
        assert tuple(f.name for f in dataclasses.fields(curve)) == ("x", "y")
        assert dataclasses.asdict(curve) == {"x": hand.x, "y": hand.y}
        curve, _ = self.pair()
        assert dataclasses.astuple(curve) == (hand.x, hand.y)
        curve, _ = self.pair()
        assert dataclasses.replace(curve) == hand
        flat = (0.0,) * len(hand.y)
        assert dataclasses.replace(self.pair()[0], y=flat) == LorenzCurve(x=hand.x, y=flat)

    def test_pickle_round_trip(self):
        curve, hand = self.pair()
        back = pickle.loads(pickle.dumps(curve))
        assert type(back) is LorenzCurve and back == hand and hash(back) == hash(hand)
        assert type(back.x) is tuple and type(back.y) is tuple
        assert pickle.loads(pickle.dumps(hand)) == hand
        assert pickle.dumps(self.pair()[0]) == pickle.dumps(hand)

    def test_immutable(self):
        curve, hand = self.pair()
        for name in ("x", "y", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(curve, name, (0.0, 1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            del curve.x
        assert curve == hand

    def test_axes_hold_floats(self):
        curve, hand = self.pair()
        assert type(curve.x) is tuple and type(curve.y) is tuple
        assert all(type(v) is float for v in (*curve.x, *curve.y))
        curve, _ = self.pair()
        assert all(type(v) is float for p in curve.points for v in p)
        assert curve.points == hand.points


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

    def test_hand_built_curves_equal_asarray_resampling(self):
        # Curves on non-uniform x, one with int coordinates and one with
        # repeated x, resampled as np.interp over np.asarray of each axis.
        curves = [
            LorenzCurve(x=(0.0, 0.1, 0.15, 0.7, 1.0), y=(0.0, 0.01, 0.02, 0.4, 1.0)),
            LorenzCurve(x=(0, 1), y=(0, 1)),
            LorenzCurve(x=(0.0, 0.3, 0.3, 1.0), y=(0.0, 0.05, 0.1, 1.0)),
            lorenz([5.0, 0.25, 1e-9, 3.0, 3.0, 7.5, 0.5]),
        ]
        for grid_size in (2, 7, 100):
            grid = np.linspace(0.0, 1.0, grid_size)
            resampled = np.stack([np.interp(grid, np.asarray(c.x), np.asarray(c.y)) for c in curves])
            band = average_lorenz(curves, grid_size=grid_size)
            assert band.mean == tuple(resampled.mean(axis=0).tolist())
            assert band.std == tuple(resampled.std(axis=0).tolist())

    @staticmethod
    def hexed(values):
        return [float.hex(v) for v in values]

    @pytest.mark.parametrize(
        "vectors",
        [
            heavy_zero_vectors(23, 12),
            [[4.0]],
            [[0.0, 1e308, 1e308], [0.0, 0.0, 5e307], [1e300] * 999 + [1e306]],
        ],
        ids=["heavy-zero", "n=1", "past-float64-range"],
    )
    def test_array_curves_equal_hand_built_copies(self, vectors):
        # Bands and areas from the curves of lorenz equal, bit for bit,
        # those of hand-built copies, and reading them builds no tuples.
        copies = []
        for v in vectors:
            probe = lorenz(v)
            copies.append(LorenzCurve(x=tuple(probe.x), y=tuple(probe.y)))
        curves = [lorenz(v) for v in vectors]
        for grid_size in (2, 100):
            band = average_lorenz(curves, grid_size=grid_size)
            expected = average_lorenz(copies, grid_size=grid_size)
            for got, want in zip(dataclasses.astuple(band), dataclasses.astuple(expected)):
                assert self.hexed(got) == self.hexed(want)
        assert self.hexed(map(lorenz_auc, curves)) == self.hexed(map(lorenz_auc, copies))
        assert all("x" not in vars(c) and "y" not in vars(c) for c in curves)

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


NON_EMPTY = "gini requires a non-empty one-dimensional vector"
FINITE = "gini requires finite values"
NEGATIVE = "gini is undefined for negative exposures"
ALL_ZERO = "gini is undefined when all exposures are zero"
NAN, INF = float("nan"), float("inf")

# (values, the message they raise): a NaN or an infinity raises "finite"
# before a negative raises "negative", and both before "all zero".
ERROR_CASES = [
    ([], NON_EMPTY),
    ([1.0, NAN], FINITE),
    ([NAN], FINITE),
    ([INF, 1.0], FINITE),
    ([2.0, -INF], FINITE),
    ([-1.0, 3.0, NAN], FINITE),
    ([-5.0, INF], FINITE),
    ([0.0, 0.0, NAN], FINITE),
    ([2.0, -0.5], NEGATIVE),
    ([3.0, -1e-300, 0.0], NEGATIVE),
    ([0.0, -2.0, 0.0], NEGATIVE),
    ([0.0, 0.0], ALL_ZERO),
    ([-0.0, 0.0, -0.0], ALL_ZERO),
    ([0.0], ALL_ZERO),
]


def reference_error(values):
    """The message of the checks as separate passes over the vector, in
    their order, or None."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or len(x) == 0:
        return NON_EMPTY
    if not np.isfinite(x).all():
        return FINITE
    if (x < 0).any():
        return NEGATIVE
    if not (x > 0).any():  # a sum could overflow
        return ALL_ZERO
    return None


class TestValidation:
    @pytest.mark.parametrize("values,message", ERROR_CASES)
    def test_gini_and_lorenz(self, values, message):
        assert reference_error(values) == message
        for fn in (gini, lorenz):
            with pytest.raises(AnalysisError, match=f"^{message}$"):
                fn(values)
            with pytest.raises(AnalysisError, match=f"^{message}$"):
                fn(np.array(values, dtype=np.float64))
            with pytest.raises(AnalysisError, match=f"^{message}$"):
                fn(iter(values))

    def test_not_one_dimensional(self):
        for fn in (gini, lorenz):
            with pytest.raises(AnalysisError, match=f"^{NON_EMPTY}$"):
                fn(np.ones((2, 2)))
            with pytest.raises(AnalysisError, match=f"^{NON_EMPTY}$"):
                fn(np.array(1.0))

    @pytest.mark.parametrize("values,message", ERROR_CASES)
    def test_group_gini_distribution(self, values, message):
        # The bad table comes second in its group, after a valid one,
        # and the other group is valid.
        bad = _table("l2", dict(zip(map("u{}".format, range(len(values))), values)))
        tables = {
            "left": [_table("l1", {"a": 1.0, "b": 3.0}), bad],
            "right": [_table("r1", {"a": 2.0}), _table("r2", {"a": 1.0, "c": 1.0})],
        }
        with pytest.raises(AnalysisError, match=f"^{message}$"):
            group_gini_distribution(tables)

    @pytest.mark.parametrize(
        "first,second,message",
        [
            ({}, {"a": NAN}, NON_EMPTY),
            ({"a": NAN}, {}, FINITE),
            ({"a": 0.0}, {"a": -1.0}, ALL_ZERO),
            ({"a": -1.0}, {"a": INF}, NEGATIVE),
            ({"a": 1.0, "b": -1.0}, {"a": NAN}, NEGATIVE),
        ],
    )
    def test_first_bad_table_raises(self, first, second, message):
        # A group's tables are checked in their order, each in full.
        tables = {"left": [_table("l1", first), _table("l2", second)]}
        with pytest.raises(AnalysisError, match=f"^{message}$"):
            group_gini_distribution(tables)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, NAN, INF, -INF]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=8,
        )
    )
    def test_matches_separate_passes(self, values):
        message = reference_error(values)
        for fn in (gini, lorenz):
            if message is None:
                fn(values)
            else:
                with pytest.raises(AnalysisError, match=f"^{message}$"):
                    fn(values)
