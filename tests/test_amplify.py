"""Amplification ratios and report assembly."""

from __future__ import annotations

import dataclasses
import inspect
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedaudit import (
    ATTR_DISPLAYED,
    ATTR_ORIGINAL,
    SCOPE_ALL,
    SCOPE_OON,
    AmplificationRow,
    AnalysisError,
    ConfigError,
    DataError,
    ExposureTable,
    FleetConfig,
    GroupLabel,
    RankerParams,
    amplification_ratio,
    build_amplification_report,
    build_exposure_table,
    build_world,
    calibrate,
    group_amplification_magnitude,
    group_mean_exposure,
    lean_labels,
    make_monitors,
    mann_whitney_u,
    mann_whitney_u_many,
    run_fleet,
    top_k,
)


def _table(monitor_id, entries):
    return ExposureTable(monitor_id=monitor_id, total_tweets=1000, entries=entries)


def _row(author, ratio, p=0.5):
    return AmplificationRow(
        author_id=author,
        lean_label="unknown",
        partisan_mean=1.0,
        baseline_mean=1.0,
        ratio_pct=ratio,
        statistic=1.0,
        pvalue=p,
        significant=p < 0.05,
    )


class TestAmplificationRatio:
    def test_identity(self):
        assert amplification_ratio(2.5, 2.5) == 0.0

    def test_plus_100(self):
        assert amplification_ratio(1.0, 0.0) == pytest.approx(100.0)

    def test_minus_50(self):
        assert amplification_ratio(0.0, 1.0) == pytest.approx(-50.0)

    def test_lower_bound(self):
        assert amplification_ratio(0.0, 1e9) > -100.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(AnalysisError):
            amplification_ratio(-0.1, 1.0)
        with pytest.raises(AnalysisError):
            amplification_ratio(1.0, -0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(min_value=0.0, max_value=1e6),
        b=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_reciprocal_identity(self, a, b):
        # The percentage encoding costs a few ulps when the ratio is
        # extreme, hence the 1e-9 rather than exact comparison.
        forward = 1.0 + amplification_ratio(a, b) / 100.0
        backward = 1.0 + amplification_ratio(b, a) / 100.0
        assert forward * backward == pytest.approx(1.0, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        base=st.floats(min_value=0.0, max_value=100.0),
        bump=st.floats(min_value=0.0, max_value=100.0),
        baseline=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_monotone_in_partisan_mean(self, base, bump, baseline):
        assert amplification_ratio(base + bump, baseline) >= amplification_ratio(
            base, baseline
        )


class TestRowContract:
    """What callers may rely on in an ``AmplificationRow``."""

    FIELDS = (
        "author_id", "lean_label", "partisan_mean", "baseline_mean",
        "ratio_pct", "statistic", "pvalue", "significant",
    )

    def row(self, **changes):
        fields = dict(zip(self.FIELDS, ("u1", "left", 1.5, 0.0, 150.0, 3.0, 0.25, False)))
        return AmplificationRow(**{**fields, **changes})

    def test_fields_in_order(self):
        assert tuple(inspect.signature(AmplificationRow).parameters) == self.FIELDS
        row = self.row()
        assert [getattr(row, name) for name in self.FIELDS] == ["u1", "left", 1.5, 0.0, 150.0, 3.0, 0.25, False]

    def test_repr(self):
        assert repr(self.row()) == (
            "AmplificationRow(author_id='u1', lean_label='left', partisan_mean=1.5, "
            "baseline_mean=0.0, ratio_pct=150.0, statistic=3.0, pvalue=0.25, significant=False)"
        )
        assert repr(self.row(partisan_mean=np.float64(1.5))).startswith(
            "AmplificationRow(author_id='u1', lean_label='left', partisan_mean=np.float64(1.5), "
        )

    def test_equality_and_hash(self):
        assert self.row() == self.row()
        assert hash(self.row()) == hash(self.row())
        assert len({self.row(), self.row()}) == 1
        for name, value in zip(self.FIELDS, ("u2", "right", 2.0, 1.0, 25.0, 4.0, 0.5, True)):
            assert self.row(**{name: value}) != self.row(), name

    def test_tuple_semantics(self):
        values = ("u1", "left", 1.5, 0.0, 150.0, 3.0, 0.25, False)
        row = self.row()
        assert row == values and hash(row) == hash(values)
        assert len(row) == 8 and tuple(row) == values
        author_id, *_, significant = row
        assert (author_id, significant) == ("u1", False)
        assert sorted([self.row(author_id="u2"), row]) == [row, self.row(author_id="u2")]

    def test_immutable(self):
        row = self.row()
        for name in self.FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(row, name, None)
        with pytest.raises(AttributeError):
            row.extra = 1
        assert row == self.row()

    def test_dataclass_functions(self):
        row = self.row()
        assert dataclasses.is_dataclass(row)
        assert tuple(f.name for f in dataclasses.fields(row)) == self.FIELDS
        assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(row))
        assert dataclasses.replace(row, pvalue=0.5) == self.row(pvalue=0.5)
        assert dataclasses.asdict(row) == dict(zip(self.FIELDS, ("u1", "left", 1.5, 0.0, 150.0, 3.0, 0.25, False)))


class TestBuildReport:
    def test_identical_groups_all_zero(self):
        entries = [{"a": 3.0, "b": 1.0}, {"a": 2.0, "b": 2.0}, {"a": 1.0, "b": 0.5}]
        part = [_table(f"p{i}", e) for i, e in enumerate(entries)]
        base = [_table(f"b{i}", e) for i, e in enumerate(entries)]
        rows = build_amplification_report(part, base, top=10)
        assert len(rows) == 2
        for r in rows:
            assert r.ratio_pct == 0.0
            assert r.pvalue == 1.0
            assert not r.significant

    def test_rows_sorted_by_ratio_then_id(self):
        part = [
            _table("p0", {"up": 5.0, "down": 0.0, "same1": 1.0, "same2": 1.0}),
            _table("p1", {"up": 6.0, "down": 0.0, "same1": 1.0, "same2": 1.0}),
        ]
        base = [
            _table("b0", {"up": 1.0, "down": 4.0, "same1": 1.0, "same2": 1.0}),
            _table("b1", {"up": 1.0, "down": 5.0, "same1": 1.0, "same2": 1.0}),
        ]
        rows = build_amplification_report(part, base, top=10)
        assert [r.author_id for r in rows] == ["up", "same1", "same2", "down"]
        ratios = [r.ratio_pct for r in rows]
        assert ratios == sorted(ratios, reverse=True)

    def test_candidates_ranked_by_pooled_mean(self):
        # "big" dominates baseline exposure only; a partisan-mean ranking
        # would never test it, but the pooled ranking must.
        part = [_table("p0", {"a": 2.0}), _table("p1", {"a": 2.0})]
        base = [_table("b0", {"big": 50.0, "a": 1.0}), _table("b1", {"big": 60.0, "a": 1.0})]
        rows = build_amplification_report(part, base, top=1)
        assert rows[0].author_id == "big"
        assert rows[0].partisan_mean == 0.0
        assert rows[0].ratio_pct < 0

    def test_absent_author_means(self):
        part = [_table("p0", {"a": 4.0}), _table("p1", {})]
        base = [_table("b0", {}), _table("b1", {})]
        rows = build_amplification_report(part, base, top=5)
        (row,) = rows
        assert row.partisan_mean == pytest.approx(2.0)
        assert row.baseline_mean == 0.0
        assert row.ratio_pct == pytest.approx(200.0)

    def test_lean_labels_attached(self):
        part = [_table("p0", {"a": 1.0}), _table("p1", {"a": 1.0})]
        base = [_table("b0", {"a": 1.0}), _table("b1", {"a": 1.0})]
        rows = build_amplification_report(part, base, leans={"a": "left"})
        assert rows[0].lean_label == "left"
        rows = build_amplification_report(part, base)
        assert rows[0].lean_label == "unknown"

    def test_significance_threshold(self):
        part = [_table(f"p{i}", {"a": 10.0 + i}) for i in range(6)]
        base = [_table(f"b{i}", {"a": 0.1 * i}) for i in range(6)]
        strict = build_amplification_report(part, base, alpha=1e-6)
        loose = build_amplification_report(part, base, alpha=0.05)
        assert not strict[0].significant
        assert loose[0].significant
        assert strict[0].pvalue == loose[0].pvalue

    def test_errors(self):
        t = _table("m", {"a": 1.0})
        with pytest.raises(DataError):
            build_amplification_report([t], [t, t], top=1)
        with pytest.raises(DataError):
            build_amplification_report([t, t], [t], top=1)
        with pytest.raises(ConfigError):
            build_amplification_report([t, t], [t, t], top=0)
        with pytest.raises(ConfigError):
            build_amplification_report([t, t], [t, t], alpha=1.5)


def per_author_report(part, base, leans, alpha=0.05):
    """Every observed author tested on its own: samples from
    ExposureTable.get, one mann_whitney_u call per author."""
    p_means, b_means = group_mean_exposure(part), group_mean_exposure(base)
    rows = []
    for author in set(p_means) | set(b_means):
        a_samples = [t.get(author) for t in part]
        b_samples = [t.get(author) for t in base]
        res = mann_whitney_u(a_samples, b_samples)
        p_mean, b_mean = p_means.get(author, 0.0), b_means.get(author, 0.0)
        rows.append(
            AmplificationRow(
                author_id=author,
                lean_label=leans.get(author, "unknown"),
                partisan_mean=p_mean,
                baseline_mean=b_mean,
                ratio_pct=amplification_ratio(p_mean, b_mean),
                statistic=res.statistic,
                pvalue=res.pvalue,
                significant=res.pvalue < alpha,
            )
        )
    rows.sort(key=lambda r: (-r.ratio_pct, r.author_id))
    return tuple(rows)


class TestAgainstPerAuthorLoop:
    # The 600-odd observed authors span three blocks of the batched
    # Mann-Whitney kernel. With 5 and 7 monitors auto takes the exact path on tie-free
    # authors; with 12 and 10 every test is normal.
    @pytest.mark.parametrize("n_part,n_base", [(5, 7), (12, 10)])
    def test_all_observed_authors(self, n_part, n_base):
        rng = np.random.default_rng(n_part * 100 + n_base)
        authors = [f"u{i:04d}" for i in range(700)]
        # Authors every monitor sees have tie-free samples; the rest are
        # heavy-zero and tied.
        seen = rng.choice([0.1, 0.4, 1.0], size=len(authors))

        def tables(prefix, count, shift):
            out = []
            for j in range(count):
                entries = {
                    a: shift + rng.exponential()
                    for a, p in zip(authors, seen)
                    if rng.random() < p
                }
                out.append(_table(f"{prefix}{j}", entries))
            return out

        part = tables("p", n_part, 0.5)
        base = tables("b", n_base, 0.0)
        leans = {a: "left" for a in authors[::3]}
        observed = {a for t in (*part, *base) for a in t.entries}
        rows = build_amplification_report(part, base, top=len(observed), leans=leans)
        assert {r.author_id for r in rows} == observed
        assert rows == per_author_report(part, base, leans)


# Dict-based reference: the report as assembled one author at a time from
# per-author dicts. The array implementation must reproduce it exactly,
# down to the scalar types that repr() shows.


def dict_top_k(entries, k):
    return sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def dict_group_mean_exposure(tables):
    n = len(tables)
    sums = {}
    for t in tables:
        for a, e in t.entries.items():
            sums[a] = sums.get(a, 0.0) + e
    return {a: s / n for a, s in sums.items()}


def dict_exposure_matrix(tables, index):
    out = np.zeros((len(index), len(tables)))
    for j, t in enumerate(tables):
        for author, exposure in t.entries.items():
            i = index.get(author)
            if i is not None:
                out[i, j] = exposure
    return out


def dict_report(partisan_tables, baseline_tables, *, top=50, alpha=0.05, leans=None):
    n_part = len(partisan_tables)
    n_base = len(baseline_tables)
    partisan_means = dict_group_mean_exposure(partisan_tables)
    baseline_means = dict_group_mean_exposure(baseline_tables)
    pooled = {
        a: (partisan_means.get(a, 0.0) * n_part + baseline_means.get(a, 0.0) * n_base)
        / (n_part + n_base)
        for a in set(partisan_means) | set(baseline_means)
    }
    candidates = {author: i for i, (author, _) in enumerate(dict_top_k(pooled, top))}
    tests = mann_whitney_u_many(
        dict_exposure_matrix(partisan_tables, candidates),
        dict_exposure_matrix(baseline_tables, candidates),
    )
    rows = []
    for author, res in zip(candidates, tests):
        p_mean = partisan_means.get(author, 0.0)
        b_mean = baseline_means.get(author, 0.0)
        rows.append(
            AmplificationRow(
                author_id=author,
                lean_label=(leans or {}).get(author, "unknown"),
                partisan_mean=p_mean,
                baseline_mean=b_mean,
                ratio_pct=amplification_ratio(p_mean, b_mean),
                statistic=res.statistic,
                pvalue=res.pvalue,
                significant=res.pvalue < alpha,
            )
        )
    rows.sort(key=lambda r: (-r.ratio_pct, r.author_id))
    return tuple(rows)


def assert_rows_bitwise(rows, expected):
    assert len(rows) == len(expected)
    for r, e in zip(rows, expected):
        assert (r.author_id, r.lean_label, r.significant) == (e.author_id, e.lean_label, e.significant)
        for name in ("partisan_mean", "baseline_mean", "ratio_pct", "statistic", "pvalue"):
            assert float.hex(float(getattr(r, name))) == float.hex(float(getattr(e, name))), name


@pytest.fixture(scope="module")
def fleet_tables():
    """{scope: {group: [per-monitor table]}} for a small simulated fleet,
    and the world's lean labels."""
    world = build_world(n_authors=300, seed=3)
    # Nine monitors per group: past eight, a pairwise sum of an author's
    # exposures adds them in another order than one table at a time.
    fleet = FleetConfig(monitors_per_group=9, sessions_per_day=2, duration_days=2, session_length=60)
    params = RankerParams(seed=3)
    sessions = run_fleet(world, fleet, params, make_monitors(world, fleet, params.seed))
    grouped = {}
    for s in sessions:
        grouped.setdefault(s.group, {}).setdefault(s.monitor_id, []).append(s)
    model = calibrate(60)
    tables = {
        scope: {
            g: [build_exposure_table(mons[m], model, scope=scope) for m in sorted(mons)]
            for g, mons in grouped.items()
        }
        for scope in (SCOPE_OON, SCOPE_ALL)
    }
    return tables, lean_labels(world)


class TestAgainstDictReference:
    @pytest.mark.parametrize("scope", [SCOPE_OON, SCOPE_ALL])
    @pytest.mark.parametrize("side", [GroupLabel.LEFT, GroupLabel.RIGHT])
    def test_simulated_tables_repr(self, fleet_tables, scope, side):
        tables, leans = fleet_tables
        part, base = tables[scope][side], tables[scope][GroupLabel.BALANCED]
        observed = {a for t in (*part, *base) for a in t.entries}
        for top in (len(observed), 50):
            rows = build_amplification_report(part, base, top=top, leans=leans)
            assert repr(rows) == repr(dict_report(part, base, top=top, leans=leans))
        assert {r.author_id for r in rows} <= observed
        # Authors one group never saw get a float 0.0 mean.
        full = build_amplification_report(part, base, top=len(observed), leans=leans)
        assert {r.author_id for r in full} == observed
        assert any(type(r.partisan_mean) is float for r in full)
        for group_tables in tables[scope].values():
            means = group_mean_exposure(group_tables)
            assert repr(means) == repr(dict_group_mean_exposure(group_tables))
            assert repr(top_k(means, 20)) == repr(dict_top_k(means, 20))

    @pytest.mark.parametrize(
        "part,base,top",
        [
            # authors seen by only one group
            ([{"a": 1.0}, {"b": 2.0}], [{"c": 3.0}, {"c": 1.0, "a": 0.5}], 10),
            # equal pooled means and equal ratios, ranked by author id
            ([{"b": 1.0, "a": 1.0}, {"a": 1.0, "b": 1.0}], [{"c": 1.0, "d": 1.0}, {"d": 1.0, "c": 1.0}], 3),
            # a monitor with one author, another with none
            ([{"x": 0.25}, {}], [{"x": 0.125, "y": 4.0}, {"y": 0.0}], 1),
            # exposures whose sums depend on the order of the adds
            ([{"a": 0.1, "b": 0.7}, {"a": 0.2}, {"a": 0.3, "b": 1e-17}], [{"b": 0.1}, {"a": 1e16}], 2),
        ],
    )
    def test_hand_built_cases(self, part, base, top):
        p = [_table(f"p{i}", e) for i, e in enumerate(part)]
        b = [_table(f"b{i}", e) for i, e in enumerate(base)]
        assert_rows_bitwise(build_amplification_report(p, b, top=top), dict_report(p, b, top=top))
        for group in (p, b):
            means = group_mean_exposure(group)
            expected = dict_group_mean_exposure(group)
            assert list(means) == list(expected)
            assert [float.hex(float(v)) for v in means.values()] == [
                float.hex(v) for v in expected.values()
            ]

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n_part=st.integers(min_value=2, max_value=10),
        n_base=st.integers(min_value=2, max_value=10),
        top=st.integers(min_value=1, max_value=12),
    )
    def test_hand_built_tables(self, data, n_part, n_base, top):
        authors = st.sampled_from([f"u{i}" for i in range(10)])
        # A few repeated values make ties in pooled means and in ratios.
        values = st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 3.0]),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        )
        entries = st.dictionaries(authors, values, max_size=8)
        part = [_table(f"p{i}", data.draw(entries)) for i in range(n_part)]
        base = [_table(f"b{i}", data.draw(entries)) for i in range(n_base)]
        assert_rows_bitwise(build_amplification_report(part, base, top=top), dict_report(part, base, top=top))

    def test_negative_entry_raises(self):
        part = [_table("p0", {"a": 1.0, "neg": -5.0}), _table("p1", {"a": 2.0})]
        base = [_table("b0", {"a": 1.0, "b": 0.5}), _table("b1", {"b": 0.5})]
        for report in (build_amplification_report, dict_report):
            with pytest.raises(AnalysisError, match="mean exposures must be non-negative"):
                report(part, base, top=3)
            # Outside the top the negative author is never tested.
            assert len(report(part, base, top=2)) == 2


@pytest.fixture(scope="module")
def sweep_tables():
    """{(scope, attribution): {group: [per-monitor table]}} for the left,
    right and balanced monitors of the benchmark's audit-sweep fleet
    (5,000 authors, 30 monitors per group, four days of 100-row
    sessions), and the world's lean labels."""
    world = build_world(n_authors=5000, seed=7)
    fleet = FleetConfig(monitors_per_group=30, duration_days=4, session_length=100)
    params = RankerParams(seed=7)
    grouped = {}
    for s in run_fleet(world, fleet, params, make_monitors(world, fleet, params.seed)):
        grouped.setdefault(s.group, {}).setdefault(s.monitor_id, []).append(s)
    model = calibrate(100)
    tables = {
        (scope, attribution): {
            g: [build_exposure_table(mons[m], model, scope=scope, attribution=attribution) for m in sorted(mons)]
            for g, mons in grouped.items()
            if g is not GroupLabel.NEUTRAL
        }
        for scope in (SCOPE_OON, SCOPE_ALL)
        for attribution in (ATTR_ORIGINAL, ATTR_DISPLAYED)
    }
    return tables, lean_labels(world)


class TestTieOrderAtPaperScale:
    """Tables built from one batch break ties by its cached id order;
    the same tables rebuilt by hand sort their ids on each call. At
    paper scale many authors share a pooled mean or a ratio, so both
    must give the rows that Python's ``sorted`` gives."""

    @staticmethod
    def ids(rows):
        return [r.author_id for r in rows]

    @pytest.mark.parametrize("scope", [SCOPE_OON, SCOPE_ALL])
    @pytest.mark.parametrize("attribution", [ATTR_ORIGINAL, ATTR_DISPLAYED])
    def test_batch_hand_and_sorted_orders_agree(self, sweep_tables, scope, attribution):
        tables, leans = sweep_tables
        base = tables[scope, attribution][GroupLabel.BALANCED]
        for side in (GroupLabel.LEFT, GroupLabel.RIGHT):
            part = tables[scope, attribution][side]
            hand = [dataclasses.replace(t, entries=dict(t.entries)) for t in (*part, *base)]
            hand_part, hand_base = hand[: len(part)], hand[len(part):]
            observed = {a for t in hand for a in t.entries}
            rows = build_amplification_report(part, base, top=len(observed), leans=leans)
            hand_rows = build_amplification_report(hand_part, hand_base, top=len(observed), leans=leans)
            assert {r.author_id for r in rows} == observed
            assert repr(rows) == repr(hand_rows)
            assert self.ids(rows) == self.ids(sorted(rows, key=lambda r: (-r.ratio_pct, r.author_id)))
            # Each author's pooled mean, with the report's arithmetic.
            n = len(part) + len(base)
            pooled = {r.author_id: (r.partisan_mean * len(part) + r.baseline_mean * len(base)) / n for r in rows}
            ratios = Counter(r.ratio_pct for r in rows)
            pooled_counts = Counter(pooled.values())
            tied = sum(ratios[r.ratio_pct] > 1 or pooled_counts[pooled[r.author_id]] > 1 for r in rows)
            assert tied > len(rows) // 4
            # A cut through the middle of the largest run of equal pooled
            # means keeps its authors of smallest id.
            by_pooled = sorted(pooled, key=lambda a: (-pooled[a], a))
            value, count = pooled_counts.most_common(1)[0]
            top = by_pooled.index(next(a for a in by_pooled if pooled[a] == value)) + count // 2
            cut = build_amplification_report(part, base, top=top, leans=leans)
            assert repr(cut) == repr(build_amplification_report(hand_part, hand_base, top=top, leans=leans))
            assert {r.author_id for r in cut} == set(by_pooled[:top])
            assert self.ids(cut) == self.ids(sorted(cut, key=lambda r: (-r.ratio_pct, r.author_id)))


class TestMagnitude:
    def test_hand_arithmetic(self):
        left = [_row("a", 40.0), _row("b", 30.0), _row("c", -5.0)]
        right = [_row("d", 20.0), _row("e", 10.0), _row("f", -15.0)]
        mag = group_amplification_magnitude(left, right)
        assert mag.amplified_mean_a == pytest.approx(35.0)
        assert mag.amplified_mean_b == pytest.approx(15.0)
        assert mag.amplified_count_a == 2
        assert mag.amplified_count_b == 2
        assert 0.0 <= mag.amplified_pvalue <= 1.0
        assert mag.deamplified_mean_a == pytest.approx(-5.0)
        assert mag.deamplified_mean_b == pytest.approx(-15.0)
        assert 0.0 <= mag.deamplified_pvalue <= 1.0

    def test_identical_reports(self):
        rows = [_row("a", 25.0), _row("b", 10.0)]
        mag = group_amplification_magnitude(rows, rows)
        assert mag.amplified_mean_a == mag.amplified_mean_b
        assert mag.amplified_pvalue == 1.0

    def test_no_deamplified_side(self):
        left = [_row("a", 40.0)]
        right = [_row("b", 20.0), _row("c", -1.0)]
        mag = group_amplification_magnitude(left, right)
        assert mag.deamplified_mean_a is None
        assert mag.deamplified_mean_b is None

    def test_no_amplified_rows_error(self):
        with pytest.raises(AnalysisError):
            group_amplification_magnitude([_row("a", -10.0)], [_row("b", 5.0)])


def heavy_zero_tables(seed, n_part, n_base, n_authors=3000):
    """Hand-built tables in which each author reaches a monitor with a
    probability of its own, mostly small; a few values repeat, so
    samples tie, and some authors reach every monitor (tie-free)."""
    rng = np.random.default_rng(seed)
    authors = [f"u{i:04d}" for i in range(n_authors)]
    reach = rng.choice([0.02, 0.05, 0.1, 0.3, 1.0], size=n_authors, p=[0.4, 0.3, 0.15, 0.1, 0.05])

    def tables(prefix, count, shift):
        out = []
        for j in range(count):
            hit = rng.random(n_authors) < reach
            values = np.where(rng.random(n_authors) < 0.2, 1.0, shift + rng.exponential(size=n_authors))
            out.append(_table(f"{prefix}{j}", dict(zip(np.array(authors)[hit].tolist(), values[hit].tolist()))))
        return out

    return tables("p", n_part, 0.25), tables("b", n_base, 0.0)


class TestSparseEntries:
    """The report ranks each candidate's non-zero entries straight from
    the stacked tables; it must equal the dense reference's rows."""

    @pytest.mark.parametrize("n_part,n_base", [(5, 7), (8, 3), (30, 30)])
    @pytest.mark.parametrize("top", [1, 50, None])
    def test_equals_dense_reference(self, n_part, n_base, top):
        part, base = heavy_zero_tables(n_part * 100 + n_base, n_part, n_base)
        observed = {a for t in (*part, *base) for a in t.entries}
        top = top or len(observed)
        rows = build_amplification_report(part, base, top=top)
        assert_rows_bitwise(rows, dict_report(part, base, top=top))
        assert len(rows) == min(top, len(observed))
        if top == len(observed):
            assert len(rows) > 1024  # past one block of the rank kernel
            # With at most eight monitors on a side, auto takes the exact
            # path on tie-free authors.
            index = {r.author_id: i for i, r in enumerate(rows)}
            methods = {
                r.method
                for r in mann_whitney_u_many(
                    dict_exposure_matrix(part, index), dict_exposure_matrix(base, index)
                )
            }
            assert methods == ({"exact", "normal"} if min(n_part, n_base) <= 8 else {"normal"})

    def test_zero_entries_count_as_absent(self):
        # Explicit 0.0 and -0.0 exposures rank as the zeros of monitors
        # that never saw the author; the author still counts as seen.
        part = [_table("p0", {"a": 0.0, "b": 2.0}), _table("p1", {"a": -0.0, "b": 1.0}), _table("p2", {"a": 3.0})]
        base = [_table("b0", {"a": 0.0}), _table("b1", {"b": -0.0, "c": 1.5}), _table("b2", {"c": 0.0})]
        for top in (1, 2, 3):
            assert_rows_bitwise(build_amplification_report(part, base, top=top), dict_report(part, base, top=top))
        rows = {r.author_id: r for r in build_amplification_report(part, base, top=3)}
        dropped = [_table("p0", {"b": 2.0}), _table("p1", {"b": 1.0}), _table("p2", {"a": 3.0})]
        dropped_base = [_table("b0", {}), _table("b1", {"c": 1.5}), _table("b2", {})]
        for r in build_amplification_report(dropped, dropped_base, top=3):
            assert (r.statistic, r.pvalue) == (rows[r.author_id].statistic, rows[r.author_id].pvalue)
        assert type(rows["c"].baseline_mean) is np.float64
        assert type(rows["c"].partisan_mean) is float

    def test_negative_entry_with_non_negative_mean(self):
        part = [_table("p0", {"a": -1.0, "b": 1.0}), _table("p1", {"a": 5.0}), _table("p2", {"b": -0.5, "a": 0.5})]
        base = [_table("b0", {"a": 1.0, "b": 2.0}), _table("b1", {"b": -2.0}), _table("b2", {"b": 4.0})]
        rows = build_amplification_report(part, base, top=2)
        assert_rows_bitwise(rows, dict_report(part, base, top=2))
        assert [r.author_id for r in rows] == ["a", "b"]

    def test_nan_entry(self):
        part = [_table("p0", {"a": 1.0, "nan": np.nan}), _table("p1", {"a": 2.0, "b": 1.0})]
        base = [_table("b0", {"a": 1.0, "b": 0.5}), _table("b1", {"b": 0.5, "neg": -9.0})]
        # NaN pools last, after "neg": outside the top it is never tested,
        # and the other rows are those of the tables without it.
        clean = [_table(t.monitor_id, {a: e for a, e in t.entries.items() if a != "nan"}) for t in part]
        for top in (1, 2):
            assert repr(build_amplification_report(part, base, top=top)) == repr(
                build_amplification_report(clean, base, top=top)
            )
        for tables in (part, clean):
            with pytest.raises(AnalysisError, match="mean exposures must be non-negative"):
                build_amplification_report(tables, base, top=3)
        # Among the candidates it fails the tests' finiteness check, before
        # the negative mean of "neg" fails the ratio.
        with pytest.raises(DataError, match="samples must be finite"):
            build_amplification_report(part, base, top=4)

    def test_error_order(self):
        part = [_table(f"p{i}", {"a": float(i + 1), "nan": np.nan}) for i in range(30)]
        base = [_table(f"b{i}", {"a": 0.5, "neg": -1.0}) for i in range(30)]
        clean = [_table(t.monitor_id, {"a": t.entries["a"]}) for t in part]
        with pytest.raises(ConfigError, match="top must be >= 1"):
            build_amplification_report(part, base[:1], top=0, alpha=2.0, mode="bootstrap")
        with pytest.raises(ConfigError, match="alpha must be in"):
            build_amplification_report(part, base[:1], alpha=2.0, mode="bootstrap")
        with pytest.raises(DataError, match="at least two monitors"):
            build_amplification_report(part, base[:1], mode="bootstrap")
        with pytest.raises(ConfigError, match="unknown mode"):
            build_amplification_report(part, base, mode="bootstrap")
        with pytest.raises(DataError, match="samples must be finite"):
            build_amplification_report(part, base, mode="exact")
        with pytest.raises(AnalysisError, match=r"exact mode infeasible: C\(60, 30\)"):
            build_amplification_report(clean, base, mode="exact")
        with pytest.raises(AnalysisError, match="mean exposures must be non-negative"):
            build_amplification_report(clean, base)
        assert [r.author_id for r in build_amplification_report(clean, base, top=1)] == ["a"]


def list_magnitude(rows_a, rows_b):
    """The magnitude comparison from lists of ratios, read row by row."""
    pos_a = [r.ratio_pct for r in rows_a if r.ratio_pct > 0]
    pos_b = [r.ratio_pct for r in rows_b if r.ratio_pct > 0]
    neg_a = [r.ratio_pct for r in rows_a if r.ratio_pct < 0]
    neg_b = [r.ratio_pct for r in rows_b if r.ratio_pct < 0]
    amp, de = mann_whitney_u(pos_a, pos_b), None
    if neg_a and neg_b:
        de = mann_whitney_u(neg_a, neg_b)
    return pos_a, pos_b, neg_a, neg_b, amp, de


class TestMagnitudeRatios:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 12.5, 40.0, -3.0, -60.0, 0.1, 7.25]), min_size=1, max_size=40),
        st.lists(st.sampled_from([0.0, 5.0, 40.0, -3.0, -1e-9, 1e-9, 80.0]), min_size=1, max_size=40),
    )
    def test_equals_list_reference(self, ratios_a, ratios_b):
        rows_a = [_row(f"a{i}", x) for i, x in enumerate(ratios_a)]
        rows_b = [_row(f"b{i}", x) for i, x in enumerate(ratios_b)]
        if not any(x > 0 for x in ratios_a) or not any(x > 0 for x in ratios_b):
            with pytest.raises(AnalysisError):
                group_amplification_magnitude(rows_a, rows_b)
            return
        mag = group_amplification_magnitude(rows_a, rows_b)
        pos_a, pos_b, neg_a, neg_b, amp, de = list_magnitude(rows_a, rows_b)
        assert (mag.amplified_count_a, mag.amplified_count_b) == (len(pos_a), len(pos_b))
        assert (mag.amplified_statistic, mag.amplified_pvalue) == (amp.statistic, amp.pvalue)
        assert (mag.amplified_mean_a, mag.amplified_mean_b) == (
            math.fsum(pos_a) / len(pos_a),
            math.fsum(pos_b) / len(pos_b),
        )
        if de is None:
            assert mag.deamplified_pvalue is None and mag.deamplified_count_a == 0
        else:
            assert (mag.deamplified_count_a, mag.deamplified_count_b) == (len(neg_a), len(neg_b))
            assert (mag.deamplified_statistic, mag.deamplified_pvalue) == (de.statistic, de.pvalue)
            assert mag.deamplified_mean_a == math.fsum(neg_a) / len(neg_a)
