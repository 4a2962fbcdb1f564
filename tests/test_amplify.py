"""Amplification ratios and report assembly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedaudit import (
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
