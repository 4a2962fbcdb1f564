"""Weighted-occurrence exposure metric against hand computations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from feedaudit import (
    ATTR_DISPLAYED,
    ATTR_ORIGINAL,
    SCOPE_ALL,
    SCOPE_OON,
    AnalysisError,
    ConfigError,
    DataError,
    DecayModel,
    MonitorAccount,
    GroupLabel,
    RankerParams,
    SimAuthor,
    build_exposure_table,
    exposure_share,
    group_mean_exposure,
    rank_timeline,
    top_k,
    weighted_occurrence,
)
from feedaudit.simkit import SimWorld

from conftest import T0, authors_session, entry, session


def fill_session(session_id, monitor_id, author, length, **kw):
    return authors_session(session_id, monitor_id, [author] * length, **kw)


class TestWeightedOccurrence:
    def test_unit_weight_single_appearance(self):
        # 1000 tweets, one appearance at rank 1 under a unit-at-rank-1
        # model: E = (1000/1000) * p(1) = 1.
        model = DecayModel(amplitude=math.exp(0.005), rate=0.005, reference_length=1000)
        authors = ["filler"] * 1000
        authors[0] = "x"
        rec = authors_session("s1", "m1", authors)
        assert weighted_occurrence([rec], model, "x") == pytest.approx(1.0, abs=1e-12)

    def test_published_model_two_ranks(self, pub_model):
        # Author at ranks 1 and 100 of a 500-tweet session.
        authors = ["filler"] * 500
        authors[0] = authors[99] = "x"
        rec = authors_session("s1", "m1", authors)
        expected = (
            1.009 * math.exp(-0.0120 * 1) + 1.009 * math.exp(-0.0120 * 100)
        ) / 500.0 * 1000.0
        got = weighted_occurrence([rec], pub_model, "x")
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(2.6018, abs=2e-4)

    def test_absent_author_is_zero(self, model200):
        rec = authors_session("s1", "m1", ["a", "b"])
        assert weighted_occurrence([rec], model200, "nobody") == 0.0
        table = build_exposure_table([rec], model200)
        assert "nobody" not in table.entries

    def test_hand_summed_multi_session(self, model200):
        recs = [
            authors_session("s1", "m1", ["x", "y", "x"]),
            authors_session("s2", "m1", ["y", "y", "z", "x"]),
        ]
        n = 7
        w = lambda r: model200.amplitude * math.exp(-model200.rate * r)
        expect_x = (w(1) + w(3) + w(4)) / n * 1000
        expect_y = (w(2) + w(1) + w(2)) / n * 1000
        assert weighted_occurrence(recs, model200, "x") == pytest.approx(expect_x, rel=1e-12)
        assert weighted_occurrence(recs, model200, "y") == pytest.approx(expect_y, rel=1e-12)


class TestBuildExposureTable:
    def test_single_author_fills_table(self, model200):
        table = build_exposure_table([fill_session("s1", "m1", "solo", 50)], model200)
        assert list(table.entries) == ["solo"]
        assert table.total_tweets == 50

    def test_conservation(self, model200):
        rng = np.random.default_rng(5)
        recs = [
            authors_session(
                f"s{i}", "m1", [f"a{j}" for j in rng.integers(0, 12, size=30)]
            )
            for i in range(3)
        ]
        table = build_exposure_table(recs, model200, scope=SCOPE_ALL)
        mass = sum(
            model200.weights(30)[e.rank - 1] for r in recs for e in r.entries
        )
        assert table.total_exposure() * table.total_tweets / 1000 == pytest.approx(
            mass, rel=1e-12
        )

    def test_scope_filters_numerator_only(self, model200):
        recs = [
            session(
                "s1",
                "m1",
                [entry(1, "in", in_net=True), entry(2, "out"), entry(3, "out")],
            )
        ]
        oon = build_exposure_table(recs, model200, scope=SCOPE_OON)
        both = build_exposure_table(recs, model200, scope=SCOPE_ALL)
        assert "in" not in oon.entries and "in" in both.entries
        # Denominator stays the full tweet count in both scopes.
        assert oon.total_tweets == both.total_tweets == 3
        assert oon.get("out") == pytest.approx(both.get("out"))

    def test_scope_never_increases_exposure(self, model200):
        rng = np.random.default_rng(11)
        recs = [
            session(
                f"s{i}",
                "m1",
                [
                    entry(r + 1, f"a{rng.integers(0, 8)}", in_net=bool(rng.random() < 0.4))
                    for r in range(40)
                ],
            )
            for i in range(3)
        ]
        oon = build_exposure_table(recs, model200, scope=SCOPE_OON)
        allsc = build_exposure_table(recs, model200, scope=SCOPE_ALL)
        for author, e_all in allsc.entries.items():
            assert oon.get(author) <= e_all + 1e-15

    def test_attribution_switch(self, model200):
        recs = [
            session(
                "s1",
                "m1",
                [entry(1, "orig", displayed="rter", rt=True), entry(2, "other")],
            )
        ]
        original = build_exposure_table(recs, model200, attribution=ATTR_ORIGINAL)
        displayed = build_exposure_table(recs, model200, attribution=ATTR_DISPLAYED)
        assert "orig" in original.entries and "rter" not in original.entries
        assert "rter" in displayed.entries and "orig" not in displayed.entries
        assert original.get("orig") == pytest.approx(displayed.get("rter"))

    def test_promoted_numerator_flag(self, model200):
        recs = [session("s1", "m1", [entry(1, "ad", promoted=True), entry(2, "x")])]
        with_ads = build_exposure_table(recs, model200)
        without = build_exposure_table(recs, model200, include_promoted=False)
        assert "ad" in with_ads.entries and "ad" not in without.entries
        assert with_ads.total_tweets == without.total_tweets == 2
        assert with_ads.get("x") == pytest.approx(without.get("x"))

    def test_linearity_duplicating_sessions(self, model200):
        rec = authors_session("s1", "m1", ["a", "b", "a", "c"])
        rec2 = authors_session("s2", "m1", ["a", "b", "a", "c"])
        one = build_exposure_table([rec], model200)
        two = build_exposure_table([rec, rec2], model200)
        assert two.total_tweets == 2 * one.total_tweets
        for author in one.entries:
            assert two.get(author) == pytest.approx(one.get(author), rel=1e-12)

    def test_rank_monotonicity(self, model200):
        lo = session("s1", "m1", [entry(1, "x"), entry(2, "f"), entry(3, "f")])
        hi = session("s1", "m1", [entry(1, "f"), entry(2, "f"), entry(3, "x")])
        e_lo = build_exposure_table([lo], model200).get("x")
        e_hi = build_exposure_table([hi], model200).get("x")
        assert e_hi < e_lo

    def test_sum_bound(self, model200):
        rec = authors_session("s1", "m1", [f"a{i}" for i in range(100)])
        table = build_exposure_table([rec], model200, scope=SCOPE_ALL)
        assert table.total_exposure() <= 1000.0 + 1e-9

    def test_neutral_scope_equivalence(self, model200):
        # All-out-of-network sessions: scoped table equals all-scope table.
        rec = authors_session("s1", "m1", ["a", "b", "c"], group="neutral")
        oon = build_exposure_table([rec], model200, scope=SCOPE_OON)
        both = build_exposure_table([rec], model200, scope=SCOPE_ALL)
        assert oon.entries == both.entries

    def test_group_carried_through(self, model200):
        rec = authors_session("s1", "m1", ["a"], group="left")
        assert build_exposure_table([rec], model200).group is GroupLabel.LEFT

    def test_errors(self, model200):
        with pytest.raises(DataError):
            build_exposure_table([], model200)
        with pytest.raises(DataError):
            build_exposure_table(
                [authors_session("s1", "m1", ["a"]), authors_session("s2", "m2", ["a"])],
                model200,
            )
        with pytest.raises(DataError):
            build_exposure_table([session("s1", "m1", [])], model200)
        with pytest.raises(ConfigError):
            build_exposure_table([authors_session("s1", "m1", ["a"])], model200, scope="weird")
        with pytest.raises(ConfigError):
            build_exposure_table(
                [authors_session("s1", "m1", ["a"])], model200, attribution="weird"
            )


class TestTopK:
    def test_ordering(self):
        assert top_k({"a": 3.0, "b": 1.0, "c": 2.0}, 2) == [("a", 3.0), ("c", 2.0)]

    def test_tie_breaks_by_id(self):
        assert top_k({"b": 1.0, "a": 1.0}, 1) == [("a", 1.0)]

    def test_k_larger_than_table(self):
        assert len(top_k({"a": 1.0}, 10)) == 1

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            top_k({"a": 1.0}, 0)

    def test_accepts_exposure_table(self, model200):
        table = build_exposure_table([authors_session("s1", "m1", ["a", "b"])], model200)
        assert top_k(table, 1)[0][0] == "a"

    # 40 authors: k below, at and above the table size.
    @pytest.mark.parametrize("k", [1, 7, 39, 40, 41, 100])
    def test_matches_full_sort(self, k):
        rng = np.random.default_rng(k)
        ids = [f"a{i:02d}" for i in rng.permutation(40)]
        # Few distinct values, so ties straddle every cut.
        values = rng.choice([0.0, 0.5, 1.25, 2.0, 3.0], size=40)
        entries = dict(zip(ids, values))
        expected = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        assert repr(top_k(entries, k)) == repr(expected)


class TestGroupMeanExposure:
    def test_absent_author_counts_as_zero(self, model200):
        t1 = build_exposure_table([fill_session("s1", "m1", "a", 10)], model200)
        t2 = build_exposure_table([fill_session("s2", "m2", "b", 10)], model200)
        means = group_mean_exposure([t1, t2])
        assert means["a"] == pytest.approx(t1.get("a") / 2)
        assert means["b"] == pytest.approx(t2.get("b") / 2)

    def test_hand_example(self):
        t1 = _table("m1", {"a": 2.0})
        t2 = _table("m2", {"a": 4.0, "b": 6.0})
        means = group_mean_exposure([t1, t2])
        assert means == {"a": 3.0, "b": 3.0}
        assert top_k(means, 2) == [("a", 3.0), ("b", 3.0)]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            group_mean_exposure([])


def _table(monitor_id, entries):
    from feedaudit import ExposureTable

    return ExposureTable(monitor_id=monitor_id, total_tweets=1000, entries=entries)


class TestExposureShare:
    leans = {"a": "left", "b": "right", "c": "right"}

    def test_all_match(self):
        share = exposure_share({"b": 2.0, "c": 1.0}, 2, lambda l: l == "right", self.leans)
        assert share == 1.0

    def test_symmetric_split(self):
        share = exposure_share({"a": 2.0, "b": 2.0}, 2, lambda l: l == "right", self.leans)
        assert share == 0.5

    def test_unknown_label_default(self):
        share = exposure_share({"zz": 1.0, "a": 1.0}, 2, lambda l: l == "unknown", {"a": "left"})
        assert share == 0.5

    def test_top_k_vs_total_denominator(self):
        exposures = {"a": 4.0, "b": 4.0, "c": 2.0}
        top = exposure_share(exposures, 2, lambda l: l == "left", self.leans)
        total = exposure_share(
            exposures, 2, lambda l: l == "left", self.leans, denominator="total"
        )
        assert top == pytest.approx(0.5)
        assert total == pytest.approx(0.4)

    def test_zero_denominator(self):
        with pytest.raises(AnalysisError):
            exposure_share({"a": 0.0}, 1, lambda l: True, {})

    def test_bad_denominator_name(self):
        with pytest.raises(ConfigError):
            exposure_share({"a": 1.0}, 1, lambda l: True, {}, denominator="middle")


class TestPlantedShareRecovery:
    """Simulator with a planted 70/30 right/left top-author split.

    20 planted authors (14 right, 6 left) get popularity 1.0; the other
    80 authors are 10,000x less popular. With popularity exponent 1 the
    top-20 by exposure is the planted set, so the right-lean share of
    top-20 exposure must come out near 14/20 = 0.7.
    """

    def test_share_within_tolerance(self, model200):
        planted = [
            SimAuthor(id=f"p{i:02d}", lean=0.8 if i < 14 else -0.8, popularity=1.0, post_rate=1.0)
            for i in range(20)
        ]
        background = [
            SimAuthor(id=f"bg{i:02d}", lean=0.0, popularity=1e-4, post_rate=1.0)
            for i in range(80)
        ]
        world = SimWorld(authors=tuple(planted + background), pools={})
        monitor = MonitorAccount(
            id="n-0", group=GroupLabel.NEUTRAL, follows=frozenset(), created_at=T0
        )
        leans = {a.id: ("right" if a.lean > 0.3 else "left" if a.lean < -0.3 else "unknown")
                 for a in world.authors}
        shares = []
        for seed in range(5):
            params = RankerParams(popularity_exponent=1.0, alignment_strength=0.0, seed=seed)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(42,)))
            sessions = [
                rank_timeline(
                    world, monitor, params, length=200, session_id=f"s{i}", rng=rng
                )
                for i in range(40)
            ]
            table = build_exposure_table(sessions, model200)
            shares.append(exposure_share(table, 20, lambda l: l == "right", leans))
        for share in shares:
            assert abs(share - 0.7) <= 0.1
