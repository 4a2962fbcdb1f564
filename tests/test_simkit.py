"""Simulator determinism, structure, and ground-truth knob behavior."""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from feedaudit import (
    ConfigError,
    DataError,
    FleetConfig,
    GroupLabel,
    LeanMixture,
    MonitorAccount,
    RankerParams,
    SimAuthor,
    build_exposure_table,
    build_world,
    calibrate,
    gini,
    lean_labels,
    make_monitors,
    rank_timeline,
    run_fleet,
)
from feedaudit.simkit import SimWorld

from conftest import T0


def small_fleet(**kw):
    defaults = dict(
        monitors_per_group=2,
        sessions_per_day=2,
        duration_days=3,
        session_length={"default": 80, "neutral": 80},
    )
    defaults.update(kw)
    return FleetConfig(**defaults)


class TestBuildWorld:
    def test_deterministic(self):
        assert build_world(n_authors=80, seed=5) == build_world(n_authors=80, seed=5)

    def test_seed_changes_world(self):
        assert build_world(n_authors=80, seed=5) != build_world(n_authors=80, seed=6)

    def test_zipf_zero_uniform_popularity(self):
        world = build_world(n_authors=60, zipf_exponent=0.0, seed=1)
        assert np.allclose(world.popularity_array, 1.0)

    def test_zipf_positive_heavy_tail(self):
        world = build_world(n_authors=60, zipf_exponent=1.5, seed=1)
        pop = np.sort(world.popularity_array)[::-1]
        assert pop[0] / pop[-1] == pytest.approx(60**1.5, rel=1e-9)

    def test_leans_in_bounds(self):
        world = build_world(n_authors=300, seed=2)
        assert np.all(world.lean_array >= -1.0) and np.all(world.lean_array <= 1.0)

    def test_pool_structure(self):
        world = build_world(n_authors=60, seed=0)
        sizes = {k: len(v) for k, v in world.pools.items()}
        assert sizes == {
            "media_moderate_left": 10,
            "media_strong_left": 5,
            "entities_left": 3,
            "candidate_left": 1,
            "media_moderate_right": 10,
            "media_strong_right": 5,
            "entities_right": 3,
            "candidate_right": 1,
        }
        for name, members in world.pools.items():
            sign = -1.0 if "left" in name else 1.0
            for a in members:
                assert sign * world.lean_of(a) > 0.15

    def test_no_pools_mode(self):
        world = build_world(n_authors=50, seed=0, preset_pools=False)
        assert world.pools == {}

    def test_point_mass_mixture(self):
        mixture = LeanMixture(weights=(1.0, 0.0, 0.0), means=(0.0, 0.6, 0.0), stds=(0.0, 0.1, 0.1))
        world = build_world(n_authors=50, seed=3, lean_mixture=mixture, preset_pools=False)
        assert np.allclose(world.lean_array, 0.0)
        assert set(lean_labels(world).values()) == {"unknown"}

    def test_min_authors(self):
        with pytest.raises(ConfigError):
            build_world(n_authors=40)

    def test_unique_ids(self):
        world = build_world(n_authors=120, seed=0)
        assert len({a.id for a in world.authors}) == 120


class TestLeanMixture:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LeanMixture(weights=(0.5, 0.5), means=(0, 0, 0), stds=(0.1, 0.1, 0.1))
        with pytest.raises(ConfigError):
            LeanMixture(weights=(0.6, 0.6, 0.2), means=(0, 0, 0), stds=(0.1, 0.1, 0.1))
        with pytest.raises(ConfigError):
            LeanMixture(means=(0, 0, 3.0))

    def test_samples_clipped(self):
        mix = LeanMixture(means=(-0.95, 0.95, 0.0), stds=(0.3, 0.3, 0.3))
        rng = np.random.default_rng(0)
        x = mix.sample(rng, 5000)
        assert np.all(x >= -1.0) and np.all(x <= 1.0)


class TestRankerParams:
    def test_scalar_mix_expands(self):
        params = RankerParams(oon_mix=0.6)
        for g in GroupLabel:
            assert params.mix_for(g) == 0.6

    def test_mapping_mix_with_default(self):
        params = RankerParams(oon_mix={"neutral": 1.0, "default": 0.55})
        assert params.mix_for(GroupLabel.NEUTRAL) == 1.0
        assert params.mix_for(GroupLabel.LEFT) == 0.55

    def test_table_defaults(self):
        params = RankerParams()
        assert params.mix_for(GroupLabel.NEUTRAL) == 1.0
        assert params.mix_for(GroupLabel.LEFT) == pytest.approx(0.5923)
        assert params.mix_for(GroupLabel.RIGHT) == pytest.approx(0.5588)
        assert params.mix_for(GroupLabel.BALANCED) == pytest.approx(0.6227)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(popularity_exponent=-0.1),
            dict(alignment_strength=-1.0),
            dict(default_lean=1.5),
            dict(oon_mix=1.2),
            dict(oon_mix={"middle": 0.5}),
            dict(promoted_rate=-0.01),
            dict(retweet_rate=0.9, quote_rate=0.2),
            dict(rank_jitter=-1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RankerParams(**kwargs)


class TestFleetConfig:
    def test_session_length_defaults(self):
        fleet = FleetConfig()
        assert fleet.length_for(GroupLabel.NEUTRAL) == 500
        assert fleet.length_for(GroupLabel.LEFT) == 700

    def test_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            FleetConfig(monitors_per_group=0)
        with pytest.raises(ConfigError):
            FleetConfig(sessions_per_day=0)


class TestRankTimeline:
    def test_neutral_all_out_of_network(self):
        world = build_world(n_authors=80, seed=1)
        monitor = MonitorAccount(
            id="n-0", group=GroupLabel.NEUTRAL, follows=frozenset(), created_at=T0
        )
        rec = rank_timeline(world, monitor, RankerParams(seed=1), length=120)
        assert len(rec) == 120
        assert all(not e.in_network for e in rec.entries)

    def test_ranks_contiguous(self):
        world = build_world(n_authors=80, seed=1)
        fleet = small_fleet()
        monitor = make_monitors(world, fleet, seed=1)[3]
        rec = rank_timeline(world, monitor, RankerParams(seed=1), length=90)
        assert [e.rank for e in rec.entries] == list(range(1, 91))

    def test_tweet_ids_past_four_digits(self):
        world = build_world(n_authors=80, seed=1)
        monitor = MonitorAccount(
            id="n-0", group=GroupLabel.NEUTRAL, follows=frozenset(), created_at=T0
        )
        ids = {}
        for length in (10_001, 12):
            rec = rank_timeline(world, monitor, RankerParams(seed=1), length=length, session_id="s")
            ids[length] = [e.tweet_id for e in rec.entries]
        assert ids[12] == [f"s:{r:04d}" for r in range(1, 13)]
        assert ids[10_001][:2] == ["s:0001", "s:0002"]
        assert ids[10_001][9_998:] == ["s:9999", "s:10000", "s:10001"]

    def test_deterministic_with_explicit_rng(self):
        world = build_world(n_authors=80, seed=1)
        monitor = MonitorAccount(
            id="n-0", group=GroupLabel.NEUTRAL, follows=frozenset(), created_at=T0
        )
        params = RankerParams(seed=9)
        recs = []
        for _ in range(2):
            rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(1,)))
            recs.append(rank_timeline(world, monitor, params, length=60, rng=rng))
        assert recs[0] == recs[1]

    def test_in_network_only_from_follows(self):
        world = build_world(n_authors=80, seed=1)
        fleet = small_fleet()
        monitor = [m for m in make_monitors(world, fleet, seed=1) if m.group is GroupLabel.LEFT][0]
        rec = rank_timeline(world, monitor, RankerParams(seed=2), length=300)
        for e in rec.entries:
            if e.in_network:
                assert e.displayed_author_id in monitor.follows

    def test_empty_candidate_pool(self):
        authors = tuple(
            SimAuthor(id=f"x{i}", lean=0.0, popularity=1.0, post_rate=1.0) for i in range(3)
        )
        world = SimWorld(authors=authors, pools={})
        monitor = MonitorAccount(
            id="m-0",
            group=GroupLabel.LEFT,
            follows=frozenset(a.id for a in authors),
            created_at=T0,
        )
        with pytest.raises(DataError):
            rank_timeline(world, monitor, RankerParams(seed=0), length=20)

    def test_alignment_direction(self):
        # kappa = 3 with a hard-right default lean: right-leaning authors
        # must out-rank left-leaning ones for a follow-less viewer.
        world = build_world(n_authors=150, seed=4)
        monitor = MonitorAccount(
            id="n-0", group=GroupLabel.NEUTRAL, follows=frozenset(), created_at=T0
        )
        params = RankerParams(
            popularity_exponent=0.0, alignment_strength=3.0, default_lean=0.75, seed=4,
        )
        rng = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(2,)))
        sessions = [
            rank_timeline(world, monitor, params, length=200, session_id=f"s{i}", rng=rng)
            for i in range(30)
        ]
        table = build_exposure_table(sessions, calibrate(200))
        lean = {a.id: a.lean for a in world.authors}
        right = [e for a, e in table.entries.items() if lean[a] > 0.3]
        left = [e for a, e in table.entries.items() if lean[a] < -0.3]
        assert np.mean(right) > 2 * np.mean(left)

    def test_flag_rates_loose(self):
        world = build_world(n_authors=100, seed=5)
        monitor = MonitorAccount(
            id="n-0", group=GroupLabel.NEUTRAL, follows=frozenset(), created_at=T0
        )
        params = RankerParams(seed=5)
        rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(3,)))
        entries = [
            e
            for i in range(50)
            for e in rank_timeline(
                world, monitor, params, length=200, session_id=f"s{i}", rng=rng
            ).entries
        ]
        n = len(entries)
        assert sum(e.is_promoted for e in entries) / n == pytest.approx(0.075, abs=0.01)
        assert sum(e.is_retweet for e in entries) / n == pytest.approx(0.025, abs=0.01)
        assert sum(e.is_quote for e in entries) / n == pytest.approx(0.11, abs=0.015)
        assert not any(e.is_retweet and e.is_quote for e in entries)

    def test_retweet_attribution_fields(self):
        world = build_world(n_authors=100, seed=6)
        fleet = small_fleet()
        monitor = [m for m in make_monitors(world, fleet, seed=6) if m.group is GroupLabel.RIGHT][0]
        params = RankerParams(seed=6, retweet_rate=0.3)
        rng = np.random.default_rng(np.random.SeedSequence(6, spawn_key=(4,)))
        recs = [
            rank_timeline(world, monitor, params, length=150, session_id=f"s{i}", rng=rng)
            for i in range(5)
        ]
        retweets = [e for r in recs for e in r.entries if e.is_retweet]
        assert retweets
        assert any(e.author_id != e.displayed_author_id for e in retweets)
        for r in recs:
            for e in r.entries:
                if not e.is_retweet:
                    assert e.author_id == e.displayed_author_id


class TestRunFleet:
    def test_entry_field_types(self):
        # exact types, never numpy scalars: record equality and the log
        # writer's fast path rely on them
        world = build_world(n_authors=80, seed=4)
        sessions = run_fleet(world, small_fleet(), RankerParams(seed=4))
        types = {tuple(map(type, e)) for s in sessions for e in s.entries}
        assert types == {(int, str, str, str, bool, bool, bool, bool)}

    def test_session_arithmetic(self):
        world = build_world(n_authors=80, seed=1)
        fleet = small_fleet()
        sessions = run_fleet(world, fleet, RankerParams(seed=1))
        assert len(sessions) == 4 * 2 * 2 * 3

    def test_deterministic_stream(self):
        world = build_world(n_authors=80, seed=2)
        fleet = small_fleet()
        params = RankerParams(seed=2)
        assert run_fleet(world, fleet, params) == run_fleet(world, fleet, params)

    def test_canonical_ordering(self):
        world = build_world(n_authors=80, seed=3)
        sessions = run_fleet(world, small_fleet(), RankerParams(seed=3))
        keys = [(s.monitor_id, s.captured_at, s.session_id) for s in sessions]
        assert keys == sorted(keys)

    def test_timestamps_evenly_spaced(self):
        world = build_world(n_authors=80, seed=3)
        fleet = small_fleet(sessions_per_day=4, duration_days=2)
        sessions = run_fleet(world, fleet, RankerParams(seed=3))
        one = sorted(
            (s for s in sessions if s.monitor_id == sessions[0].monitor_id),
            key=lambda s: s.captured_at,
        )
        gaps = {
            (b.captured_at - a.captured_at).total_seconds() for a, b in zip(one, one[1:])
        }
        assert gaps == {21600.0}
        assert one[0].captured_at == fleet.start

    def test_group_labels_and_lengths(self):
        world = build_world(n_authors=80, seed=4)
        fleet = small_fleet(session_length={"neutral": 50, "default": 70})
        for s in run_fleet(world, fleet, RankerParams(seed=4)):
            expected = 50 if s.group is GroupLabel.NEUTRAL else 70
            assert len(s) == expected

    def test_neutral_churn_caps_sessions_per_identity(self):
        world = build_world(n_authors=80, seed=5)
        fleet = small_fleet(
            sessions_per_day=4, duration_days=14, neutral_churn_days=7
        )
        sessions = run_fleet(world, fleet, RankerParams(seed=5))
        per_id: dict[str, int] = {}
        for s in sessions:
            if s.group is GroupLabel.NEUTRAL:
                per_id[s.monitor_id] = per_id.get(s.monitor_id, 0) + 1
        assert per_id and max(per_id.values()) <= 28
        assert any("-e01" in mid for mid in per_id)

    def test_monitor_subset(self):
        world = build_world(n_authors=80, seed=6)
        fleet = small_fleet()
        monitors = [
            m for m in make_monitors(world, fleet, seed=6) if m.group is GroupLabel.NEUTRAL
        ]
        sessions = run_fleet(world, fleet, RankerParams(seed=6), monitors=monitors)
        assert len(sessions) == 2 * 2 * 3
        assert all(s.group is GroupLabel.NEUTRAL for s in sessions)

    def test_partisan_monitors_need_pools(self):
        world = build_world(n_authors=50, seed=0, preset_pools=False)
        with pytest.raises(ConfigError):
            make_monitors(world, small_fleet(), seed=0)


class TestRealizedComposition:
    def test_oon_mix_tracked(self):
        world = build_world(n_authors=120, seed=7)
        fleet = small_fleet(monitors_per_group=3, duration_days=5, sessions_per_day=4)
        params = RankerParams(seed=7, oon_mix={"default": 0.6, "neutral": 1.0})
        sessions = run_fleet(world, fleet, params)
        shares: dict[GroupLabel, list[float]] = {}
        for s in sessions:
            frac = sum(not e.in_network for e in s.entries) / len(s)
            shares.setdefault(s.group, []).append(frac)
        assert np.mean(shares[GroupLabel.NEUTRAL]) == 1.0
        for g in (GroupLabel.LEFT, GroupLabel.RIGHT, GroupLabel.BALANCED):
            assert np.mean(shares[g]) == pytest.approx(0.6, abs=0.03)

    def test_null_exposure_near_uniform(self):
        # gamma = kappa = delta = 0: out-of-network exposure should be
        # approximately uniform across authors. At 100 sessions x 200
        # slots over 200 authors the multinomial noise floor keeps the
        # Gini well under the 0.15 bound for this regime.
        world = build_world(n_authors=200, seed=8)
        monitor = MonitorAccount(
            id="n-0", group=GroupLabel.NEUTRAL, follows=frozenset(), created_at=T0
        )
        params = RankerParams(
            popularity_exponent=0.0, alignment_strength=0.0, default_lean=0.0, seed=8
        )
        rng = np.random.default_rng(np.random.SeedSequence(8, spawn_key=(9,)))
        sessions = [
            rank_timeline(world, monitor, params, length=200, session_id=f"s{i}", rng=rng)
            for i in range(100)
        ]
        table = build_exposure_table(sessions, calibrate(200))
        assert len(table.entries) == 200
        assert gini(list(table.entries.values())) < 0.15


class TestLeanLabels:
    def test_threshold(self):
        world = build_world(n_authors=100, seed=9)
        labels = lean_labels(world, threshold=0.3)
        for a in world.authors:
            if a.lean > 0.3:
                assert labels[a.id] == "right"
            elif a.lean < -0.3:
                assert labels[a.id] == "left"
            else:
                assert labels[a.id] == "unknown"
