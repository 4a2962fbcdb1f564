"""Simulator determinism, structure, and ground-truth knob behavior."""

from __future__ import annotations

import io
import os
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
from feedaudit import simkit
from feedaudit.model import FLAG_IN_NETWORK, FLAG_PROMOTED, FLAG_QUOTE, FLAG_RETWEET, BatchBuilder, batch_of
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


class ReferenceSampler:
    """A monitor's sessions drawn the plain way: each weighted draw is a
    ``Generator.choice(a, size=n, replace=True, p=p)`` call, with ``p``
    the normalised weights. ``run_fleet`` must give the same batch."""

    def __init__(self, world, monitor, params):
        self.world, self.monitor, self.params = world, monitor, params
        lean, pop = world.lean_array, world.popularity_array
        self.follow_idx = np.array(sorted(world.index[a] for a in monitor.follows), dtype=np.intp)
        viewer = lean[self.follow_idx].mean() if len(self.follow_idx) else params.default_lean
        self.cand_idx = np.setdiff1d(np.arange(world.n_authors), self.follow_idx)
        gamma, kappa = params.popularity_exponent, params.alignment_strength
        align = 1.0 - np.abs(viewer - lean)
        oon_w = (pop**gamma * np.exp(kappa * align))[self.cand_idx]
        self.oon_p = oon_w / oon_w.sum()
        self.score = gamma * np.log(pop) + kappa * align
        if len(self.follow_idx):
            in_w = world.post_rate_array[self.follow_idx]
            self.in_p = in_w / in_w.sum()
        rt_w = pop**gamma
        self.retweet_p = rt_w / rt_w.sum()

    def session(self, batch, rng, length, session_id, monitor_id, group, captured_at):
        params = self.params
        n_oon = length
        if len(self.follow_idx):
            n_oon = int(rng.binomial(length, params.mix_for(self.monitor.group)))
        displayed = rng.choice(self.cand_idx, size=n_oon, replace=True, p=self.oon_p)
        in_network = np.arange(length) >= n_oon
        if n_oon < length:
            drawn = rng.choice(self.follow_idx, size=length - n_oon, replace=True, p=self.in_p)
            displayed = np.concatenate([displayed, drawn])
        scores = self.score[displayed]
        if params.rank_jitter > 0:
            scores = scores + rng.gumbel(0.0, params.rank_jitter, size=length)
        order = np.argsort(-scores, kind="stable")
        displayed, in_network = displayed[order], in_network[order]
        cat = rng.random(length)
        is_retweet = cat < params.retweet_rate
        is_quote = ~is_retweet & (cat < params.retweet_rate + params.quote_rate)
        is_promoted = rng.random(length) < params.promoted_rate
        original = displayed.copy()
        if is_retweet.any():
            original[is_retweet] = rng.choice(
                self.world.n_authors, size=int(is_retweet.sum()), replace=True, p=self.retweet_p
            )
        flags = (
            is_retweet * FLAG_RETWEET | is_quote * FLAG_QUOTE
            | is_promoted * FLAG_PROMOTED | in_network * FLAG_IN_NETWORK
        )
        tweet_ids = [f"{session_id}:{r:04d}" for r in range(1, length + 1)]
        batch.add(
            session_id, monitor_id, captured_at, group, original, displayed, np.arange(1, length + 1),
            flags, "".join(tweet_ids), np.cumsum([len(t) for t in tweet_ids]),
        )


_BATCH_COLUMNS = (
    "ids", "author", "shown", "rank", "flags", "tweet_ends", "offsets",
    "tweet_text", "session_id", "monitor_id", "captured_at", "group",
)


def _assert_same_batch(got, want):
    """Every column of two batches equal, down to each array's dtype."""
    assert len(got) == len(want)
    for name in _BATCH_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def reference_fleet(world, fleet, params, monitors=None):
    """The batch of ``run_fleet``'s capture schedule, written out again
    here: every (monitor, day, slot) capture in canonical order, each
    session sampled on its own by :class:`ReferenceSampler` from the
    generator of its (group, monitor, day, slot) stream."""
    monitors = make_monitors(world, fleet, params.seed) if monitors is None else monitors
    captures, per_group = [], {}
    for monitor in monitors:
        gi = list(GroupLabel).index(monitor.group)
        mi = per_group.setdefault(monitor.group, 0)
        per_group[monitor.group] += 1
        churn = fleet.neutral_churn_days if monitor.group is GroupLabel.NEUTRAL else 0
        for day in range(fleet.duration_days):
            monitor_id = f"{monitor.id}-e{day // churn:02d}" if churn else monitor.id
            for slot in range(fleet.sessions_per_day):
                at = fleet.start + timedelta(days=day, seconds=slot * (86400 // fleet.sessions_per_day))
                captures.append((monitor_id, at, f"{monitor_id}-d{day:03d}-t{slot:02d}", monitor, (gi, mi, day, slot)))
    builder = BatchBuilder()
    for monitor_id, at, session_id, monitor, stream in sorted(captures, key=lambda c: c[:3]):
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=stream))
        ReferenceSampler(world, monitor, params).session(
            builder, rng, fleet.length_for(monitor.group), session_id, monitor_id, monitor.group, at
        )
    return builder.build(world.ids)


def _one_follow(world, fleet):
    return [MonitorAccount("left-solo", GroupLabel.LEFT, frozenset({world.ids[3]}), fleet.start)]


def _same_follows(world, fleet):
    # two left monitors with equal follows, which share a sampler, then a
    # balanced one with them too, which must not
    follows = make_monitors(world, fleet, 11)[2].follows
    return [MonitorAccount(m, g, follows, fleet.start) for m, g in [("a", GroupLabel.LEFT), ("b", GroupLabel.LEFT), ("c", GroupLabel.BALANCED)]]


class TestSamplerDifferential:
    """``run_fleet`` against :func:`reference_fleet`, column by column.
    numpy is not pinned, so this, rather than a fixed digest, guards
    that the per-monitor tables and batches draw the same streams as
    ``Generator.choice`` one session at a time."""

    @pytest.mark.parametrize(
        "world_kw, fleet_kw, params_kw, monitors",
        [
            pytest.param({}, {"monitors_per_group": 2, "duration_days": 2}, {}, None, id="default-world"),
            pytest.param(
                {"n_authors": 5000}, {"monitors_per_group": 3, "duration_days": 1, "session_length": 100},
                {}, None, id="5000-authors",
            ),
            pytest.param({}, {"duration_days": 2}, {"oon_mix": 0.0}, None, id="oon-mix-0"),
            pytest.param({}, {"duration_days": 2}, {"oon_mix": 1.0}, None, id="oon-mix-1"),
            pytest.param({}, {"duration_days": 2}, {}, _one_follow, id="one-follow"),
            pytest.param({}, {"duration_days": 3, "neutral_churn_days": 1}, {}, None, id="neutral-churn"),
            pytest.param({}, {"duration_days": 2}, {"rank_jitter": 0.0}, None, id="rank-jitter-0"),
            pytest.param({}, {"session_length": {"neutral": 10, "default": 37}}, {}, None, id="odd-lengths"),
            pytest.param({}, {"duration_days": 1, "sessions_per_day": 1}, {}, None, id="one-capture-each"),
            pytest.param(
                {}, {"duration_days": 2}, {"retweet_rate": 0.0, "promoted_rate": 1.0}, None, id="no-retweets-all-promoted",
            ),
            pytest.param({}, {"duration_days": 2}, {}, _same_follows, id="same-follows"),
        ],
    )
    def test_matches_choice(self, world_kw, fleet_kw, params_kw, monitors):
        world = build_world(seed=11, **world_kw)
        fleet = small_fleet(**fleet_kw)
        params = RankerParams(seed=11, **params_kw)
        fleet_monitors = monitors(world, fleet) if monitors else None
        got, _ = batch_of(run_fleet(world, fleet, params, fleet_monitors))
        assert len(got) > 0
        _assert_same_batch(got, reference_fleet(world, fleet, params, fleet_monitors))

    @pytest.mark.parametrize("group", [GroupLabel.NEUTRAL, GroupLabel.RIGHT])
    def test_rank_timeline_explicit_rng(self, group):
        world = build_world(seed=11)
        monitor = [m for m in make_monitors(world, small_fleet(), 11) if m.group is group][0]
        params = RankerParams(seed=11, retweet_rate=0.2)
        got = rank_timeline(world, monitor, params, length=137, session_id="s", captured_at=T0, rng=np.random.default_rng(5))
        builder = BatchBuilder()
        ReferenceSampler(world, monitor, params).session(builder, np.random.default_rng(5), 137, "s", monitor.id, group, T0)
        _assert_same_batch(batch_of([got])[0], builder.build(world.ids))


@pytest.fixture
def split(monkeypatch):
    """Fleets sampled in two processes whatever their size and the usable
    CPUs. Yields the pids of the workers forked; none may be left after."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(simkit, "_workers", lambda: 2)
    monkeypatch.setattr(simkit, "_SPLIT_CAPTURES", 0)
    yield forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(*args):
    """The batch ``run_fleet(*args)`` builds, or the type and text of its error."""
    try:
        return batch_of(run_fleet(*args))[0]
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)


def _split_fleet(monkeypatch, *args):
    """``run_fleet(*args)`` as it runs, once its batch, down to each
    column's dtype and the id table, or its error, is checked to be the
    serial loop's."""
    got = _outcome(*args)
    with monkeypatch.context() as m:
        m.setattr(simkit, "_workers", lambda: 1)
        want = _outcome(*args)
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_batch(got, want)
    return got


def _reversed(world, fleet):
    return make_monitors(world, fleet, 11)[::-1]


def _follows_all(monitor_id):
    def monitors(world, fleet):
        return [*make_monitors(world, fleet, 11), MonitorAccount(monitor_id, GroupLabel.LEFT, frozenset(world.ids), fleet.start)]

    return monitors


class TestSplitFleet:
    """``run_fleet`` with its captures split between two processes,
    against the serial loop."""

    @pytest.mark.parametrize(
        "world_kw, fleet_kw, params_kw, monitors",
        [
            pytest.param({}, {"monitors_per_group": 2, "duration_days": 2}, {}, None, id="default-world"),
            pytest.param(
                {"n_authors": 5000}, {"monitors_per_group": 3, "duration_days": 1, "session_length": 100},
                {}, None, id="5000-authors",
            ),
            pytest.param({}, {"duration_days": 3, "neutral_churn_days": 1}, {}, None, id="neutral-churn"),
            pytest.param({}, {}, {}, _reversed, id="reversed-monitors"),
            pytest.param({}, {"duration_days": 2}, {"rank_jitter": 0.0}, None, id="rank-jitter-0"),
            pytest.param({}, {"duration_days": 2}, {"oon_mix": 0.0}, None, id="oon-mix-0"),
            pytest.param({}, {"duration_days": 2}, {"oon_mix": 1.0}, None, id="oon-mix-1"),
            pytest.param({}, {}, {}, _one_follow, id="one-monitor"),
        ],
    )
    def test_matches_serial(self, monkeypatch, split, world_kw, fleet_kw, params_kw, monitors):
        world = build_world(seed=11, **world_kw)
        fleet = small_fleet(**fleet_kw)
        got = _split_fleet(monkeypatch, world, fleet, RankerParams(seed=11, **params_kw), monitors and monitors(world, fleet))
        assert len(got) > 1 and len(split) == 1

    def test_no_monitors(self, monkeypatch, split):
        world = build_world(seed=11)
        assert len(_split_fleet(monkeypatch, world, small_fleet(), RankerParams(seed=11), [])) == 0
        assert not split

    @pytest.mark.parametrize("where", ["parent", "worker", "both"])
    def test_first_error_in_capture_order(self, monkeypatch, split, where):
        # a monitor that follows every author has no out-of-network
        # candidates; "aaa" sorts before every preset monitor, "zzz" after
        world = build_world(seed=11)
        fleet = small_fleet()
        monitors = make_monitors(world, fleet, 11)
        bad = {"parent": ["aaa"], "worker": ["zzz"], "both": ["aaa", "zzz"]}[where]
        monitors += tuple(MonitorAccount(m, GroupLabel.LEFT, frozenset(world.ids), fleet.start) for m in bad)
        got = _split_fleet(monkeypatch, world, fleet, RankerParams(seed=11), monitors)
        assert got == (DataError, f"monitor {bad[0]} follows every author; no out-of-network candidates")
        assert len(split) == 1

    @pytest.mark.parametrize("kept", ["0-bytes", "mid-column", "one-byte-short"])
    def test_worker_stops_early(self, monkeypatch, split, kept):
        # the worker leaves with its bytes cut short: this process
        # samples the worker's captures again
        forked = simkit._forked

        def cut_short(work):
            def stopped(out):
                sent = io.BytesIO()
                work(sent)
                data = sent.getvalue()  # author, shown (4 bytes a row) and flags (1)
                out.write(data[: {"0-bytes": 0, "mid-column": len(data) // 3 + 1, "one-byte-short": len(data) - 1}[kept]])
                out.flush()
                os._exit(0)

            return forked(stopped)

        monkeypatch.setattr(simkit, "_forked", cut_short)
        world = build_world(seed=11)
        got = _split_fleet(monkeypatch, world, small_fleet(), RankerParams(seed=11))
        assert len(got) == 48 and len(split) == 1

    @pytest.mark.parametrize("workers, captures", [(1, 0), (2, 49)])
    def test_one_process(self, monkeypatch, split, workers, captures):
        # one usable worker, or a fleet of fewer captures than the threshold
        monkeypatch.setattr(simkit, "_workers", lambda: workers)
        monkeypatch.setattr(simkit, "_SPLIT_CAPTURES", captures)
        world = build_world(seed=11)
        assert len(run_fleet(world, small_fleet(), RankerParams(seed=11))) == 48
        assert not split


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
