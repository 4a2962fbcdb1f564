"""Columnar session batches: record views, and the kernels that read the
columns against per-row reference implementations."""

from __future__ import annotations

import json
import random
from datetime import timedelta
from operator import itemgetter, not_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedaudit import (
    ATTR_DISPLAYED,
    ATTR_ORIGINAL,
    GROUP_ORDER,
    SCOPE_ALL,
    SCOPE_OON,
    DataError,
    GroupLabel,
    SessionBatch,
    SessionRecord,
    TimelineEntry,
    build_exposure_table,
    calibrate,
    dataset_stats,
)
from feedaudit.cli import main
from feedaudit.metrics import ExposureTable
from feedaudit.store import DatasetStats, GroupStats

from conftest import T0, entry, session


def reference_exposure_table(sessions, model, *, scope, attribution, include_promoted):
    """Exposure table one row at a time; ``build_exposure_table`` must
    give equal values in the same order."""
    sessions = list(sessions)
    if not sessions:
        raise DataError("cannot build an exposure table from zero sessions")
    monitor_ids = {s.monitor_id for s in sessions}
    if len(monitor_ids) > 1:
        raise DataError(
            f"sessions span multiple monitors: {sorted(monitor_ids)}; build one table per monitor"
        )
    groups = {s.group for s in sessions}
    total = 0
    sums = {}
    for s in sessions:
        if not s.entries:
            continue
        total += len(s.entries)
        weights = model.weights(len(s.entries))
        for e in s.entries:
            if scope == SCOPE_OON and e.in_network:
                continue
            if not include_promoted and e.is_promoted:
                continue
            author = e.author_id if attribution == ATTR_ORIGINAL else e.displayed_author_id
            w = weights[e.rank - 1] if e.rank <= len(weights) else model.visibility(e.rank)
            sums[author] = sums.get(author, 0.0) + w
    if total == 0:
        raise DataError("sessions contain no tweets")
    return ExposureTable(
        monitor_id=monitor_ids.pop(),
        total_tweets=total,
        entries={a: w * (1000.0 / total) for a, w in sums.items()},
        scope=scope,
        attribution=attribution,
        group=groups.pop() if len(groups) == 1 else None,
    )


def reference_dataset_stats(sessions):
    """Composition statistics one row at a time."""
    counts = {}
    total_sessions = total_tweets = ungrouped = 0
    for s in sessions:
        total_sessions += 1
        total_tweets += len(s.entries)
        if s.group is None:
            ungrouped += 1
            continue
        c = counts.setdefault((s.group, s.monitor_id), [0] * 6)
        c[0] += 1
        c[1] += len(s.entries)
        c[2] += sum(map(not_, map(itemgetter(7), s.entries)))
        for k in (3, 4, 5):
            c[k] += sum(map(itemgetter(k + 1), s.entries))
    groups = []
    for group in GROUP_ORDER:
        keys = sorted(k for k in counts if k[0] is group)
        if not keys:
            continue
        monitors = [counts[k] for k in keys]
        for (_, monitor), c in zip(keys, monitors):
            if not c[1]:
                raise DataError(
                    f"group {group.value} monitor {monitor!r} has no tweets; its shares are undefined"
                )
        stat = {}
        for k, name in enumerate(("oon", "retweet", "quote", "promoted"), start=2):
            shares = np.asarray([c[k] / c[1] for c in monitors])
            stat[f"{name}_mean"] = float(shares.mean())
            stat[f"{name}_std"] = float(shares.std())
        groups.append(GroupStats(
            group=group.value,
            monitors=len(keys),
            sessions=sum(c[0] for c in monitors),
            tweets=sum(c[1] for c in monitors),
            **stat,
        ))
    return DatasetStats(tuple(groups), total_sessions, total_tweets, ungrouped)


def outcome(fn, *args, **kw):
    try:
        result = fn(*args, **kw)
    except DataError as exc:
        return ("error", str(exc))
    if isinstance(result, ExposureTable):
        # entries as a list: the values and their order must both match
        return ("table", result.monitor_id, result.total_tweets, list(result.entries.items()), result.group)
    return ("stats", result)


AUTHORS = st.sampled_from(["a", "b", "c", "d", "e", "f"])

# Ranks 1..12 in sessions of at most 8 entries: gaps, duplicates, ranks
# past the session's length and out-of-order ranks all occur.
ENTRIES = st.builds(
    TimelineEntry,
    rank=st.integers(1, 12),
    tweet_id=st.sampled_from(["t1", "t,2", 't"3', "t\n4"]),
    author_id=AUTHORS,
    displayed_author_id=AUTHORS,
    is_retweet=st.booleans(),
    is_quote=st.booleans(),
    is_promoted=st.booleans(),
    in_network=st.booleans(),
)

SESSIONS = st.lists(
    st.builds(
        lambda k, monitor, group, entries: SessionRecord(
            f"s{k}", monitor, T0 + timedelta(hours=k), tuple(entries), group
        ),
        st.integers(0, 10**6),
        st.sampled_from(["m1", "m2", "m3"]),
        st.sampled_from([None, *GroupLabel]),
        st.lists(ENTRIES, max_size=8),
    ),
    max_size=10,
)

OPTIONS = [
    {"scope": scope, "attribution": attribution, "include_promoted": promoted}
    for scope in (SCOPE_OON, SCOPE_ALL)
    for attribution in (ATTR_ORIGINAL, ATTR_DISPLAYED)
    for promoted in (True, False)
]


def as_given(sessions, seed):
    """The sessions three ways: hand-built, as views of one batch, and
    as those views shuffled, so that their rows are not consecutive."""
    views = SessionBatch.from_records(sessions).records()
    shuffled = list(zip(sessions, views))
    random.Random(seed).shuffle(shuffled)
    return [
        (sessions, sessions),
        (sessions, views),
        ([s for s, _ in shuffled], [v for _, v in shuffled]),
    ]


class TestKernelsAgainstRowReferences:
    model = calibrate(10)

    @settings(max_examples=150, deadline=None)
    @given(SESSIONS, st.integers(0, 1000))
    def test_exposure_table(self, sessions, seed):
        for records, given_ in as_given(sessions, seed):
            by_monitor = {}
            for s, g in zip(records, given_):
                by_monitor.setdefault(s.monitor_id, ([], []))
                by_monitor[s.monitor_id][0].append(s)
                by_monitor[s.monitor_id][1].append(g)
            for options in OPTIONS:
                for hand, batch_given in by_monitor.values():
                    want = outcome(reference_exposure_table, hand, self.model, **options)
                    got = outcome(build_exposure_table, batch_given, self.model, **options)
                    assert got == want, options
            # all monitors at once: the same error
            for options in OPTIONS[:1]:
                want = outcome(reference_exposure_table, records, self.model, **options)
                assert outcome(build_exposure_table, given_, self.model, **options) == want

    @settings(max_examples=150, deadline=None)
    @given(SESSIONS, st.integers(0, 1000))
    def test_dataset_stats(self, sessions, seed):
        for records, given_ in as_given(sessions, seed):
            assert outcome(dataset_stats, given_) == outcome(reference_dataset_stats, records)


class TestDatasetStatsSegments:
    """``dataset_stats`` sums each session's flags with
    ``np.add.reduceat``, which gives an empty segment the row after it
    rather than 0, and cannot start a segment at the end of the rows."""

    @staticmethod
    def full(k, monitor="m1", group="left"):
        flags = [dict(rt=True), dict(quote=True, in_net=True), dict(promoted=True), {}]
        return session(
            f"s{k}", monitor, [entry(r, "a", **flags[(r + k) % 4]) for r in range(1, k + 2)], group=group
        )

    @pytest.mark.parametrize(
        "layout",
        [
            "e..",  # an empty session first,
            ".e.",  # in the middle,
            "..e",  # last,
            "ee.e.ee",
            ".u.",  # an ungrouped session,
            "u",
            ".",  # a single session
            "e",
        ],
    )
    def test_equal_to_counts_from_entries(self, layout):
        records = []
        for k, c in enumerate(layout):
            if c == "e":
                records.append(session(f"s{k}", "m1", [], group="left"))
            else:
                records.append(self.full(k, monitor="m1" if k % 2 else "m2", group=None if c == "u" else "left"))
        for hand, given_ in as_given(records, 3):
            assert outcome(dataset_stats, given_) == outcome(reference_dataset_stats, hand)


class TestRecordViews:
    def test_views_equal_their_records(self):
        records = [
            session("s1", "m1", [entry(1, "a", rt=True), entry(3, "b", in_net=True)], group="left"),
            session("s2", "m2", [], group="right"),
            session("s3", "m1", [entry(1, "x", tweet_id="t,\r\n\0")]),
        ]
        views = SessionBatch.from_records(records).records()
        assert views == records
        assert [len(v) for v in views] == [2, 0, 1]
        assert [hash(v) for v in views] == [hash(r) for r in records]
        assert [v.columns() for v in views] == [
            tuple(map(list, r.columns())) for r in records
        ]

    def test_entries_built_once_and_only_when_read(self, monkeypatch):
        calls = []
        built = SessionBatch.entries
        monkeypatch.setattr(
            SessionBatch, "entries", lambda self, i: calls.append(i) or built(self, i)
        )
        (view,) = SessionBatch.from_records([session("s1", "m1", [entry(1, "a")], group="left")]).records()
        assert (len(view), view.session_id, view.monitor_id, view.group) == (1, "s1", "m1", GroupLabel.LEFT)
        assert calls == []
        assert view.entries == (entry(1, "a"),)
        assert view.entries is view.entries
        assert calls == [0]

    def test_records_are_immutable(self):
        (view,) = SessionBatch.from_records([session("s1", "m1", [entry(1, "a")])]).records()
        for record in (view, session("s1", "m1", [entry(1, "a")])):
            with pytest.raises(AttributeError):
                record.monitor_id = "m2"


class TestCliBuildsNoEntries:
    def test_pipeline_and_report(self, tmp_path, monkeypatch, capsys):
        def no_entries(self, index):
            raise AssertionError("entries built from a batch")

        monkeypatch.setattr(SessionBatch, "entries", no_entries)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"fleet": {"monitors_per_group": 2, "duration_days": 1}}))
        piped, reported = tmp_path / "piped", tmp_path / "reported"
        assert main(["pipeline", "--seed", "7", "--config", str(cfg), "--out-dir", str(piped)]) == 0
        assert main([
            "report", "--input", str(piped / "sessions.csv"),
            "--authors", str(piped / "authors.csv"), "--out-dir", str(reported),
        ]) == 0
        assert (piped / "topk.csv").read_bytes() == (reported / "topk.csv").read_bytes()
