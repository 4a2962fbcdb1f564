"""Session-log round trips, ingestion accounting, and report emission."""

from __future__ import annotations

import csv
import dataclasses
import gc
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from datetime import datetime, timezone
from enum import Enum
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedaudit import (
    DataError,
    FleetConfig,
    GroupLabel,
    ParseError,
    RankerParams,
    SessionBatch,
    SessionRecord,
    TimelineEntry,
    build_world,
    dataset_stats,
    emit_report,
    lean_labels,
    make_monitors,
    read_authors,
    read_sessions,
    run_fleet,
    write_authors,
    write_sessions,
)
from feedaudit import store
from feedaudit.model import BatchBuilder, ensure_utc, validate_session
from feedaudit.store import SESSION_FIELDS, IngestResult, format_float

from conftest import T0, authors_session, entry, session


@pytest.fixture(scope="module")
def fleet_sessions():
    world = build_world(n_authors=90, seed=13)
    fleet = FleetConfig(
        monitors_per_group=2,
        sessions_per_day=2,
        duration_days=2,
        session_length={"default": 60, "neutral": 50},
    )
    return run_fleet(world, fleet, RankerParams(seed=13))


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRoundTrip:
    def test_exact_record_equality(self, fleet_sessions, tmp_path):
        path = tmp_path / "log.csv"
        count = write_sessions(fleet_sessions, path)
        assert count == len(fleet_sessions)
        res = read_sessions(path)
        assert res.total == len(fleet_sessions)
        assert res.skipped == 0 and res.filtered == 0
        assert list(res.sessions) == list(fleet_sessions)

    def test_write_is_deterministic(self, fleet_sessions, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sessions(fleet_sessions, p1)
        write_sessions(fleet_sessions, p2)
        assert digest(p1) == digest(p2)

    def test_rewrite_after_read_identical(self, fleet_sessions, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sessions(fleet_sessions, p1)
        write_sessions(read_sessions(p1).sessions, p2)
        assert digest(p1) == digest(p2)

    def test_append_preserves_write_order(self, tmp_path):
        path = tmp_path / "log.csv"
        first = authors_session("s1", "m1", ["a", "b"], group="neutral")
        second = authors_session("s2", "m1", ["c", "d"], group="neutral")
        write_sessions([first], path)
        write_sessions([second], path, append=True)
        res = read_sessions(path)
        assert [s.session_id for s in res.sessions] == ["s1", "s2"]
        header_rows = [
            row for row in csv.reader(path.open()) if row and row[0] == "session_id"
        ]
        assert len(header_rows) == 1

    def test_gc_state_restored(self, fleet_sessions, tmp_path):
        # the read leaves the cyclic collector as it found it
        path = tmp_path / "log.csv"
        write_sessions(fleet_sessions, path)
        assert gc.isenabled()
        read_sessions(path)
        assert gc.isenabled()
        gc.disable()
        try:
            read_sessions(path)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_timestamps_utc_z(self, tmp_path):
        path = tmp_path / "log.csv"
        rec = authors_session(
            "s1",
            "m1",
            ["a"],
            captured_at=datetime(2024, 10, 2, 6, 30, tzinfo=timezone.utc),
        )
        write_sessions([rec], path)
        assert "2024-10-02T06:30:00Z" in path.read_text()
        back = read_sessions(path).sessions[0]
        assert back.captured_at == rec.captured_at
        assert back.captured_at.tzinfo is not None


class TestGoldenLog:
    """The bytes of a simulated log and its roster, pinned across changes
    to the simulator and the writers (seed 7, two monitors per group, one
    day: 32 sessions, 20,800 rows)."""

    def test_digests(self, tmp_path):
        world = build_world(seed=7)
        fleet = FleetConfig(monitors_per_group=2, duration_days=1)
        sessions = run_fleet(world, fleet, RankerParams(seed=7))
        write_sessions(sessions, tmp_path / "sessions.csv")
        write_authors(world.authors, tmp_path / "authors.csv")
        assert digest(tmp_path / "sessions.csv") == (
            "6671a5af3945cc2449c15336c76bd0ea28efef363bef2ea358e34c987591e9f7"
        )
        assert digest(tmp_path / "authors.csv") == (
            "4e798b54763585f4fd687814edae9c450a3fb1ec04d20f84f63d768f3edcfbcd"
        )


def _transient_read(path):
    """A read of ``path``, and what it held at its peak beyond what it
    keeps, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        res = read_sessions(path)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return res, peak - retained


class TestReadMemory:
    def test_bytes_per_row_retained(self, tmp_path):
        # What a read keeps alive per row of this 20,800-row log, under
        # tracemalloc: 194.7 bytes with one TimelineEntry tuple per row,
        # 47.7 with the columns of a SessionBatch. The bound is 60% of
        # the former.
        world = build_world(seed=7)
        sessions = run_fleet(world, FleetConfig(monitors_per_group=2, duration_days=1), RankerParams(seed=7))
        path = tmp_path / "sessions.csv"
        write_sessions(sessions, path)
        rows = sum(map(len, sessions))
        del sessions
        gc.collect()
        tracemalloc.start()
        try:
            res = read_sessions(path)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(res.sessions), rows) == (32, 20_800)
        assert retained / rows <= 0.6 * 194.7

    def test_transient_bounded_by_block_size(self, tmp_path):
        # What a read holds at its peak beyond what it keeps, under
        # tracemalloc, on a 1-day and a 2-day log: 1.61 and 1.81 MiB with
        # blocks of 256 KiB (0.75 MiB for both when csv.reader read every
        # row). A read that held the log, or a share of it, would grow
        # with it.
        world = build_world(seed=7)
        transient = []
        for days in (1, 2):
            sessions = run_fleet(world, FleetConfig(monitors_per_group=2, duration_days=days), RankerParams(seed=7))
            path = tmp_path / f"{days}.csv"
            write_sessions(sessions, path)
            del sessions
            res, held = _transient_read(path)
            assert res.total == 32 * days
            del res
            transient.append(held)
        one, two = transient
        assert two <= 1.25 * one
        assert one <= 8 * store._BLOCK_BYTES

    def test_transient_bounded_by_block_size_split(self, tmp_path, split):
        # The same bounds with each read split in two processes: the
        # worker's half comes over in messages of at most _PART rows, each
        # added to the batch as it arrives.
        self.test_transient_bounded_by_block_size(tmp_path)
        assert len(split) == 2

    def test_transient_bounded_with_a_long_id(self, tmp_path):
        # An author id of 50 KB in the middle of the 1-day log: 1.1 MiB
        # under tracemalloc, as its block goes to the row loop. Read as a
        # fixed-width column, it would take 50 KB and 400 KB of gather
        # index for each row of its block (300 MiB with 16 KiB blocks).
        world = build_world(seed=7)
        path = tmp_path / "log.csv"
        write_sessions(run_fleet(world, FleetConfig(monitors_per_group=2, duration_days=1), RankerParams(seed=7)), path)
        lines = path.read_text().split("\n")
        _set(lines, 10_000, 6, "a" * 50_000)
        path.write_text("\n".join(lines))
        res, held = _transient_read(path)
        assert (res.total, res.skipped) == (32, 0)
        assert any("a" * 50_000 in s.columns()[2] for s in res.sessions)
        assert held <= 8 * store._BLOCK_BYTES


def _transient_write(sessions, path):
    """What a write of ``sessions`` held at its peak beyond what it
    keeps, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        write_sessions(sessions, path)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - retained


class TestWriteMemory:
    def test_transient_bounded_by_block_size(self, tmp_path):
        # What a write of the views of a 1-day and a 2-day log holds at its
        # peak beyond what it keeps: 1.80 and 1.82 MiB with blocks of at
        # least 4,096 rows (0.40 MiB for both when each session was
        # formatted as one string). A write that formatted the log, or a
        # share of it, at once would grow with it.
        world = build_world(seed=7)
        transient = []
        for days in (1, 2):
            sessions = run_fleet(world, FleetConfig(monitors_per_group=2, duration_days=days), RankerParams(seed=7))
            transient.append(_transient_write(sessions, tmp_path / f"{days}.csv"))
        one, two = transient
        assert two <= 1.25 * one
        assert one <= 1024 * store._WRITE_ROWS

    def test_transient_bounded_with_a_long_id(self, tmp_path):
        # The views of the 1-day log read back with a 50 KB author id and,
        # in another session, a 50 KB tweet id: 1.80 MiB. The author id is
        # left out of the writer's id table, and both sessions are written
        # by csv.writer; as a column of the byte matrix either id would
        # take 50 KB for each row of its block, and in the id table the
        # author id would widen every entry to 50 KB.
        world = build_world(seed=7)
        path = tmp_path / "log.csv"
        write_sessions(run_fleet(world, FleetConfig(monitors_per_group=2, duration_days=1), RankerParams(seed=7)), path)
        lines = path.read_text().split("\n")
        _set(lines, 10_000, 6, "a" * 50_000)
        _set(lines, 15_000, 5, "t" * 50_000)
        path.write_text("\n".join(lines))
        sessions = read_sessions(path).sessions
        held = _transient_write(sessions, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
        assert held <= 1024 * store._WRITE_ROWS

    def test_rank_past_the_session_length(self, tmp_path):
        # A rank far past its session's length is written by csv.writer:
        # the table of rank texts grows only to the longest session.
        records = [session("s1", "m1", [entry(1, "a"), entry(1_000_000, "b")], group="left")]
        held = _transient_write(records, tmp_path / "got.csv")
        reference_write(records, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert held <= 1024 * store._WRITE_ROWS


class TestFilters:
    def test_group_filter(self, fleet_sessions, tmp_path):
        path = tmp_path / "log.csv"
        write_sessions(fleet_sessions, path)
        res = read_sessions(path, group="neutral")
        assert all(s.group is GroupLabel.NEUTRAL for s in res.sessions)
        expected_out = sum(s.group is not GroupLabel.NEUTRAL for s in fleet_sessions)
        assert res.filtered == expected_out
        assert res.total == len(res.sessions) + res.filtered + res.skipped

    def test_monitor_filter(self, fleet_sessions, tmp_path):
        path = tmp_path / "log.csv"
        write_sessions(fleet_sessions, path)
        target = fleet_sessions[0].monitor_id
        res = read_sessions(path, monitor_id=target)
        assert {s.monitor_id for s in res.sessions} == {target}

    def test_date_window_half_open(self, fleet_sessions, tmp_path):
        path = tmp_path / "log.csv"
        write_sessions(fleet_sessions, path)
        start = min(s.captured_at for s in fleet_sessions)
        res = read_sessions(path, start=start, end=start)
        assert res.sessions == ()
        res = read_sessions(
            path, start=start, end=start.replace(hour=start.hour + 1)
        )
        assert res.sessions and all(s.captured_at == start for s in res.sessions)

    def test_excluding_everything_is_not_skipping(self, fleet_sessions, tmp_path):
        path = tmp_path / "log.csv"
        write_sessions(fleet_sessions, path)
        res = read_sessions(path, start=datetime(2030, 1, 1, tzinfo=timezone.utc))
        assert len(res.sessions) == 0
        assert res.skipped == 0
        assert res.filtered == res.total


class TestIngestionDefects:
    def _write_lines(self, tmp_path, mutate):
        path = tmp_path / "log.csv"
        write_sessions(
            [
                authors_session("s1", "m1", ["a", "b"], group="neutral"),
                authors_session("s2", "m1", ["c", "d"], group="neutral"),
            ],
            path,
        )
        lines = path.read_text().splitlines()
        mutate(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_corrupt_boolean_names_line(self, tmp_path):
        path = self._write_lines(tmp_path, lambda ls: ls.__setitem__(2, ls[2].replace("false", "maybe", 1)))
        with pytest.raises(ParseError) as err:
            read_sessions(path)
        assert ":3" in str(err.value)

    def test_error_line_counts_quoted_line_breaks(self, tmp_path):
        path = tmp_path / "log.csv"
        entries = [entry(1, "a", tweet_id="t\nx"), entry(2, "b"), entry(3, "c")]
        write_sessions([session("s1", "m1", entries, group="left")], path)
        text = path.read_text()
        # the third row is on physical line 5: its first field is on line 2
        assert text.splitlines()[4].startswith("s1,m1,left,")
        path.write_text(text[: -len("false\n")] + "maybe\n")
        with pytest.raises(ParseError) as err:
            read_sessions(path)
        assert str(err.value).endswith(":5]")

    def test_wrong_header(self, tmp_path):
        path = self._write_lines(tmp_path, lambda ls: ls.__setitem__(0, "a,b,c"))
        with pytest.raises(ParseError) as err:
            read_sessions(path)
        assert ":1" in str(err.value)

    def test_bad_rank_skips_session_with_violation(self, tmp_path):
        def mutate(lines):
            # second line of session s1: rank 2 -> 7 creates a gap
            lines[2] = lines[2].replace(",2,", ",7,", 1)

        path = self._write_lines(tmp_path, mutate)
        res = read_sessions(path)
        assert res.skipped == 1
        assert [s.session_id for s in res.sessions] == ["s2"]
        assert "s1" in res.violations
        assert res.total == 2

    def test_duplicate_session_id(self, tmp_path):
        path = tmp_path / "log.csv"
        rec = authors_session("dup", "m1", ["a"], group="neutral")
        other = authors_session("dup", "m2", ["b"], group="neutral")
        write_sessions([rec], path)
        write_sessions([other], path, append=True)
        res = read_sessions(path)
        assert res.skipped >= 1
        assert "dup" in res.violations

    def test_in_network_without_follow_info_accepted(self, tmp_path):
        path = tmp_path / "log.csv"
        rec = session(
            "s1", "m1", [entry(1, "a", in_net=True), entry(2, "b")], group="left"
        )
        write_sessions([rec], path)
        res = read_sessions(path)
        assert res.skipped == 0

    def test_follows_check_applied_when_given(self, tmp_path):
        path = tmp_path / "log.csv"
        rec = session(
            "s1", "m1", [entry(1, "a", in_net=True), entry(2, "b")], group="left"
        )
        write_sessions([rec], path)
        res = read_sessions(path, follows={"m1": frozenset({"b"})})
        assert res.skipped == 1 and "s1" in res.violations

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_sessions(tmp_path / "nope.csv")


def reference_write(sessions, path, *, append=False):
    """Row-by-row session-log writer: one ``csv.writer`` row per entry,
    ending in a line feed, with every field that holds a carriage return
    or a line feed quoted. ``write_sessions`` must write the same bytes."""
    need_header = not (append and path.exists() and path.stat().st_size > 0)

    def csv_line(fields):
        # a "\r\n" terminator makes csv.writer quote "\r" as well as "\n"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        return buf.getvalue().removesuffix("\r\n") + "\n"

    with path.open("a" if append else "w", newline="", encoding="utf-8") as fh:
        if need_header:
            fh.write(csv_line(SESSION_FIELDS))
        for s in sessions:
            group = s.group.value if s.group is not None else ""
            ts = ensure_utc(s.captured_at).isoformat().replace("+00:00", "Z")
            for e in s.entries:
                flags = ("true" if flag else "false" for flag in e[4:])
                fh.write(csv_line((s.session_id, s.monitor_id, group, ts, *e[:4], *flags)))


def _ids(text):
    """Two sessions whose session, monitor, tweet and author ids all hold ``text``."""
    return [
        session(f"s{text}1", f"m{text}", [
            entry(1, f"a{text}", tweet_id=f"t{text}"),
            entry(2, "b", displayed=f"{text}d", rt=True),
        ], group="left"),
        authors_session(f"s{text}2", "m", [text, "c"], group="right"),
    ]


def _flags(*values):
    """One session whose entries carry ``values`` as their retweet,
    promoted and in_network flags."""
    return [session("s1", "m1", [
        entry(r, "a", rt=v, promoted=v, in_net=v) for r, v in enumerate(values, start=1)
    ], group="left")]


# (sessions, whether read_sessions gives them back equal)
WRITE_CASES = {
    "plain": (_ids("x"), True),
    "comma": (_ids("x,y"), True),
    "double quote": (_ids('x"y'), True),
    "line feed": (_ids("x\ny"), True),
    "carriage return": (_ids("x\ry"), True),
    "CRLF": (_ids("x\r\ny"), True),
    "NUL": (_ids("x\0y"), True),
    "percent sign": (_ids("x%dy%%"), True),
    "non-ASCII": (_ids("\u00e9\u20ac\U0001f600"), True),
    "non-str ids": (
        [session(7, "m1", [TimelineEntry(1, None, "a", 3.5, False, False, False, False)], group="left")],
        False,
    ),
    "no group": ([session("s1", "m1", [entry(1, "a"), entry(2, "b")])], True),
    "empty session": (
        [session("s0", "m1", [], group="left"), *_ids("x"), session("s9", "m1", [], group="left")],
        True,
    ),
    "numpy ranks": (
        [session("s1", "m1", [entry(np.int64(r), "a") for r in (1, 2, 3)], group="left")],
        True,
    ),
    "bool rank": ([session("s1", "m1", [entry(True, "a")], group="left")], False),
    "numpy flags": (_flags(np.True_, np.False_, np.bool_(True)), True),
    "0/1 flags": (_flags(1, 0, 1), True),
    "flag 2": (_flags(2, 0), False),
}


class TestWriterDifferential:
    """write_sessions against the row-by-row reference writer on records
    whose fields need quoting or are not plain str/int/bool values."""

    @pytest.mark.parametrize("append", [False, True])
    @pytest.mark.parametrize("case", list(WRITE_CASES))
    def test_matches_reference(self, tmp_path, case, append):
        sessions, round_trips = WRITE_CASES[case]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        if append:
            # the first session, then the others appended to the same file
            write_sessions(sessions[:1], got)
            assert write_sessions(sessions[1:], got, append=True) == len(sessions) - 1
            reference_write(sessions[:1], want)
            reference_write(sessions[1:], want, append=True)
        else:
            assert write_sessions(sessions, got) == len(sessions)
            reference_write(sessions, want)
        assert got.read_bytes() == want.read_bytes()
        if round_trips:
            res = read_sessions(got)
            assert res.skipped == 0
            assert list(res.sessions) == [s for s in sessions if s.entries]


_WRITE_ALPHABET = st.sampled_from(list('ab1,"\r\n\0%\u00e9'))
# mostly ids that need no quoting, so that one odd field in a session is
# what sends it to csv.writer
_PLAIN_WRITE_IDS = st.sampled_from(["a", "bb", "a0001", ""])
_WRITE_IDS = st.one_of(_PLAIN_WRITE_IDS, _PLAIN_WRITE_IDS, _PLAIN_WRITE_IDS, st.text(_WRITE_ALPHABET, max_size=4))


@st.composite
def hand_built(draw):
    """A record built from its entries: ids from an alphabet that needs
    quoting now and then, and ranks that run 1..L but now and then cross a
    digit boundary, are below 1 or do not fit in 32 bits."""
    entries = []
    for r in range(1, draw(st.integers(0, 4)) + 1):
        rank = draw(st.sampled_from([r, r, r, 1, 9, 10, 9999, 10000, 0, -3, 1 << 40]))
        flags = draw(st.lists(st.booleans(), min_size=4, max_size=4))
        entries.append(TimelineEntry(rank, draw(_WRITE_IDS), draw(_WRITE_IDS), draw(_WRITE_IDS), *flags))
    return session(
        draw(_WRITE_IDS), draw(_WRITE_IDS), entries,
        captured_at=draw(st.sampled_from([T0, datetime(2024, 10, 3, 12, 30, 15, 250)])),
        group=draw(st.sampled_from([None, *GroupLabel])),
    )


@pytest.fixture(scope="module")
def read_views(tmp_path_factory):
    """The views of a log read back: for each field that holds an id and
    each of a few odd ids (needing quoting, holding NUL or non-ASCII text,
    or longer than the writer's matrix takes), a session whose only odd
    field is that one, and plain sessions."""
    odd = ["b,c", 'd"e', "f\rg", "h\ni", "j\0k", "l%m", "\u00e9", "x" * 70]
    records = []
    for k, text in enumerate([*odd, "", "plain"]):
        for field in ("session", "monitor", "tweet", "author", "shown"):
            def pick(name, plain, text=text, field=field):
                return text if field == name and text not in ("", "plain") else plain
            records.append(session(pick("session", f"r{k}-{field}"), pick("monitor", "m"), [
                entry(1, pick("author", "a"), tweet_id=pick("tweet", f"t{k}")),
                entry(2, "a", displayed=pick("shown", "bb"), rt=True),
                entry(3, "bb"),
            ], group="left"))
    path = tmp_path_factory.mktemp("odd") / "log.csv"
    reference_write(records, path)
    res = read_sessions(path)
    assert (res.skipped, list(res.sessions)) == (0, records)
    return res.sessions


class TestWriterRandom:
    """write_sessions against the reference writer on calls that mix views
    of a simulated batch, views of a read batch and hand-built records."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_mixes(self, fleet_sessions, read_views, tmp_path_factory, data):
        parts = [
            *data.draw(st.lists(st.sampled_from(fleet_sessions), min_size=1, max_size=3)),
            *data.draw(st.lists(st.sampled_from(read_views), min_size=1, max_size=3)),
            *data.draw(st.lists(hand_built(), min_size=1, max_size=4)),
        ]
        sessions = data.draw(st.permutations(parts))
        split = data.draw(st.none() | st.integers(0, len(sessions)))
        root = tmp_path_factory.mktemp("write")
        got, want = root / "got.csv", root / "want.csv"
        if split is None:
            assert write_sessions(sessions, got) == len(sessions)
            reference_write(sessions, want)
        else:
            # the first sessions, then the others appended to the same file
            write_sessions(sessions[:split], got)
            assert write_sessions(sessions[split:], got, append=True) == len(sessions) - split
            reference_write(sessions[:split], want)
            reference_write(sessions[split:], want, append=True)
        assert got.read_bytes() == want.read_bytes()

    def test_long_session_ranks(self, tmp_path, monkeypatch):
        # ranks of 1 to 5 digits through the byte matrix, across blocks
        records = SessionBatch.from_records([
            authors_session("long", "m1", [f"a{r % 7}" for r in range(10_001)], group="left"),
            authors_session("short", "m1", ["a1"], group="right"),
        ]).records()
        monkeypatch.setattr(store, "_csv_text", None)  # no session needs csv.writer
        monkeypatch.setattr(store, "_WRITE_ROWS", 3)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_sessions(records, got)
        reference_write(records, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("text, ends", [("t1t2xx", [2, 4]), ("t1", [4, 2])])
    def test_tweet_text_and_ends_disagree(self, tmp_path, text, ends):
        # A session's tweet ids are sliced from its text by the ends of its
        # rows: text past the last end is no tweet id and does not shift the
        # next session's, an end past the text stops at it, and an end
        # before the one above it gives "".
        builder = BatchBuilder()
        builder.add("s1", "m1", T0, GroupLabel.LEFT, [0, 1], [0, 1], [1, 2], [0, 0], text, ends)
        builder.add("s2", "m1", T0, GroupLabel.LEFT, [1], [1], [1], [0], "t3", [2])
        records = builder.build(("a", "b")).records()
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_sessions(records, got)
        reference_write(records, want)
        assert got.read_bytes() == want.read_bytes()

    def test_str_subclass_ids(self, tmp_path):
        # csv.writer writes the text of a str subclass, which its str()
        # need not give
        class Kind(str, Enum):
            A = "a"

        records = [session("s1", "m1", [entry(1, "a", tweet_id=Kind.A), entry(2, Kind.A)], group="left")]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_sessions(records, got)
        reference_write(records, want)
        assert got.read_bytes() == want.read_bytes()

    def test_simulated_log_needs_no_fallback(self, fleet_sessions, tmp_path, monkeypatch):
        path = tmp_path / "log.csv"
        write_sessions(fleet_sessions, path)
        monkeypatch.setattr(store, "_csv_text", None)
        write_sessions(fleet_sessions, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def reference_read(path, *, group=None, monitor_id=None, start=None, end=None, follows=None):
    """Row-by-row session-log reader: one TimelineEntry per row as each
    row is parsed, and validate_session on every session that no filter
    excludes. ``read_sessions`` must agree with it."""
    where = str(path)
    want = GroupLabel(group) if group is not None else None
    groups = {g.value for g in GroupLabel}
    sessions, violations, seen = [], {}, set()
    counts = {"total": 0, "filtered": 0, "skipped": 0}

    def parse_bool(text, line):
        if text not in ("true", "false"):
            raise ParseError(f"bad boolean {text!r} (expected true/false)", path=where, line=line)
        return text == "true"

    def flush(current):
        counts["total"] += 1
        first_line, first = current[0]
        sid, mon, grp_text, ts_text = first[:4]
        grp = GroupLabel(grp_text) if grp_text else None
        try:
            captured = ensure_utc(datetime.fromisoformat(ts_text.replace("Z", "+00:00")))
        except ValueError:
            raise ParseError(f"bad timestamp {ts_text!r}", path=where, line=first_line) from None
        if (
            (want is not None and grp is not want)
            or (monitor_id is not None and mon != monitor_id)
            or (start and captured < start)
            or (end and captured >= end)
        ):
            counts["filtered"] += 1
            return
        issues, entries = [], []
        for line, row in current:
            if row[1:4] != first[1:4]:
                issues.append(f"line {line}: inconsistent session header fields")
            try:
                rank = int(row[4])
            except ValueError:
                raise ParseError(f"bad rank {row[4]!r}", path=where, line=line) from None
            flags = [parse_bool(text, line) for text in row[8:]]
            entries.append(TimelineEntry(rank, row[5], row[6], row[7], *flags))
        record = SessionRecord(sid, mon, captured, tuple(entries), grp)
        if sid in seen:
            issues.append("duplicate session id")
        seen.add(sid)
        issues += validate_session(record, follows.get(mon) if follows is not None else None)
        if issues:
            counts["skipped"] += 1
            violations[sid] = tuple(issues)
        else:
            sessions.append(record)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != SESSION_FIELDS:
            raise ParseError(f"unexpected header {header!r}", path=where, line=1)
        current, sid, last = [], None, 1
        for row in reader:
            # a record starts on the line after the one the previous record
            # (or blank line) ended on
            line, last = last + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(SESSION_FIELDS):
                raise ParseError(
                    f"expected {len(SESSION_FIELDS)} fields, got {len(row)}", path=where, line=line
                )
            if row[2] and row[2] not in groups:
                raise ParseError(f"unknown group {row[2]!r}", path=where, line=line)
            if row[0] != sid:
                if current:
                    flush(current)
                current, sid = [], row[0]
            current.append((line, row))
        if current:
            flush(current)
    return IngestResult(
        tuple(sessions), counts["total"], counts["filtered"], counts["skipped"], violations
    )


def _set(lines, i, col, value):
    fields = lines[i].split(",")
    fields[col] = value
    lines[i] = ",".join(fields)


def _blank_before(*offsets):
    def mutate(lines, i):
        for k in sorted(offsets, reverse=True):
            lines.insert(i + k, "")

    return mutate


def _then(*mutations):
    def mutate(lines, i):
        for m in mutations:
            m(lines, i)

    return mutate


def _quoted_breaks(lines, i):
    # tweet ids holding a line feed, a CRLF, a carriage return, a line
    # feed then a carriage return, and two line feeds
    for k, text in ((1, '"t\nx"'), (2, '"t\r\nx"'), (3, '"t\rx"'), (4, '"t\n\ry"'), (5, '"t\n\ny"')):
        _set(lines, i + k, 5, text)


# (target group, mutation of the lines of one of its sessions, whose
# first line is lines[i], and the unfiltered outcome without follows)
INGEST_CASES = {
    "unmodified": ("left", lambda ls, i: None, "ok"),
    "rank not an integer": ("left", lambda ls, i: _set(ls, i + 3, 4, "4.0"), "error"),
    "rank gap": ("left", lambda ls, i: _set(ls, i + 3, 4, "9"), "skip"),
    "duplicate rank": ("left", lambda ls, i: _set(ls, i + 3, 4, "3"), "skip"),
    "ranks swapped": (
        "left",
        _then(lambda ls, i: _set(ls, i + 3, 4, "5"), lambda ls, i: _set(ls, i + 4, 4, "4")),
        "skip",
    ),
    "rank below one": ("left", lambda ls, i: _set(ls, i, 4, "0"), "skip"),
    "boolean typo": ("left", lambda ls, i: _set(ls, i + 3, 9, "True"), "error"),
    "unknown group": ("left", lambda ls, i: _set(ls, i + 3, 2, "centre"), "error"),
    "extra field": ("left", lambda ls, i: ls.__setitem__(i + 3, ls[i + 3] + ",x"), "error"),
    "missing field": ("left", lambda ls, i: ls.__setitem__(i + 3, ls[i + 3].rsplit(",", 1)[0]), "error"),
    "monitor changed": ("left", lambda ls, i: _set(ls, i + 3, 1, "left-999"), "skip"),
    "group changed": ("left", lambda ls, i: _set(ls, i + 3, 2, "right"), "skip"),
    "group emptied": ("left", lambda ls, i: _set(ls, i + 3, 2, ""), "skip"),
    "timestamp changed": ("left", lambda ls, i: _set(ls, i + 3, 3, "2024-10-09T00:00:00Z"), "skip"),
    "bad timestamp": ("left", lambda ls, i: _set(ls, i, 3, "2024-13-40T00:00:00Z"), "error"),
    "retweet and quote": (
        "left",
        _then(lambda ls, i: _set(ls, i + 3, 8, "true"), lambda ls, i: _set(ls, i + 3, 9, "true")),
        "skip",
    ),
    "neutral in_network": ("neutral", lambda ls, i: _set(ls, i + 3, 11, "true"), "skip"),
    "duplicate session id": ("left", lambda ls, i: ls.extend(ls[i : i + 12]), "skip"),
    "blank lines": ("left", _blank_before(2, 5), "ok"),
    "blank lines, then a typo": (
        "left",
        _then(lambda ls, i: _set(ls, i + 6, 10, "no"), _blank_before(2, 5)),
        "error",
    ),
    "blank lines, then a new monitor": (
        "left",
        _then(lambda ls, i: _set(ls, i + 6, 1, "left-999"), _blank_before(2, 5)),
        "skip",
    ),
    "blank line after the session, then a new monitor": (
        "left",
        _then(lambda ls, i: _set(ls, i + 6, 1, "left-999"), _blank_before(12)),
        "skip",
    ),
    "blank line after the session, then a typo": (
        "left",
        _then(lambda ls, i: _set(ls, i + 11, 10, "no"), _blank_before(12)),
        "error",
    ),
    "quoted line breaks": ("left", _quoted_breaks, "ok"),
    "quoted line breaks, then a typo": (
        "left",
        _then(lambda ls, i: _set(ls, i + 6, 10, "no"), _quoted_breaks),
        "error",
    ),
    "quoted line breaks, one in a row with an unknown group": (
        "left",
        _then(lambda ls, i: _set(ls, i + 5, 2, "centre"), _quoted_breaks),
        "error",
    ),
    "quoted line breaks, then a new monitor": (
        "left",
        _then(lambda ls, i: _set(ls, i + 6, 1, "left-999"), _quoted_breaks),
        "skip",
    ),
}


@pytest.fixture(scope="module")
def ingest_log(tmp_path_factory):
    """The lines of a simulated log of 16 sessions of 12 rows, its follow
    sets and its last capture time."""
    world = build_world(n_authors=60, seed=5)
    fleet = FleetConfig(monitors_per_group=2, sessions_per_day=1, duration_days=2, session_length=12)
    params = RankerParams(seed=5)
    monitors = make_monitors(world, fleet, params.seed)
    sessions = run_fleet(world, fleet, params, monitors)
    path = tmp_path_factory.mktemp("diff") / "log.csv"
    write_sessions(sessions, path)
    return {
        "lines": path.read_text().splitlines(),
        "follows": {m.id: m.follows for m in monitors},
        "day2": max(s.captured_at for s in sessions),
    }


def _mutated(log, case, group=None):
    """The log's lines with the defect of ``INGEST_CASES[case]`` in its
    target session, the second session of ``group`` (by default the
    case's), so that the log has sessions before and after it; the index
    of the target's first line and its monitor."""
    case_group, mutate, _ = INGEST_CASES[case]
    group = group or case_group
    lines = list(log["lines"])
    first = next(i for i, line in enumerate(lines) if line.split(",")[2] == group)
    target = lines[first].split(",")[0]
    i = next(k for k in range(first, len(lines)) if lines[k].split(",")[0] != target)
    monitor = lines[i].split(",")[1]
    mutate(lines, i)
    return lines, i, monitor


def _outcome(reader, path, **kw):
    try:
        res = reader(path, **kw)
    except (DataError, ParseError, csv.Error, UnicodeDecodeError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("result", res.sessions, res.total, res.filtered, res.skipped, dict(res.violations))


class TestIngestDifferential:
    """read_sessions against the row-by-row reference reader on logs with
    one defect each, with and without follow sets and under each filter."""

    @pytest.mark.parametrize("case", list(INGEST_CASES))
    def test_matches_reference(self, ingest_log, tmp_path, case):
        group, _, expected = INGEST_CASES[case]
        lines, _, monitor = _mutated(ingest_log, case)
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")

        res = _outcome(read_sessions, path)
        kind = res[0] if res[0] == "error" else ("skip" if res[4] else "ok")
        assert kind == expected, res[:1] + res[2:]
        filters = [
            {},
            {"group": "neutral"},
            {"group": group},
            {"monitor_id": monitor},
            {"start": ingest_log["day2"]},
            {"end": ingest_log["day2"]},
        ]
        for follows in (None, ingest_log["follows"]):
            for kw in filters:
                got = _outcome(read_sessions, path, follows=follows, **kw)
                want = _outcome(reference_read, path, follows=follows, **kw)
                assert got == want, (kw, follows is not None)


def _byte_length(lines):
    return sum(len(line.encode()) + 1 for line in lines)


# The size of the first block, which starts after the header line, that
# puts the target session of an INGEST_CASES case at a given place among
# the blocks: ls are the log's lines, i is the index of the target's
# first line and j that of the first line after it. Each later block
# holds what the one before left over and at least as many bytes again.
BLOCK_CUTS = {
    # the first block ends after the target's first row; the target is
    # left over and begins the second block
    "first in a block": lambda ls, i, j: _byte_length(ls[1 : i + 1]),
    # the first block ends after the first row of the next session, so
    # the target is the last session it ingests
    "last in a block": lambda ls, i, j: _byte_length(ls[1 : j + 1]),
    # the first block ends in the middle of the target's seventh row
    "across a cut": lambda ls, i, j: _byte_length(ls[1 : i + 6]) + len(ls[i + 6]) // 2,
    # every block is smaller than a session
    "small blocks": lambda ls, i, j: 300,
}


def _long_session(lines):
    # a 300-row session, longer than many blocks, between the header and
    # the log's first session
    rows = [
        f"long,m9,left,2024-10-02T00:00:00Z,{r},t{r},a{r % 7},a{r % 5},false,false,false,false"
        for r in range(1, 301)
    ]
    return ("\n".join([lines[0], *rows, *lines[1:25]]) + "\n").encode()


def _quoted_late(lines):
    _set(lines, len(lines) - 2, 5, '"t,x"')
    return ("\n".join(lines) + "\n").encode()


def _non_ascii(lines):
    _set(lines, 100, 6, "\u00e9t\u00e9")
    _set(lines, 101, 5, "t\u20ac1")
    return ("\n".join(lines) + "\n").encode()


def _unquoted_carriage_return(lines):
    # csv.reader ends a record at a lone "\r" outside quotes
    _set(lines, 100, 5, "t\rx")
    return ("\n".join(lines) + "\n").encode()


def _invalid_utf8(bad, at):
    # a bad boolean on line ``bad`` and a byte that is not UTF-8 on line
    # ``at``: which error comes first depends on where the text decoder's
    # 8 KiB chunks end (lines 62 and 74 start sessions; line 66 spans the
    # first chunk's end)
    def build(lines):
        _set(lines, bad - 1, 9, "maybe")
        data = ("\n".join(lines) + "\n").encode().split(b"\n")
        data[at - 1] = data[at - 1].replace(b",", b",\xff", 1)
        return b"\n".join(data)

    return build


def _long_author(lines):
    # an author id of 50 KB, longer than the tokenizer reads as a column
    _set(lines, 100, 6, "a" * 50_000)
    return ("\n".join(lines) + "\n").encode()


def _long_field(lines):
    # one byte more than csv.reader takes in a field
    _set(lines, 100, 5, "t" * (csv.field_size_limit() + 1))
    return ("\n".join(lines) + "\n").encode()


# (the bytes of a log, built from the lines of the simulated log, and the
# block size to read it with)
EDGE_LOGS = {
    "session longer than a block": (_long_session, 512),
    "quoted field after plain blocks": (_quoted_late, 2000),
    "non-ASCII id": (_non_ascii, 2000),
    "field longer than csv.reader takes": (_long_field, 2000),
    "author id of 50 KB": (_long_author, 2000),
    "unquoted carriage return": (_unquoted_carriage_return, 2000),
    "bad session, then a byte that is not UTF-8 in the next decoder chunk": (_invalid_utf8(55, 70), 700),
    "bad session, then a byte that is not UTF-8 before it ends": (_invalid_utf8(65, 70), 700),
    "bad session, then a byte that is not UTF-8 in a later block": (_invalid_utf8(65, 70), 3000),
    # the row loop reads line 74, and so the next decoder chunk, before
    # it ingests the bad session
    "bad session, then a byte that is not UTF-8 after it in the next decoder chunk": (_invalid_utf8(65, 90), 1500),
    "BOM before the header": (lambda ls: b"\xef\xbb\xbf" + ("\n".join(ls) + "\n").encode(), 2000),
    "no trailing newline": (lambda ls: "\n".join(ls).encode(), 2000),
    "no trailing newline, last line short": (lambda ls: "\n".join(ls)[:-3].encode(), 700),
    "CRLF line ends": (lambda ls: ("\r\n".join(ls) + "\r\n").encode(), 2000),
    "header only": (lambda ls: (ls[0] + "\n").encode(), 2000),
    "header only, no line feed": (lambda ls: ls[0].encode(), 2000),
}

_PLAIN_IDS = st.sampled_from(["a", "bb", "c", "a0001", "an-author-id-of-25-bytes!"])
_PLAIN_STAMPS = st.sampled_from(["2024-10-02T00:00:00Z", "2024-10-03T12:00:00Z", "2024-10-02T00:00:00+00:00"])


@st.composite
def plain_logs(draw):
    """The text of a log that needs no quoting, of random sessions with
    now and then one field changed, a block size and read options."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        head = [
            draw(st.sampled_from(["s1", "s2", "s3", "a-session-id-of-25-bytes!"])),
            draw(st.sampled_from(["m1", "m2"])),
            draw(st.sampled_from(["", "left", "neutral", "balanced"])),
            draw(_PLAIN_STAMPS),
        ]
        for rank in range(1, draw(st.integers(1, 9)) + 1):
            fields = [
                *head,
                str(rank),
                draw(st.text("tx:019", max_size=5)),
                draw(_PLAIN_IDS),
                draw(_PLAIN_IDS),
                *(draw(st.sampled_from(["true", "false"])) for _ in range(4)),
            ]
            if draw(st.integers(0, 9)) == 0:
                fields[draw(st.integers(0, 11))] = draw(
                    st.sampled_from(["", "0", "01", "7", "true", "True", "right", "m1", "2024-10-04T00:00:00Z", "bad"])
                )
            rows.append(",".join(fields))
    text = "\n".join([",".join(SESSION_FIELDS), *rows]) + draw(st.sampled_from(["\n", ""]))
    kw = draw(st.sampled_from([
        {},
        {"follows": {"m1": frozenset({"a", "bb"})}},
        {"group": "left"},
        {"start": datetime(2024, 10, 3, tzinfo=timezone.utc)},
    ]))
    return text, draw(st.integers(1, 400)), kw


class TestBlockBoundaries:
    """read_sessions against the reference reader with blocks of a few
    hundred bytes up to a few kilobytes, so that a log spans many blocks
    and a defect sits at a chosen place among them."""

    @pytest.mark.parametrize("where", list(BLOCK_CUTS))
    @pytest.mark.parametrize("case", list(INGEST_CASES))
    def test_ingest_cases(self, ingest_log, tmp_path, monkeypatch, case, where):
        lines, i, monitor = _mutated(ingest_log, case)
        target = lines[i].split(",")[0]
        j = next(k for k in range(i, len(lines)) if lines[k] and lines[k].split(",")[0] != target)
        monkeypatch.setattr(store, "_BLOCK_BYTES", BLOCK_CUTS[where](lines, i, j))
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        for kw in ({}, {"follows": ingest_log["follows"]}, {"monitor_id": monitor}):
            assert _outcome(read_sessions, path, **kw) == _outcome(reference_read, path, **kw), kw

    @pytest.mark.parametrize("case", list(EDGE_LOGS))
    def test_edge_logs(self, ingest_log, tmp_path, monkeypatch, case):
        build, block_bytes = EDGE_LOGS[case]
        path = tmp_path / "log.csv"
        path.write_bytes(build(list(ingest_log["lines"])))
        monkeypatch.setattr(store, "_BLOCK_BYTES", block_bytes)
        for kw in ({}, {"follows": ingest_log["follows"]}, {"group": "left"}):
            assert _outcome(read_sessions, path, **kw) == _outcome(reference_read, path, **kw), kw

    def test_late_switch_to_the_row_loop(self, ingest_log, tmp_path, monkeypatch):
        # plain blocks first, then a quoted field in the last session: the
        # row loop reads the log again and ingests every session once
        lines = list(ingest_log["lines"])
        _set(lines, len(lines) - 2, 5, '"t,x"')
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(store, "_BLOCK_BYTES", 2000)
        res = read_sessions(path)
        assert (res.total, res.skipped, len(res.sessions)) == (16, 0, 16)
        assert _outcome(read_sessions, path) == _outcome(reference_read, path)

    def test_plain_log_needs_no_fallback(self, fleet_sessions, tmp_path, monkeypatch):
        # the sessions of a plain, valid log pass every column check
        path = tmp_path / "log.csv"
        write_sessions(fleet_sessions, path)

        def fail(self, *args):
            raise AssertionError(f"fallback {args!r:.60}")

        monkeypatch.setattr(store._Ingest, "row_loop", fail)
        monkeypatch.setattr(store._Ingest, "flush", fail)
        monkeypatch.setattr(store, "_BLOCK_BYTES", 5000)
        assert list(read_sessions(path).sessions) == list(fleet_sessions)

    @pytest.mark.parametrize(
        "kw", [{}, {"group": "left"}, {"start": datetime(2024, 10, 3, tzinfo=timezone.utc)}, {"monitor_id": "right-001"}]
    )
    def test_same_batch_as_row_loop(self, tmp_path, monkeypatch, kw):
        # every column and the author ids, in order, as the row loop alone
        # builds them from a simulated log
        world = build_world(seed=7)
        fleet = FleetConfig(monitors_per_group=2, duration_days=2)
        path = tmp_path / "log.csv"
        write_sessions(run_fleet(world, fleet, RankerParams(seed=7)), path)
        monkeypatch.setattr(store, "_BLOCK_BYTES", 50_000)
        got = read_sessions(path, **kw)
        monkeypatch.setattr(store._Ingest, "blocks", lambda self: False)
        want = read_sessions(path, **kw)
        assert (got.total, got.filtered, got.skipped) == (want.total, want.filtered, want.skipped)
        assert got.sessions
        a, b = got.sessions[0]._batch, want.sessions[0]._batch
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y), f.name
            else:
                assert tuple(x) == tuple(y), f.name

    def test_distinct_ids(self):
        # ids of up to 8 bytes are sorted as one uint64, longer ones as bytes
        short = np.array([b"a", b"bb", b"a", b"", b"12345678", b"bb"])
        long_ids = np.array([b"abcdefghijklmnop", b"abcdefghijklmnoq", b"abcdefghijklmnop", b"x" * 20, b"a"])
        for ids in (short, long_ids, long_ids[:1], short[:0]):
            distinct, inverse = store._distinct(ids)
            assert np.array_equal(distinct[inverse], ids)
            assert sorted(distinct.tolist()) == sorted(set(ids.tolist()))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_plain_logs(self, tmp_path_factory, data):
        text, block_bytes, kw = data.draw(plain_logs())
        path = tmp_path_factory.mktemp("plain") / "log.csv"
        path.write_text(text)
        original = store._BLOCK_BYTES
        store._BLOCK_BYTES = block_bytes
        try:
            got = _outcome(read_sessions, path, **kw)
        finally:
            store._BLOCK_BYTES = original
        assert got == _outcome(reference_read, path, **kw)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def split(monkeypatch):
    """Reads split in two processes whatever the log's size and the usable
    CPUs. Yields the pids of the workers forked; none may be left after."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(store, "_workers", lambda: 2)
    monkeypatch.setattr(store, "_SPLIT_BYTES", 0)
    yield forks
    _no_child_left()


def _author_ids(outcome):
    return tuple(outcome[1][0]._batch.ids) if outcome[0] == "result" and outcome[1] else None


def _split_read(path, **kw):
    """The outcome of a read split in two processes, once it is checked to
    be the serial read's, down to the order of the author ids."""
    got = _outcome(read_sessions, path, **kw)
    workers, store._workers = store._workers, lambda: 1
    try:
        want = _outcome(read_sessions, path, **kw)
    finally:
        store._workers = workers
    assert got == want and _author_ids(got) == _author_ids(want), kw
    return got


def _cut_line(path):
    """The physical line the split read's worker starts on, or None."""
    data = path.read_bytes()
    with path.open("rb") as fh:
        cut = store._cut(fh, len(store._HEADER_LINE), len(data))
    return None if cut is None else data.count(b"\n", 0, cut) + 1


def _sessions_at(lines):
    """The index of the first line of each session of a log's lines."""
    return [k for k in range(1, len(lines)) if lines[k].split(",")[0] != lines[k - 1].split(",")[0]]


class TestSplitRead:
    """read_sessions split at a session boundary between two processes,
    against the reference reader and the serial read. In the simulated
    log of 16 sessions the worker starts on the 10th, neutral-000's
    second, so the left group's sessions are the parent's and the right
    group's the worker's."""

    def test_cut_in_the_simulated_log(self, ingest_log, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("\n".join(ingest_log["lines"]) + "\n")
        assert _cut_line(path) - 1 == _sessions_at(ingest_log["lines"])[9]

    @pytest.mark.parametrize("half", ["parent", "worker"])
    @pytest.mark.parametrize("case", list(INGEST_CASES))
    def test_ingest_cases(self, ingest_log, tmp_path, split, case, half):
        group = INGEST_CASES[case][0]
        lines, _, monitor = _mutated(ingest_log, case, "right" if half == "worker" and group == "left" else None)
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        filters = [{}, {"group": "neutral"}, {"group": group}, {"monitor_id": monitor}]
        filters += [{"start": ingest_log["day2"]}, {"end": ingest_log["day2"]}]
        for follows in (None, ingest_log["follows"]):
            for kw in filters:
                kw = {"follows": follows, **kw}
                assert _split_read(path, **kw) == _outcome(reference_read, path, **kw), kw

    @pytest.mark.parametrize("case", list(EDGE_LOGS))
    def test_edge_logs(self, ingest_log, tmp_path, monkeypatch, split, case):
        build, block_bytes = EDGE_LOGS[case]
        path = tmp_path / "log.csv"
        path.write_bytes(build(list(ingest_log["lines"])))
        monkeypatch.setattr(store, "_BLOCK_BYTES", block_bytes)
        for kw in ({}, {"follows": ingest_log["follows"]}, {"group": "left"}):
            assert _split_read(path, **kw) == _outcome(reference_read, path, **kw), kw

    def test_filters_across_the_cut(self, ingest_log, tmp_path, split):
        # each filter takes sessions on both sides of the cut
        path = tmp_path / "log.csv"
        path.write_text("\n".join(ingest_log["lines"]) + "\n")
        follows = ingest_log["follows"]
        for kw in (
            {"group": "neutral"},
            {"monitor_id": "neutral-000"},
            {"start": ingest_log["day2"]},
            {"end": ingest_log["day2"]},
            {"follows": follows},
            {"group": "neutral", "follows": follows, "end": ingest_log["day2"]},
        ):
            res = _split_read(path, **kw)
            assert res == _outcome(reference_read, path, **kw), kw
            ids = [s.session_id for s in res[1]]
            assert ids[0] < "neutral-000-d001" <= ids[-1], kw
        assert len(split) == 6

    @pytest.mark.parametrize("defect", ["blank line", "long session id"])
    def test_no_cut_in_lines_the_tokenizer_does_not_take(self, ingest_log, tmp_path, split, defect):
        # the window the cut is found in holds the whole second half of
        # the log, and a line there that the block tokenizer does not
        # take (a blank line, a session id over _FIELD_BYTES) is no
        # session start: the read stays in one process
        lines = list(ingest_log["lines"])
        starts = _sessions_at(lines)
        if defect == "blank line":
            lines.insert(starts[13], "")
        else:
            for i in range(starts[13], starts[14]):
                _set(lines, i, 0, "s" * (store._FIELD_BYTES + 1))
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        assert _cut_line(path) is None
        for kw in ({}, {"group": "right"}):
            assert _split_read(path, **kw) == _outcome(reference_read, path, **kw), kw
        assert not split

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_cut_next_to_an_end(self, ingest_log, tmp_path, split, where):
        # a 300-row session holds the middle of the log, so the parent
        # reads that session alone, or the worker the one after it
        lines = ingest_log["lines"]
        long_rows = [
            f"long,m9,left,2024-10-02T00:00:00Z,{r},t{r},a{r % 7},a{r % 5},false,false,false,false"
            for r in range(1, 301)
        ]
        short = lines[1:13] if where == "first" else lines[13:25]
        rows = [*long_rows, *short] if where == "first" else [*lines[1:13], *long_rows, *short]
        path = tmp_path / "log.csv"
        path.write_text("\n".join([lines[0], *rows]) + "\n")
        assert _cut_line(path) == len(rows) - 12 + 2
        for kw in ({}, {"follows": ingest_log["follows"]}, {"group": "left"}):
            assert _split_read(path, **kw) == _outcome(reference_read, path, **kw), kw
        assert split

    @pytest.mark.parametrize(
        "halves", [("parent",), ("worker",), ("parent", "worker")], ids=["parent", "worker", "both"]
    )
    def test_parse_error(self, ingest_log, tmp_path, split, halves):
        # a bad boolean in the second session of the left group (the
        # parent's), of the right group (the worker's) or both: the
        # error is the first in the file
        lines = list(ingest_log["lines"])
        starts = _sessions_at(lines)
        for half in halves:
            _set(lines, starts[5 if half == "parent" else 13] + 3, 9, "maybe")
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        got = _split_read(path)
        assert got == _outcome(reference_read, path)
        assert got[:2] == ("error", "ParseError") and f":{starts[5 if 'parent' in halves else 13] + 4}]" in got[2]
        assert split

    @pytest.mark.parametrize("half", ["parent", "worker"])
    def test_quoted_field_in_one_half(self, ingest_log, tmp_path, monkeypatch, split, half):
        # the window the cut is found in is 2000 bytes: the quote, in the
        # first or the last session, is outside it
        lines = list(ingest_log["lines"])
        _set(lines, 3 if half == "parent" else len(lines) - 3, 5, '"t,x"')
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(store, "_BLOCK_BYTES", 2000)
        assert _cut_line(path) is not None
        res = _split_read(path)
        assert res == _outcome(reference_read, path)
        assert res[0] == "result" and (res[2], len(res[1])) == (16, 16)
        assert split

    def test_duplicate_session_id_across_the_cut(self, ingest_log, tmp_path, split):
        lines = list(ingest_log["lines"])
        lines += lines[1:13]  # the first session again, after the last
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        res = _split_read(path)
        assert res == _outcome(reference_read, path)
        assert res[5] == {lines[1].split(",")[0]: ("duplicate session id",)}
        assert split

    def test_inconsistent_header_in_the_worker_half(self, ingest_log, tmp_path, split):
        lines = list(ingest_log["lines"])
        row = _sessions_at(lines)[13] + 4
        _set(lines, row, 1, "right-999")
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        res = _split_read(path)
        assert res == _outcome(reference_read, path)
        assert list(res[5].values()) == [(f"line {row + 1}: inconsistent session header fields",)]
        assert split

    @pytest.mark.parametrize("limit", [0, 40, 400, 4000, 40_000])
    def test_worker_cut_short(self, ingest_log, tmp_path, monkeypatch, split, limit):
        # the worker dies after sending ``limit`` bytes: the log is read
        # again from its first line, as when a block is not plain
        work = store._Ingest.work

        class CutShort:
            def __init__(self, out):
                self.out, self.left = out, limit

            def write(self, data):
                self.out.write(data[: self.left])
                self.left -= len(data)
                if self.left < 0:
                    raise OSError("cut short")

        monkeypatch.setattr(store._Ingest, "work", lambda self, cut, out: work(self, cut, CutShort(out)))
        monkeypatch.setattr(store, "_PART", 50)
        lines = list(ingest_log["lines"])
        _set(lines, _sessions_at(lines)[13] + 4, 1, "right-999")
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        for kw in ({}, {"follows": ingest_log["follows"]}):
            assert _split_read(path, **kw) == _outcome(reference_read, path, **kw), kw
        assert split

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_raises_after_the_fork(self, ingest_log, tmp_path, monkeypatch, split, error):
        def fail(self, batch, codes):
            raise error("merge failed")

        monkeypatch.setattr(store.BatchBuilder, "extend", fail)
        path = tmp_path / "log.csv"
        path.write_text("\n".join(ingest_log["lines"]) + "\n")
        with pytest.raises(error, match="merge failed"):
            read_sessions(path)
        assert split
        _no_child_left()

    @pytest.mark.parametrize("where", ["after it sent everything", "when the parent's half is not plain"])
    def test_worker_killed(self, ingest_log, tmp_path, monkeypatch, split, where):
        # a worker that would go on for a minute: the read does not wait
        work = store._Ingest.work

        def slow(self, cut, out):
            if where == "after it sent everything":
                work(self, cut, out)
                out.flush()
            time.sleep(60)

        monkeypatch.setattr(store._Ingest, "work", slow)
        lines = list(ingest_log["lines"])
        if where != "after it sent everything":
            _set(lines, 3, 5, '"t,x"')
        path = tmp_path / "log.csv"
        path.write_text("\n".join(lines) + "\n")
        started = time.monotonic()
        assert _split_read(path) == _outcome(reference_read, path)
        assert time.monotonic() - started < 30
        assert split

    def test_messages_of_bounded_size(self, tmp_path, monkeypatch, split):
        # the worker's half of the 1-day log (20,800 rows in sessions of 500
        # to 700) comes over in messages of at most 1,000 rows or items
        world = build_world(seed=7)
        path = tmp_path / "log.csv"
        write_sessions(run_fleet(world, FleetConfig(monitors_per_group=2, duration_days=1), RankerParams(seed=7)), path)
        monkeypatch.setattr(store, "_PART", 1000)
        lists, parts = [], []
        load = pickle.load

        def measured(fh):
            message = load(fh)
            if isinstance(message, list):
                lists.append(len(message))
            elif isinstance(message, store.SessionBatch):
                parts.append((len(message), len(message.flags)))
            return message

        monkeypatch.setattr(pickle, "load", measured)
        res = _split_read(path)
        assert res == _outcome(reference_read, path)
        assert max(lists) <= 1000 and max(rows for _, rows in parts) <= 1000
        assert len(parts) >= 8 and sum(rows for _, rows in parts) == 20_800 - _cut_line(path) + 2

    def test_unflushed_output_written_once(self, ingest_log, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("\n".join(ingest_log["lines"]) + "\n")
        script = (
            "import os, sys, time\n"
            "from feedaudit import store\n"
            "store._workers, store._SPLIT_BYTES = (lambda: 2), 0\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "merge = store._Ingest.merge\n"
            "def waited(self, results):\n"
            "    merged = merge(self, results)\n"
            "    time.sleep(0.5)  # the worker has left by the time it is killed\n"
            "    return merged\n"
            "store._Ingest.merge = waited\n"
            "assert type(sys.stdout.buffer).__name__ == 'BufferedWriter'\n"
            "sys.stdout.write('before the read;')\n"
            f"store.read_sessions({str(path)!r})\n"
            "sys.stdout.write(f'forks {len(forks)}')\n"
        )
        # block-buffered standard output, so that the text is still in the
        # buffer when the worker is forked
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(store.Path(store.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        assert out.stdout == "before the read;forks 1"

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_one_process_when_forking_is_unsafe(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert store._workers() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert store._workers() == 2
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert store._workers() == 1
        finally:
            done.set()
            thread.join(5)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert store._workers() == 1

    def test_small_or_special_file_read_in_one_process(self, ingest_log, tmp_path, monkeypatch, split):
        path = tmp_path / "log.csv"
        path.write_text("\n".join(ingest_log["lines"]) + "\n")
        monkeypatch.setattr(store, "_SPLIT_BYTES", path.stat().st_size + 1)
        assert _split_read(path) == _outcome(reference_read, path)
        with pytest.raises(DataError, match="session log is empty"):
            read_sessions("/dev/null")
        assert not split

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_plain_logs(self, tmp_path_factory, data):
        text, block_bytes, kw = data.draw(plain_logs())
        path = tmp_path_factory.mktemp("plain") / "log.csv"
        path.write_text(text)
        saved = store._BLOCK_BYTES, store._SPLIT_BYTES, store._workers
        store._BLOCK_BYTES, store._SPLIT_BYTES, store._workers = block_bytes, 0, lambda: 2
        try:
            got = _split_read(path, **kw)
        finally:
            store._BLOCK_BYTES, store._SPLIT_BYTES, store._workers = saved
        assert got == _outcome(reference_read, path, **kw)
        _no_child_left()


class TestDatasetStats:
    def test_single_monitor_arithmetic(self):
        entries = [
            entry(r, f"a{r}", promoted=(r <= 3), rt=(r == 4), in_net=(r <= 5))
            for r in range(1, 11)
        ]
        rec = session("s1", "m1", entries, group="left")
        stats = dataset_stats([rec])
        (g,) = stats.groups
        assert g.group == "left"
        assert g.monitors == 1 and g.sessions == 1 and g.tweets == 10
        assert g.promoted_mean == pytest.approx(0.30)
        assert g.promoted_std == 0.0
        assert g.oon_mean == pytest.approx(0.5)
        assert g.retweet_mean == pytest.approx(0.1)
        assert g.quote_mean == 0.0

    def test_population_std_across_monitors(self):
        recs = [
            session("s1", "m1", [entry(1, "a", promoted=True), entry(2, "b")], group="left"),
            session("s2", "m2", [entry(1, "c"), entry(2, "d")], group="left"),
        ]
        (g,) = dataset_stats(recs).groups
        # shares 0.5 and 0.0: mean 0.25, population std 0.25
        assert g.promoted_mean == pytest.approx(0.25)
        assert g.promoted_std == pytest.approx(0.25)

    def test_neutral_all_oon(self):
        recs = [
            authors_session(f"s{i}", f"m{i}", ["a", "b"], group="neutral") for i in range(3)
        ]
        (g,) = dataset_stats(recs).groups
        assert g.oon_mean == 1.0 and g.oon_std == 0.0

    def test_group_order_and_ungrouped_count(self):
        recs = [
            authors_session("s1", "m1", ["a"], group="balanced"),
            authors_session("s2", "m2", ["a"], group="neutral"),
            authors_session("s3", "m3", ["a"]),
        ]
        stats = dataset_stats(recs)
        assert [g.group for g in stats.groups] == ["neutral", "balanced"]
        assert stats.ungrouped_sessions == 1
        assert stats.total_sessions == 3

    def test_monitor_without_tweets_rejected(self):
        recs = [
            authors_session("s1", "m1", ["a"], group="left"),
            session("s2", "m2", [], group="left"),
        ]
        with pytest.raises(DataError, match="left.*'m2'"):
            dataset_stats(recs)

    def test_simulated_rates_within_band(self, fleet_sessions):
        stats = dataset_stats(fleet_sessions)
        for g in stats.groups:
            assert g.promoted_mean == pytest.approx(0.075, abs=0.02)
            assert g.retweet_mean == pytest.approx(0.025, abs=0.02)
            assert g.quote_mean == pytest.approx(0.11, abs=0.02)


class TestEmitReport:
    rows = [
        {"name": "a", "value": 1.25, "flag": True, "note": None},
        {"name": "b", "value": 1234567.891, "flag": False, "note": "x"},
    ]

    def test_csv_rendering(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(self.rows, path, fmt="csv")
        text = path.read_text().splitlines()
        assert text[0] == "name,value,flag,note"
        assert text[1] == "a,1.25,true,"
        assert text[2] == "b,1.23457e+06,false,x"

    def test_json_csv_value_equality(self, tmp_path):
        cpath, jpath = tmp_path / "r.csv", tmp_path / "r.json"
        emit_report(self.rows, cpath, fmt="csv")
        emit_report(self.rows, jpath, fmt="json")
        jrows = json.loads(jpath.read_text())
        crows = list(csv.DictReader(cpath.open()))
        for j, c in zip(jrows, crows):
            assert c["name"] == j["name"]
            assert float(c["value"]) == j["value"]
            assert (c["flag"] == "true") == j["flag"]

    def test_column_selection_and_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report([], path, fmt="csv", columns=["a", "b"])
        assert path.read_text() == "a,b\n"
        with pytest.raises(DataError):
            emit_report([], tmp_path / "x.csv", fmt="csv")

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(DataError):
            emit_report([{"v": float("nan")}], tmp_path / "r.csv")

    def test_carriage_return_round_trip(self, tmp_path):
        # a lone "\r" is quoted, so it reads back inside its field
        path = tmp_path / "r.csv"
        emit_report([{"name": "a\rb", "value": 1.5}], path, fmt="csv")
        assert path.read_bytes() == b'name,value\n"a\rb",1.5\n'
        assert list(csv.reader(path.open(newline=""))) == [["name", "value"], ["a\rb", "1.5"]]

    def test_other_fields_as_csv_writer_writes_them(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report([{"name": 'x,"y"\nz', "value": 2.0, "flag": True, "note": None}, *self.rows], path)
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows([
            ["name", "value", "flag", "note"],
            ['x,"y"\nz', "2", "true", ""],
            ["a", "1.25", "true", ""],
            ["b", "1.23457e+06", "false", "x"],
        ])
        assert path.read_bytes() == want.getvalue().encode()

    def test_format_float_six_significant(self):
        assert format_float(0.1) == "0.1"
        assert format_float(123456.789) == "123457"
        assert format_float(0.000123456789) == "0.000123457"


class TestAuthorsRoster:
    def test_round_trip(self, tmp_path):
        world = build_world(n_authors=60, seed=3)
        path = tmp_path / "authors.csv"
        count = write_authors(world.authors, path, lean_threshold=0.3)
        assert count == 60
        back = read_authors(path)
        labels = lean_labels(world, threshold=0.3)
        for a in world.authors:
            info = back[a.id]
            assert info.lean == pytest.approx(a.lean, abs=5e-7)
            assert info.label == labels[a.id]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "authors.csv"
        path.write_text("who,what\n1,2\n")
        with pytest.raises(ParseError):
            read_authors(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "authors.csv"
        path.write_text("")
        with pytest.raises(DataError, match="author roster is empty: "):
            read_authors(path)

    def test_blank_lines_around_records(self, tmp_path):
        path = tmp_path / "authors.csv"
        write_authors([self.author("a", 0.5), self.author("b", -0.5)], path)
        want = read_authors(path)
        header, *records = path.read_text().splitlines()
        path.write_text("\n".join([header, "", *records[:1], "", "", *records[1:], "", ""]) + "\n")
        assert read_authors(path) == want

    @staticmethod
    def author(author_id, lean):
        return SimpleNamespace(id=author_id, lean=lean, popularity=1.0, post_rate=2.0)

    def test_carriage_return_round_trip(self, tmp_path):
        # a lone "\r" is quoted, so it reads back inside its field
        path = tmp_path / "authors.csv"
        write_authors([self.author("a\rb", 0.5), self.author("c", -0.5)], path)
        assert path.read_bytes().split(b"\n")[1] == b'"a\rb",0.5,1,2,right'
        back = read_authors(path)
        assert list(back) == ["a\rb", "c"]
        assert back["a\rb"].label == "right"

    def test_other_ids_as_csv_writer_writes_them(self, tmp_path):
        path = tmp_path / "authors.csv"
        write_authors([self.author('x,"y"\nz', 0.0), self.author("plain", 0.75)], path)
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows([
            ["author_id", "lean", "popularity", "post_rate", "lean_label"],
            ['x,"y"\nz', "0", "1", "2", "unknown"],
            ["plain", "0.75", "1", "2", "right"],
        ])
        assert path.read_bytes() == want.getvalue().encode()

    def test_error_line_counts_quoted_line_breaks(self, tmp_path):
        # the bad lean is on physical line 4: the id before it holds a
        # line break
        path = tmp_path / "authors.csv"
        path.write_text(
            'author_id,lean,popularity,post_rate,lean_label\n"a\nb",0.5,1,2,right\nc,oops,1,2,left\n'
        )
        with pytest.raises(ParseError) as err:
            read_authors(path)
        assert str(err.value).endswith(":4]")
        path.write_text('author_id,lean,popularity,post_rate,lean_label\n"a\nb",0.5,1,2,right\n\nc,1,2\n')
        with pytest.raises(ParseError, match="expected 5 fields, got 3") as err:
            read_authors(path)
        assert str(err.value).endswith(":5]")
        # a bad record that spans two lines is named by its first
        path.write_text('author_id,lean,popularity,post_rate,lean_label\nc,1,2,3,left\n"d\ne",x,1,2,left\n')
        with pytest.raises(ParseError) as err:
            read_authors(path)
        assert str(err.value).endswith(":3]")
