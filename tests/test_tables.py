"""Exposure tables backed by arrays against the same tables built by hand.

``build_exposure_table`` keeps each table's author codes and exposures as
arrays, and the analysis functions stack tables of one batch by their
codes. A table built by hand from ``dict(t.entries)`` takes the path that
codes its authors anew; every consumer must give the same values, in the
same order and with the same scalar types, either way, and for a mix of
tables from two batches.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Mapping

import numpy as np
import pytest

from feedaudit import (
    ATTR_DISPLAYED,
    ATTR_ORIGINAL,
    SCOPE_ALL,
    SCOPE_OON,
    AnalysisError,
    DataError,
    ExposureTable,
    FleetConfig,
    GroupLabel,
    RankerParams,
    SessionBatch,
    build_amplification_report,
    build_exposure_table,
    build_world,
    calibrate,
    exposure_share,
    group_gini_distribution,
    group_mean_exposure,
    lean_labels,
    read_sessions,
    run_fleet,
    top_k,
    write_sessions,
)
from feedaudit.cli import _lorenz_rows
from feedaudit.metrics import _Entries

from conftest import entry, session

LEFT, BALANCED = GroupLabel.LEFT, GroupLabel.BALANCED


def by_hand(tables):
    """The same tables, each built by hand from a dict of its entries."""
    return [dataclasses.replace(t, entries=dict(t.entries)) for t in tables]


def outcome(fn, *args, **kw):
    """The repr of a result, which shows values, order and scalar types,
    or the error it raised."""
    try:
        return repr(fn(*args, **kw))
    except (AnalysisError, DataError) as exc:
        return (type(exc).__name__, str(exc))


def tables_by_group(sessions, model, scope, attribution):
    grouped = {}
    for s in sessions:
        grouped.setdefault(s.group, {}).setdefault(s.monitor_id, []).append(s)
    return {
        g: [build_exposure_table(mons[m], model, scope=scope, attribution=attribution) for m in sorted(mons)]
        for g, mons in grouped.items()
    }


def consumer_outcomes(groups, leans):
    """Every consumer of exposure tables on ``groups`` ({group: tables})."""
    out = {
        "gini": outcome(group_gini_distribution, groups),
        "lorenz": outcome(_lorenz_rows, groups, 11),
    }
    for g, tables in groups.items():
        out[g, "means"] = outcome(group_mean_exposure, tables)
        out[g, "top means"] = outcome(lambda: top_k(group_mean_exposure(tables), 3))
        for j, t in enumerate(tables):
            for k in (1, 3, len(t.entries) + 1):
                out[g, j, "top", k] = outcome(top_k, t, k)
                out[g, j, "share", k] = outcome(exposure_share, t, k, lambda l: l == "left", leans)
            out[g, j, "total share"] = outcome(
                exposure_share, t, 2, lambda l: l == "right", leans, denominator="total"
            )
            out[g, j, "get"] = [repr(t.get(a)) for a in (*t.entries, "nobody")]
            out[g, j, "total"] = repr(t.total_exposure())
    part = groups[LEFT]
    base = groups[BALANCED]
    observed = len({a for t in (*part, *base) for a in t.entries})
    for top in (1, 5, max(1, observed)):
        out["amplify", top] = outcome(build_amplification_report, part, base, top=top, leans=leans)
    return out


def assert_same_as_by_hand(groups, leans):
    hand = {g: by_hand(ts) for g, ts in groups.items()}
    assert all(type(t.entries) is dict for ts in hand.values() for t in ts)
    assert consumer_outcomes(groups, leans) == consumer_outcomes(hand, leans)


@pytest.fixture(scope="module")
def fleet():
    """A small simulated fleet in one batch, and the world's lean labels."""
    world = build_world(n_authors=300, seed=5)
    cfg = FleetConfig(monitors_per_group=4, sessions_per_day=2, duration_days=2, session_length=50)
    return run_fleet(world, cfg, RankerParams(seed=5)), lean_labels(world)


@pytest.fixture(scope="module")
def read_back(fleet, tmp_path_factory):
    """The same fleet written and read back: a second batch, whose author
    ids are coded in another order."""
    path = tmp_path_factory.mktemp("tables") / "log.csv"
    write_sessions(fleet[0], path)
    return read_sessions(path).sessions


def hand_fleet():
    """Views of one batch: a left and a balanced group of three monitors.

    Monitor l2 sees only in-network rows, so its out-of-network table
    holds no author. Authors ``b`` and ``a`` have equal exposure on every
    monitor, ``b`` seen first, so their order in a top-k list and in an
    amplification report comes from the tie-break by id.
    """
    def rows(*authors, in_net=()):
        return [entry(r, a, in_net=a in in_net) for r, a in enumerate(authors, start=1)]

    records = [
        session("s1", "l0", rows("b", "a", "c", "x"), group="left"),
        session("s2", "l0", rows("a", "b", "d", "x"), group="left"),
        session("s3", "l1", rows("d", "c", "x", "y"), group="left"),
        session("s4", "l1", rows("c", "d", "y", "x"), group="left"),
        session("s5", "l2", rows("x", "y", "x", "y", in_net={"x", "y"}), group="left"),
        session("s6", "b0", rows("b", "a", "y", "e"), group="balanced"),
        session("s7", "b0", rows("a", "b", "e", "y"), group="balanced"),
        session("s8", "b1", rows("e", "c", "d", "x"), group="balanced"),
        session("s9", "b2", rows("c", "d", "e", "y"), group="balanced"),
    ]
    return SessionBatch.from_records(records).records()


@pytest.mark.parametrize("scope", [SCOPE_OON, SCOPE_ALL])
@pytest.mark.parametrize("attribution", [ATTR_ORIGINAL, ATTR_DISPLAYED])
def test_simulated_tables_equal_tables_by_hand(fleet, scope, attribution):
    sessions, leans = fleet
    groups = tables_by_group(sessions, calibrate(50), scope, attribution)
    ids = groups[LEFT][0].entries.ids
    assert all(isinstance(t.entries, _Entries) and t.entries.ids is ids for ts in groups.values() for t in ts)
    assert_same_as_by_hand(groups, leans)


@pytest.mark.parametrize("scope", [SCOPE_OON, SCOPE_ALL])
def test_empty_table_and_ties_equal_tables_by_hand(scope):
    groups = tables_by_group(hand_fleet(), calibrate(10), scope, ATTR_ORIGINAL)
    leans = {"a": "left", "c": "left", "d": "right", "e": "right"}
    empty = groups[LEFT][2]
    assert (len(empty.entries) == 0) == (scope == SCOPE_OON)
    assert_same_as_by_hand(groups, leans)
    # b comes first in every table that holds both, a first by id.
    t = groups[BALANCED][0]
    assert list(t.entries)[:2] == ["b", "a"] and t.get("a") == t.get("b")
    assert [a for a, _ in top_k(t, 2)] == ["a", "b"]
    ranked = [a for a, _ in top_k(group_mean_exposure(groups[LEFT]), 10)]
    assert ranked.index("b") == ranked.index("a") + 1
    rows = build_amplification_report(groups[LEFT], groups[BALANCED], top=10)
    tied = [r for r in rows if r.author_id in ("a", "b")]
    assert [r.author_id for r in tied] == ["a", "b"]
    assert tied[0][2:] == tied[1][2:]
    assert rows.index(tied[1]) == rows.index(tied[0]) + 1


def test_empty_scope_in_every_consumer():
    groups = tables_by_group(hand_fleet(), calibrate(10), SCOPE_OON, ATTR_ORIGINAL)
    empty = groups[LEFT][2]
    assert top_k(empty, 3) == []
    assert "x" not in group_mean_exposure([empty])
    with pytest.raises(AnalysisError, match="non-empty"):
        group_gini_distribution(groups)
    with pytest.raises(AnalysisError, match="non-empty"):
        _lorenz_rows(groups, 11)
    rows = build_amplification_report(groups[LEFT], groups[BALANCED], top=10)
    assert {r.author_id for r in rows} == {"a", "b", "c", "d", "e", "x", "y"}


@pytest.mark.parametrize("scope", [SCOPE_OON, SCOPE_ALL])
def test_tables_of_two_batches_equal_tables_by_hand(fleet, read_back, scope):
    sessions, leans = fleet
    model = calibrate(50)
    first = tables_by_group(sessions, model, scope, ATTR_ORIGINAL)
    second = tables_by_group(read_back, model, scope, ATTR_ORIGINAL)
    assert first[LEFT][0].entries.ids is not second[LEFT][0].entries.ids
    assert list(first[LEFT][0].entries.ids) != list(second[LEFT][0].entries.ids)
    # The read-back tables equal the simulated ones, author for author.
    for g in first:
        for a, b in zip(first[g], second[g]):
            assert repr(a) == repr(b)
    # Each group mixes the two batches, monitor by monitor.
    mixed = {g: [(first, second)[j % 2][g][j] for j in range(len(first[g]))] for g in first}
    assert_same_as_by_hand(mixed, leans)
    assert consumer_outcomes(mixed, leans) == consumer_outcomes(first, leans)


class TestExposureTableContract:
    def test_built_by_hand(self):
        entries = {"b": 0.5, "a": 0.25}
        t = ExposureTable(monitor_id="m1", total_tweets=10, entries=entries)
        assert t.entries is entries
        assert (t.get("a"), t.get("b"), t.get("nobody")) == (0.25, 0.5, 0.0)
        assert type(t.get("a")) is float
        assert repr(t) == (
            "ExposureTable(monitor_id='m1', total_tweets=10, entries={'b': 0.5, 'a': 0.25}, "
            "scope='out-of-network', attribution='original', group=None)"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.total_tweets = 11

    def test_total_exposure_sums_left_to_right(self):
        t = ExposureTable(monitor_id="m1", total_tweets=10, entries={f"a{i}": 0.1 for i in range(10)})
        assert t.total_exposure() == 0.9999999999999999
        assert math.fsum(t.entries.values()) == 1.0

    def test_built_table_reads_like_its_dict(self, fleet):
        sessions, _ = fleet
        monitor = [s for s in sessions if s.monitor_id == sessions[0].monitor_id]
        t = build_exposure_table(monitor, calibrate(50), scope=SCOPE_ALL)
        d = dict(t.entries)
        hand = dataclasses.replace(t, entries=d)
        assert isinstance(t.entries, Mapping) and isinstance(t.entries, _Entries)
        assert repr(t) == repr(hand)
        assert repr(t.entries) == repr(d)
        assert t.entries == d and d == t.entries and t == hand
        assert list(t.entries) == list(d) == list(t.entries.keys())
        assert repr(list(t.entries.values())) == repr(list(d.values()))
        assert repr(list(t.entries.items())) == repr(list(d.items()))
        assert all(type(v) is np.float64 for v in t.entries.values())
        assert len(t.entries) == len(d) == len(t.entries.values()) == len(t.entries.items())
        for a in (*d, "nobody"):
            assert repr(t.get(a)) == repr(hand.get(a))
            assert (a in t.entries) == (a in d)
            assert repr(t.entries.get(a)) == repr(d.get(a))
        assert repr(t.entries[next(iter(d))]) == repr(d[next(iter(d))])
        with pytest.raises(KeyError):
            t.entries["nobody"]
        assert float.hex(t.total_exposure()) == float.hex(hand.total_exposure())
        assert type(t.total_exposure()) is type(hand.total_exposure())
        with pytest.raises(TypeError):
            t.entries["nobody"] = 1.0
        for array in (t.entries.codes, t.entries.exposure):
            with pytest.raises(ValueError):
                array[0] = 0
