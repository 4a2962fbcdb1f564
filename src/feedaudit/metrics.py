"""Weighted author-exposure metrics.

The core quantity is the weighted occurrence of an author per 1,000
timeline tweets: each appearance contributes the visibility weight of
its rank, the weighted sum is normalized by the monitor's total tweet
count across all sessions, and scaled by 1,000. Scope filters (e.g.
out-of-network only) restrict which appearances count toward the
numerator; the denominator always counts every tweet the monitor saw,
so exposures stay comparable across scopes.

A table that ``build_exposure_table`` makes holds arrays: the codes of
the authors it saw, into the id list of the batch its sessions came
from, in order of first appearance, and their float64 exposures. It
keeps that batch, whose cached ``id_order`` breaks ties by author id. Its
``entries`` read like a dict of numpy scalars, which is built only when
an author is looked up. The group means and the amplification report
read one stack of their tables' entries, in which ``_stack`` alone
codes and orders the authors; a per-monitor Gini or Lorenz curve reads
its own table's exposure array. No consumer makes a per-author Python
object.
"""

from __future__ import annotations

import heapq
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import AnalysisError, ConfigError, DataError
from .decay import DecayModel
from .model import (
    FLAG_IN_NETWORK,
    FLAG_PROMOTED,
    LEAN_UNKNOWN,
    AuthorId,
    GroupLabel,
    SessionBatch,
    SessionRecord,
    batch_of,
    string_order,
)

# Which appearances count toward exposure.
SCOPE_OON = "out-of-network"
SCOPE_ALL = "all"
_SCOPES = (SCOPE_OON, SCOPE_ALL)

# Who gets credited for a retweet: the original author or the account
# that surfaced it on the timeline.
ATTR_ORIGINAL = "original"
ATTR_DISPLAYED = "displayed"
_ATTRIBUTIONS = (ATTR_ORIGINAL, ATTR_DISPLAYED)


class _Entries(Mapping):
    """The read-only entries of a built table, kept as arrays: ``codes``
    into the author ids ``ids`` of ``batch``, in order of first
    appearance, and each code's float64 ``exposure``.

    Keys, values and items are read from the arrays, the values as the
    numpy scalars a dict of them would hold. Looking an author up needs a
    dict, which is built the first time it is needed.
    """

    __slots__ = ("batch", "ids", "codes", "exposure", "_dict")

    def __init__(self, batch: SessionBatch, codes: np.ndarray, exposure: np.ndarray) -> None:
        codes.flags.writeable = exposure.flags.writeable = False
        self.batch, self.ids, self.codes, self.exposure = batch, batch.ids, codes, exposure
        self._dict: dict[AuthorId, float] | None = None

    def _lookup(self) -> dict[AuthorId, float]:
        if self._dict is None:
            self._dict = dict(self.items())
        return self._dict

    def __getitem__(self, author_id: AuthorId) -> float:
        return self._lookup()[author_id]

    def __iter__(self) -> Iterator[AuthorId]:
        return map(self.ids.__getitem__, self.codes.tolist())

    def __len__(self) -> int:
        return len(self.codes)

    def values(self) -> ValuesView:
        return _Values(self)

    def items(self) -> ItemsView:
        return _Items(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _Values(ValuesView):
    def __iter__(self) -> Iterator[float]:
        return iter(self._mapping.exposure)


class _Items(ItemsView):
    def __iter__(self) -> Iterator[tuple[AuthorId, float]]:
        return zip(self._mapping, self._mapping.exposure)


@dataclass(frozen=True)
class ExposureTable:
    """Per-author weighted occurrences for one monitor.

    ``entries`` maps author id to exposure per 1,000 tweets; authors
    that never appeared (in scope) are absent and implicitly have
    exposure 0. ``total_tweets`` is the all-scope denominator N.

    A table built by hand keeps the mapping it is given. The entries of
    one from ``build_exposure_table`` are a read-only mapping over its
    author codes and exposure array, with the keys, order and numpy
    float64 values of the dict it used to hold; the analysis functions
    read the arrays.
    """

    monitor_id: str
    total_tweets: int
    entries: Mapping[AuthorId, float]
    scope: str = SCOPE_OON
    attribution: str = ATTR_ORIGINAL
    group: GroupLabel | None = None

    def get(self, author_id: AuthorId) -> float:
        return self.entries.get(author_id, 0.0)

    def total_exposure(self) -> float:
        return sum(self.entries.values())


def _check_options(scope: str, attribution: str) -> None:
    if scope not in _SCOPES:
        raise ConfigError(f"unknown scope {scope!r}; expected one of {_SCOPES}")
    if attribution not in _ATTRIBUTIONS:
        raise ConfigError(
            f"unknown attribution {attribution!r}; expected one of {_ATTRIBUTIONS}"
        )


def _row_weights(model: DecayModel, ranks: np.ndarray) -> np.ndarray:
    """The visibility weight of each row, ``model.visibility(rank)``;
    a rank below 1 raises DataError."""
    if int(ranks.min()) < 1:
        raise DataError(f"rank {int(ranks[ranks < 1][0])} is below 1; ranks start at 1")
    return model._visibilities(ranks)


def build_exposure_table(
    sessions: Iterable[SessionRecord],
    model: DecayModel,
    *,
    scope: str = SCOPE_OON,
    attribution: str = ATTR_ORIGINAL,
    include_promoted: bool = True,
) -> ExposureTable:
    """Aggregate one monitor's sessions into an exposure table.

    All sessions must belong to a single monitor. ``include_promoted``
    only filters the numerator; promoted tweets always count toward N.

    The table is one weighted ``np.bincount`` over the author codes of
    the rows in scope, which adds each author's weights in row order, so
    the sums are those of adding them one row at a time. Authors appear
    in the order of their first row in scope.
    """
    _check_options(scope, attribution)
    batch, index = batch_of(sessions)
    if not len(index):
        raise DataError("cannot build an exposure table from zero sessions")
    monitor_ids = {batch.monitor_id[i] for i in index.tolist()}
    if len(monitor_ids) > 1:
        raise DataError(
            f"sessions span multiple monitors: {sorted(monitor_ids)}; "
            "build one table per monitor"
        )
    groups = {batch.group[i] for i in index.tolist()}
    group = groups.pop() if len(groups) == 1 else None

    lengths = batch.offsets[index + 1] - batch.offsets[index]
    total = int(lengths.sum())
    if total == 0:
        raise DataError("sessions contain no tweets")
    rows = batch.rows(index)
    flags = batch.flags[rows]
    excluded = (FLAG_IN_NETWORK if scope == SCOPE_OON else 0) | (0 if include_promoted else FLAG_PROMOTED)
    in_scope = (flags & excluded) == 0
    codes = (batch.author if attribution == ATTR_ORIGINAL else batch.shown)[rows][in_scope]
    sums = np.bincount(codes, weights=_row_weights(model, batch.rank[rows])[in_scope])
    present = _first_seen(codes, len(sums))
    return ExposureTable(
        monitor_id=monitor_ids.pop(),
        total_tweets=total,
        entries=_Entries(batch, present, sums[present] * (1000.0 / total)),
        scope=scope,
        attribution=attribution,
        group=group,
    )


def _first_seen(codes: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of ``codes``, each below ``size``, in order of
    first appearance."""
    first = np.full(size, len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    is_first = np.zeros(len(codes), dtype=bool)
    is_first[first[first < len(codes)]] = True
    return codes[is_first]


def weighted_occurrence(
    sessions: Iterable[SessionRecord],
    model: DecayModel,
    author_id: AuthorId,
    *,
    scope: str = SCOPE_OON,
    attribution: str = ATTR_ORIGINAL,
    include_promoted: bool = True,
) -> float:
    """Exposure of one author per 1,000 tweets over the given sessions."""
    return build_exposure_table(
        sessions, model, scope=scope, attribution=attribution, include_promoted=include_promoted
    ).get(author_id)


def top_k(
    exposures: ExposureTable | Mapping[AuthorId, float],
    k: int,
) -> list[tuple[AuthorId, float]]:
    """Top ``k`` authors by exposure, descending; ties break by author id.

    A partition first keeps every author whose exposure is at least the
    k-th largest, so the sort runs on about k items; it is skipped when
    an exposure is NaN, which orders no values.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    entries = exposures.entries if isinstance(exposures, ExposureTable) else exposures
    values = np.fromiter(entries.values(), dtype=np.float64, count=len(entries))
    keep = np.ones(len(values), dtype=bool)
    if k < len(values) and not np.isnan(values).any():
        keep = values >= np.partition(values, -k)[-k]
    items = compress(entries.items(), keep.tolist())
    return heapq.nsmallest(k, items, key=lambda kv: (-kv[1], kv[0]))


def _exposures(table: ExposureTable) -> np.ndarray:
    """The exposures of ``table``'s entries, in entry order, as float64:
    the array of a built table, or a hand-built mapping's values."""
    entries = table.entries
    if isinstance(entries, _Entries):
        return entries.exposure
    return np.fromiter(entries.values(), np.float64, len(entries))


def _stack(
    tables: Sequence[ExposureTable], by_id: bool = False
) -> tuple[list[AuthorId], np.ndarray, np.ndarray, list[int]]:
    """The entries of at least one table end to end: the authors they
    hold, each entry's position among those authors and its exposure,
    and the bounds of the tables, whose entries are
    ``bounds[j]:bounds[j + 1]``.

    The authors are in order of first appearance, or with ``by_id`` in
    string order of their ids. Built tables whose sessions came from one
    batch are stacked by their codes into its ids, and ordered by id
    with its cached ``id_order``. Any other set, such as tables built by
    hand from a dict, is coded in order of first appearance, and sorted
    here for ``by_id``.
    """
    entries = [t.entries for t in tables]
    bounds = list(accumulate(map(len, entries), initial=0))
    values = np.concatenate([_exposures(t) for t in tables])
    first = entries[0]
    if all(isinstance(e, _Entries) and e.ids is first.ids for e in entries):
        ids, codes = first.ids, np.concatenate([e.codes for e in entries])
        order = first.batch.id_order if by_id else None
    else:
        ids = list(dict.fromkeys(chain.from_iterable(entries)))
        position = dict(zip(ids, range(len(ids))))
        codes = np.fromiter(map(position.__getitem__, chain.from_iterable(entries)), np.intp, bounds[-1])
        order = string_order(ids) if by_id else None
    if order is None:
        present = _first_seen(codes, len(ids))
    else:
        seen = np.zeros(len(ids), dtype=bool)
        seen[codes] = True
        present = order[seen[order]]
    position = np.empty(len(ids), dtype=np.intp)
    position[present] = np.arange(len(present))
    return list(map(ids.__getitem__, present.tolist())), position[codes], values, bounds


def group_exposures(
    codes: np.ndarray, values: np.ndarray, bounds: Sequence[int], n_authors: int
) -> tuple[np.ndarray, np.ndarray]:
    """One group's mean exposures over ``n_authors`` authors, from
    stacked entries (see ``_stack``) whose codes are author positions:
    monitor j's entries are ``bounds[j]:bounds[j + 1]``.

    Returns each author's mean over the monitors (a monitor that never
    saw the author counts 0) and which authors some monitor saw. The
    sums behind the means come from one weighted ``np.bincount``, which
    adds an author's exposures in monitor order, so they have the bits
    of summing the tables entry by entry into a dict; a pairwise
    ``np.sum`` would not.
    """
    rows = slice(bounds[0], bounds[-1])
    codes, values = codes[rows], values[rows]
    seen = np.zeros(n_authors, dtype=bool)
    seen[codes] = True
    sums = np.bincount(codes, weights=values, minlength=n_authors)
    return sums / (len(bounds) - 1), seen


def group_mean_exposure(tables: Sequence[ExposureTable]) -> dict[AuthorId, float]:
    """Mean exposure per author across a group of monitors.

    Authors absent from a monitor's table contribute 0 for that monitor,
    so the mean is always over all monitors in the group. Authors appear
    in order of first appearance.
    """
    if not tables:
        raise DataError("cannot average zero exposure tables")
    authors, positions, values, bounds = _stack(tables)
    return dict(zip(authors, group_exposures(positions, values, bounds, len(authors))[0]))


def exposure_share(
    exposures: ExposureTable | Mapping[AuthorId, float],
    k: int,
    predicate: Callable[[str], bool],
    leans: Mapping[AuthorId, str],
    *,
    denominator: str = "top-k",
) -> float:
    """Share of top-k exposure mass held by authors whose lean label
    satisfies ``predicate``.

    ``leans`` maps author id to a label; missing authors get
    ``"unknown"``. ``denominator`` is ``"top-k"`` (share within the top-k
    mass) or ``"total"`` (share of the whole table's mass). Raises
    AnalysisError when the denominator mass is zero.
    """
    if denominator not in ("top-k", "total"):
        raise ConfigError(f"unknown denominator {denominator!r}")
    entries = exposures.entries if isinstance(exposures, ExposureTable) else exposures
    top = top_k(entries, k)
    denom = sum(e for _, e in top) if denominator == "top-k" else sum(entries.values())
    if denom <= 0.0:
        raise AnalysisError("exposure share undefined: denominator mass is zero")
    num = sum(e for a, e in top if predicate(leans.get(a, LEAN_UNKNOWN)))
    return num / denom
