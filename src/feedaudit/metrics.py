"""Weighted author-exposure metrics.

The core quantity is the weighted occurrence of an author per 1,000
timeline tweets: each appearance contributes the visibility weight of
its rank, the weighted sum is normalized by the monitor's total tweet
count across all sessions, and scaled by 1,000. Scope filters (e.g.
out-of-network only) restrict which appearances count toward the
numerator; the denominator always counts every tweet the monitor saw,
so exposures stay comparable across scopes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import AnalysisError, ConfigError, DataError
from .decay import DecayModel
from .model import (
    FLAG_IN_NETWORK,
    FLAG_PROMOTED,
    LEAN_UNKNOWN,
    AuthorId,
    GroupLabel,
    SessionRecord,
    batch_of,
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


@dataclass(frozen=True)
class ExposureTable:
    """Per-author weighted occurrences for one monitor.

    ``entries`` maps author id to exposure per 1,000 tweets; authors
    that never appeared (in scope) are absent and implicitly have
    exposure 0. ``total_tweets`` is the all-scope denominator N.
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


def _row_weights(model: DecayModel, ranks: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The visibility weight of each row: ``model.weights(L)[rank - 1]``
    for a row of a session of length L, or ``model.visibility(rank)``
    for a rank past L. ``lengths`` are the sessions' lengths, in row
    order."""
    row_lengths = np.repeat(lengths, lengths)
    weights = np.empty(len(ranks))
    for length in np.unique(lengths[lengths > 0]).tolist():
        at = row_lengths == length
        r = ranks[at]
        inside = r <= length
        w = model.weights(length)[np.where(inside, r - 1, 0)]
        if not inside.all():
            w[~inside] = [model.visibility(rank) for rank in r[~inside].tolist()]
        weights[at] = w
    return weights


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
    sums = np.bincount(codes, weights=_row_weights(model, batch.rank[rows], lengths)[in_scope])
    present, first = np.unique(codes, return_index=True)
    present = present[np.argsort(first)]

    scale = 1000.0 / total
    entries = dict(zip(map(batch.ids.__getitem__, present.tolist()), sums[present] * scale))
    return ExposureTable(
        monitor_id=monitor_ids.pop(),
        total_tweets=total,
        entries=entries,
        scope=scope,
        attribution=attribution,
        group=group,
    )


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
    """Top ``k`` authors by exposure, descending; ties break by author id."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    entries = exposures.entries if isinstance(exposures, ExposureTable) else exposures
    return heapq.nsmallest(k, entries.items(), key=lambda kv: (-kv[1], kv[0]))


def author_index(tables: Iterable[ExposureTable]) -> dict[AuthorId, int]:
    """Every author of ``tables`` mapped to its position in order of first
    appearance, table by table."""
    authors = dict.fromkeys(chain.from_iterable(t.entries for t in tables))
    return {a: i for i, a in enumerate(authors)}


def group_exposures(
    tables: Sequence[ExposureTable], index: Mapping[AuthorId, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One group's exposures as arrays over the authors of ``index``.

    Returns the (authors x monitors) matrix whose row ``index[a]`` holds
    author a's exposure on each monitor (0 where a monitor never saw a),
    each author's mean over the monitors, and which authors some table
    holds. The mean adds a row's exposures one table at a time, in
    table order, so it has the bits of summing the tables entry by entry
    into a dict; a pairwise ``np.sum`` would not.
    """
    matrix = np.zeros((len(index), len(tables)))
    seen = np.zeros(len(index), dtype=bool)
    for j, t in enumerate(tables):
        size = len(t.entries)
        codes = np.fromiter(map(index.__getitem__, t.entries), dtype=np.intp, count=size)
        matrix[codes, j] = np.fromiter(t.entries.values(), dtype=np.float64, count=size)
        seen[codes] = True
    sums = np.zeros(len(index))
    for column in matrix.T:
        sums += column
    return matrix, sums / len(tables), seen


def group_mean_exposure(tables: Sequence[ExposureTable]) -> dict[AuthorId, float]:
    """Mean exposure per author across a group of monitors.

    Authors absent from a monitor's table contribute 0 for that monitor,
    so the mean is always over all monitors in the group. Authors appear
    in order of first appearance.
    """
    if not tables:
        raise DataError("cannot average zero exposure tables")
    index = author_index(tables)
    return dict(zip(index, group_exposures(tables, index)[1]))


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
