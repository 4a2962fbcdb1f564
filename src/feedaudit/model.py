"""Domain types for audit sessions.

A *monitor* is an automated account whose home timeline is captured
several times a day. Each capture is a :class:`SessionRecord` holding
the ranked tweets that were on screen. Author identifiers are plain
opaque strings; political lean labels live in separate mappings so the
exposure math never depends on them.

Sessions in bulk are stored as columns in one :class:`SessionBatch`
(struct of arrays): per row an ``int32`` author code, displayed-author
code and rank and a ``uint8`` flag mask, per session its metadata, and
CSR offsets marking where each session's rows start. The log reader and
the simulator fill a batch through :class:`BatchBuilder`, and the
analysis kernels read its columns through :func:`batch_of`. The
records they hand out are views of one session of the batch: a view
knows its metadata and length, and builds its tuple of
:class:`TimelineEntry` only when ``entries`` is read.
"""

from __future__ import annotations

from array import array
from dataclasses import FrozenInstanceError, dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError

# Author identifiers are opaque strings everywhere in the package.
AuthorId = str

# Values used in lean-label mappings (author id -> label).
LEAN_LEFT = "left"
LEAN_RIGHT = "right"
LEAN_UNKNOWN = "unknown"


def lean_label(lean: float, threshold: float) -> str:
    """Left/right/unknown label of an author lean in [-1, 1]: beyond
    ``threshold`` on either side, else unknown."""
    if lean < -threshold:
        return LEAN_LEFT
    if lean > threshold:
        return LEAN_RIGHT
    return LEAN_UNKNOWN


class GroupLabel(str, Enum):
    """Treatment group of a monitor account."""

    NEUTRAL = "neutral"
    LEFT = "left"
    RIGHT = "right"
    BALANCED = "balanced"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Canonical reporting order for groups.
GROUP_ORDER: tuple[GroupLabel, ...] = (
    GroupLabel.NEUTRAL,
    GroupLabel.LEFT,
    GroupLabel.RIGHT,
    GroupLabel.BALANCED,
)


class TimelineEntry(NamedTuple):
    """One tweet as displayed at a given rank of a captured timeline.

    ``author_id`` is the original author of the content; for retweets it
    differs from ``displayed_author_id`` (the account that surfaced the
    tweet). ``in_network`` is true when the displayed author is followed
    by the capturing monitor.
    """

    rank: int
    tweet_id: str
    author_id: AuthorId
    displayed_author_id: AuthorId
    is_retweet: bool
    is_quote: bool
    is_promoted: bool
    in_network: bool


#: Bits of the flag mask, in the order of the flag fields of
#: :class:`TimelineEntry`: bit 0 retweet, bit 1 quote, bit 2 promoted,
#: bit 3 in-network.
FLAG_RETWEET = 1
FLAG_QUOTE = 2
FLAG_PROMOTED = 4
FLAG_IN_NETWORK = 8
FLAG_BITS = (FLAG_RETWEET, FLAG_QUOTE, FLAG_PROMOTED, FLAG_IN_NETWORK)


@dataclass(frozen=True)
class MonitorAccount:
    """A monitor account and its follow list."""

    id: str
    group: GroupLabel
    follows: frozenset[AuthorId] = field(default_factory=frozenset)
    created_at: datetime = datetime(2024, 10, 1, tzinfo=timezone.utc)

    def __post_init__(self) -> None:
        if self.group is GroupLabel.NEUTRAL and self.follows:
            raise ConfigError(f"neutral monitor {self.id!r} must not follow anyone")
        if not isinstance(self.follows, frozenset):
            object.__setattr__(self, "follows", frozenset(self.follows))


class SessionRecord:
    """One captured timeline: monitor, capture time, ranked entries.

    ``group`` is optional enrichment; stored logs carry it so analyses
    can bucket sessions without a separate monitor roster.

    A record is either built from its entries or is a view of one
    session of a :class:`SessionBatch`. A view builds its ``entries``
    tuple the first time it is read and keeps it; its length and
    metadata need no entries. Either kind is immutable, and records
    compare equal when their five fields do.
    """

    __slots__ = ("session_id", "monitor_id", "captured_at", "group", "_entries", "_batch", "_index")

    session_id: str
    monitor_id: str
    captured_at: datetime
    group: GroupLabel | None

    def __init__(
        self,
        session_id: str,
        monitor_id: str,
        captured_at: datetime,
        entries: tuple[TimelineEntry, ...],
        group: GroupLabel | None = None,
    ) -> None:
        self._set(session_id, monitor_id, captured_at, group, entries, None, -1)

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _view(cls, batch: SessionBatch, index: int) -> SessionRecord:
        view = object.__new__(cls)
        view._set(
            batch.session_id[index],
            batch.monitor_id[index],
            batch.captured_at[index],
            batch.group[index],
            None,
            batch,
            index,
        )
        return view

    @property
    def entries(self) -> tuple[TimelineEntry, ...]:
        if self._entries is None:
            object.__setattr__(self, "_entries", self._batch.entries(self._index))
        return self._entries

    def columns(self) -> tuple[Sequence, Sequence, Sequence, Sequence, Sequence[int]]:
        """The entries as five columns: ranks, tweet ids, author ids,
        displayed-author ids and flag masks (see ``FLAG_BITS``). A view
        reads them from its batch and builds no entries."""
        if self._batch is not None:
            return self._batch.columns(self._index)
        if not self._entries:
            return (), (), (), (), ()
        ranks, tweet_ids, authors, shown, *flags = zip(*self._entries)
        masks = [
            bool(rt) | bool(quote) << 1 | bool(promoted) << 2 | bool(in_net) << 3
            for rt, quote, promoted, in_net in zip(*flags)
        ]
        return ranks, tweet_ids, authors, shown, masks

    def __len__(self) -> int:
        if self._batch is not None:
            return int(self._batch.offsets[self._index + 1] - self._batch.offsets[self._index])
        return len(self._entries)

    def _fields(self) -> tuple:
        return (self.session_id, self.monitor_id, self.captured_at, self.entries, self.group)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._batch is not None and self._batch is other._batch and self._index == other._index:
            return True
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        names = ("session_id", "monitor_id", "captured_at", "entries", "group")
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(frozen=True, eq=False)
class SessionBatch:
    """Sessions stored as columns, one entry field per array.

    Row columns, over the rows of every session in order:

    - ``author`` and ``shown``: ``int32`` codes into ``ids`` of the
      original and the displayed author;
    - ``rank``: ``int32`` ranks;
    - ``flags``: ``uint8`` masks of the four flags (``FLAG_BITS``);
    - ``tweet_ends``: ``int64`` end of each row's tweet id in its
      session's ``tweet_text``, where the session's tweet ids are
      concatenated; a row's id starts where the row before it ends, or
      at 0 for a session's first row.

    Session ``i`` holds rows ``offsets[i]:offsets[i + 1]``. The other
    tuples hold one value per session. Arrays are read-only, and the
    views from :meth:`records` share them.
    """

    ids: Sequence[AuthorId]
    author: np.ndarray
    shown: np.ndarray
    rank: np.ndarray
    flags: np.ndarray
    tweet_ends: np.ndarray
    offsets: np.ndarray
    tweet_text: tuple[str, ...]
    session_id: tuple[str, ...]
    monitor_id: tuple[str, ...]
    captured_at: tuple[datetime, ...]
    group: tuple[GroupLabel | None, ...]

    def __len__(self) -> int:
        return len(self.session_id)

    def records(self) -> list[SessionRecord]:
        """One view per session, in order."""
        return [SessionRecord._view(self, i) for i in range(len(self))]

    def rows(self, index: np.ndarray) -> slice | np.ndarray:
        """The rows of sessions ``index``, in that order: a slice when
        they are consecutive, else an index array."""
        if not len(index):
            return slice(0, 0)
        starts, stops = self.offsets[index], self.offsets[index + 1]
        if np.array_equal(starts[1:], stops[:-1]):
            return slice(int(starts[0]), int(stops[-1]))
        lengths = stops - starts
        shift = starts - (np.cumsum(lengths) - lengths)
        return np.repeat(shift, lengths) + np.arange(int(lengths.sum()))

    def columns(self, index: int) -> tuple[list, list, list, list, list[int]]:
        """Session ``index`` as the five columns of
        :meth:`SessionRecord.columns`, as lists of plain values."""
        rows = slice(self.offsets[index], self.offsets[index + 1])
        author_id = self.ids.__getitem__
        tweet_text = self.tweet_text[index]
        tweet_ends = self.tweet_ends[rows].tolist()
        return (
            self.rank[rows].tolist(),
            list(map(tweet_text.__getitem__, map(slice, [0, *tweet_ends], tweet_ends))),
            list(map(author_id, self.author[rows].tolist())),
            list(map(author_id, self.shown[rows].tolist())),
            self.flags[rows].tolist(),
        )

    def entries(self, index: int) -> tuple[TimelineEntry, ...]:
        """The entries of session ``index``, built from its columns."""
        ranks, tweet_ids, authors, shown, _ = self.columns(index)
        masks = self.flags[self.offsets[index] : self.offsets[index + 1]]
        flags = [((masks & bit) != 0).tolist() for bit in FLAG_BITS]
        return tuple(map(TimelineEntry._make, zip(ranks, tweet_ids, authors, shown, *flags)))

    @classmethod
    def from_records(cls, records: Iterable[SessionRecord]) -> SessionBatch:
        """A batch holding ``records`` in order, built from their
        columns. Author ids are coded in order of first appearance;
        tweet ids are stored as their ``str``."""
        code: dict[AuthorId, int] = {}

        def encode(values: Iterable[AuthorId]) -> list[int]:
            return [code.setdefault(v, len(code)) for v in values]

        builder = BatchBuilder()
        for r in records:
            ranks, tweet_ids, authors, shown, masks = r.columns()
            tweet_ids = list(map(str, tweet_ids))
            builder.add(
                r.session_id, r.monitor_id, r.captured_at, r.group,
                encode(authors), encode(shown), ranks, masks,
                "".join(tweet_ids), np.cumsum(list(map(len, tweet_ids)), dtype=np.int64),
            )
        return builder.build(tuple(code))


class BatchBuilder:
    """Appends sessions to the columns of one :class:`SessionBatch`.

    Columns grow in place, so a finished batch costs no copy of them.
    """

    def __init__(self) -> None:
        self._author = array("i")
        self._shown = array("i")
        self._rank = array("i")
        self._flags = array("B")
        self._tweet_ends = array("q")
        self._offsets = array("q", [0])
        # session_id, monitor_id, captured_at, group and tweet_text, per session
        self._sessions: tuple[list, ...] = ([], [], [], [], [])

    def add(
        self,
        session_id: str,
        monitor_id: str,
        captured_at: datetime,
        group: GroupLabel | None,
        author: Sequence[int] | np.ndarray,
        shown: Sequence[int] | np.ndarray,
        rank: Sequence[int] | np.ndarray,
        flags: Sequence[int] | np.ndarray,
        tweet_text: str,
        tweet_ends: Sequence[int] | np.ndarray,
    ) -> None:
        """Append one session: its metadata and its row columns, each of
        the session's length, as described on :class:`SessionBatch`."""
        for buffer, values, dtype in (
            (self._author, author, np.intc),
            (self._shown, shown, np.intc),
            (self._rank, rank, np.intc),
            (self._flags, flags, np.uint8),
            (self._tweet_ends, tweet_ends, np.int64),
        ):
            buffer.frombytes(np.asarray(values, dtype).tobytes())
        self._offsets.append(len(self._flags))
        for column, value in zip(self._sessions, (session_id, monitor_id, captured_at, group, tweet_text)):
            column.append(value)

    def build(self, ids: Sequence[AuthorId]) -> SessionBatch:
        """The batch of every session added, with author codes into ``ids``."""

        def column(buffer: array, dtype: type) -> np.ndarray:
            values = np.frombuffer(buffer, dtype) if len(buffer) else np.empty(0, dtype)
            values.flags.writeable = False
            return values

        session_id, monitor_id, captured_at, group, tweet_text = map(tuple, self._sessions)
        return SessionBatch(
            ids=ids,
            author=column(self._author, np.intc),
            shown=column(self._shown, np.intc),
            rank=column(self._rank, np.intc),
            flags=column(self._flags, np.uint8),
            tweet_ends=column(self._tweet_ends, np.int64),
            offsets=column(self._offsets, np.int64),
            tweet_text=tweet_text,
            session_id=session_id,
            monitor_id=monitor_id,
            captured_at=captured_at,
            group=group,
        )


def batch_of(sessions: Iterable[SessionRecord]) -> tuple[SessionBatch, np.ndarray]:
    """The batch holding ``sessions`` and their indices in it, in order.

    Views of one batch give that batch, so its columns are read in
    place; any other records are copied into a new batch once.
    """
    sessions = list(sessions)
    batch = sessions[0]._batch if sessions else None
    if batch is not None and all(s._batch is batch for s in sessions):
        return batch, np.fromiter((s._index for s in sessions), np.intp, len(sessions))
    return SessionBatch.from_records(sessions), np.arange(len(sessions))


def validate_session(
    record: SessionRecord,
    follows: Iterable[AuthorId] | None = None,
) -> list[str]:
    """Check structural invariants of a session; return violation messages.

    Ranks must be contiguous 1..L in ascending order. When ``follows`` is
    given, each entry's ``in_network`` flag must agree with membership of
    its displayed author in that set. Neutral-group sessions are checked
    against an empty follow set even when ``follows`` is omitted.

    An empty list means the session is valid.
    """
    issues: list[str] = []
    entries = record.entries
    if not entries:
        issues.append("session has no entries")
        return issues

    expected = 1
    last = 0
    for e in entries:
        if e.rank == last:
            issues.append(f"duplicate rank {e.rank}")
        elif e.rank < last:
            issues.append(f"entries not sorted by rank (rank {e.rank} after {last})")
        elif e.rank > expected:
            issues.append(f"rank gap at {expected}")
        expected = max(expected, e.rank) + 1
        last = max(last, e.rank)
        if e.rank < 1:
            issues.append(f"rank {e.rank} below 1")
        if e.is_retweet and e.is_quote:
            issues.append(f"rank {e.rank} marked both retweet and quote")

    follow_set: frozenset[AuthorId] | None
    if follows is not None:
        follow_set = frozenset(follows)
    elif record.group is GroupLabel.NEUTRAL:
        follow_set = frozenset()
    else:
        follow_set = None

    if follow_set is not None:
        for e in entries:
            expected_in = e.displayed_author_id in follow_set
            if e.in_network != expected_in:
                issues.append(
                    f"rank {e.rank}: in_network={e.in_network} but displayed author "
                    f"{'is' if expected_in else 'is not'} followed"
                )
    return issues


def ensure_utc(dt: datetime) -> datetime:
    """Return ``dt`` as an aware UTC datetime (naive input is taken as UTC)."""
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)
