"""Line-oriented session log storage and summary statistics.

Sessions are stored as CSV with one row per timeline entry and a fixed
header. Rows of one session are contiguous and ordered by rank, and
sessions are written in canonical order, so equal inputs produce
byte-identical files. Timestamps are RFC-3339 UTC with a Z suffix.
Floats in emitted reports are rendered with six significant digits in
both CSV and JSON so the two formats carry value-identical numbers.

Sessions in memory are the columns of a
:class:`~feedaudit.model.SessionBatch`; see :mod:`feedaudit.model`.

Writing formats blocks of whole sessions of a few thousand rows with
numpy, from the columns of their batch, and builds no Python string per
row: each row is a record of NUL-padded fixed-width fields, taken from
small tables (the ``session_id,monitor_id,group,captured_at,`` prefix
per session, ``"r,"`` by rank, ``"id,"`` by author code, the flag text
by mask) and from the session's joined tweet ids, and dropping the NULs
leaves the text of the block. A session is formatted this way only when
checks on its ids, ranks and masks prove that ``csv.writer`` would write
the same bytes; any other session, and a record built from entries whose
fields are not plain ``str``/``int`` values, is written row by row by
``csv.writer``. Every CSV writer here, for logs, rosters and reports,
also quotes a field holding a carriage return, since a reader would
otherwise take it for a line break.

Reading tokenizes the log block by block (Langdale & Lemire's
structural index, "Parsing Gigabytes of JSON per Second", 2019): the
log is read in binary in blocks of about 256 KB cut at a line end,
numpy finds every line feed and comma first, and fields are read from
their positions. A block is taken this way only when ``csv.reader``
would split it at the same commas: it is ASCII with no double quote,
carriage return or NUL, every line holds 11 commas, none is longer
than ``csv.field_size_limit()``, and the fields read as fixed-width
columns (session id, rank, author and displayed-author ids, flags) are
at most ``_FIELD_BYTES`` long, so that those columns take memory in
proportion to the block. Its sessions are then checked column by
column: the rows of a session share its
``session_id,monitor_id,group,captured_at`` prefix, whose group is
known, ranks run 1..L, and the flag fields are ``true``/``false``. The
author and displayed-author ids of a block are coded through one
``np.unique`` of their fixed-width bytes, in order of first appearance,
and a session that passes goes into one batch straight from the byte
columns, with no object per row. The last session of a block may go on
in the next one, so it is carried over. There are three fallbacks, and
each gives what the row loop alone would, down to an error's message
and line: a session that fails a column check is rebuilt as rows from
its lines and goes through the per-session path, which builds a record
and has :func:`validate_session` name its violations; when a block is
not plain or a session raises, what was read is dropped and a
``csv.reader`` row loop reads the log again from its first line, as it
does a log whose first line is not the bare header. The row loop checks
each row's field count and group and parses a session's rows column by
column through the same per-session path. Line numbers are physical
lines of the file, where a quoted field may hold a line break. Per-row
counts such as :func:`dataset_stats` come from the flag masks, session
by session over the batch offsets.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import accumulate, groupby
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, ParseError
from .model import (
    FLAG_BITS,
    FLAG_IN_NETWORK,
    FLAG_PROMOTED,
    FLAG_QUOTE,
    FLAG_RETWEET,
    GROUP_ORDER,
    AuthorId,
    BatchBuilder,
    GroupLabel,
    SessionBatch,
    SessionRecord,
    TimelineEntry,
    batch_of,
    ensure_utc,
    lean_label,
    validate_session,
)

SESSION_FIELDS = (
    "session_id",
    "monitor_id",
    "group",
    "captured_at",
    "rank",
    "tweet_id",
    "author_id",
    "displayed_author_id",
    "is_retweet",
    "is_quote",
    "is_promoted",
    "in_network",
)

AUTHOR_FIELDS = ("author_id", "lean", "popularity", "post_rate", "lean_label")


def format_float(value: float) -> str:
    """Canonical six-significant-digit rendering used by all reports."""
    return f"{float(value):.6g}"


def _format_ts(dt: datetime) -> str:
    return ensure_utc(dt).isoformat().replace("+00:00", "Z")


def _parse_ts(text: str, path: str, line: int) -> datetime:
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"bad timestamp {text!r}", path=path, line=line) from None
    return ensure_utc(dt)


_BOOLEANS = frozenset(["true", "false"])
_GROUP_TEXTS = frozenset(["", *(g.value for g in GroupLabel)])


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring its state on exit.

    The row loop of a read allocates a list per row; collections in the
    middle only rescan rows that are still alive and form no reference
    cycle.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _line_breaks(row: Sequence[str]) -> int:
    """The line breaks inside a record's quoted fields: the record spans
    one physical line more than this. ``\\n``, ``\\r`` and ``\\r\\n`` each
    end a line, as for a file opened with ``newline=""``."""
    text = ",".join(row)
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _row_lines(rows: Sequence[Sequence[str]], first_line: int, blanks: Sequence[int]) -> list[int]:
    """The physical line each of a session's rows starts on. A row starts
    one line after the row before it, later by each blank line between
    them (``blanks`` holds the offsets of the rows that follow one) and by
    each line break inside the quoted fields of the row before it."""
    shift = [0, *map(_line_breaks, rows)]
    for b in blanks:
        shift[b] += 1
    return [first_line + i + s for i, s in zip(range(len(rows)), accumulate(shift))]


def _first_bad_field(rows: Sequence[Sequence[str]], path: str, lines: Sequence[int]) -> ParseError:
    """The error for a session's first unparseable rank or flag, in row
    order and, within a row, in column order."""
    for row, line in zip(rows, lines):
        try:
            int(row[4])
        except ValueError:
            return ParseError(f"bad rank {row[4]!r}", path=path, line=line)
        for text in row[8:]:
            if text not in _BOOLEANS:
                return ParseError(
                    f"bad boolean {text!r} (expected true/false)", path=path, line=line
                )
    raise AssertionError("every rank and flag parses")


def _valid_flags(
    flags: np.ndarray, shown: Sequence[int], follow_codes: list[int] | None, group: GroupLabel | None
) -> bool:
    """For a session whose ranks are 1..L: true exactly when
    :func:`validate_session` finds no violation, that is no row is both
    retweet and quote, and the in-network bits match the follow set (its
    authors' codes) when one applies, or are all clear for a neutral
    session."""
    if ((flags & (FLAG_RETWEET | FLAG_QUOTE)) == FLAG_RETWEET | FLAG_QUOTE).any():
        return False
    in_network = (flags & FLAG_IN_NETWORK) != 0
    if follow_codes is not None:
        return np.array_equal(in_network, np.isin(shown, follow_codes))
    return group is not GroupLabel.NEUTRAL or not in_network.any()


# The flag fields of a row, keyed on its flag mask, and the mask keyed on
# the text of the four fields.
_FLAG_FIELDS = tuple(
    tuple("true" if mask & bit else "false" for bit in FLAG_BITS) for mask in range(16)
)
_FLAG_TEXTS = tuple(map(",".join, _FLAG_FIELDS))
_MASKS = {fields: mask for mask, fields in enumerate(_FLAG_FIELDS)}


class _LineFeedRows:
    """The file that :func:`_csv_writer` writes to: each row goes to
    ``fh`` with its ``"\\r\\n"`` terminator cut to ``"\\n"``."""

    def __init__(self, fh: TextIO) -> None:
        self._write = fh.write

    def write(self, row: str) -> None:
        self._write(row[:-2] + "\n")


def _csv_writer(fh: TextIO):
    """A ``csv.writer`` on ``fh`` whose rows end in ``"\\n"``. Its
    ``"\\r\\n"`` terminator makes it quote every field that holds a
    carriage return as well as a line feed, so that a lone ``"\\r"``
    reads back inside its field rather than as a line break."""
    return csv.writer(_LineFeedRows(fh), lineterminator="\r\n")


#: Rows the writer formats at a time, at least: a block is whole sessions.
_WRITE_ROWS = 4096
#: What makes ``csv.writer`` quote a field, and the NUL that pads the
#: writer's byte matrix.
_SPECIAL = ',"\r\n\0'


def _quotes_nothing(text: str) -> bool:
    return text.isascii() and not any(c in text for c in _SPECIAL)


def _plain_id(value: object) -> bool:
    """Whether ``csv.writer`` writes ``value`` as its text and the byte
    matrix of :class:`_LogWriter` can take it: an exact ``str`` of at most
    ``_FIELD_BYTES`` ASCII characters, none of them in ``_SPECIAL``."""
    return type(value) is str and len(value) <= _FIELD_BYTES and _quotes_nothing(value)


def _typed(record: SessionRecord) -> bool:
    """Whether a record built from its entries goes into a batch with its
    values unchanged: ids exactly ``str`` and ranks exactly ``int`` in the
    ``int32`` range."""
    ranks, tweet_ids, authors, shown, _ = record.columns()
    return (
        type(record.session_id) is str
        and type(record.monitor_id) is str
        and all(type(r) is int and -(1 << 31) <= r < 1 << 31 for r in ranks)
        and all(type(v) is str for column in (tweet_ids, authors, shown) for v in column)
    )


def _csv_text(record: SessionRecord) -> bytes:
    """The rows of one session as ``csv.writer`` writes them (see
    :func:`_csv_writer`), encoded."""
    buf = io.StringIO()
    writer = _csv_writer(buf)
    group = record.group.value if record.group is not None else ""
    ts = _format_ts(record.captured_at)
    ranks, tweet_ids, authors, shown, masks = record.columns()
    for row in zip(ranks, tweet_ids, authors, shown, map(_FLAG_FIELDS.__getitem__, masks)):
        writer.writerow((record.session_id, record.monitor_id, group, ts, *row[:4], *row[4]))
    return buf.getvalue().encode()


def _table(texts: Sequence[str]) -> np.ndarray:
    """ASCII texts as a fixed-width ``S`` array, each padded with NULs."""
    return np.array(texts, dtype="S")


# The flag fields and line feed that end a row, keyed on its flag mask.
_FLAG_ROWS = _table([text + "\n" for text in _FLAG_TEXTS])


class _LogWriter:
    """Writes sessions of one batch to a binary log file, formatting
    blocks of whole sessions of at least ``_WRITE_ROWS`` rows with numpy.

    Each row of a block becomes one record of fixed-width fields padded
    with NULs, so that the block is a (rows x width) byte matrix: the
    ``session_id,monitor_id,group,captured_at,`` prefix from a table with
    one entry per session, the rank from a table of ``"1,"``..``"L,"``,
    the tweet id and its comma from the session's ``tweet_text`` at the
    row's ``tweet_ends``, the author and displayed-author ids from one
    ``"id,"`` table per batch and the flags and line feed from a table
    keyed on the mask. Dropping the NULs leaves the text of the block. A
    session is formatted this way only when ``csv.writer`` would write
    the same bytes and the matrix stays narrow: its session, monitor,
    author and displayed-author ids pass :func:`_plain_id`, its tweet ids
    make up its ``tweet_text``, hold nothing of ``_SPECIAL`` and are at
    most ``_FIELD_BYTES`` long, its ranks are in 1..L for L rows and its
    masks below 16. Any other session is written by ``csv.writer``
    (:func:`_csv_text`).
    """

    def __init__(self, fh: BinaryIO, batch: SessionBatch) -> None:
        self.fh = fh
        self.batch = batch
        plain = list(map(_plain_id, batch.ids))
        self.id_ok = np.array(plain, bool)
        self.id_text = _table([f"{i}," if ok else "" for i, ok in zip(batch.ids, plain)])
        self.rank_text = _table([])  # "r," keyed on r, for the longest session so far

    def write(self, index: np.ndarray, records: Sequence[SessionRecord]) -> None:
        """Write sessions ``index`` of the batch, in that order;
        ``records`` are the same sessions, for the ``csv.writer`` path."""
        lengths = (self.batch.offsets[index + 1] - self.batch.offsets[index]).tolist()
        start = rows = 0
        for stop, n in enumerate(lengths, 1):
            rows += n
            if rows >= _WRITE_ROWS or stop == len(lengths):
                self.block(index[start:stop], records[start:stop])
                start, rows = stop, 0

    def block(self, index: np.ndarray, records: Sequence[SessionRecord]) -> None:
        batch = self.batch
        rows = batch.rows(index)
        author, shown, rank, flags, ends = (
            batch.author[rows], batch.shown[rows], batch.rank[rows], batch.flags[rows], batch.tweet_ends[rows],
        )
        lengths = batch.offsets[index + 1] - batch.offsets[index]
        first = np.cumsum(lengths) - lengths  # each session's first row
        session = np.repeat(np.arange(len(index)), lengths)
        starts = np.empty_like(ends)  # where each row's tweet id starts in its session's text
        starts[1:] = ends[:-1]
        starts[first[lengths > 0]] = 0
        size = ends - starts
        bad = ~(
            self.id_ok[author]
            & self.id_ok[shown]
            & (rank >= 1)
            & (rank <= lengths[session])
            & (flags < 16)
            & (size >= 0)
            & (size <= _FIELD_BYTES)
        )
        plain = np.bincount(session[bad], minlength=len(index)) == 0
        text_sizes = np.concatenate(([0], np.cumsum(size)))
        text_sizes = (text_sizes[first + lengths] - text_sizes[first]).tolist()
        prefixes, tweet_texts = [], []
        for k, i in enumerate(index.tolist()):
            sid, mon, tweets = batch.session_id[i], batch.monitor_id[i], batch.tweet_text[i]
            if plain[k] and _plain_id(sid) and _plain_id(mon) and len(tweets) == text_sizes[k] and _quotes_nothing(tweets):
                group = batch.group[i]
                group_text = group.value if group is not None else ""
                prefixes.append(f"{sid},{mon},{group_text},{_format_ts(batch.captured_at[i])},")
                tweet_texts.append(tweets)
            else:
                plain[k] = False
                prefixes.append("")
        if not plain.all():
            keep = plain[session]
            session, author, shown, rank, flags, size = (c[keep] for c in (session, author, shown, rank, flags, size))
        text = self.text(_table(prefixes), session, author, shown, rank, flags, size, "".join(tweet_texts))
        row = 0
        for ok, run in groupby(zip(plain.tolist(), lengths.tolist(), records), key=itemgetter(0)):
            if ok:
                stop = row + sum(n for _, n, _ in run)
                self.fh.write(text[row:stop].tobytes().replace(b"\0", b""))
                row = stop
            else:
                for _, _, record in run:
                    self.fh.write(_csv_text(record))

    def text(
        self,
        prefixes: np.ndarray,
        session: np.ndarray,
        author: np.ndarray,
        shown: np.ndarray,
        rank: np.ndarray,
        flags: np.ndarray,
        size: np.ndarray,
        tweet_text: str,
    ) -> np.ndarray:
        """One record of NUL-padded fields per row, from the row columns
        of plain sessions, their ``prefixes`` and their joined tweet ids."""
        longest = int(rank.max(initial=0))
        if longest >= len(self.rank_text):
            self.rank_text = _table([f"{r}," for r in range(longest + 1)])
        # Row r's tweet id is the first size[r] bytes of the window at its
        # start in the joined text, which is padded so that every window
        # is whole; its comma follows.
        n, width = len(session), int(size.max(initial=0)) + 1
        windows = sliding_window_view(np.frombuffer(tweet_text.encode() + bytes(width), np.uint8), width)
        tweet_ids = windows[np.cumsum(size) - size]
        tweet_ids *= np.arange(width) < size[:, None]
        tweet_ids[np.arange(n), size] = _COMMA
        fields = (
            ("prefix", prefixes.take(session)),
            ("rank", self.rank_text.take(rank)),
            ("tweet_id", tweet_ids.view(f"S{width}").reshape(n)),
            ("author", self.id_text.take(author)),
            ("shown", self.id_text.take(shown)),
            ("flags", _FLAG_ROWS.take(flags)),
        )
        text = np.empty(n, [(name, column.dtype) for name, column in fields])
        for name, column in fields:
            text[name] = column
        return text


def _run_key(record: SessionRecord) -> object:
    """Views of one batch share the batch as key; a record built from its
    entries has key :func:`_typed`."""
    return record._batch if record._batch is not None else _typed(record)


def write_sessions(
    sessions: Iterable[SessionRecord], path: str | Path, *, append: bool = False
) -> int:
    """Write sessions as CSV rows; returns the number of sessions written.

    With ``append`` the header is only written when the file is new or
    empty. Views of one batch are formatted from its columns by
    :class:`_LogWriter`, block by block with numpy, and a run of records
    built from their entries is copied into one batch first, through
    :func:`~feedaudit.model.batch_of`. A session whose fields need
    quoting, or do not fit the writer's byte matrix, and a record whose
    fields are not plain ``str``/``int`` values, are written row by row by
    ``csv.writer`` instead. The bytes are those of ``csv.writer`` either
    way, except that a field holding a carriage return is quoted too, so
    that the log reads back.
    """
    path = Path(path)
    need_header = not (append and path.exists() and path.stat().st_size > 0)
    count = 0
    with path.open("ab" if append else "wb") as fh:
        if need_header:
            fh.write(_HEADER_LINE)
        for key, run in groupby(sessions, _run_key):
            run = list(run)
            count += len(run)
            if key is False:
                for record in run:
                    fh.write(_csv_text(record))
            else:
                batch, index = batch_of(run)
                _LogWriter(fh, batch).write(index, run)
    return count


@dataclass(frozen=True)
class IngestResult:
    """Outcome of reading a session log.

    ``total`` counts sessions parsed from the file;
    total = len(sessions) + filtered + skipped. ``violations`` maps each
    skipped session id to its validation problems.
    """

    sessions: tuple[SessionRecord, ...]
    total: int
    filtered: int
    skipped: int
    violations: Mapping[str, tuple[str, ...]]


#: Bytes the block tokenizer of :func:`read_sessions` reads at a time.
_BLOCK_BYTES = 1 << 18
#: The longest field the block tokenizer reads as a fixed-width column.
_FIELD_BYTES = 64

_HEADER_LINE = (",".join(SESSION_FIELDS) + "\n").encode()
_LINE_FEED, _COMMA = ord("\n"), ord(",")
_FLAG_BYTES = np.array([t.encode() for t in _FLAG_TEXTS])  # keyed on the flag mask


def _fixed(a: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The byte fields ``a[starts[i]:stops[i]]`` as one fixed-width ``S``
    array, each padded with NULs (which a tokenized block does not hold)."""
    lengths = stops - starts
    cols = np.arange(max(int(lengths.max(initial=0)), 1))[:, None]
    fields = a.take(cols + starts, mode="clip")  # one row per byte of the fields
    fields *= cols < lengths
    return np.ascontiguousarray(fields.T).view(f"S{len(cols)}").ravel()


def _distinct(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(fields, return_inverse=True)`` for a fixed-width ``S``
    array, but for the order of the distinct values: fields of up to 8
    bytes are sorted as one uint64 each, which is faster than sorting
    them as bytes."""
    if fields.itemsize > 8:
        return np.unique(fields, return_inverse=True)
    keys, inverse = np.unique(fields.astype("S8").view("<u8"), return_inverse=True)
    distinct = np.empty(len(keys), fields.dtype)
    distinct[inverse] = fields
    return distinct, inverse


def _joined(a: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The byte fields ``a[starts[i]:stops[i]]`` joined, and where each
    ends in the joined bytes."""
    lengths = stops - starts
    ends = np.cumsum(lengths)
    index = np.repeat(starts - (ends - lengths), lengths) + np.arange(int(ends[-1]))
    return a[index].tobytes(), ends


def _rows(buf: bytes, start: int, stop: int) -> list[list[str]]:
    """The rows of the plain lines ``buf[start:stop]``, split as
    ``csv.reader`` splits them."""
    return [line.split(",") for line in buf[start:stop].decode().split("\n")]


def read_sessions(
    path: str | Path,
    *,
    group: GroupLabel | str | None = None,
    monitor_id: str | None = None,
    start: datetime | None = None,
    end: datetime | None = None,
    follows: Mapping[str, frozenset[AuthorId]] | None = None,
) -> IngestResult:
    """Read and validate a session log.

    Malformed lines raise ParseError with the line number. Sessions that
    fail structural validation are skipped and counted, never silently
    kept. Filters (group, monitor, [start, end) capture window) exclude
    sessions before validation and count them as ``filtered``. When
    ``follows`` provides a monitor's follow set, in_network flags are
    checked against it; neutral sessions are always checked against an
    empty follow set.

    The log is read in binary, in blocks of about ``_BLOCK_BYTES`` cut
    at a line end, and the valid sessions become the columns of one
    :class:`~feedaudit.model.SessionBatch`; ``sessions`` are views of
    it. A block is tokenized with numpy when ``csv.reader`` would split
    it at the same commas: it is ASCII with no double quote, carriage
    return or NUL, every line holds 11 commas, no line is longer than
    ``csv.field_size_limit()`` and no session id, rank, author id,
    displayed-author id or flag text is longer than ``_FIELD_BYTES``.
    Its sessions are then checked column by column: every row shares the
    session's ``session_id,monitor_id,group,captured_at`` prefix, with a
    known group, ranks are 1..L and flags ``true``/``false``, and the
    flag masks pass :func:`_valid_flags`. Author and displayed-author
    ids are coded through one ``np.unique`` per block, in order of first
    appearance, and a session that passes goes into the batch with no
    object per row. There are three fallbacks. A session that fails a
    check is rebuilt as rows from its lines and goes through the
    per-session path, which builds a record and has
    :func:`validate_session` name its violations, or raises its error.
    When a block is not plain or holds an unknown group, or a session
    of it raises, what was read is dropped and a ``csv.reader`` row
    loop reads the log again from its first line, as it reads a log
    whose first line is not the bare header. Errors with their message
    and line, counts, violations and the order of author codes are the
    same on every path. A filtered session is checked no further than
    its capture time, so a bad rank or flag in it raises nothing.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"session log not found: {path}")
    ingest = _Ingest(path, group, monitor_id, start, end, follows)
    with _gc_paused():
        if not (path.is_file() and ingest.blocks()):
            # The blocks read so far were plain, so the row loop reads
            # them the same; it starts again with nothing ingested.
            ingest = _Ingest(path, group, monitor_id, start, end, follows)
            ingest.row_loop()
    return IngestResult(
        sessions=tuple(ingest.batch.build(tuple(ingest.code)).records()),
        total=ingest.total,
        filtered=ingest.filtered,
        skipped=ingest.skipped,
        violations=ingest.violations,
    )


class _Ingest:
    """The state of one :func:`read_sessions` call and its three paths:
    the block tokenizer (:meth:`blocks`), the ``csv.reader`` row loop
    (:meth:`row_loop`) and the per-session path that both go through
    (:meth:`flush`)."""

    def __init__(
        self,
        path: Path,
        group: GroupLabel | str | None,
        monitor_id: str | None,
        start: datetime | None,
        end: datetime | None,
        follows: Mapping[str, frozenset[AuthorId]] | None,
    ) -> None:
        self.path = path
        self.where = str(path)
        self.want_group = GroupLabel(str(group)) if group is not None else None
        self.monitor_id = monitor_id
        self.start = ensure_utc(start) if start else None
        self.end = ensure_utc(end) if end else None
        self.follows = follows
        self.batch = BatchBuilder()
        self.violations: dict[str, tuple[str, ...]] = {}
        self.seen_ids: set[str] = set()
        self.total = self.filtered = self.skipped = 0
        self.code: dict[AuthorId, int] = {}  # author id -> its code, in order of first appearance
        # 1..L as int32, as text and as bytes, for the longest session so far
        self.ranks = np.empty(0, np.int32)
        self.rank_texts: tuple[str, ...] = ()
        self.rank_bytes = np.empty(0, "S1")

    def grow_ranks(self, n: int) -> None:
        if len(self.ranks) < n:
            self.ranks = np.arange(1, n + 1, dtype=np.int32)
            self.rank_texts = tuple(map(str, range(1, n + 1)))
            self.rank_bytes = self.ranks.astype("S")

    def excluded(self, grp: GroupLabel | None, mon: str, captured: datetime) -> bool:
        return (
            (self.want_group is not None and grp is not self.want_group)
            or (self.monitor_id is not None and mon != self.monitor_id)
            or (self.start is not None and captured < self.start)
            or (self.end is not None and captured >= self.end)
        )

    def encode(self, ids: Sequence[AuthorId]) -> list[int]:
        code = self.code
        codes = list(map(code.get, ids))
        if None in codes:
            codes = [code.setdefault(a, len(code)) for a in ids]
        return codes

    def follow_codes(self, mon: str) -> tuple[frozenset[AuthorId] | None, list[int] | None]:
        follow_set = self.follows.get(mon) if self.follows is not None else None
        codes = None if follow_set is None else [self.code[a] for a in follow_set if a in self.code]
        return follow_set, codes

    def flush(self, rows: list[list[str]], first_line: int, blanks: list[int]) -> None:
        """Ingest one session from its rows: ``first_line`` is the physical
        line of its first row, ``blanks`` the offsets of its rows that
        follow a blank line."""
        self.total += 1
        sid, mon, grp_text, ts_text = rows[0][:4]
        grp = GroupLabel(grp_text) if grp_text else None
        captured = _parse_ts(ts_text, self.where, first_line)
        if self.excluded(grp, mon, captured):
            self.filtered += 1
            return

        n = len(rows)
        _, mons, grps, stamps, rank_col, tweet_ids, authors, shown, *flag_cols = zip(*rows)
        issues: list[str] = []
        if mons.count(mon) != n or grps.count(grp_text) != n or stamps.count(ts_text) != n:
            issues = [
                f"line {line}: inconsistent session header fields"
                for row, line in zip(rows, _row_lines(rows, first_line, blanks))
                if row[1] != mon or row[2] != grp_text or row[3] != ts_text
            ]
        self.grow_ranks(n)
        try:
            flags = np.frombuffer(bytes(map(_MASKS.__getitem__, zip(*flag_cols))), np.uint8)
            in_order = rank_col == self.rank_texts[:n]
            parsed = None if in_order else list(map(int, rank_col))
        except (KeyError, ValueError):
            raise _first_bad_field(rows, self.where, _row_lines(rows, first_line, blanks)) from None
        in_order = in_order or parsed == self.ranks[:n].tolist()
        author_codes, shown_codes = self.encode(authors), self.encode(shown)
        if sid in self.seen_ids:
            issues.append("duplicate session id")
        self.seen_ids.add(sid)
        follow_set, follow_codes = self.follow_codes(mon)
        if not (in_order and _valid_flags(flags, shown_codes, follow_codes, grp)):
            rank_values = self.ranks[:n].tolist() if parsed is None else parsed
            bits = [((flags & bit) != 0).tolist() for bit in FLAG_BITS]
            entries = tuple(map(TimelineEntry._make, zip(rank_values, tweet_ids, authors, shown, *bits)))
            issues.extend(validate_session(SessionRecord(sid, mon, captured, entries, grp), follow_set))
        if issues:
            self.skipped += 1
            self.violations[sid] = tuple(issues)
            return
        # A valid session's ranks are 1..n.
        self.batch.add(
            sid, mon, captured, grp, author_codes, shown_codes, self.ranks[:n], flags,
            "".join(tweet_ids), np.cumsum(np.fromiter(map(len, tweet_ids), np.int64, n)),
        )

    def blocks(self) -> bool:
        """Ingest the log block by block. Returns whether it got to the
        end; if not, the row loop must read the log: its first line is not
        the bare header, a block is not plain or a session raised."""
        with self.path.open("rb") as fh:
            if fh.read(len(_HEADER_LINE)) != _HEADER_LINE:
                return False
            buf = b""  # whole lines from a session's start, and a part line
            line = 2  # the physical line buf starts on
            while True:
                # at least as much again as is left over, so that a
                # session longer than a block is read in doubling steps
                more = fh.read(max(_BLOCK_BYTES, len(buf)))
                buf += more
                if more:
                    size = buf.rfind(b"\n") + 1
                    if not size:
                        continue
                else:
                    if not buf:
                        return True
                    if not buf.endswith(b"\n"):
                        buf += b"\n"  # csv.reader reads a last line without one the same
                    size = len(buf)
                done = self.block(buf, size, line, final=not more)
                if done is None:
                    return False
                if not more:
                    return True
                line += buf.count(b"\n", 0, done)
                buf = buf[done:]

    def block(self, buf: bytes, size: int, first_line: int, final: bool) -> int | None:
        """Ingest the sessions in ``buf[:size]``, whole lines that start a
        session on physical line ``first_line``; unless ``final``, the last
        session is left for the next block, as it may go on there.

        Returns the number of bytes ingested, or None when the row loop
        must read the log: the block is not plain or holds an unknown
        group, or a session of it raised.
        """
        a = np.frombuffer(buf, np.uint8, size)
        ends = np.flatnonzero(a == _LINE_FEED)
        n = len(ends)
        commas = np.flatnonzero(a == _COMMA)
        if len(commas) != 11 * n or a.max() >= 0x80 or any(buf.find(c, 0, size) >= 0 for c in b'"\r\0'):
            return None
        commas = commas.reshape(n, 11)
        starts = np.concatenate(([0], ends[:-1] + 1))
        # Each line holds its 11 commas and is no longer than a field
        # csv.reader takes, and the fields that _fixed reads (session id,
        # rank, author and displayed-author ids, flag text) are at most
        # _FIELD_BYTES long.
        if (
            (commas[:, 0] < starts).any()
            or (commas[:, 10] > ends).any()
            or (ends - starts).max() > csv.field_size_limit()
            or (commas[:, 0] - starts).max() > _FIELD_BYTES
            or (commas[:, [4, 6, 7]] - commas[:, [3, 5, 6]]).max() > _FIELD_BYTES + 1
            or (ends - commas[:, 7]).max() > _FIELD_BYTES + 1
        ):
            return None
        sids = _fixed(a, starts, commas[:, 0])
        bounds = (np.flatnonzero(sids[1:] != sids[:-1]) + 1).tolist()
        if not final:
            if not bounds:
                return 0
            n = bounds.pop()
            starts, ends, commas = starts[:n], ends[:n], commas[:n]
        bounds = [0, *bounds, n]
        lengths = np.diff(bounds)

        # Per session, before any is ingested: its prefix and fields, its
        # capture time (None when it does not parse: flush raises), and its
        # rows when not all of them share its prefix. A row's group is that
        # of its session's prefix or is checked here.
        sessions = []
        for r0, r1 in zip(bounds, bounds[1:]):
            prefix = buf[starts[r0] : commas[r0, 3] + 1]
            sid, mon, grp_text, ts_text, _ = prefix.decode().split(",")
            rows = None
            if buf.count(b"\n" + prefix, starts[r0], ends[r1 - 1]) != r1 - r0 - 1:
                rows = _rows(buf, starts[r0], ends[r1 - 1])
            if not _GROUP_TEXTS.issuperset([grp_text] if rows is None else [row[2] for row in rows]):
                return None
            try:
                captured = _parse_ts(ts_text, self.where, first_line + r0)
            except ParseError:
                captured = None
            grp = GroupLabel(grp_text) if grp_text else None
            sessions.append((sid, mon, grp, captured, rows))
        included = np.array(
            [captured is not None and not self.excluded(grp, mon, captured) for _, mon, grp, captured, _ in sessions]
        )

        # Column checks, per row: the rank is the row's place in its
        # session, and the four flags are true/false; a flag field of 4
        # bytes sets its bit of the row's mask.
        self.grow_ranks(int(lengths.max()))
        place = np.arange(n) - np.repeat(bounds[:-1], lengths)
        ranks_ok = _fixed(a, commas[:, 3] + 1, commas[:, 4]) == self.rank_bytes[place]
        flag_gaps = np.diff(commas[:, 7:], axis=1, append=ends[:, None])
        flags = np.packbits(flag_gaps == len("true,"), axis=1, bitorder="little").ravel()
        flags_ok = _fixed(a, commas[:, 7] + 1, ends) == _FLAG_BYTES[flags]
        fast = np.logical_and.reduceat(ranks_ok & flags_ok, bounds[:-1])
        author, shown = self.encode_block(a, commas, lengths, included)
        tweet_text, tweet_ends = _joined(a, commas[:, 4] + 1, commas[:, 5])

        for (sid, mon, grp, captured, rows), r0, r1, ok, take in zip(sessions, bounds, bounds[1:], fast, included):
            if captured is not None and not take:
                self.total += 1
                self.filtered += 1
                continue
            if take and ok and rows is None and sid not in self.seen_ids:
                _, follow_codes = self.follow_codes(mon)
                if _valid_flags(flags[r0:r1], shown[r0:r1], follow_codes, grp):
                    self.total += 1
                    self.seen_ids.add(sid)
                    t0 = int(tweet_ends[r0 - 1]) if r0 else 0
                    self.batch.add(
                        sid, mon, captured, grp, author[r0:r1], shown[r0:r1], self.ranks[: r1 - r0],
                        flags[r0:r1], tweet_text[t0 : tweet_ends[r1 - 1]].decode(), tweet_ends[r0:r1] - t0,
                    )
                    continue
            try:
                self.flush(rows or _rows(buf, starts[r0], ends[r1 - 1]), first_line + r0, [])
            except ParseError:
                return None
        return int(ends[-1]) + 1

    def encode_block(
        self, a: np.ndarray, commas: np.ndarray, lengths: np.ndarray, included: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The author and displayed-author codes of a block's rows. The ids
        of its ``included`` sessions are coded, in order of first
        appearance over each session's author ids and then its
        displayed-author ids, as :meth:`flush` codes them; the rows of
        other sessions get -1."""
        rows = slice(None) if included.all() else np.repeat(included, lengths)
        taken = lengths[included]
        k = int(taken.sum())
        ids, inverse = _distinct(np.concatenate([
            _fixed(a, commas[rows, 5] + 1, commas[rows, 6]),
            _fixed(a, commas[rows, 6] + 1, commas[rows, 7]),
        ]))
        ids = [i.decode() for i in ids.tolist()]
        codes = list(map(self.code.get, ids))
        if None in codes:
            # In that order a session of m rows after s rows of included
            # sessions has its author ids at 2s..2s+m-1 and its
            # displayed-author ids at 2s+m..2s+2m-1.
            stops = np.cumsum(taken)
            place = np.arange(k)
            order = np.empty(2 * k, np.intp)
            order[np.repeat(stops - taken, taken) + place] = inverse[:k]
            order[np.repeat(stops, taken) + place] = inverse[k:]
            _, first = np.unique(order, return_index=True)
            for i in sorted((i for i, c in enumerate(codes) if c is None), key=first.__getitem__):
                codes[i] = self.code.setdefault(ids[i], len(self.code))
        code_of = np.array(codes, np.int32)
        author = np.full(len(commas), -1, np.int32)
        shown = np.full(len(commas), -1, np.int32)
        author[rows] = code_of[inverse[:k]]
        shown[rows] = code_of[inverse[k:]]
        return author, shown

    def row_loop(self) -> None:
        """Ingest the log with ``csv.reader``, row by row."""
        path, where = self.path, self.where
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"session log is empty: {path}") from None
            if tuple(header) != SESSION_FIELDS:
                raise ParseError(f"unexpected header {header!r}", path=where, line=1)
            width = len(SESSION_FIELDS)
            rows: list[list[str]] = []  # the current session's rows
            blanks: list[int] = []  # offsets of its rows that follow a blank line
            sid: str | None = None
            first_line = 1
            for row in reader:
                # Lines are physical lines; a record with a line break in a
                # quoted field spans more than one. The reader has read up to
                # the end of this record.
                if not row:
                    blanks.append(len(rows))
                    continue
                if len(row) != width:
                    line = reader.line_num - _line_breaks(row)
                    raise ParseError(f"expected {width} fields, got {len(row)}", path=where, line=line)
                if row[2] not in _GROUP_TEXTS:
                    line = reader.line_num - _line_breaks(row)
                    raise ParseError(f"unknown group {row[2]!r}", path=where, line=line)
                if row[0] != sid:
                    if rows:
                        self.flush(rows, first_line, blanks)
                    rows, blanks = [], []
                    sid, first_line = row[0], reader.line_num - _line_breaks(row)
                rows.append(row)
            if rows:
                self.flush(rows, first_line, blanks)


@dataclass(frozen=True)
class GroupStats:
    """Per-group composition statistics (means and population stds of
    per-monitor shares, as fractions in [0, 1]).

    The field order is the column order of ``stats.csv``, which is
    written from ``dataclasses.asdict`` of each instance.
    """

    group: str
    monitors: int
    sessions: int
    tweets: int
    oon_mean: float
    oon_std: float
    retweet_mean: float
    retweet_std: float
    quote_mean: float
    quote_std: float
    promoted_mean: float
    promoted_std: float


@dataclass(frozen=True)
class DatasetStats:
    groups: tuple[GroupStats, ...]
    total_sessions: int
    total_tweets: int
    ungrouped_sessions: int = 0


def dataset_stats(sessions: Iterable[SessionRecord]) -> DatasetStats:
    """Composition statistics per group: out-of-network, retweet, quote,
    and promoted shares averaged over monitors.

    Each session's counts come from the flag masks of its rows. A
    grouped monitor whose sessions hold no entries has no shares and
    raises :class:`DataError`.
    """
    batch, index = batch_of(sessions)
    flags = batch.flags[batch.rows(index)]
    lengths = batch.offsets[index + 1] - batch.offsets[index]
    stops = np.cumsum(lengths)
    starts = stops - lengths

    def per_session(bit: int) -> np.ndarray:
        running = np.concatenate(([0], np.cumsum((flags & bit) != 0)))
        return running[stops] - running[starts]

    # per session: [sessions, tweets, out-of-network, retweets, quotes, promoted]
    per = np.column_stack([
        np.ones_like(lengths),
        lengths,
        lengths - per_session(FLAG_IN_NETWORK),
        per_session(FLAG_RETWEET),
        per_session(FLAG_QUOTE),
        per_session(FLAG_PROMOTED),
    ]).tolist()
    # (group, monitor) -> the sums of those counts
    counts: dict[tuple[GroupLabel, str], list[int]] = {}
    ungrouped = 0
    for i, c in zip(index.tolist(), per):
        group = batch.group[i]
        if group is None:
            ungrouped += 1
            continue
        total = counts.setdefault((group, batch.monitor_id[i]), [0] * 6)
        for k, value in enumerate(c):
            total[k] += value

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
        groups.append(
            GroupStats(
                group=group.value,
                monitors=len(keys),
                sessions=sum(c[0] for c in monitors),
                tweets=sum(c[1] for c in monitors),
                **stat,
            )
        )
    return DatasetStats(
        groups=tuple(groups),
        total_sessions=len(index),
        total_tweets=int(lengths.sum()),
        ungrouped_sessions=ungrouped,
    )


def _render(value: object) -> object:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise DataError(f"cannot serialize non-finite value {value!r}")
        return float(format_float(value))
    return value


def _render_csv_cell(value: object) -> object:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    # keep the canonical digit string; repr of the rounded float may differ
    if isinstance(value, float):
        return format_float(value)
    return value


def emit_report(
    rows: Sequence[Mapping[str, object]],
    path: str | Path,
    *,
    fmt: str = "csv",
    columns: Sequence[str] | None = None,
) -> None:
    """Write report rows as CSV or JSON with canonical float rendering.

    The same row values round-trip to equal numbers from either format.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    path = Path(path)
    if columns is None:
        if not rows:
            raise DataError("cannot infer columns from an empty report")
        columns = list(rows[0].keys())
    rendered = [{c: _render(r.get(c)) for c in columns} for r in rows]
    if fmt == "json":
        with path.open("w", encoding="utf-8") as fh:
            json.dump(rendered, fh, indent=2)
            fh.write("\n")
        return
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = _csv_writer(fh)
        writer.writerow(columns)
        for row in rendered:
            writer.writerow([_render_csv_cell(row[c]) for c in columns])


def write_authors(
    authors: Iterable, path: str | Path, *, lean_threshold: float = 0.3
) -> int:
    """Write an author roster (id, lean, popularity, post rate, label)."""
    path = Path(path)
    count = 0
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = _csv_writer(fh)
        writer.writerow(AUTHOR_FIELDS)
        for a in authors:
            writer.writerow(
                (
                    a.id,
                    format_float(a.lean),
                    format_float(a.popularity),
                    format_float(a.post_rate),
                    lean_label(a.lean, lean_threshold),
                )
            )
            count += 1
    return count


@dataclass(frozen=True)
class AuthorInfo:
    lean: float
    popularity: float
    post_rate: float
    label: str


def read_authors(path: str | Path) -> dict[AuthorId, AuthorInfo]:
    """Read an author roster written by :func:`write_authors`."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"author roster not found: {path}")
    out: dict[AuthorId, AuthorInfo] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"author roster is empty: {path}") from None
        if tuple(header) != AUTHOR_FIELDS:
            raise ParseError(f"unexpected header {header!r}", path=str(path), line=1)
        for row in reader:
            if not row:
                continue
            # the physical line the record starts on
            line_no = reader.line_num - _line_breaks(row)
            if len(row) != len(AUTHOR_FIELDS):
                raise ParseError(
                    f"expected {len(AUTHOR_FIELDS)} fields, got {len(row)}",
                    path=str(path),
                    line=line_no,
                )
            try:
                out[row[0]] = AuthorInfo(
                    lean=float(row[1]),
                    popularity=float(row[2]),
                    post_rate=float(row[3]),
                    label=row[4],
                )
            except ValueError:
                raise ParseError(
                    f"bad numeric field in {row!r}", path=str(path), line=line_no
                ) from None
    return out
