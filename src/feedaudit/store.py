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
the same bytes; any other session, and every record built from its
entries rather than viewed in a batch, is written row by row by
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
does a log whose first line is not the bare header. The row loop and
:func:`read_authors` take their records from one reader,
:func:`_records`, which checks the header and each record's field count
and skips blank lines; the row loop also checks each row's group and
parses a session's rows column by column through the same per-session
path. Line numbers are physical lines of the file, where a quoted field
may hold a line break: a record starts one line after the line where
the record or blank line before it ended. Per-row counts such as
:func:`dataset_stats` come from the flag masks, session by session over
the batch offsets.

A large log is read in two processes, as a CSV is loaded in chunks whose
record boundaries are resolved at the cuts (Muehlbauer et al., "Instant
Loading for Main Memory Databases", PVLDB 2013). The log is cut near its
middle where a session starts, and a forked worker runs the block
tokenizer from the cut to the end while this process runs it up to the
cut; the worker sends what it read back in messages of bounded size and
they are appended to the batch here. The cut is where the block
tokenizer finds a session to start, in a window of the log. The
fallback gives what a read in one process would: the worker is killed
and the row loop reads the log when this process's half needs it, when
the worker's half is not plain, a session of it raised or it holds a
session id already seen, and when the worker died before it sent
everything.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
import signal
import threading
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from itertools import chain, groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

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


def write_sessions(
    sessions: Iterable[SessionRecord], path: str | Path, *, append: bool = False
) -> int:
    """Write sessions as CSV rows; returns the number of sessions written.

    With ``append`` the header is only written when the file is new or
    empty. Views of one batch are formatted from its columns by
    :class:`_LogWriter`, block by block with numpy; a session whose fields
    need quoting, or do not fit the writer's byte matrix, is written row
    by row by ``csv.writer`` instead, as is every record built from its
    entries. The bytes are those of ``csv.writer`` either way, except
    that a field holding a carriage return is quoted too, so that the log
    reads back.
    """
    path = Path(path)
    need_header = not (append and path.exists() and path.stat().st_size > 0)
    count = 0
    with path.open("ab" if append else "wb") as fh:
        if need_header:
            fh.write(_HEADER_LINE)
        for batch, run in groupby(sessions, attrgetter("_batch")):
            run = list(run)
            count += len(run)
            if batch is None:
                for record in run:
                    fh.write(_csv_text(record))
            else:
                _, index = batch_of(run)
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
#: Logs of fewer bytes are read in one process. Forking the worker and
#: merging its half cost about 10 ms: on a 2-CPU VM a 1 MB log read as
#: fast in one process as in two, a 4 MB log 20% faster in two (medians
#: of 12 first reads in new processes).
_SPLIT_BYTES = 4 << 20
#: Items in each message from the worker: session ids, author ids,
#: violations, or the rows of whole sessions.
_PART = 4096
#: Bytes a worker's pipe holds where Linux lets it grow past its default
#: 64 KB, so that the worker stops less often on a full pipe: with 1 MB a
#: split simulation of 1,920 sessions of 100 rows took 168 ms against
#: 175 ms, and of 480 sessions of 500 to 700 rows 102 ms against 107 ms
#: (medians of 14 alternating runs, 11 of 14 faster each).
_PIPE_BYTES = 1 << 20

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


def _open(path: Path, what: str, mode: str = "r", **kw) -> IO:
    """``path.open``, raising :class:`DataError` that names ``what`` for
    a path it cannot open."""
    try:
        return path.open(mode, **kw)
    except IsADirectoryError:
        raise DataError(f"{what} is not a file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot open {what} {path}: {exc.strerror or exc}") from None


def _records(path: Path, what: str, fields: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """The records of the CSV file ``path`` after its header, which must
    be ``fields``, each with the physical line it starts on: one line
    after the line where the record or blank line before it ended, as a
    quoted field may hold a line break. Blank lines are skipped; a record
    of another width raises :class:`ParseError` naming its line."""
    with _open(path, what, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{what} is empty: {path}") from None
        if tuple(header) != fields:
            raise ParseError(f"unexpected header {header!r}", path=str(path), line=1)
        width, last = len(fields), 1
        for row in reader:
            line, last = last + 1, reader.line_num
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}", path=str(path), line=line)
            yield line, row


def _workers() -> int:
    """The processes a read or a simulation may use: 2 where ``os.fork``
    exists, two CPUs are usable and no other thread runs, as a forked
    child would inherit the locks that thread holds with no thread to
    release them; else 1."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return min(2, len(os.sched_getaffinity(0)))


def _tokens(buf: bytes, size: int) -> tuple[np.ndarray, ...] | None:
    """The structure of the whole lines ``buf[:size]``: the bytes as
    ``uint8``, where each line starts and ends, its 11 commas (one row
    per line), and which lines start a session, each whose session id is
    not that of the line before (the first line is not counted).

    None when ``csv.reader`` might split the lines at other places, or
    they do not fit fixed-width columns: the lines are not ASCII, hold a
    double quote, carriage return or NUL, a line does not hold exactly
    11 commas or is longer than ``csv.field_size_limit()``, or a session
    id, rank, author id, displayed-author id or flag text is longer than
    ``_FIELD_BYTES``.
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
    return a, starts, ends, commas, np.flatnonzero(sids[1:] != sids[:-1]) + 1


def _cut(fh: BinaryIO, start: int, stop: int) -> int | None:
    """Where a session starts near the middle of ``fh[start:stop]``: at
    the first whole line past the middle that :func:`_tokens` finds to
    start a session, in a window of ``_BLOCK_BYTES``. None when the
    window holds no such line, or its whole lines are not plain. Either
    half may still hold a quoted field with a line break in it, whatever
    the window holds; a block of that half is then not plain, and the
    row loop reads the log."""
    at = (start + stop) // 2
    fh.seek(at)
    window = fh.read(_BLOCK_BYTES)
    first = window.find(b"\n") + 1  # past the line the window cuts short
    size = window.rfind(b"\n") + 1 - first
    tokens = _tokens(window[first:], size) if size > 0 else None
    if tokens is None or not len(tokens[-1]):
        return None
    _, starts, _, _, bounds = tokens
    return at + first + int(starts[bounds[0]])


@contextmanager
def _forked(work: Callable[[BinaryIO], None]) -> Iterator[BinaryIO]:
    """Run ``work`` in a forked child on the write end of a pipe, grown
    to ``_PIPE_BYTES`` where Linux allows, and yield the read end. The child leaves through ``os._exit``, so it
    flushes no buffer it copied from this process and runs no exit
    handler. On the way out the child is killed, if it still runs, and
    reaped."""
    import fcntl  # POSIX, as os.fork is

    r, w = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux
        with suppress(OSError):  # past the user's quota the pipe stays 64 KB
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    with open(r, "rb") as results:
        try:
            pid = os.fork()
        except BaseException:
            os.close(w)
            raise
        if not pid:
            code = 1
            try:
                results.close()
                with open(w, "wb") as out:
                    work(out)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        try:
            yield results
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send_batch(batch: SessionBatch, out: BinaryIO) -> None:
    """Send the sessions of ``batch`` to :func:`_receive_batch` through
    ``out``: pickles of whole sessions of at most ``_PART`` rows, or of
    one longer session, and then None."""
    dump = partial(pickle.dump, file=out, protocol=pickle.HIGHEST_PROTOCOL)
    start = 0
    while start < len(batch):
        stop = max(start + 1, int(np.searchsorted(batch.offsets, batch.offsets[start] + _PART, "right")) - 1)
        dump(batch.part(start, stop))
        start = stop
    dump(None)


def _receive_batch(results: BinaryIO, builder: BatchBuilder, codes: np.ndarray) -> None:
    """Append to ``builder`` the sessions that :func:`_send_batch` sent
    through ``results``, each part as it arrives; ``codes`` maps the
    sender's author codes to the builder's. Raises EOFError or
    pickle.UnpicklingError when the sender stopped before the None that
    ends them, with the parts before that appended."""
    for part in iter(partial(pickle.load, results), None):
        builder.extend(part, codes)


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
    whose first line is not the bare header. The row loop groups the
    records of :func:`_records` by session id, so a row with an unknown
    group raises before the session ahead of it is ingested. Errors with
    their message and line, counts, violations and the order of author
    codes are the same on every path. Lines are physical lines: a record
    starts one line after the line where the record or blank line before
    it ended. A filtered session is checked no further than its capture
    time, so a bad rank or flag in it raises nothing.

    A regular file of at least ``_SPLIT_BYTES`` is read in two processes
    when :func:`_workers` allows two: ``os.fork`` exists, two CPUs are
    usable and no other thread runs. :func:`_cut` finds where a session
    starts near the middle of the log; without such a place the read
    stays in one process. A forked worker reads from the cut to the end
    with a copy of this state taken before it ingested anything, numbering
    lines from the line feeds before the cut, and this process reads up
    to the cut and then takes in the worker's counts, violations, session
    ids, author ids (coded anew in the worker's order of first
    appearance) and sessions. The worker is killed and the row loop reads
    the log when this process's half needs it, when the worker's half is
    not plain, a session of it raised or it holds a session id this half
    already holds, and when the worker dies before it has sent
    everything. The worker is reaped on every path, and it leaves
    through ``os._exit``.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"session log not found: {path}")
    ingest = _Ingest(path, group, monitor_id, start, end, follows)
    if not (path.is_file() and ingest.blocks()):
        # The blocks read so far were plain, so the row loop reads them
        # the same; it starts again with nothing ingested.
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
    (:meth:`row_loop`) over :func:`_records`, and the per-session path
    that both go through (:meth:`flush`), which takes each row with the
    physical line it starts on."""

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

    def flush(self, rows: Sequence[list[str]], lines: Sequence[int]) -> None:
        """Ingest one session from its rows; ``lines`` holds the physical
        line each row starts on, which names the row in an error or a
        violation. The block path passes consecutive lines, as its lines
        hold no quoted line break and none is blank."""
        self.total += 1
        sid, mon, grp_text, ts_text = rows[0][:4]
        grp = GroupLabel(grp_text) if grp_text else None
        captured = _parse_ts(ts_text, self.where, lines[0])
        if self.excluded(grp, mon, captured):
            self.filtered += 1
            return

        n = len(rows)
        _, mons, grps, stamps, rank_col, tweet_ids, authors, shown, *flag_cols = zip(*rows)
        issues: list[str] = []
        if mons.count(mon) != n or grps.count(grp_text) != n or stamps.count(ts_text) != n:
            issues = [
                f"line {line}: inconsistent session header fields"
                for row, line in zip(rows, lines)
                if row[1] != mon or row[2] != grp_text or row[3] != ts_text
            ]
        self.grow_ranks(n)
        try:
            flags = np.frombuffer(bytes(map(_MASKS.__getitem__, zip(*flag_cols))), np.uint8)
            in_order = rank_col == self.rank_texts[:n]
            parsed = None if in_order else list(map(int, rank_col))
        except (KeyError, ValueError):
            raise _first_bad_field(rows, self.where, lines) from None
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
        """Ingest the log, a regular file, block by block, in two processes
        when it is large. Returns whether it got to the end; if not, the
        row loop must read the log: its first line is not the bare header,
        a block is not plain, a session raised, or the worker's half could
        not be merged."""
        with _open(self.path, "session log", "rb") as fh:
            if fh.read(len(_HEADER_LINE)) != _HEADER_LINE:
                return False
            size = os.fstat(fh.fileno()).st_size
            cut = None
            if size >= _SPLIT_BYTES and _workers() > 1:
                cut = _cut(fh, len(_HEADER_LINE), size)
                fh.seek(len(_HEADER_LINE))
            if cut is None:
                return self.span(fh, 2)
            with _forked(partial(self.work, cut)) as results:
                if not self.span(fh, 2, cut):
                    return False
                try:
                    return self.merge(results)
                except (EOFError, pickle.UnpicklingError):
                    return False  # the worker died; what it sent may be cut short

    def span(self, fh: BinaryIO, line: int, stop: int | None = None) -> bool:
        """Ingest the lines of ``fh`` from where it is to byte ``stop``, or
        to its end; the first is physical line ``line``. Returns whether it
        got there; if not, the row loop must read the log."""
        buf = b""  # whole lines from a session's start, and a part line
        while True:
            # at least as much again as is left over, so that a session
            # longer than a block is read in doubling steps
            want = max(_BLOCK_BYTES, len(buf))
            more = fh.read(want if stop is None else min(want, stop - fh.tell()))
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
            taken = self.block(buf, size, line, final=not more)
            if taken is None:
                return False
            done, lines = taken
            line += lines
            if not more:
                return True
            buf = buf[done:]

    def work(self, cut: int, out: BinaryIO) -> None:
        """In the worker, a fork of this state before it ingested anything:
        ingest the log from byte ``cut`` to its end and send the outcome to
        :meth:`merge`, in pickles of at most ``_PART`` items each."""
        with self.path.open("rb") as fh:
            line = 1 + sum(
                np.count_nonzero(np.frombuffer(fh.read(min(_BLOCK_BYTES, cut - k)), np.uint8) == _LINE_FEED)
                for k in range(0, cut, _BLOCK_BYTES)
            )
            ok = fh.tell() == cut and self.span(fh, line)
        dump = partial(pickle.dump, file=out, protocol=pickle.HIGHEST_PROTOCOL)
        dump(ok)
        if not ok:
            return
        dump((self.total, self.filtered, self.skipped))
        for items in (list(self.seen_ids), list(self.code), list(self.violations.items())):
            for k in range(0, len(items), _PART):
                dump(items[k : k + _PART])
            dump([])
        _send_batch(self.batch.build(()), out)

    def merge(self, results: BinaryIO) -> bool:
        """Add what the worker sent to this state, which holds the log up
        to the cut. Returns False when the row loop must read the log: a
        block of the worker's was not plain or a session raised, or it
        ingested a session id seen here, whose later copy the serial read
        names a duplicate."""
        load = partial(pickle.load, results)
        if not load():
            return False
        total, filtered, skipped = load()
        seen, ids, violations = (list(chain.from_iterable(iter(load, []))) for _ in range(3))
        if not self.seen_ids.isdisjoint(seen):
            return False
        self.total += total
        self.filtered += filtered
        self.skipped += skipped
        self.seen_ids.update(seen)
        self.violations.update(violations)
        # The worker coded its ids in order of first appearance after the
        # cut, so new ones get their codes in the serial read's order.
        codes = np.array([self.code.setdefault(a, len(self.code)) for a in ids], np.intc)
        _receive_batch(results, self.batch, codes)
        return True

    def block(self, buf: bytes, size: int, first_line: int, final: bool) -> tuple[int, int] | None:
        """Ingest the sessions in ``buf[:size]``, whole lines that start a
        session on physical line ``first_line``; unless ``final``, the last
        session is left for the next block, as it may go on there.

        Returns the numbers of bytes and of lines ingested, or None when
        the row loop must read the log: the block is not plain or holds an
        unknown group, or a session of it raised.
        """
        tokens = _tokens(buf, size)
        if tokens is None:
            return None
        a, starts, ends, commas, bounds = tokens
        n = len(ends)
        bounds = bounds.tolist()
        if not final:
            if not bounds:
                return 0, 0
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
                self.flush(rows or _rows(buf, starts[r0], ends[r1 - 1]), range(first_line + r0, first_line + r1))
            except ParseError:
                return None
        return int(ends[-1]) + 1, n

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
        """Ingest the log with ``csv.reader``, one session at a time. A row
        with an unknown group raises before the session ahead of it is
        ingested."""

        def session_id(record: tuple[int, list[str]]) -> str:
            row = record[1]
            if row[2] not in _GROUP_TEXTS:
                raise ParseError(f"unknown group {row[2]!r}", path=self.where, line=record[0])
            return row[0]

        with closing(_records(self.path, "session log", SESSION_FIELDS)) as records:
            for _, session in groupby(records, session_id):
                lines, rows = zip(*session)
                self.flush(rows, lines)


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
    # np.add.reduceat sums from each start to the next; an empty session
    # would get the row after it, so only the others are reduced.
    full = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[full]

    def per_session(bit: int) -> np.ndarray:
        counts = np.zeros_like(lengths)
        counts[full] = np.add.reduceat((flags & bit) != 0, starts, dtype=lengths.dtype)
        return counts

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
    with closing(_records(path, "author roster", AUTHOR_FIELDS)) as records:
        for line, row in records:
            try:
                out[row[0]] = AuthorInfo(
                    lean=float(row[1]),
                    popularity=float(row[2]),
                    post_rate=float(row[3]),
                    label=row[4],
                )
            except ValueError:
                raise ParseError(f"bad numeric field in {row!r}", path=str(path), line=line) from None
    return out
