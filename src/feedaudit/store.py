"""Line-oriented session log storage and summary statistics.

Sessions are stored as CSV with one row per timeline entry and a fixed
header. Rows of one session are contiguous and ordered by rank, and
sessions are written in canonical order, so equal inputs produce
byte-identical files. Timestamps are RFC-3339 UTC with a Z suffix.
Floats in emitted reports are rendered with six significant digits in
both CSV and JSON so the two formats carry value-identical numbers.

Sessions in memory are the columns of a
:class:`~feedaudit.model.SessionBatch`; see :mod:`feedaudit.model`.

Writing formats one session at a time from its columns: the shared
``session_id,monitor_id,group,captured_at`` prefix is formatted once,
the flags of a row come from its mask, and the rows are joined into one
string. A whole-chunk check proves that no field needed quoting; a
session that fails it, or whose fields are not plain ``str``/``int``
values, is written row by row by ``csv.writer``, so the bytes are the
same either way. A field holding a carriage return is quoted as well,
since the reader would otherwise take it for a line break.

Reading streams the log and holds the raw rows of one session at a
time. Each row is only checked for its field count and group; a
session's rows are then transposed and parsed column by column into one
batch: author and displayed-author ids become codes through one table
per read, and the four flags of a row one mask through one lookup. A
fast check over those columns that holds exactly when
:func:`validate_session` would find no violation passes the valid
sessions; the others are built as records and go through
:func:`validate_session`, which names their violations. Line numbers
are physical lines of the file, where a quoted field may hold a line
break; the reader's line count marks where each session starts, and the
lines of its other rows are worked out only for an error or a
violation. Per-row counts such as :func:`dataset_stats` come from the
flag masks, session by session over the batch offsets.
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
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

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

    A read allocates a list per row; collections in the middle only
    rescan rows that are still alive and form no reference cycle.
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


def _session_text(
    record: SessionRecord, group: str, ts: str, columns: tuple[Sequence, ...]
) -> str | None:
    """The CSV rows of one session as a single string, or None when that
    string might differ from what ``csv.writer`` writes.

    Its fields are formatted without quoting, so the text is taken only
    when every id is a ``str`` and every rank an ``int``, and when the
    whole text holds exactly 11 commas and one newline per row and no
    quote, carriage return or NUL: then no field needed quoting.
    """
    ranks, tweet_ids, authors, shown, masks = columns
    if not ranks:
        return ""
    if (
        set(map(type, ranks)) != {int}
        or {type(record.session_id), type(record.monitor_id), *map(type, tweet_ids),
            *map(type, authors), *map(type, shown)} != {str}
    ):
        return None
    prefix = f"{record.session_id},{record.monitor_id},{group},{ts},".replace("%", "%%")
    row = (prefix + "%d,%s,%s,%s,%s\n").__mod__
    flag_texts = map(_FLAG_TEXTS.__getitem__, masks)
    text = "".join(map(row, zip(ranks, tweet_ids, authors, shown, flag_texts)))
    n = len(ranks)
    if (
        text.count(",") != 11 * n
        or text.count("\n") != n
        or '"' in text
        or "\r" in text
        or "\0" in text
    ):
        return None
    return text


def write_sessions(
    sessions: Iterable[SessionRecord], path: str | Path, *, append: bool = False
) -> int:
    """Write sessions as CSV rows; returns the number of sessions written.

    With ``append`` the header is only written when the file is new or
    empty. Each session is written from its columns
    (:meth:`SessionRecord.columns`, which a batch view reads from its
    batch) as one string: its shared
    ``session_id,monitor_id,group,captured_at`` prefix is formatted once
    and its flags come from one lookup. A session whose text might need
    quoting, or whose fields are not plain ``str``/``int`` values, is
    written row by row through ``csv.writer`` instead, so the bytes are
    those of ``csv.writer`` either way, except that a field holding a
    carriage return is quoted too, so that the log reads back.
    """
    path = Path(path)
    mode = "a" if append else "w"
    need_header = not (append and path.exists() and path.stat().st_size > 0)
    count = 0
    # A "\r\n" line terminator makes csv.writer quote every field that
    # holds "\r" or "\n"; each row's terminator is then written as "\n".
    row_buffer = io.StringIO()
    writer = csv.writer(row_buffer, lineterminator="\r\n")
    with path.open(mode, newline="", encoding="utf-8") as fh:
        if need_header:
            fh.write(",".join(SESSION_FIELDS) + "\n")
        for s in sessions:
            group = s.group.value if s.group is not None else ""
            ts = _format_ts(s.captured_at)
            columns = s.columns()
            text = _session_text(s, group, ts, columns)
            if text is not None:
                fh.write(text)
            else:
                ranks, tweet_ids, authors, shown, masks = columns
                for row in zip(ranks, tweet_ids, authors, shown, map(_FLAG_FIELDS.__getitem__, masks)):
                    row_buffer.seek(0)
                    row_buffer.truncate()
                    writer.writerow((s.session_id, s.monitor_id, group, ts, *row[:4], *row[4]))
                    fh.write(row_buffer.getvalue()[:-2] + "\n")
            count += 1
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

    The log is streamed one session at a time. Each row's field count
    and group are checked, but a filtered session is parsed no further
    than its capture time. The other sessions are parsed column by
    column into one :class:`~feedaudit.model.SessionBatch`: author and
    displayed-author ids are coded through one table per read, and the
    four flags of a row become one mask through one lookup. A session
    whose ranks are 1..L and whose masks pass :func:`_valid_flags` is
    valid; any other is built as a record and checked by
    :func:`validate_session`, so its violation messages are the same as
    for a record built by hand. ``sessions`` are views of the batch.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"session log not found: {path}")
    where = str(path)
    want_group = GroupLabel(str(group)) if group is not None else None
    start = ensure_utc(start) if start else None
    end = ensure_utc(end) if end else None

    batch = BatchBuilder()
    violations: dict[str, tuple[str, ...]] = {}
    seen_ids: set[str] = set()
    total = filtered = skipped = 0
    code: dict[AuthorId, int] = {}  # author id -> its code, in order of first appearance
    rank_texts: tuple[str, ...] = ()  # "1".."L" for the longest session so far
    ranks = np.empty(0, np.int32)  # 1..L likewise

    def encode(ids: Sequence[AuthorId]) -> list[int]:
        codes = list(map(code.get, ids))
        if None in codes:
            codes = [code.setdefault(a, len(code)) for a in ids]
        return codes

    def flush(rows: list[list[str]], first_line: int, blanks: list[int]) -> None:
        nonlocal total, filtered, skipped, rank_texts, ranks
        total += 1
        sid, mon, grp_text, ts_text = rows[0][:4]
        grp = GroupLabel(grp_text) if grp_text else None
        captured = _parse_ts(ts_text, where, first_line)
        if (
            (want_group is not None and grp is not want_group)
            or (monitor_id is not None and mon != monitor_id)
            or (start and captured < start)
            or (end and captured >= end)
        ):
            filtered += 1
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
        if len(rank_texts) < n:
            rank_texts = tuple(map(str, range(1, n + 1)))
            ranks = np.arange(1, n + 1, dtype=np.int32)
        try:
            flags = np.frombuffer(bytes(map(_MASKS.__getitem__, zip(*flag_cols))), np.uint8)
            in_order = rank_col == rank_texts[:n]
            parsed = None if in_order else list(map(int, rank_col))
        except (KeyError, ValueError):
            raise _first_bad_field(rows, where, _row_lines(rows, first_line, blanks)) from None
        in_order = in_order or parsed == ranks[:n].tolist()
        author_codes, shown_codes = encode(authors), encode(shown)
        if sid in seen_ids:
            issues.append("duplicate session id")
        seen_ids.add(sid)
        follow_set = follows.get(mon) if follows is not None else None
        follow_codes = None if follow_set is None else [code[a] for a in follow_set if a in code]
        if not (in_order and _valid_flags(flags, shown_codes, follow_codes, grp)):
            rank_values = ranks[:n].tolist() if parsed is None else parsed
            bits = [((flags & bit) != 0).tolist() for bit in FLAG_BITS]
            entries = tuple(map(TimelineEntry._make, zip(rank_values, tweet_ids, authors, shown, *bits)))
            issues.extend(validate_session(SessionRecord(sid, mon, captured, entries, grp), follow_set))
        if issues:
            skipped += 1
            violations[sid] = tuple(issues)
            return
        # A valid session's ranks are 1..n.
        batch.add(
            sid, mon, captured, grp, author_codes, shown_codes, ranks[:n], flags,
            "".join(tweet_ids), np.cumsum(np.fromiter(map(len, tweet_ids), np.int64, n)),
        )

    with path.open(newline="", encoding="utf-8") as fh, _gc_paused():
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
        first_line = 2
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
                    flush(rows, first_line, blanks)
                rows, blanks = [], []
                sid, first_line = row[0], reader.line_num - _line_breaks(row)
            rows.append(row)
        if rows:
            flush(rows, first_line, blanks)

    return IngestResult(
        sessions=tuple(batch.build(tuple(code)).records()),
        total=total,
        filtered=filtered,
        skipped=skipped,
        violations=violations,
    )


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
        writer = csv.writer(fh, lineterminator="\n")
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
        writer = csv.writer(fh, lineterminator="\n")
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
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
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
