"""Line-oriented session log storage and summary statistics.

Sessions are stored as CSV with one row per timeline entry and a fixed
header. Rows of one session are contiguous and ordered by rank, and
sessions are written in canonical order, so equal inputs produce
byte-identical files. Timestamps are RFC-3339 UTC with a Z suffix.
Floats in emitted reports are rendered with six significant digits in
both CSV and JSON so the two formats carry value-identical numbers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .model import (
    GROUP_ORDER,
    AuthorId,
    GroupLabel,
    SessionRecord,
    TimelineEntry,
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


def _parse_bool(text: str, path: str, line: int) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ParseError(f"bad boolean {text!r} (expected true/false)", path=path, line=line)


def write_sessions(
    sessions: Iterable[SessionRecord], path: str | Path, *, append: bool = False
) -> int:
    """Write sessions as CSV rows; returns the number of sessions written.

    With ``append`` the header is only written when the file is new or
    empty.
    """
    path = Path(path)
    mode = "a" if append else "w"
    need_header = not (append and path.exists() and path.stat().st_size > 0)
    count = 0
    with path.open(mode, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if need_header:
            writer.writerow(SESSION_FIELDS)
        for s in sessions:
            group = s.group.value if s.group is not None else ""
            ts = _format_ts(s.captured_at)
            for e in s.entries:
                writer.writerow(
                    (
                        s.session_id,
                        s.monitor_id,
                        group,
                        ts,
                        e.rank,
                        e.tweet_id,
                        e.author_id,
                        e.displayed_author_id,
                        "true" if e.is_retweet else "false",
                        "true" if e.is_quote else "false",
                        "true" if e.is_promoted else "false",
                        "true" if e.in_network else "false",
                    )
                )
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
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"session log not found: {path}")
    want_group = GroupLabel(str(group)) if group is not None else None
    start = ensure_utc(start) if start else None
    end = ensure_utc(end) if end else None

    sessions: list[SessionRecord] = []
    violations: dict[str, tuple[str, ...]] = {}
    seen_ids: set[str] = set()
    total = filtered = skipped = 0

    current: list[tuple[int, Sequence[str]]] = []  # (line number, row)

    def flush() -> None:
        nonlocal total, filtered, skipped
        if not current:
            return
        total += 1
        first_line, first = current[0]
        sid, mon, grp_text, ts_text = first[0], first[1], first[2], first[3]
        grp = GroupLabel(grp_text) if grp_text else None
        captured = _parse_ts(ts_text, str(path), first_line)

        if want_group is not None and grp is not want_group:
            filtered += 1
            current.clear()
            return
        if monitor_id is not None and mon != monitor_id:
            filtered += 1
            current.clear()
            return
        if (start and captured < start) or (end and captured >= end):
            filtered += 1
            current.clear()
            return

        issues: list[str] = []
        entries = []
        for line_no, row in current:
            if row[1] != mon or row[2] != grp_text or row[3] != ts_text:
                issues.append(f"line {line_no}: inconsistent session header fields")
            try:
                rank = int(row[4])
            except ValueError:
                raise ParseError(f"bad rank {row[4]!r}", path=str(path), line=line_no) from None
            entries.append(
                TimelineEntry(
                    rank=rank,
                    tweet_id=row[5],
                    author_id=row[6],
                    displayed_author_id=row[7],
                    is_retweet=_parse_bool(row[8], str(path), line_no),
                    is_quote=_parse_bool(row[9], str(path), line_no),
                    is_promoted=_parse_bool(row[10], str(path), line_no),
                    in_network=_parse_bool(row[11], str(path), line_no),
                )
            )
        record = SessionRecord(
            session_id=sid,
            monitor_id=mon,
            captured_at=captured,
            entries=tuple(entries),
            group=grp,
        )
        if sid in seen_ids:
            issues.append("duplicate session id")
        seen_ids.add(sid)
        follow_set = follows.get(mon) if follows is not None else None
        issues.extend(validate_session(record, follow_set))
        if issues:
            skipped += 1
            violations[sid] = tuple(issues)
        else:
            sessions.append(record)
        current.clear()

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"session log is empty: {path}") from None
        if tuple(header) != SESSION_FIELDS:
            raise ParseError(
                f"unexpected header {header!r}", path=str(path), line=1
            )
        current_sid: str | None = None
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(SESSION_FIELDS):
                raise ParseError(
                    f"expected {len(SESSION_FIELDS)} fields, got {len(row)}",
                    path=str(path),
                    line=line_no,
                )
            if row[2]:
                try:
                    GroupLabel(row[2])
                except ValueError:
                    raise ParseError(
                        f"unknown group {row[2]!r}", path=str(path), line=line_no
                    ) from None
            if row[0] != current_sid:
                flush()
                current_sid = row[0]
            current.append((line_no, row))
        flush()

    return IngestResult(
        sessions=tuple(sessions),
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
    and promoted shares averaged over monitors."""
    per_monitor: dict[tuple[GroupLabel, str], list[TimelineEntry]] = {}
    session_count: dict[tuple[GroupLabel, str], int] = {}
    total_sessions = total_tweets = ungrouped = 0
    for s in sessions:
        total_sessions += 1
        total_tweets += len(s.entries)
        if s.group is None:
            ungrouped += 1
            continue
        key = (s.group, s.monitor_id)
        per_monitor.setdefault(key, []).extend(s.entries)
        session_count[key] = session_count.get(key, 0) + 1

    groups = []
    for group in GROUP_ORDER:
        keys = sorted(k for k in per_monitor if k[0] is group)
        if not keys:
            continue
        shares = {"oon": [], "retweet": [], "quote": [], "promoted": []}
        tweets = 0
        n_sessions = 0
        for key in keys:
            entries = per_monitor[key]
            n = len(entries)
            tweets += n
            n_sessions += session_count[key]
            shares["oon"].append(sum(not e.in_network for e in entries) / n)
            shares["retweet"].append(sum(e.is_retweet for e in entries) / n)
            shares["quote"].append(sum(e.is_quote for e in entries) / n)
            shares["promoted"].append(sum(e.is_promoted for e in entries) / n)
        stat = {}
        for name, vals in shares.items():
            arr = np.asarray(vals)
            stat[f"{name}_mean"] = float(arr.mean())
            stat[f"{name}_std"] = float(arr.std())
        groups.append(
            GroupStats(
                group=group.value,
                monitors=len(keys),
                sessions=n_sessions,
                tweets=tweets,
                **stat,
            )
        )
    return DatasetStats(
        groups=tuple(groups),
        total_sessions=total_sessions,
        total_tweets=total_tweets,
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
