"""Domain types for audit sessions.

A *monitor* is an automated account whose home timeline is captured
several times a day. Each capture is a :class:`SessionRecord` holding
the ranked tweets that were on screen. Author identifiers are plain
opaque strings; political lean labels live in separate mappings so the
exposure math never depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from functools import partial
from typing import Iterable, NamedTuple

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


#: A :class:`TimelineEntry` from one tuple of its eight fields, in field
#: order and without the per-call keyword handling of the constructor.
#: The simulator and the log reader build entries in bulk with
#: ``map(entry_from_fields, zip(*columns))``.
entry_from_fields = partial(tuple.__new__, TimelineEntry)


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


@dataclass(frozen=True)
class SessionRecord:
    """One captured timeline: monitor, capture time, ranked entries.

    ``group`` is optional enrichment; stored logs carry it so analyses
    can bucket sessions without a separate monitor roster.
    """

    session_id: str
    monitor_id: str
    captured_at: datetime
    entries: tuple[TimelineEntry, ...]
    group: GroupLabel | None = None

    def __len__(self) -> int:
        return len(self.entries)


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
