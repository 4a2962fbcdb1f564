"""Synthetic feed simulator with known ground-truth bias.

Builds an author population (bimodal political leans, Zipf-like
popularity), a monitor fleet mirroring a four-group audit design
(neutral / left / right / balanced follow presets), and ranked timeline
sessions produced by a configurable engagement ranker.

The ranker has three bias knobs with exact ground truth:

- ``popularity_exponent`` (gamma): out-of-network candidates are drawn
  with weight proportional to popularity ** gamma.
- ``alignment_strength`` (kappa): the weight is further multiplied by
  exp(kappa * align), where align = 1 - |viewer_lean - author_lean| and
  viewer_lean is the mean lean of the monitor's follows.
- ``default_lean`` (delta): the viewer lean imputed to monitors that
  follow nobody; it only matters when kappa > 0.

With gamma = kappa = 0 every author is equally likely to fill an
out-of-network slot, regardless of popularity, lean, or posting rate,
which pins the null hypothesis for all downstream metrics. Posting
rate only weights in-network sampling, so the null also holds for
monitors that follow accounts.

Randomness is hierarchical: every session gets its own generator seeded
by (seed, group index, monitor index, day, slot), so any session can be
reproduced in isolation and fleet output is byte-identical across runs.

A session is sampled as numpy arrays and written straight into the
columns of one :class:`~feedaudit.model.SessionBatch` per fleet: author
codes are the sampled world indices (the batch's id table is
``world.ids``), ranks are 1..L, the four flags are one mask per row, and
the tweet ids are the session id joined onto a cached per-rank suffix.
No per-row Python object is built; the returned records are views of
the batch. Sessions are sampled in their canonical order, so the
columns need no reordering.

A session's three weighted draws (out-of-network candidates, follows
and retweet originals) read cumulative probability tables that each
monitor's sampler builds once. A draw from a table is the computation
``Generator.choice(a, size=n, replace=True, p=p)`` makes, minus the
checks of ``p`` and the cumulative sum that ``choice`` repeats on every
call, so every random stream, and every simulated log, is the one
``choice`` gives. Weights that leave the float range fail those checks
once, as a :class:`~feedaudit.errors.ConfigError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import cached_property, lru_cache
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .model import (
    FLAG_IN_NETWORK,
    FLAG_PROMOTED,
    FLAG_QUOTE,
    FLAG_RETWEET,
    GROUP_ORDER,
    AuthorId,
    BatchBuilder,
    GroupLabel,
    MonitorAccount,
    SessionRecord,
    ensure_utc,
    lean_label,
)

_DEFAULT_START = datetime(2024, 10, 2, tzinfo=timezone.utc)
# The tolerance Generator.choice allows on the sum of float64 probabilities.
_P_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class SimAuthor:
    """One synthetic author."""

    id: AuthorId
    lean: float  # political lean in [-1, 1]
    popularity: float  # relative audience size, > 0
    post_rate: float  # relative posting frequency, > 0


@dataclass(frozen=True)
class LeanMixture:
    """Gaussian mixture for author leans, clipped to [-1, 1].

    The default is bimodal: 40% left around -0.6, 40% right around
    +0.6, 20% centrist around 0.
    """

    weights: tuple[float, ...] = (0.4, 0.4, 0.2)
    means: tuple[float, ...] = (-0.6, 0.6, 0.0)
    stds: tuple[float, ...] = (0.15, 0.15, 0.2)

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.means) == len(self.stds)) or not self.weights:
            raise ConfigError("lean mixture components must align and be non-empty")
        if any(w < 0 for w in self.weights) or abs(sum(self.weights) - 1.0) > 1e-9:
            raise ConfigError("lean mixture weights must be non-negative and sum to 1")
        if any(s < 0 for s in self.stds):
            raise ConfigError("lean mixture stds must be non-negative")
        if any(abs(m) > 1 for m in self.means):
            raise ConfigError("lean mixture means must lie in [-1, 1]")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        comp = rng.choice(len(self.weights), size=size, p=np.asarray(self.weights))
        draws = rng.normal(np.take(self.means, comp), np.take(self.stds, comp))
        return np.clip(draws, -1.0, 1.0)


# Follow pools: (name, size, base lean, lean jitter sd).
# The candidate counts as the fourth political entity of each side, so
# a partisan monitor following all entities plus its candidate holds 14
# follows (7 moderate media + 3 strong media + 3 entities + candidate).
_POOL_SPECS: tuple[tuple[str, int, float, float], ...] = (
    ("media_moderate_left", 10, -0.35, 0.05),
    ("media_strong_left", 5, -0.80, 0.05),
    ("entities_left", 3, -0.70, 0.05),
    ("candidate_left", 1, -0.75, 0.02),
    ("media_moderate_right", 10, 0.35, 0.05),
    ("media_strong_right", 5, 0.80, 0.05),
    ("entities_right", 3, 0.70, 0.05),
    ("candidate_right", 1, 0.75, 0.02),
)
_POOL_AUTHOR_COUNT = sum(size for _, size, _, _ in _POOL_SPECS)  # 38


@dataclass(frozen=True)
class SimWorld:
    """Immutable author population plus named follow pools."""

    authors: tuple[SimAuthor, ...]
    pools: Mapping[str, tuple[AuthorId, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.authors:
            raise ConfigError("world needs at least one author")
        ids = [a.id for a in self.authors]
        if len(set(ids)) != len(ids):
            raise ConfigError("author ids must be unique")
        for a in self.authors:
            if not (-1.0 <= a.lean <= 1.0):
                raise ConfigError(f"author {a.id} lean {a.lean} outside [-1, 1]")
            if a.popularity <= 0 or a.post_rate <= 0:
                raise ConfigError(f"author {a.id} needs positive popularity and post_rate")
        known = set(ids)
        for name, members in self.pools.items():
            missing = set(members) - known
            if missing:
                raise ConfigError(f"pool {name} references unknown authors {sorted(missing)}")
        object.__setattr__(self, "pools", MappingProxyType(dict(self.pools)))

    @property
    def n_authors(self) -> int:
        return len(self.authors)

    @cached_property
    def ids(self) -> tuple[AuthorId, ...]:
        return tuple(a.id for a in self.authors)

    @cached_property
    def index(self) -> Mapping[AuthorId, int]:
        return MappingProxyType({a.id: i for i, a in enumerate(self.authors)})

    @cached_property
    def lean_array(self) -> np.ndarray:
        arr = np.array([a.lean for a in self.authors])
        arr.setflags(write=False)
        return arr

    @cached_property
    def popularity_array(self) -> np.ndarray:
        arr = np.array([a.popularity for a in self.authors])
        arr.setflags(write=False)
        return arr

    @cached_property
    def post_rate_array(self) -> np.ndarray:
        arr = np.array([a.post_rate for a in self.authors])
        arr.setflags(write=False)
        return arr

    def lean_of(self, author_id: AuthorId) -> float:
        return self.authors[self.index[author_id]].lean


def build_world(
    n_authors: int = 200,
    zipf_exponent: float = 1.5,
    lean_mixture: LeanMixture | None = None,
    seed: int = 0,
    preset_pools: bool = True,
) -> SimWorld:
    """Generate an author population.

    Popularity follows a Zipf-like law popularity = rank ** -zipf_exponent
    over a random permutation of the authors (exponent 0 means uniform).
    Posting rates are mildly dispersed lognormals. With ``preset_pools``
    the first 40 authors are designated as follow-pool members (media
    outlets, political entities, candidates) and their leans are pinned
    near the pool's base lean; the rest of the population keeps the
    mixture leans.
    """
    min_authors = _POOL_AUTHOR_COUNT + 10 if preset_pools else 1
    if n_authors < min_authors:
        raise ConfigError(
            f"n_authors must be >= {min_authors} "
            f"({'with' if preset_pools else 'without'} preset pools), got {n_authors}"
        )
    if zipf_exponent < 0:
        raise ConfigError(f"zipf_exponent must be >= 0, got {zipf_exponent}")
    mixture = lean_mixture or LeanMixture()

    ss = np.random.SeedSequence(seed)
    r_lean, r_pop, r_rate, r_pool = (np.random.default_rng(c) for c in ss.spawn(4))

    leans = mixture.sample(r_lean, n_authors)
    ranks = r_pop.permutation(n_authors) + 1
    popularity = ranks.astype(np.float64) ** -zipf_exponent
    post_rate = r_rate.lognormal(mean=0.0, sigma=0.5, size=n_authors)

    width = max(4, len(str(n_authors - 1)))
    ids = [f"a{i:0{width}d}" for i in range(n_authors)]

    pools: dict[str, tuple[AuthorId, ...]] = {}
    if preset_pools:
        cursor = 0
        for name, size, base, jitter in _POOL_SPECS:
            members = []
            for _ in range(size):
                lean = base + r_pool.normal(0.0, jitter)
                # Keep pool leans inside a band that preserves their side.
                leans[cursor] = float(np.clip(lean, base - 0.1, base + 0.1))
                members.append(ids[cursor])
                cursor += 1
            pools[name] = tuple(members)

    authors = tuple(
        SimAuthor(
            id=ids[i],
            lean=float(leans[i]),
            popularity=float(popularity[i]),
            post_rate=float(post_rate[i]),
        )
        for i in range(n_authors)
    )
    return SimWorld(authors=authors, pools=pools)


def _normalize_group_map(
    value: object, name: str, default: object | None = None
) -> dict[str, object]:
    """Expand an int/float-or-mapping config value to one entry per group."""
    out: dict[str, object] = {}
    if isinstance(value, Mapping):
        try:
            mapped = {GroupLabel(str(k)).value: v for k, v in value.items() if str(k) != "default"}
        except ValueError as exc:
            raise ConfigError(f"{name} has an unknown group key: {exc}") from None
        fallback = value.get("default", default)
        for g in GROUP_ORDER:
            v = mapped.get(g.value, fallback)
            if v is None:
                raise ConfigError(f"{name} missing group {g.value!r} and no default")
            out[g.value] = v
    else:
        for g in GROUP_ORDER:
            out[g.value] = value
    return out


@dataclass(frozen=True)
class RankerParams:
    """Engagement-ranker knobs; see the module docstring for semantics."""

    popularity_exponent: float = 0.8  # gamma
    alignment_strength: float = 1.5  # kappa
    default_lean: float = 0.0  # delta
    oon_mix: Mapping[str, float] | float = field(
        default_factory=lambda: {
            "neutral": 1.0,
            "left": 0.5923,
            "right": 0.5588,
            "balanced": 0.6227,
        }
    )
    promoted_rate: float = 0.075
    retweet_rate: float = 0.025
    quote_rate: float = 0.11
    rank_jitter: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.popularity_exponent < 0:
            raise ConfigError("popularity_exponent must be >= 0")
        if self.alignment_strength < 0:
            raise ConfigError("alignment_strength must be >= 0")
        if not (-1.0 <= self.default_lean <= 1.0):
            raise ConfigError("default_lean must lie in [-1, 1]")
        mix = _normalize_group_map(self.oon_mix, "oon_mix")
        for g, v in mix.items():
            if not isinstance(v, (int, float)) or not (0.0 <= float(v) <= 1.0):
                raise ConfigError(f"oon_mix[{g}] must be a fraction in [0, 1], got {v!r}")
        object.__setattr__(self, "oon_mix", MappingProxyType({g: float(v) for g, v in mix.items()}))
        for name in ("promoted_rate", "retweet_rate", "quote_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.retweet_rate + self.quote_rate > 1.0:
            raise ConfigError("retweet_rate + quote_rate must not exceed 1")
        if self.rank_jitter < 0:
            raise ConfigError("rank_jitter must be >= 0")

    def mix_for(self, group: GroupLabel) -> float:
        return self.oon_mix[group.value]  # type: ignore[index]


@dataclass(frozen=True)
class FleetConfig:
    """Shape of the monitor fleet and capture schedule."""

    monitors_per_group: Mapping[str, int] | int = 10
    sessions_per_day: int = 4
    duration_days: int = 14
    session_length: Mapping[str, int] | int = field(
        default_factory=lambda: {"neutral": 500, "default": 700}
    )
    start: datetime = _DEFAULT_START
    neutral_churn_days: int = 0  # 0 disables periodic neutral-account replacement
    follows_moderate: int = 7
    follows_strong: int = 3
    balanced_per_side: int = 5

    def __post_init__(self) -> None:
        monitors = _normalize_group_map(self.monitors_per_group, "monitors_per_group")
        for g, v in monitors.items():
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"monitors_per_group[{g}] must be an int >= 1")
        object.__setattr__(self, "monitors_per_group", MappingProxyType({g: int(v) for g, v in monitors.items()}))
        lengths = _normalize_group_map(self.session_length, "session_length")
        for g, v in lengths.items():
            if not isinstance(v, int) or v < 10:
                raise ConfigError(f"session_length[{g}] must be an int >= 10")
        object.__setattr__(self, "session_length", MappingProxyType({g: int(v) for g, v in lengths.items()}))
        if self.sessions_per_day < 1 or self.sessions_per_day > 86400:
            raise ConfigError("sessions_per_day must be in 1..86400")
        if self.duration_days < 1:
            raise ConfigError("duration_days must be >= 1")
        if self.neutral_churn_days < 0:
            raise ConfigError("neutral_churn_days must be >= 0")
        for name in ("follows_moderate", "follows_strong", "balanced_per_side"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        object.__setattr__(self, "start", ensure_utc(self.start))

    def monitors_for(self, group: GroupLabel) -> int:
        return self.monitors_per_group[group.value]  # type: ignore[index]

    def length_for(self, group: GroupLabel) -> int:
        return self.session_length[group.value]  # type: ignore[index]


def _sample_pool(
    rng: np.random.Generator, pool: Sequence[AuthorId], count: int, pool_name: str
) -> list[AuthorId]:
    if count > len(pool):
        raise ConfigError(
            f"cannot follow {count} accounts from pool {pool_name} of size {len(pool)}"
        )
    picked = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(i)] for i in np.sort(picked)]


def make_monitors(
    world: SimWorld, fleet: FleetConfig, seed: int = 0
) -> tuple[MonitorAccount, ...]:
    """Create the monitor fleet with group-specific follow presets.

    Neutral monitors follow nobody. Partisan monitors follow
    ``follows_moderate`` moderate outlets and ``follows_strong`` strongly
    aligned outlets of their side plus all political entities of that
    side (including the candidate). Balanced monitors follow
    ``balanced_per_side`` moderate outlets from each side plus both
    candidates.
    """
    needs_pools = any(
        fleet.monitors_for(g) > 0 for g in GROUP_ORDER if g is not GroupLabel.NEUTRAL
    )
    if needs_pools and not world.pools:
        raise ConfigError("world has no follow pools; build it with preset_pools=True")

    monitors: list[MonitorAccount] = []
    for gi, group in enumerate(GROUP_ORDER):
        for i in range(fleet.monitors_for(group)):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101, gi, i)))
            if group is GroupLabel.NEUTRAL:
                follows: frozenset[AuthorId] = frozenset()
            elif group is GroupLabel.BALANCED:
                picks = _sample_pool(
                    rng, world.pools["media_moderate_left"], fleet.balanced_per_side,
                    "media_moderate_left",
                )
                picks += _sample_pool(
                    rng, world.pools["media_moderate_right"], fleet.balanced_per_side,
                    "media_moderate_right",
                )
                picks += list(world.pools["candidate_left"])
                picks += list(world.pools["candidate_right"])
                follows = frozenset(picks)
            else:
                side = group.value
                picks = _sample_pool(
                    rng, world.pools[f"media_moderate_{side}"], fleet.follows_moderate,
                    f"media_moderate_{side}",
                )
                picks += _sample_pool(
                    rng, world.pools[f"media_strong_{side}"], fleet.follows_strong,
                    f"media_strong_{side}",
                )
                picks += list(world.pools[f"entities_{side}"])
                picks += list(world.pools[f"candidate_{side}"])
                follows = frozenset(picks)
            monitors.append(
                MonitorAccount(
                    id=f"{group.value}-{i:03d}",
                    group=group,
                    follows=follows,
                    created_at=fleet.start,
                )
            )
    return tuple(monitors)


@lru_cache(maxsize=8)
def _tweet_suffixes(length: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """For sessions of ``length`` rows: ``""`` then the suffix of each
    rank, ``":0001"`` on (four digits or more), which a session id joins
    into the session's tweet ids; the running total of the suffix
    lengths; and the ranks 1..length."""
    suffixes = tuple(f":{r:04d}" for r in range(1, length + 1))
    ends = np.cumsum([len(x) for x in suffixes], dtype=np.int64)
    ranks = np.arange(1, length + 1, dtype=np.int32)
    for values in (ends, ranks):
        values.setflags(write=False)
    return ("", *suffixes), ends, ranks


class _MonitorSampler:
    """Precomputed sampling state for one monitor under fixed params.

    Each of the session's three weighted draws (out-of-network
    candidates, follows, retweet originals) has a table built here once:
    the cumulative sum of its probabilities ``p``, divided by its last
    element. ``Generator.choice(a, size=n, replace=True, p=p)`` builds
    that same table on every call and returns
    ``a[table.searchsorted(rng.random(n), side="right")]``, so drawing
    from the kept table takes the same numbers from ``rng`` and gives
    the same indices, without the per-call checks of ``p`` and the
    O(population) cumulative sum. Those checks run here instead, once
    per table.
    """

    def __init__(self, world: SimWorld, monitor: MonitorAccount, params: RankerParams):
        self.world = world
        self.monitor = monitor
        self.params = params
        lean = world.lean_array
        pop = world.popularity_array

        follow_idx = np.array(
            sorted(world.index[a] for a in monitor.follows), dtype=np.intp
        )
        self.follow_idx = follow_idx
        self.has_follows = len(follow_idx) > 0

        viewer_lean = (
            float(lean[follow_idx].mean()) if self.has_follows else params.default_lean
        )
        self.viewer_lean = viewer_lean

        cand_mask = np.ones(world.n_authors, dtype=bool)
        cand_mask[follow_idx] = False
        self.cand_idx = np.flatnonzero(cand_mask)
        if len(self.cand_idx) == 0:
            raise DataError(
                f"monitor {monitor.id} follows every author; no out-of-network candidates"
            )

        gamma = params.popularity_exponent
        kappa = params.alignment_strength
        align = 1.0 - np.abs(viewer_lean - lean)
        # An overflowing weight is reported by _table as a config error.
        with np.errstate(over="ignore", invalid="ignore"):
            weights = pop**gamma * np.exp(kappa * align)
        self.oon_table = self._table(weights[self.cand_idx])
        # Ranking score: log of the same relevance weight.
        self.score = gamma * np.log(pop) + kappa * align

        if self.has_follows:
            self.in_table = self._table(world.post_rate_array[follow_idx])
        self.mix = params.mix_for(monitor.group)
        self.retweet_table = self._table(pop**gamma)

    def _table(self, weights: np.ndarray) -> np.ndarray:
        """The cumulative table of ``p = weights / weights.sum()``, after
        the checks ``Generator.choice`` makes on ``p``: finite,
        non-negative, and summing to 1 within sqrt(eps)."""
        with np.errstate(invalid="ignore"):
            p = weights / weights.sum()
        if not (np.isfinite(p).all() and (p >= 0).all() and abs(p.sum() - 1.0) <= _P_ATOL):
            params = self.params
            raise ConfigError(
                f"monitor {self.monitor.id}: sampling weights are not finite probabilities "
                f"(alignment_strength={params.alignment_strength!r}, "
                f"popularity_exponent={params.popularity_exponent!r}); "
                "exp(alignment_strength * align) or popularity ** popularity_exponent "
                "overflows or underflows float64"
            )
        table = p.cumsum()
        table /= table[-1]
        return table

    def session(
        self,
        batch: BatchBuilder,
        rng: np.random.Generator,
        length: int,
        session_id: str,
        monitor_id: str,
        group: GroupLabel,
        captured_at: datetime,
    ) -> None:
        """Sample one session and append it to ``batch``."""
        params = self.params
        if self.has_follows:
            n_oon = int(rng.binomial(length, self.mix))
        else:
            n_oon = length
        n_in = length - n_oon

        displayed = np.empty(length, dtype=np.intp)
        in_network = np.zeros(length, dtype=bool)
        displayed[:n_oon] = self.cand_idx[self.oon_table.searchsorted(rng.random(n_oon), side="right")]
        if n_in:
            displayed[n_oon:] = self.follow_idx[self.in_table.searchsorted(rng.random(n_in), side="right")]
            in_network[n_oon:] = True

        scores = self.score[displayed]
        if params.rank_jitter > 0:
            scores = scores + rng.gumbel(0.0, params.rank_jitter, size=length)
        order = np.argsort(-scores, kind="stable")
        displayed = displayed[order]
        in_network = in_network[order]

        cat = rng.random(length)
        is_retweet = cat < params.retweet_rate
        is_quote = (~is_retweet) & (cat < params.retweet_rate + params.quote_rate)
        is_promoted = rng.random(length) < params.promoted_rate

        original = displayed.copy()
        n_rt = int(is_retweet.sum())
        if n_rt:
            original[is_retweet] = self.retweet_table.searchsorted(rng.random(n_rt), side="right")

        flags = (
            is_retweet * FLAG_RETWEET
            | is_quote * FLAG_QUOTE
            | is_promoted * FLAG_PROMOTED
            | in_network * FLAG_IN_NETWORK
        )
        joins, suffix_ends, ranks = _tweet_suffixes(length)
        prefix = f"{session_id}"
        batch.add(
            session_id, monitor_id, captured_at, group, original, displayed, ranks, flags,
            prefix.join(joins), suffix_ends + len(prefix) * ranks,
        )


def rank_timeline(
    world: SimWorld,
    monitor: MonitorAccount,
    params: RankerParams,
    *,
    length: int = 500,
    session_id: str | None = None,
    captured_at: datetime | None = None,
    rng: np.random.Generator | None = None,
) -> SessionRecord:
    """Produce a single ranked session for one monitor.

    Equal seeds give identical sessions. ``rng`` overrides the
    params-derived generator for callers managing their own streams.
    """
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    sampler = _MonitorSampler(world, monitor, params)
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(7,)))
    batch = BatchBuilder()
    sampler.session(
        batch,
        rng,
        length,
        session_id or f"{monitor.id}-adhoc",
        monitor.id,
        monitor.group,
        ensure_utc(captured_at) if captured_at else monitor.created_at,
    )
    return batch.build(world.ids).records()[0]


def run_fleet(
    world: SimWorld,
    fleet: FleetConfig,
    params: RankerParams,
    monitors: Iterable[MonitorAccount] | None = None,
) -> list[SessionRecord]:
    """Run the full capture schedule and return all sessions.

    Sessions come back in canonical order (monitor id, then capture
    time). Each (group, monitor, day, slot) cell has its own random
    stream, so output is fully determined by the world, the configs, and
    ``params.seed``.

    With ``neutral_churn_days`` = c > 0, every neutral account is
    replaced by a fresh one every c days (the replacement inherits the
    random stream but logs under a new monitor id with an epoch suffix),
    mimicking a platform that disables idle logged-out timelines.
    """
    fleet_monitors = (
        tuple(monitors) if monitors is not None else make_monitors(world, fleet, params.seed)
    )
    seconds_per_slot = 86400 // fleet.sessions_per_day

    # Every capture as (canonical sort key, monitor, random stream key).
    captures = []
    per_group_index: dict[GroupLabel, int] = {}
    for monitor in fleet_monitors:
        gi = GROUP_ORDER.index(monitor.group)
        mi = per_group_index.get(monitor.group, 0)
        per_group_index[monitor.group] = mi + 1
        churn = fleet.neutral_churn_days if monitor.group is GroupLabel.NEUTRAL else 0
        for day in range(fleet.duration_days):
            monitor_id = monitor.id if not churn else f"{monitor.id}-e{day // churn:02d}"
            for slot in range(fleet.sessions_per_day):
                captured_at = fleet.start + timedelta(days=day, seconds=slot * seconds_per_slot)
                session_id = f"{monitor_id}-d{day:03d}-t{slot:02d}"
                captures.append(((monitor_id, captured_at, session_id), monitor, (gi, mi, day, slot)))
    captures.sort(key=itemgetter(0))

    batch = BatchBuilder()
    sampler = None
    for (monitor_id, captured_at, session_id), monitor, stream in captures:
        if sampler is None or sampler.monitor is not monitor:
            sampler = _MonitorSampler(world, monitor, params)
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=stream))
        length = fleet.length_for(monitor.group)
        sampler.session(batch, rng, length, session_id, monitor_id, monitor.group, captured_at)
    return batch.build(world.ids).records()


def lean_labels(
    world: SimWorld, threshold: float = 0.3
) -> dict[AuthorId, str]:
    """Author id -> left/right/unknown labels from ground-truth leans."""
    if not (0.0 < threshold < 1.0):
        raise ConfigError(f"threshold must be in (0, 1), got {threshold}")
    return {a.id: lean_label(a.lean, threshold) for a in world.authors}
