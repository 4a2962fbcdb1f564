"""Command-line interface.

Subcommands cover the full audit chain: calibrate a decay model,
simulate a monitor fleet, ingest and validate stored logs, and compute
composition stats, Gini/Lorenz inequality, top-k exposure, and
amplification reports. ``pipeline`` runs everything end to end into an
output directory with a deterministic run manifest.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 analysis error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import json
import os
import sys
from datetime import datetime
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from . import __version__
from .amplify import (
    build_amplification_report,
    group_amplification_magnitude,
)
from .decay import DecayModel, attention_residual, calibrate
from .errors import AnalysisError, ConfigError, DataError, FeedAuditError
from .inequality import GiniReport, average_lorenz, group_gini_distribution, lorenz
from .metrics import (
    ExposureTable,
    build_exposure_table,
    exposure_share,
    group_mean_exposure,
    top_k,
)
from .model import GROUP_ORDER, GroupLabel, SessionRecord, ensure_utc
from .simkit import (
    FleetConfig,
    LeanMixture,
    RankerParams,
    build_world,
    lean_labels,
    make_monitors,
    run_fleet,
)
from .store import (
    GroupStats,
    _render,
    dataset_stats,
    emit_report,
    read_authors,
    read_sessions,
    write_authors,
    write_sessions,
)

_ANALYSIS_DEFAULTS: dict[str, Any] = {
    "scope": "out-of-network",
    "attribution": "original",
    "include_promoted": True,
    "top": 50,
    "alpha_amplify": 0.05,
    "alpha_gini": 0.001,
    "mw_mode": "auto",
    "lean_threshold": 0.3,
    "lorenz_grid": 100,
}

_DECAY_DEFAULTS: dict[str, Any] = {
    "top_fraction": 0.2,
    "attention_fraction": 0.7,
    "amplitude": None,
}

# The parameters of what each simulation section configures, with
# their defaults.
_SIM_DEFAULTS: dict[str, dict[str, Any]] = {
    "world": {n: p.default for n, p in inspect.signature(build_world).parameters.items()},
    "ranker": {f.name: f.default for f in dataclasses.fields(RankerParams)},
    "fleet": {f.name: f.default for f in dataclasses.fields(FleetConfig)},
}

# Fields that take one value or a per-group mapping; their constructors
# check them.
_PER_GROUP_FIELDS = {"monitors_per_group", "session_length", "oon_mix"}

# Config sections accept exactly the parameters of what they configure.
_ALLOWED_KEYS: dict[str, set[str] | None] = {
    "seed": None,
    **{section: set(params) for section, params in _SIM_DEFAULTS.items()},
    "decay": set(_DECAY_DEFAULTS),
    "analysis": set(_ANALYSIS_DEFAULTS),
}


def load_config(path: str | None) -> dict[str, Any]:
    """Load and strictly validate a JSON config file.

    Unknown keys are rejected so typos fail loudly instead of silently
    falling back to defaults.
    """
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key, value in cfg.items():
        if key not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        allowed = _ALLOWED_KEYS[key]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        for sub in value:
            if sub not in allowed:
                raise ConfigError(f"unknown config key {key!r}.{sub!r}")
    mixture = cfg.get("world", {}).get("lean_mixture")
    if mixture is not None:
        if not isinstance(mixture, dict):
            raise ConfigError("world.lean_mixture must be an object")
        for sub in mixture:
            if sub not in {f.name for f in dataclasses.fields(LeanMixture)}:
                raise ConfigError(f"unknown config key 'world'.'lean_mixture'.{sub!r}")
    return cfg


def _parse_cli_ts(text: str) -> datetime:
    try:
        return ensure_utc(datetime.fromisoformat(text.replace("Z", "+00:00")))
    except ValueError:
        raise ConfigError(f"bad timestamp {text!r}; use RFC-3339, e.g. 2024-10-02T00:00:00Z") from None


def build_sim_objects(
    cfg: Mapping[str, Any]
) -> tuple[Any, FleetConfig, RankerParams]:
    """Turn a validated config dict into world/fleet/ranker objects."""
    seed = cfg.get("seed", 0)
    if type(seed) is not int:
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    for section, params in _SIM_DEFAULTS.items():
        scalars = {
            k: v
            for k, v in params.items()
            if k not in _PER_GROUP_FIELDS and type(v) in (bool, int, float)
        }
        _typed(section, scalars, {**scalars, **cfg.get(section, {})})
    try:
        wcfg = dict(cfg.get("world", {}))
        mixture = wcfg.pop("lean_mixture", None)
        if mixture is not None:
            wcfg["lean_mixture"] = LeanMixture(**{k: tuple(v) for k, v in mixture.items()})
        wcfg.setdefault("seed", seed)
        world = build_world(**wcfg)

        rcfg = dict(cfg.get("ranker", {}))
        rcfg.setdefault("seed", seed)
        params = RankerParams(**rcfg)

        fcfg = dict(cfg.get("fleet", {}))
        if "start" in fcfg:
            fcfg["start"] = _parse_cli_ts(str(fcfg["start"]))
        fleet = FleetConfig(**fcfg)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    return world, fleet, params


def _typed(section: str, defaults: Mapping[str, Any], out: dict[str, Any]) -> dict[str, Any]:
    """Check each option against its default's JSON type and return ``out``.

    A float default also takes an int; a None default takes any number
    or null.
    """
    for key, default in defaults.items():
        value = out[key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if default is None:
            ok = value is None or number
        elif isinstance(default, float):
            ok = number
        else:
            ok = type(value) is type(default)
        if not ok:
            raise ConfigError(f"bad type for {section}.{key}: {value!r} (default {default!r})")
    return out


def analysis_options(
    cfg: Mapping[str, Any], args: argparse.Namespace | None = None
) -> dict[str, Any]:
    out = {**_ANALYSIS_DEFAULTS, **cfg.get("analysis", {})}
    # Command-line flags override the config file.
    if args is not None:
        if getattr(args, "scope", None):
            out["scope"] = args.scope
        if getattr(args, "attribution", None):
            out["attribution"] = args.attribution
    _typed("analysis", _ANALYSIS_DEFAULTS, out)
    if out["mw_mode"] not in ("auto", "exact", "normal"):
        raise ConfigError(f"analysis.mw_mode must be auto/exact/normal, got {out['mw_mode']!r}")
    if not 0.0 < out["lean_threshold"] < 1.0:
        raise ConfigError(f"analysis.lean_threshold must be in (0, 1), got {out['lean_threshold']!r}")
    return out


def decay_options(cfg: Mapping[str, Any]) -> dict[str, Any]:
    return _typed("decay", _DECAY_DEFAULTS, {**_DECAY_DEFAULTS, **cfg.get("decay", {})})


def _analyze(
    sessions: Sequence[SessionRecord],
    decay_cfg: Mapping[str, Any],
    analysis: Mapping[str, Any],
) -> tuple[dict[GroupLabel, DecayModel], dict[GroupLabel, list[ExposureTable]]]:
    """Group sessions by group and monitor, calibrate one decay model per
    group to its mean session length, and build each monitor's exposure
    table. Every analysis renders from these tables."""
    grouped: dict[GroupLabel, dict[str, list[SessionRecord]]] = {}
    ungrouped = 0
    for s in sessions:
        if s.group is None:
            ungrouped += 1
            continue
        grouped.setdefault(s.group, {}).setdefault(s.monitor_id, []).append(s)
    if ungrouped:
        print(f"note: ignoring {ungrouped} sessions without a group label", file=sys.stderr)
    if not grouped:
        raise DataError("no group-labeled sessions to analyze")
    models: dict[GroupLabel, DecayModel] = {}
    for group, monitors in grouped.items():
        lengths = [len(s) for sess in monitors.values() for s in sess]
        mean_len = round(sum(lengths) / len(lengths))
        if mean_len < 5:
            raise DataError(f"group {group.value} sessions too short to calibrate (mean {mean_len})")
        models[group] = calibrate(
            mean_len,
            decay_cfg["top_fraction"],
            decay_cfg["attention_fraction"],
            decay_cfg["amplitude"],
        )
    tables = {
        group: [
            build_exposure_table(
                monitors[mid],
                models[group],
                scope=analysis["scope"],
                attribution=analysis["attribution"],
                include_promoted=analysis["include_promoted"],
            )
            for mid in sorted(monitors)
        ]
        for group, monitors in grouped.items()
    }
    return models, tables


def _read_with_filters(args: argparse.Namespace):
    return read_sessions(
        args.input,
        group=args.group if getattr(args, "group", None) else None,
        monitor_id=getattr(args, "monitor", None),
        start=_parse_cli_ts(args.start) if getattr(args, "start", None) else None,
        end=_parse_cli_ts(args.end) if getattr(args, "end", None) else None,
    )


# Column order of each report. A table with no rows is written as its
# header alone.
_STATS_COLUMNS = tuple(f.name for f in dataclasses.fields(GroupStats))
_GINI_COLUMNS = ("group", "monitor_id", "gini")
_GINI_PAIR_COLUMNS = ("group_a", "group_b", "u_statistic", "pvalue", "significant", "method")
_LORENZ_COLUMNS = ("group", "population_share", "exposure_share_mean", "exposure_share_std")
_TOPK_COLUMNS = ("group", "author_id", "mean_exposure", "lean_label")
_AMPLIFY_COLUMNS = (
    "author_id", "lean_label", "mean_E_group", "mean_E_balanced", "ratio_pct", "U", "p", "significant",
)


def _emit(
    args: argparse.Namespace, rows: Sequence[Mapping[str, Any]], columns: Sequence[str]
) -> None:
    """Write ``rows`` to --out in --format, when --out is given."""
    if args.out:
        emit_report(rows, args.out, fmt=args.format, columns=columns)
        print(f"wrote {args.out}")


def _jsonable(value: Any) -> Any:
    if isinstance(value, (MappingProxyType, dict)):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, datetime):
        return ensure_utc(value).isoformat().replace("+00:00", "Z")
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return _render(value)


# ---------------------------------------------------------------- commands


def cmd_calibrate(args: argparse.Namespace) -> int:
    model = calibrate(args.length, args.top, args.attention, args.amplitude)
    payload = {
        "length": model.reference_length,
        "top_fraction": model.top_fraction,
        "attention_fraction": model.attention_fraction,
        "amplitude": model.amplitude,
        "rate": model.rate,
        "residual": attention_residual(model),
        "visibility_rank_1": model.visibility(1),
        "visibility_rank_last": model.visibility(model.reference_length),
    }
    if args.json:
        print(json.dumps(_jsonable(payload), indent=2))
    else:
        print(
            f"p(r) = {model.amplitude:.6g} * exp(-{model.rate:.6g} * r)  "
            f"[length {model.reference_length}, top {model.top_fraction:g} of ranks "
            f"carry {model.attention_fraction:g} of attention, "
            f"residual {attention_residual(model):.3g}]"
        )
    return 0


def _with_seed(cfg: dict[str, Any], seed: int | None) -> dict[str, Any]:
    """Apply a --seed override; it also replaces per-section seeds."""
    if seed is not None:
        cfg["seed"] = seed
        cfg.setdefault("world", {}).pop("seed", None)
        cfg.setdefault("ranker", {}).pop("seed", None)
    return cfg


def _simulate(cfg: Mapping[str, Any]) -> tuple[Any, list[SessionRecord]]:
    world, fleet, params = build_sim_objects(cfg)
    return world, run_fleet(world, fleet, params, make_monitors(world, fleet, params.seed))


def _roster_labels(path: str | None) -> dict[str, str]:
    """Author id -> lean label from a roster file; empty without one."""
    return {a: info.label for a, info in read_authors(path).items()} if path else {}


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _with_seed(load_config(args.config), args.seed)
    if args.days is not None:
        cfg.setdefault("fleet", {})["duration_days"] = args.days
    if args.monitors is not None:
        cfg.setdefault("fleet", {})["monitors_per_group"] = args.monitors
    world, sessions = _simulate(cfg)
    n = write_sessions(sessions, args.out)
    tweets = sum(len(s) for s in sessions)
    print(f"wrote {n} sessions ({tweets} tweets) to {args.out}")
    if args.authors_out:
        analysis = analysis_options(cfg)
        count = write_authors(world.authors, args.authors_out, lean_threshold=analysis["lean_threshold"])
        print(f"wrote {count} authors to {args.authors_out}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    res = _read_with_filters(args)
    print(
        f"sessions: {res.total} parsed, {len(res.sessions)} valid, "
        f"{res.filtered} filtered out, {res.skipped} skipped"
    )
    for sid, issues in list(res.violations.items())[:10]:
        print(f"  {sid}: {'; '.join(issues[:3])}")
    if args.strict and res.skipped:
        raise DataError(f"{res.skipped} sessions failed validation")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    res = _read_with_filters(args)
    if not res.sessions:
        raise DataError("no valid sessions after filtering")
    rows = [dataclasses.asdict(g) for g in dataset_stats(res.sessions).groups]
    _emit(args, rows, _STATS_COLUMNS)
    if not args.out:
        for r in rows:
            print(
                f"{r['group']:<9} monitors={r['monitors']:<3} sessions={r['sessions']:<5} "
                f"oon={100 * r['oon_mean']:.2f}%({100 * r['oon_std']:.2f}) "
                f"rt={100 * r['retweet_mean']:.2f}%({100 * r['retweet_std']:.2f}) "
                f"quote={100 * r['quote_mean']:.2f}%({100 * r['quote_std']:.2f}) "
                f"promoted={100 * r['promoted_mean']:.2f}%({100 * r['promoted_std']:.2f})"
            )
    return 0


def _prepare_tables(
    args: argparse.Namespace,
) -> tuple[dict[str, Any], dict[GroupLabel, list[ExposureTable]]]:
    cfg = load_config(args.config)
    analysis = analysis_options(cfg, args)
    decay_cfg = decay_options(cfg)
    res = _read_with_filters(args)
    if not res.sessions:
        raise DataError("no valid sessions after filtering")
    return analysis, _analyze(res.sessions, decay_cfg, analysis)[1]


def _gini_rows(
    tables: Mapping[GroupLabel, Sequence[ExposureTable]], report: GiniReport
) -> list[dict[str, Any]]:
    return [
        dict(zip(_GINI_COLUMNS, (group.value, t.monitor_id, g)))
        for group in GROUP_ORDER
        if group in tables
        for t, g in zip(tables[group], report.per_group[group.value])
    ]


def _gini_pair_rows(report: GiniReport) -> list[dict[str, Any]]:
    return [
        dict(zip(_GINI_PAIR_COLUMNS, (
            c.group_a, c.group_b, c.statistic, c.pvalue, c.significant, c.method,
        )))
        for c in report.comparisons
    ]


def cmd_gini(args: argparse.Namespace) -> int:
    analysis, tables = _prepare_tables(args)
    alpha = args.alpha if args.alpha is not None else analysis["alpha_gini"]
    report = group_gini_distribution(tables, alpha=alpha, mode=analysis["mw_mode"])
    medians = report.medians()
    for group, values in report.per_group.items():
        print(
            f"{group:<9} median={medians[group]:.4f} "
            f"min={min(values):.4f} max={max(values):.4f} n={len(values)}"
        )
    for c in report.comparisons:
        flag = "*" if c.significant else " "
        print(
            f"{c.group_a} vs {c.group_b}: U={c.statistic:g} p={c.pvalue:.4g}{flag} ({c.method})"
        )
    _emit(args, _gini_rows(tables, report), _GINI_COLUMNS)
    return 0


def _lorenz_rows(
    tables: Mapping[GroupLabel, Sequence[ExposureTable]], grid_size: int
) -> list[dict[str, Any]]:
    rows = []
    for group in GROUP_ORDER:
        if group not in tables:
            continue
        curves = [lorenz(list(t.entries.values())) for t in tables[group]]
        band = average_lorenz(curves, grid_size=grid_size)
        rows.extend(
            dict(zip(_LORENZ_COLUMNS, (group.value, x, m, s)))
            for x, m, s in zip(band.grid, band.mean, band.std)
        )
    return rows


def cmd_lorenz(args: argparse.Namespace) -> int:
    analysis, tables = _prepare_tables(args)
    _emit(args, _lorenz_rows(tables, analysis["lorenz_grid"]), _LORENZ_COLUMNS)
    return 0


def _topk_rows(
    tables: Mapping[GroupLabel, Sequence[ExposureTable]],
    group: GroupLabel,
    k: int,
    labels: Mapping[str, str],
) -> list[dict[str, Any]]:
    if group not in tables:
        raise DataError(f"no sessions for group {group.value}")
    means = group_mean_exposure(tables[group])
    return [
        dict(zip(_TOPK_COLUMNS, (group.value, a, e, labels.get(a, "unknown"))))
        for a, e in top_k(means, k)
    ]


def _shares(
    tables: Sequence[ExposureTable], k: int, labels: Mapping[str, str]
) -> dict[str, float]:
    """Share of one group's top-k exposure mass held by left- and by
    right-leaning authors."""
    means = group_mean_exposure(tables)
    return {
        side: exposure_share(means, k, lambda l, s=side: l == s, labels)
        for side in ("left", "right")
    }


def cmd_topk(args: argparse.Namespace) -> int:
    analysis, tables = _prepare_tables(args)
    labels = _roster_labels(args.authors)
    group = GroupLabel(args.target_group)
    rows = _topk_rows(tables, group, args.k, labels)
    for r in rows:
        print(f"{r['author_id']:<12} {r['mean_exposure']:.4f}  {r['lean_label']}")
    if labels:
        for side, share in _shares(tables[group], args.k, labels).items():
            print(f"top-{args.k} exposure share, {side}-leaning authors: {share:.4f}")
    _emit(args, rows, _TOPK_COLUMNS)
    return 0


def _amplify_rows(rows) -> list[dict[str, Any]]:
    return [
        dict(zip(_AMPLIFY_COLUMNS, (
            r.author_id, r.lean_label, r.partisan_mean, r.baseline_mean,
            r.ratio_pct, r.statistic, r.pvalue, r.significant,
        )))
        for r in rows
    ]


def cmd_amplify(args: argparse.Namespace) -> int:
    analysis, tables = _prepare_tables(args)
    partisan = GroupLabel(args.partisan)
    baseline = GroupLabel(args.baseline)
    for g in (partisan, baseline):
        if g not in tables:
            raise DataError(f"no sessions for group {g.value}")
    labels = _roster_labels(args.authors)
    top = args.k if args.k is not None else analysis["top"]
    if args.all:
        top = len({a for t in (*tables[partisan], *tables[baseline]) for a in t.entries})
    alpha = args.alpha if args.alpha is not None else analysis["alpha_amplify"]
    rows = build_amplification_report(
        tables[partisan],
        tables[baseline],
        top=top,
        alpha=alpha,
        leans=labels,
        mode=analysis["mw_mode"],
    )
    n_sig = sum(r.significant for r in rows)
    n_pos = sum(r.ratio_pct > 0 for r in rows)
    print(
        f"{partisan.value} vs {baseline.value}: {len(rows)} authors, "
        f"{n_pos} amplified, {n_sig} significant at alpha={alpha:g}"
    )
    for r in rows[:10]:
        flag = "*" if r.significant else " "
        print(
            f"  {r.author_id:<12} {r.ratio_pct:+8.2f}%{flag} "
            f"(partisan {r.partisan_mean:.3f}, baseline {r.baseline_mean:.3f}, p={r.pvalue:.3g})"
        )
    _emit(args, _amplify_rows(rows), _AMPLIFY_COLUMNS)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    if args.authors and not args.input:
        raise ConfigError("--authors needs --input; a simulated run writes its own roster")
    cfg = _with_seed(load_config(args.config), args.seed)
    analysis = analysis_options(cfg, args)
    decay_cfg = decay_options(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []

    def artifact(name: str) -> Path:
        artifacts.append(name)
        return out_dir / name

    if args.input:
        res = read_sessions(args.input)
        sessions = list(res.sessions)
        source: Any = str(args.input)
        labels = _roster_labels(args.authors)
        ingest_info = {"total": res.total, "filtered": res.filtered, "skipped": res.skipped}
    else:
        world, sessions = _simulate(cfg)
        labels = lean_labels(world, analysis["lean_threshold"])
        source = {"simulated": True, "seed": cfg.get("seed", 0)}
        ingest_info = {"total": len(sessions), "filtered": 0, "skipped": 0}
    if not sessions:
        raise DataError("no valid sessions to analyze")

    # Analysis can still reject the log, so every report is computed
    # before the first artifact, the simulated log included, is written:
    # a failed run leaves no partial set of artifacts behind.
    models, tables = _analyze(sessions, decay_cfg, analysis)
    gini_report = group_gini_distribution(tables, alpha=analysis["alpha_gini"], mode=analysis["mw_mode"])
    amplification = {
        group: build_amplification_report(
            tables[group],
            tables[GroupLabel.BALANCED],
            top=analysis["top"],
            alpha=analysis["alpha_amplify"],
            leans=labels,
            mode=analysis["mw_mode"],
        )
        for group in (GroupLabel.LEFT, GroupLabel.RIGHT)
        if group in tables and GroupLabel.BALANCED in tables
    }
    reports = {
        "stats.csv": ([dataclasses.asdict(g) for g in dataset_stats(sessions).groups], _STATS_COLUMNS),
        "gini_monitors.csv": (_gini_rows(tables, gini_report), _GINI_COLUMNS),
        "gini_pairwise.csv": (_gini_pair_rows(gini_report), _GINI_PAIR_COLUMNS),
        "lorenz.csv": (_lorenz_rows(tables, analysis["lorenz_grid"]), _LORENZ_COLUMNS),
        "topk.csv": (
            [row for group in GROUP_ORDER if group in tables
             for row in _topk_rows(tables, group, analysis["top"], labels)],
            _TOPK_COLUMNS,
        ),
        **{
            f"amplify_{group.value}.csv": (_amplify_rows(rows), _AMPLIFY_COLUMNS)
            for group, rows in amplification.items()
        },
    }

    summary: dict[str, Any] = {"gini_median": gini_report.medians(), "shares": {}}
    if labels:
        for group in GROUP_ORDER:
            if group in tables:
                with contextlib.suppress(AnalysisError):
                    summary["shares"][group.value] = _shares(tables[group], analysis["top"], labels)
    if len(amplification) == 2:
        try:
            mag = group_amplification_magnitude(
                amplification[GroupLabel.LEFT], amplification[GroupLabel.RIGHT], mode=analysis["mw_mode"]
            )
            summary["magnitude_left_vs_right"] = _jsonable(mag)
        except AnalysisError as exc:
            summary["magnitude_left_vs_right"] = {"error": str(exc)}

    if not args.input:
        write_sessions(sessions, artifact("sessions.csv"))
        write_authors(world.authors, artifact("authors.csv"), lean_threshold=analysis["lean_threshold"])
    for name, (rows, columns) in reports.items():
        emit_report(rows, artifact(name), columns=columns)
    with artifact("summary.json").open("w", encoding="utf-8") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")

    manifest = {
        "version": __version__,
        "seed": cfg.get("seed", 0),
        "source": source,
        "ingest": ingest_info,
        "config": {
            "decay": decay_cfg,
            "analysis": analysis,
            **{k: cfg[k] for k in ("world", "ranker", "fleet") if k in cfg},
        },
        "decay_models": {
            group.value: {
                "length": models[group].reference_length,
                "amplitude": models[group].amplitude,
                "rate": models[group].rate,
            }
            for group in GROUP_ORDER
            if group in models
        },
        "sessions": len(sessions),
        "tweets": sum(len(s) for s in sessions),
        "time_range": [
            min(s.captured_at for s in sessions),
            max(s.captured_at for s in sessions),
        ],
        "artifacts": sorted(artifacts + ["manifest.json"]),
    }
    with (out_dir / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(_jsonable(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pipeline complete: {len(artifacts) + 1} artifacts in {out_dir}")
    return 0


# ----------------------------------------------------------------- parser


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="session log CSV")
    p.add_argument("--group", choices=[g.value for g in GROUP_ORDER])
    p.add_argument("--monitor", help="only this monitor id")
    p.add_argument("--start", help="include captures at/after this RFC-3339 time")
    p.add_argument("--end", help="include captures before this RFC-3339 time")


def _add_report_flags(p: argparse.ArgumentParser, out_required: bool = False) -> None:
    p.add_argument("--out", required=out_required, help="write a report file")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--scope", choices=["out-of-network", "all"], help="which appearances count (default: config)")
    p.add_argument("--attribution", choices=["original", "displayed"], help="who a retweet credits (default: config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedaudit",
        description="Audit out-of-network exposure bias in ranked feeds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="calibrate a rank-decay visibility model")
    p.add_argument("--length", type=int, required=True, help="timeline length")
    p.add_argument("--top", type=float, default=0.2, help="top fraction of ranks")
    p.add_argument("--attention", type=float, default=0.7, help="attention share of the top ranks")
    p.add_argument("--amplitude", type=float, default=None, help="explicit amplitude (default: unit visibility at rank 1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="simulate a monitor fleet")
    p.add_argument("--out", required=True, help="session log to write")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--monitors", type=int, help="monitors per group")
    p.add_argument("--authors-out", help="also write the author roster")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ingest", help="validate a session log")
    _add_io_flags(p)
    p.add_argument("--strict", action="store_true", help="fail if any session is skipped")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="per-group composition statistics")
    _add_io_flags(p)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gini", help="per-monitor Gini with pairwise group tests")
    _add_io_flags(p)
    _add_report_flags(p)
    p.add_argument("--alpha", type=float, default=None, help="pairwise-test level (default: analysis.alpha_gini)")
    p.set_defaults(func=cmd_gini)

    p = sub.add_parser("lorenz", help="group-averaged Lorenz curves")
    _add_io_flags(p)
    _add_report_flags(p, out_required=True)
    p.set_defaults(func=cmd_lorenz)

    p = sub.add_parser("topk", help="top-k authors by group mean exposure")
    _add_io_flags(p)
    _add_report_flags(p)
    p.add_argument("--target-group", required=True, choices=[g.value for g in GROUP_ORDER])
    p.add_argument("-k", "--top", dest="k", type=int, default=20)
    p.add_argument("--authors", help="author roster CSV for lean labels")
    p.set_defaults(func=cmd_topk)

    p = sub.add_parser("amplify", help="amplification vs the balanced baseline")
    _add_io_flags(p)
    _add_report_flags(p)
    p.add_argument("--partisan", required=True, choices=["left", "right"])
    p.add_argument("--baseline", default="balanced", choices=[g.value for g in GROUP_ORDER])
    p.add_argument("-k", "--top", dest="k", type=int, default=None, help="authors to test (default: analysis.top)")
    p.add_argument("--all", action="store_true", help="test every observed author, not just the top k")
    p.add_argument("--alpha", type=float, default=None, help="significance level (default: analysis.alpha_amplify)")
    p.add_argument("--authors", help="author roster CSV for lean labels")
    p.set_defaults(func=cmd_amplify)

    for name, help_text in (
        ("report", "run every analysis on an existing session log"),
        ("pipeline", "simulate (or ingest) and run every analysis"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out-dir", required=True)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--input", required=name == "report", help="session log CSV to analyze")
        p.add_argument("--authors", help="author roster CSV for lean labels (with --input)")
        p.add_argument("--scope", choices=["out-of-network", "all"])
        p.add_argument("--attribution", choices=["original", "displayed"])
        p.set_defaults(func=cmd_pipeline, seed=None)
        if name == "pipeline":
            p.add_argument("--seed", type=int, help="simulation seed (overrides the config)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Standard output was closed early, as by `| head`. Output goes
        # to os.devnull from here on, so that the flush at exit does not
        # fail again (the recipe of the `signal` module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 4
    except FeedAuditError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
