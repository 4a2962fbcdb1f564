"""Span timers around feedaudit's public functions, installed from outside.

Nothing inside the package is edited. ``Tracer.install`` wraps each
function named in ``TRACED`` and rebinds every reference to that
function object in the loaded ``feedaudit`` modules, so calls made
through names that ``cli.py`` or ``amplify.py`` imported directly are
timed too. Spans and counters stay in memory until the run reports.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


def _count_run_fleet(c: dict, args, kwargs, result) -> None:
    c["simkit.rows"] += sum(len(s) for s in result)


def _count_write_sessions(c: dict, args, kwargs, result) -> None:
    c["store.write_sessions_bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


def _count_read_sessions(c: dict, args, kwargs, result) -> None:
    c["store.read_rows"] += sum(len(s) for s in result.sessions)
    c["store.sessions_valid"] += len(result.sessions)
    c["store.sessions_skipped"] += result.skipped
    c["store.sessions_total"] += result.total
    if "store.read_rss_mb" not in c:
        # Peak resident set of this process once the first log is parsed.
        c["store.read_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _count_calibrate(c: dict, args, kwargs, result) -> None:
    c["decay.calibrate_calls"] += 1


def _count_exposure_table(c: dict, args, kwargs, result) -> None:
    c["metrics.tables"] += 1
    c["metrics.table_entries"] += len(result.entries)


def _count_mwu(c: dict, args, kwargs, result) -> None:
    c["mwu.calls"] += 1
    c[f"mwu.{result.method}_calls"] += 1
    pooled = [*_arg(args, kwargs, 0, "sample_a"), *_arg(args, kwargs, 1, "sample_b")]
    c["mwu.tied_calls"] += len(set(pooled)) < len(pooled)


def _count_amplification(c: dict, args, kwargs, result) -> None:
    c["amplify.rows"] += len(result)
    c["amplify.significant_rows"] += sum(r.significant for r in result)


# (module, function) -> counter update run after the call returns,
# outside the span, so counting is charged to trace overhead.
TRACED: dict[tuple[str, str], Callable | None] = {
    ("simkit", "run_fleet"): _count_run_fleet,
    ("store", "write_sessions"): _count_write_sessions,
    ("store", "emit_report"): None,
    ("store", "read_sessions"): _count_read_sessions,
    ("store", "dataset_stats"): None,
    ("decay", "calibrate"): _count_calibrate,
    ("metrics", "build_exposure_table"): _count_exposure_table,
    ("metrics", "top_k"): None,
    ("inequality", "group_gini_distribution"): None,
    ("inequality", "lorenz"): None,
    ("mwu", "mann_whitney_u"): _count_mwu,
    ("amplify", "build_amplification_report"): _count_amplification,
    ("amplify", "group_amplification_magnitude"): None,
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing traced span


@dataclass
class Tracer:
    """Spans and counters of one traced operation."""

    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the slot; children follow it
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = Span(name, start, perf_counter(), parent)
                self._stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def install(self) -> Iterator[None]:
        """Rebind every traced function across loaded feedaudit modules."""
        importlib.import_module("feedaudit.cli")
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for (module, func), count in TRACED.items():
            fn = getattr(importlib.import_module(f"feedaudit.{module}"), func)
            wrappers[id(fn)] = (fn, self._wrap(f"{module}.{func}", fn, count))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "feedaudit" and not mod_name.startswith("feedaudit."):
                continue
            for attr, value in list(vars(mod).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def busy_s(self) -> dict[str, float]:
        """Total inclusive seconds per traced function."""
        out = {f"{module}.{func}": 0.0 for module, func in TRACED}
        for s in self.spans:
            out[s.name] += s.end - s.start
        return out

    def top_level_s(self) -> float:
        """Seconds covered by spans that no other traced span encloses."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)
