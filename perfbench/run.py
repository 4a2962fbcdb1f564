"""feedaudit benchmark: end-to-end and per-layer metrics for two workloads.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload builds its inputs from the seed several times (``setup_s``
is their median), then repeats one operation in a closed loop, one at a
time, for at least ``--seconds`` and at least three times. Every
operation is checked; a failed check counts towards ``error_rate``.

``--trace 0`` reports the end-to-end metrics of untraced operations.
``--trace 1`` runs operations in this process, alternating traced and
untraced ones, and reports the per-layer metrics listed in
BENCHMARK.json. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DEFAULT_SEED = 7
MIN_OPS = 3


def load_workloads():
    """Import the workloads against the package sources of this checkout."""
    if not (SRC / "feedaudit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no feedaudit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def load_spec() -> dict[str, Any]:
    """BENCHMARK.json: the metric names and units the run must emit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


# No timed operation simulates or writes a log; these layers are taken
# from one traced set-up instead.
SETUP_LAYERS = ("simkit.run_fleet_s", "simkit.rows", "store.write_sessions_s", "store.write_sessions_bytes")


def _layer_metrics(tracers, traced, untraced, setup_tracer) -> dict[str, float]:
    median = statistics.median
    values = {f"{name}_s": median([t.busy_s()[name] for t in tracers]) for name in tracers[0].busy_s()}
    counts = tracers[-1].counters
    for name in (
        "store.read_rows",
        "store.sessions_valid",
        "store.sessions_skipped",
        "decay.calibrate_calls",
        "metrics.tables",
        "metrics.table_entries",
        "mwu.calls",
        "mwu.exact_calls",
        "mwu.normal_calls",
        "amplify.rows",
        "amplify.significant_rows",
    ):
        values[name] = counts[name]
    total = counts["store.sessions_total"]
    values["store.valid_ratio"] = counts["store.sessions_valid"] / total if total else 0.0
    # The first traced operation runs before any other work in this
    # process, so its peak after reading is the reader's own.
    values["store.read_rss_mb"] = tracers[0].counters["store.read_rss_mb"]
    calls = counts["mwu.calls"]
    values["mwu.tied_share"] = counts["mwu.tied_calls"] / calls if calls else 0.0
    values["cli.self_s"] = median([o.wall_s - t.top_level_s() for o, t in zip(traced, tracers)])
    values["trace.overhead_s"] = median([o.wall_s for o in traced]) - median([o.wall_s for o in untraced])
    in_setup = {f"{name}_s": s for name, s in setup_tracer.busy_s().items()} | setup_tracer.counters
    values.update({name: in_setup.get(name, 0) for name in SETUP_LAYERS})
    return values


def measure(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict[str, Any]:
    """Set up, repeat the workload's operation, check it; return a report."""
    import workloads

    work.mkdir(parents=True, exist_ok=True)
    setup_s = []
    state = None
    for repeat in range(wl.setup_repeats):
        state = None  # free the previous inputs before building the next
        start = perf_counter()
        state = wl.setup(seed, work, repeat)
        setup_s.append(perf_counter() - start)

    outcomes, traced, untraced, tracers = [], [], [], []
    deadline = perf_counter() + seconds
    while len(outcomes) < MIN_OPS or perf_counter() < deadline:
        if trace:
            tracer = Tracer()
            with tracer.install():
                traced.append(workloads.attempt(wl, state, work, True))
            tracers.append(tracer)
            untraced.append(workloads.attempt(wl, state, work, True))
            outcomes += [traced[-1], untraced[-1]]
        else:
            outcomes.append(workloads.attempt(wl, state, work, False))

    if trace:
        # Run last, so the first traced read above saw none of its memory.
        setup_tracer = Tracer()
        with setup_tracer.install():
            wl.setup(seed, work, wl.setup_repeats, in_process=True)

    expected = outcomes[0].digest
    failures = [o for o in outcomes if o.problems or o.digest != expected]
    for o in failures[:3]:
        print(f"{wl.name}: failed check: {o.problems or ['digest differs from first repeat']}", file=sys.stderr)
    if trace:
        values = _layer_metrics(tracers, traced, untraced, setup_tracer)
    else:
        values = {
            "wall_s": [o.wall_s for o in outcomes],
            "peak_rss_mb": [o.peak_rss_mb for o in outcomes],
            "setup_s": setup_s,
        }
    return {
        "workload": wl.name,
        "attempted": len(outcomes),
        "failed": len(failures),
        "digest": expected,
        "values": values,
    }


def _print_report(report: dict[str, Any], declared: list[dict[str, Any]]) -> dict[str, Any]:
    name = report["workload"]
    print(f"{name}: {report['attempted']} operations, {report['failed']} failed, digest {report['digest']}")
    metrics = {}
    for m in declared:
        value = report["values"][m["name"]]
        if isinstance(value, list):
            print(
                f"  {m['name']:<14} median {statistics.median(value):.6g} p90 {_p90(value):.6g} "
                f"n={len(value)} {m['unit']}"
            )
            value = statistics.median(value)
        else:
            print(f"  {m['name']:<42} {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if "wall_s" in report["values"]:
        rate = report["failed"] / report["attempted"]
        print(f"  {'error_rate':<14} {rate:.6g} ratio ({report['failed']}/{report['attempted']})")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK / f"run-{os.getpid()}"
    try:
        reports = [
            measure(workloads.WORKLOADS[name](), args.seed, args.seconds, bool(args.trace), work / name)
            for name in names
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    metrics = {}
    for report in reports:
        printed = _print_report(report, declared)
        if len(reports) == 1:
            metrics = printed
        else:
            metrics.update({f"{report['workload']}.{k}": v for k, v in printed.items()})
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
