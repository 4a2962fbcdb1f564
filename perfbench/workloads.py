"""The benchmark's workloads: set-up, one timed operation, and its checks.

Each workload builds its inputs from the seed in ``setup`` and runs one
closed-loop operation per ``run`` call, returning its wall time, peak
resident memory, a digest of its outputs and any failed correctness
check. The runner in ``run.py`` repeats ``run`` and compares digests.

Import this module only after ``src`` is on ``sys.path``; ``run.py``
arranges that.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Mapping

# Library calls go through the package namespace, where the tracer in
# spans.py rebinds them; names imported here directly would escape it.
import feedaudit as fa
import feedaudit.cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120

# Artifacts that `report` on pipeline's own log must reproduce byte for
# byte. manifest.json is left out: its source and ingest fields
# legitimately name the input.
SHARED_ARTIFACTS = (
    "stats.csv",
    "gini_monitors.csv",
    "gini_pairwise.csv",
    "lorenz.csv",
    "topk.csv",
    "amplify_left.csv",
    "amplify_right.csv",
    "summary.json",
)
PIPELINE_ARTIFACTS = ("sessions.csv", "authors.csv", *SHARED_ARTIFACTS, "manifest.json")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads; the self-test shrinks them."""

    pipeline_fleet: Mapping[str, int]  # `fleet` section of the CLI config
    sweep_authors: int
    sweep_monitors: int
    sweep_days: int
    sweep_session_length: int


FULL = Sizes(
    # 3 of the default 14 days: 480 sessions and 312,000 rows. The full
    # default (about 15 s per pipeline) leaves too few repeats per run.
    pipeline_fleet={"duration_days": 3},
    # Paper-sized fleet (30 monitors per group), a large author
    # population and short sessions, so amplification over every
    # observed author dominates.
    sweep_authors=5000,
    sweep_monitors=30,
    sweep_days=4,
    sweep_session_length=100,
)


class SetupError(RuntimeError):
    """The workload's inputs could not be built."""


@dataclass
class Outcome:
    """One timed operation."""

    wall_s: float
    peak_rss_mb: float
    digest: str
    problems: list[str]


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_child(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run ``python -m feedaudit ARGS``: exit code, wall s, its peak RSS MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with log.open("wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "feedaudit", *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        # wait4 rather than wait: it returns this child's own rusage.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_in_process(args: list[str], log: Path) -> tuple[int, float, float]:
    """Call ``feedaudit.cli.main(ARGS)`` here: exit code, wall s, peak RSS MB."""
    sink = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = feedaudit.cli.main(args)
    wall = perf_counter() - start
    log.write_text(sink.getvalue(), encoding="utf-8")
    return code, wall, _self_rss_mb()


def digest_files(directory: Path, names: tuple[str, ...]) -> tuple[str, list[str]]:
    """SHA-256 over the named files, and a problem for each missing one."""
    h = hashlib.sha256()
    missing = []
    for name in names:
        path = directory / name
        if not path.is_file():
            missing.append(f"missing artifact {name}")
            continue
        h.update(name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest(), missing


def _cli_outcome(
    args: list[str], out: Path, names: tuple[str, ...], work: Path, in_process: bool
) -> Outcome:
    log = work / "op.log"
    code, wall, rss = (run_in_process if in_process else run_child)(args, log)
    digest, problems = digest_files(out, names)
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-500:]
        problems.insert(0, f"exit code {code}: {tail.strip()}")
    return Outcome(wall, rss, digest, problems)


def attempt(wl: "Workload", state: Any, work: Path, in_process: bool) -> Outcome:
    """``wl.run``, with an exception recorded as a failed operation."""
    start = perf_counter()
    try:
        return wl.run(state, work, in_process=in_process)
    except Exception:
        return Outcome(perf_counter() - start, 0.0, "", [traceback.format_exc()])


class Workload:
    name = ""
    setup_repeats = 3

    def __init__(self, sizes: Sizes = FULL) -> None:
        self.sizes = sizes

    def setup(self, seed: int, work: Path, repeat: int, in_process: bool = False) -> Any:
        """Build the inputs for ``seed``; called ``setup_repeats`` times."""
        raise NotImplementedError

    def run(self, state: Any, work: Path, in_process: bool = False) -> Outcome:
        """One timed operation on the inputs ``setup`` returned."""
        raise NotImplementedError


@dataclass(frozen=True)
class ReportState:
    reference: Path  # pipeline output: the log, the roster and expected artifacts
    out: Path


class ReportLog(Workload):
    """`feedaudit report` on the log and roster `pipeline` wrote for the seed.

    Set-up is the headline command, `feedaudit pipeline --seed S`, so
    ``setup_s`` is its wall time, and its artifacts are the reference
    that `report` must reproduce.
    """

    name = "report-log"
    _setup_digest = ""

    def setup(self, seed: int, work: Path, repeat: int, in_process: bool = False) -> ReportState:
        reference = _fresh_dir(work / "input")
        config = work / "config.json"
        config.write_text(json.dumps({"fleet": dict(self.sizes.pipeline_fleet)}), encoding="utf-8")
        args = ["pipeline", "--seed", str(seed), "--config", str(config), "--out-dir", str(reference)]
        code, _, _ = (run_in_process if in_process else run_child)(args, work / "setup.log")
        digest, problems = digest_files(reference, PIPELINE_ARTIFACTS)
        if code != 0 or problems:
            raise SetupError(f"pipeline exit code {code}; {problems}")
        if repeat == 0:
            self._setup_digest = digest
        elif digest != self._setup_digest:
            raise SetupError("pipeline artifacts differ between repeats of one seed")
        return ReportState(reference, work / "out")

    def run(self, state: ReportState, work: Path, in_process: bool = False) -> Outcome:
        out = _fresh_dir(state.out)
        log = state.reference / "sessions.csv"
        roster = state.reference / "authors.csv"
        args = ["report", "--input", str(log), "--authors", str(roster), "--out-dir", str(out)]
        outcome = _cli_outcome(args, out, SHARED_ARTIFACTS, work, in_process)
        for name in SHARED_ARTIFACTS:
            made, expected = out / name, state.reference / name
            if made.is_file() and made.read_bytes() != expected.read_bytes():
                outcome.problems.append(f"{name} differs from pipeline's for the same seed")
        return outcome


@dataclass(frozen=True)
class SweepState:
    sessions: list
    grouped: dict  # group -> monitor id -> sessions
    labels: dict  # author id -> lean label


@dataclass(frozen=True)
class ComboResult:
    """Every analysis for one scope x attribution combination."""

    scope: str
    attribution: str
    gini: Any
    lorenz: dict
    top: dict
    amplification: dict
    magnitude: Any
    # Sets iterate in hash order, which varies between processes, so
    # they stay out of the repr that the digest is taken over.
    observed: dict = field(repr=False)


SWEEP_TOP = 50


def audit_sweep(state: SweepState) -> tuple:
    """The library path over all four scope x attribution combinations."""
    stats = fa.dataset_stats(state.sessions)
    models = {}
    for group, monitors in state.grouped.items():
        lengths = [len(s) for sessions in monitors.values() for s in sessions]
        models[group] = fa.calibrate(round(sum(lengths) / len(lengths)))
    combos = []
    balanced = fa.GroupLabel.BALANCED
    for scope in (fa.SCOPE_OON, fa.SCOPE_ALL):
        for attribution in (fa.ATTR_ORIGINAL, fa.ATTR_DISPLAYED):
            tables = {
                group: [
                    fa.build_exposure_table(monitors[m], models[group], scope=scope, attribution=attribution)
                    for m in sorted(monitors)
                ]
                for group, monitors in state.grouped.items()
            }
            observed, amplification = {}, {}
            for side in (fa.GroupLabel.LEFT, fa.GroupLabel.RIGHT):
                observed[side] = {a for t in (*tables[side], *tables[balanced]) for a in t.entries}
                amplification[side] = fa.build_amplification_report(
                    tables[side], tables[balanced], top=len(observed[side]), leans=state.labels
                )
            combos.append(
                ComboResult(
                    scope=scope,
                    attribution=attribution,
                    gini=fa.group_gini_distribution(tables),
                    lorenz={
                        g: fa.average_lorenz([fa.lorenz(list(t.entries.values())) for t in ts])
                        for g, ts in tables.items()
                    },
                    top={g: fa.top_k(fa.group_mean_exposure(ts), SWEEP_TOP) for g, ts in tables.items()},
                    amplification=amplification,
                    magnitude=fa.group_amplification_magnitude(
                        amplification[fa.GroupLabel.LEFT], amplification[fa.GroupLabel.RIGHT]
                    ),
                    observed=observed,
                )
            )
    return stats, tuple(combos)


def sweep_problems(combos: tuple[ComboResult, ...]) -> list[str]:
    """Invariants: p in [0, 1], Gini in [0, 1), one row per observed author."""
    problems = []
    for c in combos:
        where = f"{c.scope}/{c.attribution}"
        pvalues = [x.pvalue for x in c.gini.comparisons]
        pvalues += [c.magnitude.amplified_pvalue]
        if c.magnitude.deamplified_pvalue is not None:
            pvalues.append(c.magnitude.deamplified_pvalue)
        for side, rows in c.amplification.items():
            pvalues += [r.pvalue for r in rows]
            authors = [r.author_id for r in rows]
            if len(authors) != len(c.observed[side]) or set(authors) != c.observed[side]:
                problems.append(
                    f"{where}: {len(authors)} {side.value} amplification rows "
                    f"for {len(c.observed[side])} observed authors"
                )
        if not all(0.0 <= p <= 1.0 for p in pvalues):
            problems.append(f"{where}: p-value outside [0, 1]")
        if not all(0.0 <= g < 1.0 for values in c.gini.per_group.values() for g in values):
            problems.append(f"{where}: Gini outside [0, 1)")
    return problems


class AuditSweep(Workload):
    """The library path on an in-memory fleet; no CSV, no simulator timed."""

    name = "audit-sweep"

    def setup(self, seed: int, work: Path, repeat: int, in_process: bool = True) -> SweepState:
        s = self.sizes
        world = fa.build_world(n_authors=s.sweep_authors, seed=seed)
        fleet = fa.FleetConfig(
            monitors_per_group=s.sweep_monitors,
            duration_days=s.sweep_days,
            session_length=s.sweep_session_length,
        )
        sessions = fa.run_fleet(world, fleet, fa.RankerParams(seed=seed), fa.make_monitors(world, fleet, seed))
        grouped: dict = {}
        for session in sessions:
            grouped.setdefault(session.group, {}).setdefault(session.monitor_id, []).append(session)
        return SweepState(sessions, grouped, fa.lean_labels(world))

    def run(self, state: SweepState, work: Path, in_process: bool = True) -> Outcome:
        start = perf_counter()
        stats, combos = audit_sweep(state)
        wall = perf_counter() - start
        digest = hashlib.sha256(repr((stats, combos)).encode()).hexdigest()
        return Outcome(wall, _self_rss_mb(), digest, sweep_problems(combos))


WORKLOADS = {w.name: w for w in (ReportLog, AuditSweep)}
