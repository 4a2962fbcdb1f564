"""Self-test of the benchmark on a tiny fleet.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted by every
workload, untraced and traced; that a single flipped byte in a copied
artifact, a repeat whose output changed, and a broken invariant each
trip the correctness gate; and that the command fails without printing
a result in a directory that holds only the benchmark. Exits 0 when all
checks pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

workloads = run.load_workloads()

TINY = workloads.Sizes(
    pipeline_fleet={"monitors_per_group": 3, "duration_days": 1, "session_length": 30},
    sweep_authors=300,
    sweep_monitors=3,
    sweep_days=1,
    sweep_session_length=30,
)
SEED = 1


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


class FlippedReference(workloads.ReportLog):
    """report-log checked against a copy of pipeline's output with one byte flipped."""

    def setup(self, seed, work, repeat, in_process=False):
        state = super().setup(seed, work, repeat, in_process)
        copy = work / "flipped"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(state.reference, copy)
        _flip_byte(copy / "amplify_left.csv")
        return dataclasses.replace(state, reference=copy)


class FlippedRepeat(workloads.ReportLog):
    """report-log whose second operation leaves one flipped byte behind."""

    calls = 0

    def run(self, state, work, in_process=False):
        outcome = super().run(state, work, in_process)
        self.calls += 1
        if self.calls == 2:
            _flip_byte(state.out / "topk.csv")
            outcome.digest, _ = workloads.digest_files(state.out, workloads.SHARED_ARTIFACTS)
        return outcome


def check_metrics_emitted(work: Path) -> None:
    spec = run.load_spec()
    for name, cls in workloads.WORKLOADS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            report = run.measure(cls(TINY), SEED, 0, trace, work / name)
            check(report["failed"] == 0, f"{name} trace={int(trace)} passes its own checks")
            declared = {m["name"] for m in spec[key]}
            emitted = set(report["values"])
            check(emitted == declared, f"{name} trace={int(trace)} emits exactly the {key} metrics")


def check_gate(work: Path) -> None:
    report = run.measure(FlippedReference(TINY), SEED, 0, False, work / "flipped-reference")
    check(
        report["failed"] == report["attempted"] > 0,
        "a flipped byte in a copied reference artifact fails every report-log operation",
    )
    report = run.measure(FlippedRepeat(TINY), SEED, 0, False, work / "flipped-repeat")
    check(report["failed"] == 1, "an artifact that changes between repeats fails that operation")

    sweep = workloads.AuditSweep(TINY)
    _, combos = workloads.audit_sweep(sweep.setup(SEED, work, 0))
    check(workloads.sweep_problems(combos) == [], "audit-sweep invariants hold on real output")
    side = workloads.fa.GroupLabel.LEFT
    first = combos[0]
    rows = first.amplification[side]
    dropped = dataclasses.replace(first, amplification={**first.amplification, side: rows[:-1]})
    check(workloads.sweep_problems((dropped,)) != [], "a missing amplification row is caught")
    bad_p = dataclasses.replace(rows[0], pvalue=1.5)
    wrong = dataclasses.replace(first, amplification={**first.amplification, side: (bad_p, *rows[1:])})
    check(workloads.sweep_problems((wrong,)) != [], "a p-value outside [0, 1] is caught")


def check_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-log", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    printed_result = bool(lines) and lines[-1].startswith("{") and "correct" in json.loads(lines[-1])
    check(proc.returncode != 0 and not printed_result, "without the package sources the command fails and prints no result")


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    try:
        check_metrics_emitted(work)
        check_gate(work)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
