"""End-to-end command-line behavior: exit codes, flags, and artifacts."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import feedaudit
from feedaudit import GROUP_ORDER, write_sessions
from feedaudit.cli import analysis_options, load_config, main

from conftest import entry, session

CONFIG = {
    "seed": 7,
    "world": {"n_authors": 90},
    "fleet": {
        "monitors_per_group": 2,
        "sessions_per_day": 2,
        "duration_days": 2,
        "session_length": {"default": 60, "neutral": 50},
    },
}


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A small simulated corpus shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    log = root / "log.csv"
    authors = root / "authors.csv"
    rc = main(
        ["simulate", "--config", str(cfg), "--out", str(log), "--authors-out", str(authors)]
    )
    assert rc == 0
    return {"root": root, "cfg": cfg, "log": log, "authors": authors}


class TestCalibrate:
    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "calibrate", "--length", "500", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["rate"] == pytest.approx(0.0119815234, abs=1e-7)
        assert payload["residual"] < 1e-10
        assert payload["amplitude"] == pytest.approx(1.0120535, abs=1e-5)
        assert payload["visibility_rank_1"] == pytest.approx(1.0)

    def test_text_mode(self, capsys):
        rc, out, _ = run(capsys, "calibrate", "--length", "500")
        assert rc == 0
        assert "p(r) = " in out and "residual" in out

    def test_explicit_amplitude(self, capsys):
        rc, out, _ = run(
            capsys, "calibrate", "--length", "500", "--amplitude", "1.009", "--json"
        )
        assert json.loads(out)["visibility_rank_1"] == pytest.approx(0.996964, abs=2e-5)

    def test_bad_length_is_config_error(self, capsys):
        rc, _, err = run(capsys, "calibrate", "--length", "0")
        assert rc == 2
        assert "config error" in err

    def test_degenerate_constraint_is_analysis_error(self, capsys):
        rc, _, err = run(
            capsys, "calibrate", "--length", "10", "--top", "0.5",
            "--attention", "0.5000000001",
        )
        assert rc == 4
        assert "analysis error" in err


class TestSimulate:
    def test_deterministic_outputs(self, ws, tmp_path, capsys):
        log2 = tmp_path / "log2.csv"
        rc, out, _ = run(
            capsys, "simulate", "--config", str(ws["cfg"]), "--out", str(log2)
        )
        assert rc == 0
        assert re.search(r"wrote \d+ sessions \(\d+ tweets\)", out)
        assert digest(log2) == digest(ws["log"])

    def test_seed_changes_output(self, ws, tmp_path, capsys):
        log2 = tmp_path / "log2.csv"
        rc, _, _ = run(
            capsys, "simulate", "--config", str(ws["cfg"]), "--seed", "8",
            "--out", str(log2),
        )
        assert rc == 0
        assert digest(log2) != digest(ws["log"])

    def test_expected_session_count(self, ws):
        with ws["log"].open() as fh:
            ids = {row["session_id"] for row in csv.DictReader(fh)}
        # 4 groups x 2 monitors x 2 sessions/day x 2 days
        assert len(ids) == 32


class TestIngest:
    def test_summary_line(self, ws, capsys):
        rc, out, _ = run(capsys, "ingest", "--input", str(ws["log"]))
        assert rc == 0
        assert re.search(r"sessions: 32 parsed, 32 valid, 0 filtered out, 0 skipped", out)

    def test_group_filter_counts(self, ws, capsys):
        rc, out, _ = run(capsys, "ingest", "--input", str(ws["log"]), "--group", "neutral")
        assert rc == 0
        assert "sessions: 32 parsed, 8 valid, 24 filtered out, 0 skipped" in out

    def test_strict_fails_on_bad_session(self, ws, tmp_path, capsys):
        lines = ws["log"].read_text().splitlines()
        # widen a rank to break contiguity in one session
        target = lines[1].split(",")
        target[4] = "999"
        lines[1] = ",".join(target)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc, out, _ = run(capsys, "ingest", "--input", str(bad))
        assert rc == 0
        assert "1 skipped" in out
        rc, _, err = run(capsys, "ingest", "--input", str(bad), "--strict")
        assert rc == 3
        assert "data error" in err

    def test_missing_input(self, tmp_path, capsys):
        rc, _, err = run(capsys, "ingest", "--input", str(tmp_path / "nope.csv"))
        assert rc == 3
        assert "data error" in err


class TestStats:
    def test_text_output(self, ws, capsys):
        rc, out, _ = run(capsys, "stats", "--input", str(ws["log"]))
        assert rc == 0
        for group in ("neutral", "left", "right", "balanced"):
            assert group in out
        assert "oon=100.00%" in out  # neutral follows nothing

    def test_csv_output(self, ws, tmp_path, capsys):
        path = tmp_path / "stats.csv"
        rc, _, _ = run(capsys, "stats", "--input", str(ws["log"]), "--out", str(path))
        assert rc == 0
        rows = list(csv.DictReader(path.open()))
        assert [r["group"] for r in rows] == ["neutral", "left", "right", "balanced"]
        assert all(r["monitors"] == "2" for r in rows)


class TestConfigHandling:
    def test_unknown_key_rejected(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"bogus": 1}')
        rc, _, err = run(
            capsys, "gini", "--input", str(ws["log"]), "--config", str(cfg)
        )
        assert rc == 2
        assert "bogus" in err

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"analysis": {"alpha": 0.05}}')
        with pytest.raises(Exception) as err:
            load_config(str(cfg))
        assert "alpha" in str(err.value)

    def test_invalid_json(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{nope")
        rc, _, err = run(
            capsys, "gini", "--input", str(ws["log"]), "--config", str(cfg)
        )
        assert rc == 2

    def test_cli_flags_override_config(self):
        class Args:
            scope = "all"
            attribution = "displayed"

        opts = analysis_options({"analysis": {"scope": "out-of-network"}}, Args())
        assert opts["scope"] == "all"
        assert opts["attribution"] == "displayed"

    def test_defaults_without_args(self):
        opts = analysis_options({})
        assert opts["scope"] == "out-of-network"
        assert opts["attribution"] == "original"
        assert opts["top"] == 50

    @pytest.mark.parametrize(
        "section, code",
        [
            ({"analysis": {"top": "5"}}, 2),
            ({"analysis": {"top": 5.0}}, 2),
            ({"analysis": {"lorenz_grid": "x"}}, 2),
            ({"analysis": {"alpha_amplify": "0.05"}}, 2),
            ({"analysis": {"include_promoted": "no"}}, 2),
            ({"analysis": {"lean_threshold": 0}}, 2),
            ({"analysis": {"lean_threshold": 1}}, 2),
            ({"decay": {"top_fraction": "0.2"}}, 2),
            ({"decay": {"amplitude": 1}}, 0),
            ({"decay": {"amplitude": None}}, 0),
        ],
    )
    def test_option_value_types(self, ws, tmp_path, capsys, section, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section))
        rc, _, err = run(
            capsys, "report", "--input", str(ws["log"]), "--config", str(cfg),
            "--out-dir", str(tmp_path / "out"),
        )
        assert rc == code, err
        if code:
            key = next(iter(next(iter(section.values()))))
            assert key in err

    @pytest.mark.parametrize(
        "section",
        [
            {"fleet": {"duration_days": 1.5}},
            {"fleet": {"sessions_per_day": 2.0}},
            {"ranker": {"seed": "1"}},
            {"world": {"n_authors": "90"}},
        ],
    )
    def test_simulation_value_types(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section))
        out = tmp_path / "out"
        rc, _, err = run(capsys, "pipeline", "--config", str(cfg), "--out-dir", str(out))
        assert rc == 2, err
        name, values = next(iter(section.items()))
        assert f"{name}.{next(iter(values))}" in err
        assert not (out / "sessions.csv").exists()


class TestGini:
    def test_happy_path(self, ws, tmp_path, capsys):
        path = tmp_path / "gini.csv"
        rc, out, _ = run(
            capsys, "gini", "--input", str(ws["log"]), "--out", str(path)
        )
        assert rc == 0
        assert out.count(" vs ") == 6  # all group pairs
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 8  # 4 groups x 2 monitors
        assert set(rows[0]) == {"group", "monitor_id", "gini"}
        assert all(0.0 <= float(r["gini"]) <= 1.0 for r in rows)

    def test_alpha_flag(self, ws, capsys):
        # every pairwise p on this corpus is 2/3, so 0.9 stars all and 1e-9 none
        rc, out, _ = run(capsys, "gini", "--input", str(ws["log"]), "--alpha", "0.9")
        assert rc == 0
        comparisons = [l for l in out.splitlines() if " vs " in l]
        assert len(comparisons) == 6 and all("*" in l for l in comparisons)
        rc, out, _ = run(capsys, "gini", "--input", str(ws["log"]), "--alpha", "1e-9")
        assert rc == 0
        assert not any("*" in l for l in out.splitlines() if " vs " in l)


class TestLorenz:
    def test_rows_per_group(self, ws, tmp_path, capsys):
        path = tmp_path / "lorenz.csv"
        rc, _, _ = run(
            capsys, "lorenz", "--input", str(ws["log"]), "--out", str(path)
        )
        assert rc == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 4 * 100  # groups x default grid
        last = rows[99]
        assert float(last["population_share"]) == 1.0
        assert float(last["exposure_share_mean"]) == 1.0

    def test_out_is_required(self, ws):
        with pytest.raises(SystemExit) as err:
            main(["lorenz", "--input", str(ws["log"])])
        assert err.value.code == 2


class TestTopk:
    def test_happy_path(self, ws, tmp_path, capsys):
        path = tmp_path / "topk.csv"
        rc, out, _ = run(
            capsys, "topk", "--input", str(ws["log"]), "--target-group", "right",
            "-k", "5", "--authors", str(ws["authors"]), "--out", str(path),
        )
        assert rc == 0
        assert "exposure share, left-leaning authors" in out
        assert "exposure share, right-leaning authors" in out
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 5
        exposures = [float(r["mean_exposure"]) for r in rows]
        assert exposures == sorted(exposures, reverse=True)
        assert set(rows[0]) == {"group", "author_id", "mean_exposure", "lean_label"}

    def test_attribution_flag_switches_author(self, tmp_path, capsys):
        recs = [
            session(
                f"s{i}",
                "m1",
                [entry(1, "orig", displayed="surfacer", rt=True)]
                + [entry(r, "filler") for r in range(2, 7)],
                group="left",
            )
            for i in range(2)
        ]
        log = tmp_path / "crafted.csv"
        write_sessions(recs, log)
        rc, out, _ = run(
            capsys, "topk", "--input", str(log), "--target-group", "left"
        )
        assert rc == 0 and "orig" in out and "surfacer" not in out
        rc, out, _ = run(
            capsys, "topk", "--input", str(log), "--target-group", "left",
            "--attribution", "displayed",
        )
        assert rc == 0 and "surfacer" in out and "orig" not in out

    def test_scope_flag_includes_in_network(self, tmp_path, capsys):
        recs = [
            session(
                f"s{i}",
                "m1",
                [entry(1, "innet", in_net=True)]
                + [entry(r, "oon") for r in range(2, 7)],
                group="left",
            )
            for i in range(2)
        ]
        log = tmp_path / "crafted.csv"
        write_sessions(recs, log)
        rc, out, _ = run(capsys, "topk", "--input", str(log), "--target-group", "left")
        assert rc == 0 and "innet" not in out
        rc, out, _ = run(
            capsys, "topk", "--input", str(log), "--target-group", "left",
            "--scope", "all",
        )
        assert rc == 0
        assert out.splitlines()[0].split()[0] == "innet"  # rank 1 beats deeper ranks


class TestAmplify:
    HEADER = "author_id,lean_label,mean_E_group,mean_E_balanced,ratio_pct,U,p,significant"

    def test_csv_schema(self, ws, tmp_path, capsys):
        path = tmp_path / "amp.csv"
        rc, out, _ = run(
            capsys, "amplify", "--input", str(ws["log"]), "--partisan", "right",
            "--authors", str(ws["authors"]), "--out", str(path),
        )
        assert rc == 0
        assert "right vs balanced" in out
        assert path.read_text().splitlines()[0] == self.HEADER

    def test_top_and_all_flags(self, ws, tmp_path, capsys):
        small, full = tmp_path / "small.csv", tmp_path / "full.csv"
        rc, _, _ = run(
            capsys, "amplify", "--input", str(ws["log"]), "--partisan", "left",
            "-k", "3", "--out", str(small),
        )
        assert rc == 0
        rc, _, _ = run(
            capsys, "amplify", "--input", str(ws["log"]), "--partisan", "left",
            "--all", "--out", str(full),
        )
        assert rc == 0
        n_small = len(list(csv.DictReader(small.open())))
        n_full = len(list(csv.DictReader(full.open())))
        assert n_small == 3
        assert n_full > 50  # every observed author, beyond the default cap

    def test_alpha_flag(self, ws, tmp_path, capsys):
        # top-5 p-values on this corpus are {1/3, 2/3, 1}: alpha=0.5 flags
        # exactly the two fully separated authors, alpha=1e-9 flags none
        path = tmp_path / "amp.csv"
        rc, _, _ = run(
            capsys, "amplify", "--input", str(ws["log"]), "--partisan", "left",
            "--alpha", "0.5", "-k", "5", "--out", str(path),
        )
        assert rc == 0
        rows = list(csv.DictReader(path.open()))
        assert sum(r["significant"] == "true" for r in rows) == 2
        rc, _, _ = run(
            capsys, "amplify", "--input", str(ws["log"]), "--partisan", "left",
            "--alpha", "1e-9", "-k", "5", "--out", str(path),
        )
        assert rc == 0
        assert all(r["significant"] == "false" for r in csv.DictReader(path.open()))

    def test_missing_baseline_group(self, tmp_path, capsys):
        recs = [
            session("s1", "m1", [entry(r, f"a{r}") for r in range(1, 7)], group="left")
        ]
        log = tmp_path / "left_only.csv"
        write_sessions(recs, log)
        rc, _, err = run(capsys, "amplify", "--input", str(log), "--partisan", "left")
        assert rc == 3
        assert "balanced" in err


PIPELINE_ARTIFACTS = {
    "sessions.csv",
    "authors.csv",
    "stats.csv",
    "gini_monitors.csv",
    "gini_pairwise.csv",
    "lorenz.csv",
    "topk.csv",
    "amplify_left.csv",
    "amplify_right.csv",
    "summary.json",
    "manifest.json",
}


class TestPipeline:
    def test_artifacts_and_manifest(self, ws, tmp_path, capsys):
        out = tmp_path / "run"
        rc, text, _ = run(
            capsys, "pipeline", "--config", str(ws["cfg"]), "--out-dir", str(out)
        )
        assert rc == 0
        assert "pipeline complete" in text
        assert {p.name for p in out.iterdir()} == PIPELINE_ARTIFACTS
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["sessions"] == 32
        assert manifest["artifacts"] == sorted(PIPELINE_ARTIFACTS)
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["gini_median"]) == {"neutral", "left", "right", "balanced"}
        assert "magnitude_left_vs_right" in summary

    def test_rerun_byte_identical(self, ws, tmp_path, capsys):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            rc, _, _ = run(
                capsys, "pipeline", "--config", str(ws["cfg"]), "--out-dir", str(d)
            )
            assert rc == 0
        for name in PIPELINE_ARTIFACTS:
            assert digest(d1 / name) == digest(d2 / name), name

    def test_report_on_existing_log(self, ws, tmp_path, capsys):
        out = tmp_path / "rep"
        rc, _, _ = run(
            capsys, "report", "--input", str(ws["log"]),
            "--authors", str(ws["authors"]), "--out-dir", str(out),
        )
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert names == PIPELINE_ARTIFACTS - {"sessions.csv", "authors.csv"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["source"] == str(ws["log"])
        assert manifest["ingest"] == {"total": 32, "filtered": 0, "skipped": 0}

    def test_report_on_single_group_log(self, ws, tmp_path, capsys):
        with ws["log"].open(newline="") as fh:
            rows = list(csv.reader(fh))
        log = tmp_path / "left.csv"
        with log.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [rows[0], *(r for r in rows[1:] if r[2] == "left")]
            )
        out = tmp_path / "rep"
        rc, _, err = run(capsys, "report", "--input", str(log), "--out-dir", str(out))
        assert rc == 0, err
        assert (out / "gini_pairwise.csv").read_text() == (
            "group_a,group_b,u_statistic,pvalue,significant,method\n"
        )
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["gini_median"]) == ["left"]

    def test_rejected_log_writes_no_artifact(self, tmp_path, capsys):
        # Two one- and two-tweet sessions are too short to calibrate a
        # decay model, which fails after the log has been read.
        recs = [
            session("s1", "m1", [entry(1, "a\rb"), entry(2, "c")], group="left"),
            session("s2", "m1", [entry(1, "c")], group="left"),
        ]
        log = tmp_path / "cr.csv"
        write_sessions(recs, log)
        out = tmp_path / "cr-report"
        rc, _, err = run(capsys, "report", "--input", str(log), "--out-dir", str(out))
        assert rc == 3
        assert "mean 2" in err
        assert list(out.iterdir()) == []

    def test_failed_pipeline_writes_no_artifact(self, tmp_path, capsys):
        # One monitor per group simulates and analyzes, but the Gini
        # comparison needs two per group; that used to fail after the log,
        # the roster and stats.csv were written.
        cfg = tmp_path / "one-monitor.json"
        cfg.write_text(json.dumps({"fleet": {"monitors_per_group": 1, "duration_days": 1}}))
        out = tmp_path / "run"
        rc, _, err = run(capsys, "pipeline", "--seed", "7", "--config", str(cfg), "--out-dir", str(out))
        assert rc == 3
        assert err == "data error: group neutral has 1 monitor(s); need at least 2\n"
        assert list(out.iterdir()) == []

    def test_authors_without_input_rejected(self, ws, tmp_path, capsys):
        out = tmp_path / "run"
        rc, _, err = run(
            capsys, "pipeline", "--config", str(ws["cfg"]), "--authors", str(ws["authors"]),
            "--out-dir", str(out),
        )
        assert rc == 2
        assert "--input" in err
        assert not out.exists()

    def test_subcommands_match_artifacts(self, ws, tmp_path, capsys):
        piped = tmp_path / "piped"
        rc, _, _ = run(
            capsys, "pipeline", "--config", str(ws["cfg"]), "--out-dir", str(piped)
        )
        assert rc == 0
        log, authors = str(piped / "sessions.csv"), str(piped / "authors.csv")
        sub = tmp_path / "sub"
        sub.mkdir()
        commands = {
            "stats.csv": ["stats"],
            "gini_monitors.csv": ["gini"],
            "lorenz.csv": ["lorenz"],
            "amplify_left.csv": ["amplify", "--partisan", "left", "--authors", authors],
            "amplify_right.csv": ["amplify", "--partisan", "right", "--authors", authors],
        }
        for name, argv in commands.items():
            rc, _, _ = run(capsys, *argv, "--input", log, "--out", str(sub / name))
            assert rc == 0, name
            assert (sub / name).read_bytes() == (piped / name).read_bytes(), name
        # topk.csv is the per-group top-50 tables in GROUP_ORDER under one header.
        lines: list[bytes] = []
        for group in GROUP_ORDER:
            path = sub / f"topk_{group.value}.csv"
            rc, _, _ = run(
                capsys, "topk", "--input", log, "--authors", authors,
                "--target-group", group.value, "-k", "50", "--out", str(path),
            )
            assert rc == 0, group
            rows = path.read_bytes().splitlines(keepends=True)
            lines.extend(rows if not lines else rows[1:])
        assert b"".join(lines) == (piped / "topk.csv").read_bytes()

    def test_pipeline_matches_report_on_own_log(self, ws, tmp_path, capsys):
        piped = tmp_path / "piped"
        rc, _, _ = run(
            capsys, "pipeline", "--config", str(ws["cfg"]), "--out-dir", str(piped)
        )
        assert rc == 0
        rep = tmp_path / "rep"
        rc, _, _ = run(
            capsys, "report", "--input", str(piped / "sessions.csv"),
            "--authors", str(piped / "authors.csv"), "--out-dir", str(rep),
        )
        assert rc == 0
        for name in PIPELINE_ARTIFACTS - {"sessions.csv", "authors.csv", "manifest.json"}:
            assert digest(piped / name) == digest(rep / name), name


class TestBrokenPipe:
    def test_closed_stdout_exits_1_without_traceback(self, ws, tmp_path, capsys):
        # The reader closes the pipe after the first line, as `| head -1`
        # does; the child's later writes to it fail.
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        argv = ["amplify", "--input", str(ws["log"]), "--authors", str(ws["authors"]),
                "--partisan", "right", "--all", "--out"]
        assert run(capsys, *argv, str(want))[0] == 0
        src = str(Path(feedaudit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for _ in range(3):
            # unbuffered, so that the first line arrives before the rest;
            # exit 0 means every write came before the close, so try again
            child = subprocess.Popen(
                [sys.executable, "-u", "-m", "feedaudit", *argv, str(got)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            child.stderr.close()
            rc = child.wait(timeout=120)
            if rc:
                break
        assert first.startswith(b"right vs balanced: ")
        assert (rc, err) == (1, b"")
        assert got.read_bytes() == want.read_bytes()


class TestParserBasics:
    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_report_rejects_seed(self, ws, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["report", "--input", str(ws["log"]), "--out-dir", str(tmp_path), "--seed", "1"])
        assert err.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "feedaudit" in capsys.readouterr().out
