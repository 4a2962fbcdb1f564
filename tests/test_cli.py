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

    @pytest.mark.parametrize(
        "argv, want",
        [
            (
                ["--length", "20", "--json"],
                '{\n  "length": 20,\n  "top_fraction": 0.2,\n  "attention_fraction": 0.7,\n'
                '  "amplitude": 1.34924,\n  "rate": 0.299538,\n  "residual": -1.11022e-16,\n'
                '  "visibility_rank_1": 1.0,\n  "visibility_rank_last": 0.00337546\n}\n',
            ),
            (
                ["--length", "20"],
                "p(r) = 1.34924 * exp(-0.299538 * r)  [length 20, top 0.2 of ranks "
                "carry 0.7 of attention, residual -1.11e-16]\n",
            ),
            (
                ["--length", "500", "--json"],
                '{\n  "length": 500,\n  "top_fraction": 0.2,\n  "attention_fraction": 0.7,\n'
                '  "amplitude": 1.01205,\n  "rate": 0.0119815,\n  "residual": 1.11022e-16,\n'
                '  "visibility_rank_1": 1.0,\n  "visibility_rank_last": 0.00253191\n}\n',
            ),
            (
                ["--length", "500"],
                "p(r) = 1.01205 * exp(-0.0119815 * r)  [length 500, top 0.2 of ranks "
                "carry 0.7 of attention, residual 1.11e-16]\n",
            ),
            (
                ["--length", "700", "--json"],
                '{\n  "length": 700,\n  "top_fraction": 0.2,\n  "attention_fraction": 0.7,\n'
                '  "amplitude": 1.00859,\n  "rate": 0.00855823,\n  "residual": -1.11022e-16,\n'
                '  "visibility_rank_1": 1.0,\n  "visibility_rank_last": 0.00252326\n}\n',
            ),
            (
                ["--length", "700"],
                "p(r) = 1.00859 * exp(-0.00855823 * r)  [length 700, top 0.2 of ranks "
                "carry 0.7 of attention, residual -1.11e-16]\n",
            ),
            (
                ["--length", "500", "--amplitude", "1.009", "--json"],
                '{\n  "length": 500,\n  "top_fraction": 0.2,\n  "attention_fraction": 0.7,\n'
                '  "amplitude": 1.009,\n  "rate": 0.0119815,\n  "residual": 1.11022e-16,\n'
                '  "visibility_rank_1": 0.996983,\n  "visibility_rank_last": 0.00252427\n}\n',
            ),
        ],
    )
    def test_exact_output(self, capsys, argv, want):
        # the only output that reads DecayModel.visibility, pinned to the
        # character
        rc, out, _ = run(capsys, "calibrate", *argv)
        assert rc == 0
        assert out == want

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

    def test_directory_input(self, tmp_path, capsys):
        rc, _, err = run(capsys, "ingest", "--input", str(tmp_path))
        assert rc == 3
        assert f"session log is not a file: {tmp_path}" in err
        assert "Traceback" not in err

    def test_directory_roster(self, ws, tmp_path, capsys):
        out = tmp_path / "out"
        rc, _, err = run(capsys, "report", "--input", str(ws["log"]), "--authors", str(tmp_path), "--out-dir", str(out))
        assert rc == 3
        assert f"author roster is not a file: {tmp_path}" in err
        assert not out.exists() or not any(out.iterdir())

    def test_repeated_roster_id(self, ws, tmp_path, capsys):
        roster = tmp_path / "authors.csv"
        header, first, *rest = ws["authors"].read_text().splitlines()
        roster.write_text("\n".join([header, first, *rest, first]) + "\n")
        out = tmp_path / "out"
        rc, _, err = run(capsys, "report", "--input", str(ws["log"]), "--authors", str(roster), "--out-dir", str(out))
        assert rc == 3
        assert f"repeated author id {first.split(',')[0]!r} [{roster}:{len(rest) + 3}]" in err
        assert "Traceback" not in err

    def test_unreadable_input(self, ws, monkeypatch, capsys):
        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "open", denied)
        rc, _, err = run(capsys, "ingest", "--input", str(ws["log"]))
        assert rc == 3
        assert f"cannot open session log {ws['log']}: Permission denied" in err

    def test_dev_null_is_an_empty_log(self, capsys):
        if not os.path.exists(os.devnull) or os.path.isfile(os.devnull):
            pytest.skip("no character device for the null file")
        rc, _, err = run(capsys, "ingest", "--input", os.devnull)
        assert rc == 3
        assert "session log is empty" in err

    def test_dev_null_is_an_empty_roster(self, ws, tmp_path, capsys):
        if not os.path.exists(os.devnull) or os.path.isfile(os.devnull):
            pytest.skip("no character device for the null file")
        out = tmp_path / "out"
        rc, _, err = run(capsys, "report", "--input", str(ws["log"]), "--authors", os.devnull, "--out-dir", str(out))
        assert rc == 3
        assert f"author roster is empty: {os.devnull}" in err


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

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_overflowing_ranker_weight(self, tmp_path, capsys, command):
        # exp(kappa * align) overflows float64 for kappa past about 710.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG, "ranker": {"alignment_strength": 1e6}}))
        out = tmp_path / "out"
        flag = "--out" if command == "simulate" else "--out-dir"
        rc, _, err = run(capsys, command, "--config", str(cfg), flag, str(out))
        assert rc == 2, err
        assert err.startswith("config error: monitor balanced-000: ")
        assert "alignment_strength=1000000.0" in err and "popularity_exponent=0.8" in err
        assert not out.exists() or list(out.iterdir()) == []


    @pytest.mark.parametrize(
        "argv, config, key",
        [
            (["simulate", "--seed", "-1"], {}, "seed"),
            (["pipeline", "--seed", "-1"], {}, "seed"),
            (["simulate"], {"seed": -5}, "seed"),
            (["pipeline"], {"world": {"seed": -5}}, "world.seed"),
            (["simulate"], {"ranker": {"seed": -5}}, "ranker.seed"),
        ],
    )
    def test_negative_seed(self, tmp_path, capsys, argv, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG, **config}))
        out = tmp_path / "out"
        flag = "--out" if argv[0] == "simulate" else "--out-dir"
        rc, _, err = run(capsys, *argv, "--config", str(cfg), flag, str(out))
        assert rc == 2, err
        assert err == f"config error: {key} must be >= 0, got {-1 if '-1' in argv else -5}\n"
        assert not out.exists() or list(out.iterdir()) == []

    def test_ranker_params_reject_a_negative_seed(self):
        with pytest.raises(feedaudit.ConfigError, match="seed must be >= 0, got -1"):
            feedaudit.RankerParams(seed=-1)


class TestOutputPaths:
    """An output path that cannot be written exits 3 with a data error
    naming it, before anything is simulated, analysed or written."""

    @pytest.mark.parametrize("command", ["pipeline", "report"])
    def test_out_dir_is_a_file(self, ws, tmp_path, capsys, command):
        target = tmp_path / "taken"
        target.write_text("keep")
        argv = [command, "--config", str(ws["cfg"]), "--out-dir", str(target)]
        if command == "report":
            argv += ["--input", str(ws["log"])]
        rc, _, err = run(capsys, *argv)
        assert rc == 3, err
        assert err == f"data error: cannot make output directory {target}: File exists\n"
        assert target.read_text() == "keep"

    @pytest.mark.parametrize("flag", ["--out", "--authors-out"])
    def test_simulate_out_is_a_directory(self, ws, tmp_path, capsys, flag):
        log, roster = tmp_path / "log.csv", tmp_path / "authors.csv"
        paths = {"--out": log, "--authors-out": roster, flag: tmp_path}
        rc, _, err = run(
            capsys, "simulate", "--config", str(ws["cfg"]), "--out", str(paths["--out"]),
            "--authors-out", str(paths["--authors-out"]),
        )
        assert rc == 3, err
        assert err == f"data error: output file is a directory: {tmp_path}\n"
        assert sorted(tmp_path.iterdir()) == []

    def test_out_in_no_directory(self, ws, tmp_path, capsys):
        path = tmp_path / "missing" / "log.csv"
        rc, _, err = run(capsys, "simulate", "--config", str(ws["cfg"]), "--out", str(path))
        assert rc == 3, err
        assert err == f"data error: no directory for output file: {path}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["amplify", "--partisan", "left"],
            ["gini"],
            ["topk", "--target-group", "left"],
            ["stats"],
            ["lorenz"],
        ],
    )
    def test_report_out_is_a_directory(self, ws, tmp_path, capsys, argv):
        rc, out, err = run(capsys, *argv, "--input", str(ws["log"]), "--out", str(tmp_path))
        assert rc == 3, err
        assert err == f"data error: output file is a directory: {tmp_path}\n"
        assert out == "" and sorted(tmp_path.iterdir()) == []


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

    def test_all_writes_every_observed_author_once(self, ws, tmp_path, capsys):
        # one row per distinct author in the left and balanced tables; an
        # author's table entry does not depend on the decay weights
        path = tmp_path / "amp.csv"
        rc, _, _ = run(capsys, "amplify", "--input", str(ws["log"]), "--partisan", "left", "--all", "--out", str(path))
        assert rc == 0
        monitors = {}
        for s in feedaudit.read_sessions(ws["log"]).sessions:
            if s.group.value in ("left", "balanced"):
                monitors.setdefault(s.monitor_id, []).append(s)
        model = feedaudit.calibrate(50)
        observed = set().union(*(feedaudit.build_exposure_table(m, model).entries for m in monitors.values()))
        written = [r["author_id"] for r in csv.DictReader(path.open())]
        assert len(written) == len(observed)
        assert set(written) == observed

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

    def test_all_without_out_of_network_authors(self, tmp_path, capsys):
        # left and balanced monitors are shown no out-of-network author:
        # --all tests none of them and writes the header alone, as the
        # default top does
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "fleet": {"duration_days": 1, "monitors_per_group": 2},
            "ranker": {"oon_mix": {"neutral": 1.0, "left": 0.0, "right": 0.5, "balanced": 0.0}},
        }))
        log = tmp_path / "log.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(log)]) == 0
        for flags in ((), ("--all",)):
            path = tmp_path / "amp.csv"
            rc, out, _ = run(capsys, "amplify", "--input", str(log), "--partisan", "left", *flags, "--out", str(path))
            assert rc == 0
            assert "left vs balanced: 0 authors" in out
            assert path.read_text() == self.HEADER + "\n"

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


class TestTableArrays:
    def test_commands_read_table_arrays(self, ws, tmp_path, capsys, monkeypatch):
        # Every command renders from the arrays of its exposure tables:
        # none reads a table's entries one author at a time.
        from feedaudit.metrics import _Entries

        def per_author(*args):
            raise AssertionError("a command read exposure table entries per author")

        for name in ("_lookup", "__iter__", "values", "items"):
            monkeypatch.setattr(_Entries, name, per_author)
        log, authors = str(ws["log"]), str(ws["authors"])
        for argv in (
            ("gini", "--input", log),
            ("lorenz", "--input", log, "--out", str(tmp_path / "lorenz.csv")),
            ("topk", "--input", log, "--target-group", "left", "--authors", authors),
            ("amplify", "--input", log, "--partisan", "left", "--authors", authors),
            ("amplify", "--input", log, "--partisan", "right", "--all"),
            ("report", "--input", log, "--authors", authors, "--out-dir", str(tmp_path / "rep")),
            ("pipeline", "--config", str(ws["cfg"]), "--out-dir", str(tmp_path / "run")),
        ):
            rc, _, err = run(capsys, *argv)
            assert rc == 0, (argv, err)


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

    def test_report_does_not_import_numpy_ma(self, ws, tmp_path):
        # numpy.ma takes about 14 ms to import. numpy 1.x imports it with
        # numpy itself; on numpy 2 only a call such as np.median does.
        code = (
            "import sys, numpy\n"
            "before = 'numpy.ma' in sys.modules\n"
            "from feedaudit.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(before, 'numpy.ma' in sys.modules)\n"
        )
        src = str(Path(feedaudit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", code, "report", "--input", str(ws["log"]),
             "--authors", str(ws["authors"]), "--out-dir", str(tmp_path / "rep")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        before, after = child.stdout.split()[-2:]
        assert after == "False" or before == "True"


class TestBrokenPipe:
    # The read end of the child's standard output is closed before the
    # child starts, so its first write fails, every time, as it would
    # under `| head -0`. A reader that closes after some lines, as
    # `| head -1` does, made the outcome depend on timing.
    @staticmethod
    def closed_stdout_child(argv):
        src = str(Path(feedaudit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            # unbuffered, so that the first print is the write that fails
            return subprocess.run(
                [sys.executable, "-u", "-m", "feedaudit", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)

    def test_closed_stdout_exits_1_without_traceback(self, ws, tmp_path, capsys):
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        argv = ["amplify", "--input", str(ws["log"]), "--authors", str(ws["authors"]),
                "--partisan", "right", "--all", "--out"]
        rc, out, _ = run(capsys, *argv, str(want))
        assert rc == 0
        assert out.startswith("right vs balanced: ") and out.endswith(f"wrote {want}\n")
        child = self.closed_stdout_child([*argv, str(got)])
        assert (child.returncode, child.stderr) == (1, b"")
        # The report is written before anything is printed.
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["gini"], ["topk", "--target-group", "left", "-k", "5", "--authors"]],
        ids=["gini", "topk"],
    )
    def test_closed_stdout_keeps_report(self, ws, tmp_path, capsys, argv):
        if argv[-1] == "--authors":
            argv = [*argv, str(ws["authors"])]
        argv = [*argv, "--input", str(ws["log"]), "--out"]
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        rc, out, _ = run(capsys, *argv, str(want))
        assert rc == 0 and out.count("\n") > 1 and out.endswith(f"wrote {want}\n")
        child = self.closed_stdout_child([*argv, str(got)])
        assert (child.returncode, child.stderr) == (1, b"")
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
