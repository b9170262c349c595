"""Smoke tests: scripts/report_snapshot.py runs on the fixtures and compares snapshots."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sipcert
from sipcert.fixtures import fixture_names

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, code=0):
    src = str(Path(sipcert.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "SIPCERT_SEED": "0"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == code, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("name, args, code", [("report_snapshot.py", ["--help"], 0)])
def test_scripts_import_their_own_tree(tmp_path, name, args, code):
    # no PYTHONPATH to this tree, and a sipcert on PYTHONPATH that fails to
    # import: a script that ran it, or an installed copy, would not exit cleanly
    (tmp_path / "sipcert").mkdir()
    (tmp_path / "sipcert" / "__init__.py").write_text("raise ImportError('not this tree')\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(tmp_path), "SIPCERT_SEED": "0"},
        cwd=tmp_path,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """report_snapshot.py over the fixtures only: one line per (fixture, command)."""
    out = tmp_path_factory.mktemp("snapshot") / "snapshot.txt"
    assert run_script("report_snapshot.py", str(out)) == []
    return out


def test_report_snapshot(snapshot, tmp_path):
    lines = snapshot.read_text().splitlines()
    assert len(lines) == 3 * len(fixture_names())
    source, name, command, code, report = lines[0].split(" ", 4)
    assert (source, name, command, code) == ("fixture", "near_active", "certify", "0")
    assert json.loads(report)["verdict"] == "KKT"
    # the wall time varies and is dropped; the work counts are deterministic and kept
    assert all('"total_s"' not in line for line in lines)
    assert json.loads(report)["timings"] == {"gap_lps": 0, "gap_rows": 0, "gap_pivots": 0, "refined_seeds": 1}
    again = tmp_path / "again.txt"
    run_script("report_snapshot.py", str(again))
    assert again.read_bytes() == snapshot.read_bytes()


def test_certify_fixtures(snapshot):
    # the verdict table over the corpus: each fixture's certify verdict and exit code
    rows = {}
    for line in snapshot.read_text().splitlines():
        _, name, command, code, report = line.split(" ", 4)
        if command == "certify":
            rows[name] = [json.loads(report).get("verdict", "error"), code]
    assert rows["sip_linear"] == ["KKT", "0"]
    assert rows["strict_active"] == ["NoCertificate", "2"]
    assert list(rows) == list(fixture_names())


def test_report_snapshot_compare(snapshot, tmp_path):
    assert run_script("report_snapshot.py", "--compare", str(snapshot), str(snapshot)) == [
        f"{3 * len(fixture_names())} lines: 0 differ beyond floats, 0 in floats only"
    ]
    head = "fixture demo certify 0"
    old = {"verdict": "KKT", "lambda": 0.5, "gap": 1, "rows": [{"t": [0.25], "k": 2}]}
    rounded = {**old, "lambda": 0.5 + 2**-52, "gap": 1.0 + 1e-15}

    def write(name, *reports):
        (tmp_path / name).write_text("".join(f"{head} {json.dumps(r)}\n" for r in reports))

    write("old.txt", old, old)
    write("rounded.txt", old, rounded)
    assert run_script("report_snapshot.py", "--compare", str(tmp_path / "old.txt"),
                      str(tmp_path / "rounded.txt")) == [
        "2 lines: 0 differ beyond floats, 1 in floats only",
        "  gap: max |diff| 1.11e-15 on 1 lines",
        "  lambda: max |diff| 2.22e-16 on 1 lines",
    ]
    for changed in ({**old, "verdict": "FJ"}, {**old, "rows": []},
                    {**old, "rows": [{"t": [0.25], "k": 3}]}, {**old, "gap": 2}):
        write("new.txt", old, changed)
        lines = run_script("report_snapshot.py", "--compare", str(tmp_path / "old.txt"),
                           str(tmp_path / "new.txt"), code=1)
        assert lines[0].startswith("fixture demo certify: ")
        assert lines[-1] == "2 lines: 1 differ beyond floats, 0 in floats only"
    (tmp_path / "new.txt").write_text(f"{head} {json.dumps(old)}\nfixture demo certify 2 {{}}\n")
    lines = run_script("report_snapshot.py", "--compare", str(tmp_path / "old.txt"),
                       str(tmp_path / "new.txt"), code=1)
    assert lines[0] == "fixture demo certify: fixture demo certify 0 != fixture demo certify 2"
