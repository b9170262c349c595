"""Smoke tests: each script in scripts/ runs on small inputs and prints its table."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sipcert
from sipcert.fixtures import fixture_names, fixture_path

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


def test_ladder_trace():
    lines = run_script("ladder_trace.py", fixture_path("sip_trig"), "0.01")
    assert lines[0].startswith("eps0 = 0.01: stopped_by=")
    assert lines[1].startswith("  rung 0: eps=0.01")
    assert lines[-1].startswith("  final hull:")


def test_ladder_trace_checks_eps0():
    # the same range check as sipcert certify --eps0
    lines = run_script("ladder_trace.py", fixture_path("sip_trig"), "0.1", "-1", code=4)
    assert lines == ["error (input): eps0: must be finite and > 0"]


def test_ladder_trace_rejects_a_non_number():
    lines = run_script("ladder_trace.py", fixture_path("sip_trig"), "abc", code=4)
    assert lines == ["error (input): eps0: not a number: 'abc'"]


def test_report_snapshot(tmp_path):
    # fixtures only: one line per (fixture, command), each report without timings
    out = tmp_path / "snapshot.txt"
    assert run_script("report_snapshot.py", str(out)) == []
    lines = out.read_text().splitlines()
    assert len(lines) == 3 * len(fixture_names())
    source, name, command, code, report = lines[0].split(" ", 4)
    assert (source, name, command, code) == ("fixture", "near_active", "certify", "0")
    assert json.loads(report)["verdict"] == "KKT"
    assert all('"timings"' not in line for line in lines)
    again = tmp_path / "again.txt"
    run_script("report_snapshot.py", str(again))
    assert again.read_bytes() == out.read_bytes()


def test_cone_audit():
    lines = run_script("cone_audit.py", "3", "3", "100")
    assert len(lines) == 4
    assert lines[0].startswith("cone   0 (m=")
    assert lines[-1] == "0 violations over 3 cones"


def test_certify_fixtures():
    lines = run_script("certify_fixtures.py")
    assert lines[0].split() == ["fixture", "verdict", "exit", "residual"]
    rows = {line.split()[0]: line.split()[1:3] for line in lines[1:]}
    assert rows["sip_linear"] == ["KKT", "0"]
    assert rows["strict_active"] == ["NoCertificate", "2"]
    assert len(rows) == 10
