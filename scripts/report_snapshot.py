#!/usr/bin/env python3
"""Write every report of sipcert on a fixed corpus, one line each, for a diff.

    python scripts/report_snapshot.py OUT [--bench-seed N ...]

Runs `certify`, `tcset` and `admissible` (each with --json) on the bundled
fixtures and, for every --bench-seed, on the instances of all benchmark
workloads at that seed.  The instances are generated by
`bench/instances.py` into a temporary directory, so nothing under `bench/`
changes.  SIPCERT_SEED is 7.  Each line of OUT is

    <source> <instance> <command> <exit code> <report without "timings">

so the snapshots of two source trees can be compared with `cmp`.  The
`timings` block is the only part of a report allowed to vary.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["SIPCERT_SEED"] = "7"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from sipcert import cli  # noqa: E402
from sipcert.fixtures import fixture_names, fixture_path  # noqa: E402
from sipcert.problemfile import emit_json  # noqa: E402

COMMANDS = ("certify", "tcset", "admissible")


def report_line(source, name, command, path, grid=None):
    argv = [command, path, "--json"] + ([] if grid is None else ["--grid", str(grid)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report = json.loads(out.getvalue())
    report.pop("timings", None)
    return f"{source} {name} {command} {code} {emit_json(report)}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="snapshot file to write")
    parser.add_argument("--bench-seed", type=int, action="append", default=[],
                        help="add the benchmark instances of this seed (repeatable)")
    args = parser.parse_args(argv)
    with open(args.out, "w") as sink:
        for name in fixture_names():
            for command in COMMANDS:
                sink.write(report_line("fixture", name, command, fixture_path(name)))
        if not args.bench_seed:
            return 0
        import instances

        with tempfile.TemporaryDirectory() as tmp:
            for seed, workload in itertools.product(args.bench_seed, instances.WORKLOADS):
                source = f"{workload}@{seed}"
                for inst in instances.build(workload, seed, Path(tmp) / source):
                    for command in COMMANDS:
                        sink.write(report_line(source, inst.name, command, inst.path, inst.grid))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
