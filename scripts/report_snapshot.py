#!/usr/bin/env python3
"""Write every report of sipcert on a fixed corpus, one line each, for a diff.

    python scripts/report_snapshot.py OUT [--bench-seed N ...]
    python scripts/report_snapshot.py --compare OLD NEW

Runs `certify`, `tcset` and `admissible` (each with --json) on the bundled
fixtures and, for every --bench-seed, on the instances of all benchmark
workloads at that seed.  The instances are generated by
`bench/instances.py` into a temporary directory, so nothing under `bench/`
changes.  SIPCERT_SEED is 7.  Each line of OUT is

    <source> <instance> <command> <exit code> <report without "timings.total_s">

so the snapshots of two source trees can be compared with `cmp`.  The
wall time `timings.total_s` is the only part of a report allowed to vary;
the work counts beside it (`gap_lps`, `support_lps`, ...) are
deterministic and stay in the line.

    python scripts/report_snapshot.py --compare OLD NEW

compares two snapshots line by line where `cmp` is too strict.  A line
differs beyond floats if its source, instance, command or exit code
differs, or a report field that is not a float: a string, a boolean, null,
an integer (floats with an integral value are written as integers, so they
count as integers here), a key or a list length.  Each such line is
printed.  Then, per report field (list indices folded into `[]`), the
largest absolute difference of its floats over the other lines and the
number of lines where they differ.  The exit code is 1 if any line differs
beyond floats, else 0.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

os.environ["SIPCERT_SEED"] = "7"
ROOT = Path(__file__).resolve().parents[1]
# this checkout's sipcert, ahead of any installed one; then bench/instances.py
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

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
    report.get("timings", {}).pop("total_s", None)
    return f"{source} {name} {command} {code} {emit_json(report)}\n"


def _float_diffs(old, new, path, diffs, mismatches):
    """Walk two parsed reports side by side; floats into ``diffs``, the rest must match."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            mismatches.append(f"{path or '<report>'}: keys {list(old)} != {list(new)}")
            return
        for key in old:
            _float_diffs(old[key], new[key], f"{path}.{key}" if path else key, diffs, mismatches)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            mismatches.append(f"{path}: {len(old)} items != {len(new)}")
            return
        for a, b in zip(old, new):
            _float_diffs(a, b, f"{path}[]", diffs, mismatches)
    elif _is_float(old) and _is_float(new) and (isinstance(old, float) or isinstance(new, float)):
        if old != new:
            diffs[path].append(abs(old - new))
    elif type(old) is not type(new) or old != new:
        mismatches.append(f"{path}: {old!r} != {new!r}")


def _is_float(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def compare(old_path, new_path, out=sys.stdout) -> int:
    """1 if two snapshots differ in more than floats, else 0; the differences are printed."""
    old_lines = Path(old_path).read_text().splitlines()
    new_lines = Path(new_path).read_text().splitlines()
    if len(old_lines) != len(new_lines):
        print(f"{len(old_lines)} lines != {len(new_lines)} lines", file=out)
        return 1
    diffs = defaultdict(list)
    differing, broken = 0, 0
    for old, new in zip(old_lines, new_lines):
        *old_head, old_report = old.split(" ", 4)
        *new_head, new_report = new.split(" ", 4)
        mismatches = []
        line_diffs = defaultdict(list)
        if old_head != new_head:
            mismatches.append(f"{' '.join(old_head)} != {' '.join(new_head)}")
        else:
            _float_diffs(json.loads(old_report), json.loads(new_report), "", line_diffs, mismatches)
        if mismatches:
            broken += 1
            print(f"{' '.join(old_head[:3])}: " + "; ".join(mismatches[:3]), file=out)
            continue
        differing += bool(line_diffs)
        for field, values in line_diffs.items():
            diffs[field].append(max(values))
    print(f"{len(old_lines)} lines: {broken} differ beyond floats, "
          f"{differing} in floats only", file=out)
    for field in sorted(diffs):
        print(f"  {field}: max |diff| {max(diffs[field]):.3g} on {len(diffs[field])} lines", file=out)
    return 1 if broken else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="snapshot file to write")
    parser.add_argument("--bench-seed", type=int, action="append", default=[],
                        help="add the benchmark instances of this seed (repeatable)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two snapshot files instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("OUT is required unless --compare is given")
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
