#!/usr/bin/env python3
"""Trace the near-active ladder of a problem file across a range of eps0.

Shows how the stabilized hull depends on where the ladder starts -- the
usual way to audit a certificate whose ladder did not converge.

    python scripts/ladder_trace.py problem.json [eps0 ...]

An invalid problem file or eps0 is an input error (exit 4), as in sipcert.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's sipcert

from sipcert.multipliers import tc_approx  # noqa: E402
from sipcert.problemfile import ProblemFileError, load_problem, resolve_options  # noqa: E402


def _number(text):
    try:
        return float(text)
    except ValueError:
        raise ProblemFileError(f"not a number: {text!r}", "eps0") from None


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    try:
        eps_values = [_number(v) for v in argv[2:]] or [1.0, 1e-1, 1e-2, 1e-3]
        loaded = load_problem(argv[1])
        runs = [resolve_options(loaded.options, {"eps0": ("eps0", eps0)}) for eps0 in eps_values]
    except ProblemFileError as err:
        print(f"error (input): {err}")
        return 4
    if loaded.candidate is None:
        print("the problem file needs a candidate point")
        return 2
    for opts in runs:
        tc = tc_approx(loaded.problem, loaded.candidate, opts, loaded.grid)
        print(f"eps0 = {opts.eps0:g}: stopped_by={tc.stopped_by} converged={tc.converged}")
        for rung, (eps, count, gap) in enumerate(tc.ladder_table()):
            gap_s = "-" if gap is None else format(gap, ".3g")
            print(f"  rung {rung}: eps={eps:<12.6g} generators={count:<6d} gap={gap_s}")
        print(f"  final hull: {len(tc.final)} generators")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
