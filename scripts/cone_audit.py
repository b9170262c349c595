#!/usr/bin/env python3
"""Audit the cone-interior LP against direction sampling on random cones.

    python scripts/cone_audit.py [n_cones] [dimension] [n_directions]

Prints one line per cone with the LP margin and the best sampled margin;
any sound-ness violation (false nonempty, or empty with a clearly interior
sampled direction) is flagged.  The cones and the rules are those of
`sipcert selftest`'s cone check.  A count that is not an integer >= 1, or
a SIPCERT_SEED that is not an integer >= 0, is an input error (exit 4).
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's sipcert

from sipcert.options import OptionError, resolve_seed  # noqa: E402
from sipcert.selftest import cone_trials  # noqa: E402


def _count(argv, i, name, default):
    if len(argv) <= i:
        return default
    try:
        if int(argv[i]) >= 1:
            return int(argv[i])
    except ValueError:
        pass
    raise OptionError(name, f"must be an integer >= 1, not {argv[i]!r}")


def main(argv):
    try:
        n_cones = _count(argv, 1, "n_cones", 25)
        dim = _count(argv, 2, "dimension", 3)
        n_dirs = _count(argv, 3, "n_directions", 10_000)
        rng = np.random.default_rng(resolve_seed())
    except OptionError as err:
        print(f"error (input): {err.key}: {err.message}")
        return 4
    violations = 0
    trials = cone_trials(rng, cones=n_cones, directions=n_dirs, dim=dim)
    for i, (m, result, sampled, violation) in enumerate(trials):
        violations += bool(violation)
        flag = f"  <-- {violation.upper()}" if violation else ""
        print(
            f"cone {i:>3} (m={m}): lp_margin={result.margin:< .3e} "
            f"sampled={sampled:< .3e} nonempty={result.nonempty}{flag}"
        )
    print(f"{violations} violations over {n_cones} cones")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
