"""Tolerances and ladder parameters shared across the pipeline.

Precedence when running from the CLI: command-line flags override problem
file ``options``, which override these defaults.  The sampling seed comes
from the SIPCERT_SEED environment variable so reports stay reproducible.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

__all__ = ["Options", "OptionError", "resolve_seed", "OPTION_KEYS"]


class OptionError(ValueError):
    """An option value outside its valid range; ``key`` names the field."""

    def __init__(self, key, message):
        super().__init__(f"{key} {message}")
        self.key = key
        self.message = message


def _nonnegative(v):
    return math.isfinite(v) and v >= 0


def _positive(v):
    return math.isfinite(v) and v > 0


# the valid range of every field, checked whenever an Options is built
_RANGES = {
    "tol": (_nonnegative, "must be finite and >= 0"),
    "tol_lp": (_nonnegative, "must be finite and >= 0"),
    "tol_feas": (_nonnegative, "must be finite and >= 0"),
    "tol_hull": (_nonnegative, "must be finite and >= 0"),
    "tol_kink": (_nonnegative, "must be finite and >= 0"),
    "eps0": (_positive, "must be finite and > 0"),
    "shrink": (lambda v: 0 < v < 1, "must lie strictly between 0 and 1"),
    "max_steps": (lambda v: v >= 0, "must be >= 0"),
    "refine_depth": (lambda v: v >= 0, "must be >= 0"),
    "k_max": (lambda v: v >= 1, "must be >= 1"),
    "lipschitz_radius": (_positive, "must be finite and > 0"),
    "lipschitz_samples": (lambda v: v >= 1, "must be >= 1"),
}


@dataclass(frozen=True)
class Options:
    tol: float = 1e-8  # certificate residual / membership tolerance
    # acceptance checks on LP results, not a simplex tolerance (that is the
    # fixed lp._TOL): PolyhedralFamily.determination's settling window,
    # cone_interior_nonempty's margin threshold and caratheodory_reduce's
    # representation check
    tol_lp: float = 1e-9
    tol_feas: float = 1e-9  # constraint feasibility tolerance
    tol_hull: float = 1e-7  # ladder stabilization threshold
    tol_kink: float = 1e-12  # abs/min/max tie tolerance for gradients
    eps0: float = 1e-2  # first rung of the near-active ladder
    shrink: float = 0.5  # geometric ladder shrink factor
    max_steps: int = 20
    refine_depth: int = 8  # bisection levels per axis around near-active cells
    # no computation reads it: setting it in a problem file only adds the
    # truncation note to the report's assumptions
    k_max: int = 10
    lipschitz_radius: float = 0.1
    lipschitz_samples: int = 32

    def __post_init__(self):
        for key, (valid, message) in _RANGES.items():
            if not valid(getattr(self, key)):
                raise OptionError(key, message)

    def replace(self, **kwargs) -> "Options":
        known = {k: v for k, v in kwargs.items() if v is not None}
        return dataclasses.replace(self, **known) if known else self


OPTION_KEYS = tuple(f.name for f in dataclasses.fields(Options))


def resolve_seed() -> int:
    """The sampling seed from SIPCERT_SEED (0 when unset).

    A value that is not an integer >= 0 is an :class:`OptionError` at
    ``SIPCERT_SEED``.
    """
    raw = os.environ.get("SIPCERT_SEED", "0")
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise OptionError("SIPCERT_SEED", f"must be an integer >= 0, not {raw!r}")
