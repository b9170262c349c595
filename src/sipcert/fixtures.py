"""Bundled fixture problems: the ground-truth corpus exercised by selftest.

Each fixture is a problem file under ``sipcert/fixtures``; the countable
inequality family {x2 + 1/k : k <= 10} of the first counterexample is
represented as the parametric window h = x2 + t1 on the 10-point uniform
grid over [0.1, 1], plus the separately listed member phi0 = x1 (the union
family).  As h is linear in t1, the window has the same infimum and
gradients as the points t1 = 1/k.  The ``strict_active`` variant lists
the same members as a plain finite family, whose multiplier set collapses
to the strictly active hull -- the certificate is expected to fail there.
``sip_chebyshev`` is the best uniform approximation of t^5 by quartics
on [-1, 1] at its optimum, whose multipliers are known in closed form.
"""

from __future__ import annotations

from importlib.resources import files

from .problemfile import LoadedProblem, load_problem

__all__ = ["fixture_names", "fixture_path", "load_fixture"]

_NAMES = (
    "near_active",
    "strict_active",
    "sip_linear",
    "sip_trig",
    "sip_chebyshev",
    "eq_circle",
    "eq_duplicated_rows",
    "eq_orthant_line",
    "composed_parabola",
    "cone_orthant",
    "cone_hyperplane",
)


def fixture_names() -> tuple:
    return _NAMES


def fixture_path(name: str) -> str:
    if name not in _NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(_NAMES)}")
    return str(files("sipcert").joinpath("fixtures", f"{name}.json"))


def load_fixture(name: str) -> LoadedProblem:
    return load_problem(fixture_path(name))
