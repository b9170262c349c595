"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass.  The checks and their tolerances live in ``sipcert.selftest``, the
same functions `sipcert selftest` runs; this file sets the full sample
counts, the seeds, the grid and the time bounds.
"""

import time

import numpy as np

from sipcert import selftest as checks
from sipcert.fixtures import load_fixture
from sipcert.options import Options

OPTS = Options()
_PROPERTY_SECONDS = []


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else ""))
    return ok


def _all(*results):
    return all(ok for ok, _ in results), "; ".join(detail for _, detail in results)


def test_criterion_1_near_active_counterexample():
    started = time.perf_counter()
    ok, detail = _all(checks.check_near_active(OPTS, None), checks.check_strict_active(OPTS, None))
    elapsed = time.perf_counter() - started
    assert report(
        "criterion 1: near-active window counterexample",
        ok and elapsed < 0.1,
        f"{detail}, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_sip_closed_form():
    assert load_fixture("sip_linear").problem.family.index.base_grid == 1025
    started = time.perf_counter()
    ok, detail = checks.check_sip_linear(OPTS, None, grid=1025)
    elapsed = time.perf_counter() - started
    assert report(
        "criterion 2: SIP closed form at grid 1025",
        ok and elapsed < 1.0,
        f"{detail}, {elapsed:.2f} s",
    )


def test_criterion_3_equality_branches():
    ok, detail = _all(checks.check_circle(OPTS, None), checks.check_duprow(OPTS, None))
    assert report("criterion 3: equality branches", ok, detail)


def test_criterion_4_convex_set_clause():
    ok, detail = _all(checks.check_orthant_line(OPTS, None), checks.check_parabola(OPTS, None))
    assert report("criterion 4: convex-set multiplier clause", ok, detail)


# --- criterion 5: property suites ------------------------------------------


def _property(name, check, seed=None, **counts):
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    ok, detail = check(OPTS, rng, **counts)
    _PROPERTY_SECONDS.append(time.perf_counter() - started)
    assert report(name, ok, detail)


def test_criterion_5a_gradient_checks():
    _property(
        "criterion 5a: 200 gradient checks vs central differences",
        checks.check_gradients, 51, samples=200,
    )


def test_criterion_5b_hull_membership_oracle():
    _property(
        "criterion 5b: 100 hull membership instances vs dense grid oracle",
        checks.check_hull_oracle, 52, instances=100, generators=3, steps=200,
    )


def test_criterion_5c_ladder_nesting():
    _property(
        "criterion 5c: ladder nesting on fixtures and 50 random instances",
        checks.check_nesting, 53, samples=50,
    )


def test_criterion_5d_caratheodory():
    _property(
        "criterion 5d: caratheodory support and residual on 100 instances",
        checks.check_caratheodory, 54, samples=100,
    )


def test_criterion_5e_objective_scaling():
    _property("criterion 5e: objective-scaling invariance", checks.check_scaling)


def test_criterion_5_property_suite_runtime():
    total = sum(_PROPERTY_SECONDS)
    assert report(
        "criterion 5: property suites runtime",
        total < 30.0 and len(_PROPERTY_SECONDS) == 5,
        f"{total:.1f} s over {len(_PROPERTY_SECONDS)} suites",
    )


def test_criterion_6_cone_calculus():
    ok, detail = checks.check_cone_oracle(
        OPTS, np.random.default_rng(66), cones=50, directions=10_000
    )
    assert report("criterion 6: cone interior vs 10^4-direction sampling on 50 cones", ok, detail)
