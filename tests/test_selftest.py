"""The simplex-grid hull oracle of the check library: closed forms, and the check's teeth."""

import dataclasses

import numpy as np
import pytest

from sipcert import model, selftest
from sipcert.geometry import hull_member
from sipcert.options import Options
from sipcert.selftest import grid_hull_residual, simplex_grid

GENERATORS = {
    2: [[0.0, 0.0], [1.0, 0.0]],
    3: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    4: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_zero_at_every_generator(k):
    gens = np.array(GENERATORS[k]) * 0.7 - 0.2
    for g in gens:
        assert grid_hull_residual(g, gens, simplex_grid(k, 40)) == 0.0


@pytest.mark.parametrize(
    "k, target, distance",
    [
        (2, [0.5, 0.3], 0.3),  # above the segment's midpoint
        (2, [1.25, -0.5], 0.5),  # beyond an end: max(0.25, 0.5)
        (3, [1.0, 1.0], 0.5),  # off the hypotenuse, nearest (0.5, 0.5)
        (3, [-0.25, 0.5], 0.25),  # left of the leg x1 = 0
        (4, [2.0, 0.5], 1.0),  # right of the unit square, nearest (1, 0.5)
    ],
)
def test_known_distance_off_the_hull(k, target, distance):
    assert grid_hull_residual(target, GENERATORS[k], simplex_grid(k, 40)) == distance


@pytest.mark.parametrize(
    "broken",
    [
        {"member": False},  # never a member
        {"member": True, "distance": 0.0},  # everything is a member
        {"distance": "scaled"},  # the right verdict at half the distance
    ],
)
def test_hull_check_fails_a_wrong_oracle(broken, monkeypatch):
    def wrong(target, hull, tol):
        right = hull_member(target, hull, tol)
        change = {**broken}
        if change.get("distance") == "scaled":
            change["distance"] = right.distance / 2
        return dataclasses.replace(right, **change)

    rng = np.random.default_rng(0)
    monkeypatch.setattr(selftest, "hull_member", wrong)
    ok, detail = selftest.check_hull_oracle(Options(), rng, instances=10, generators=3, steps=40)
    assert not ok, detail


def test_hull_check_decides_inside_points():
    rng = np.random.default_rng(0)
    ok, detail = selftest.check_hull_oracle(Options(), rng, instances=10, generators=3, steps=40)
    assert ok, detail
    members = int(detail.split("(")[1].split()[0])
    assert members >= 10  # every inside target, and any outside one that hits the hull


def test_sip_trig_check_sees_a_scan_that_drops_a_grid_point(monkeypatch):
    # every grid point is active at x = 0; a scan that loses one leaves a
    # final hull that misses (cos t, sin t) there, which only a reference
    # other than the scan itself, compared both ways, can see
    init = model.FamilyScan.__init__

    def drop_one_row(scan, *args, **kwargs):
        init(scan, *args, **kwargs)
        keep = np.ones(scan.gates.size, dtype=bool)
        keep[scan.rows.size // 3] = False
        scan.rows = scan.rows[keep[: scan.rows.size]]
        scan.gates, scan.values, scan.grads = scan.gates[keep], scan.values[keep], scan.grads[keep]
        scan.candidates = np.arange(scan.gates.size)

    ok, detail = selftest.check_sip_trig(Options(), np.random.default_rng(0), grid=257)
    assert ok, detail
    monkeypatch.setattr(model.FamilyScan, "__init__", drop_one_row)
    ok, detail = selftest.check_sip_trig(Options(), np.random.default_rng(0), grid=257)
    assert not ok, detail
