"""Tests of the benchmark itself: seeded generators, stated instance
properties, and checks that reject corrupted reports.

    python3 -m pytest bench -q
"""

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import instances  # noqa: E402
import tracing  # noqa: E402
from sipcert import cli  # noqa: E402


def _build(tmp_path, workload, seed):
    return instances.build(workload, seed, tmp_path / f"{workload}-{seed}")


def _run(inst):
    args = cli._build_parser().parse_args(inst.argv())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = getattr(cli, f"cmd_{inst.command}")(args)
    return code, json.loads(out.getvalue())


def _named(insts, name):
    return next(inst for inst in insts if inst.name == name)


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_generators_reproducible_from_seed(tmp_path, workload):
    first = _build(tmp_path / "a", workload, 3)
    again = _build(tmp_path / "b", workload, 3)
    other = _build(tmp_path / "c", workload, 4)
    texts = [Path(i.path).read_text() for i in first]
    assert texts == [Path(i.path).read_text() for i in again]
    generated = [i for i in first if str(tmp_path) in i.path]
    assert generated, "every workload has seeded instances"
    assert [Path(i.path).read_text() for i in generated] != [
        Path(i.path).read_text() for i in other if str(tmp_path) in i.path
    ]


@pytest.mark.parametrize("workload", ("sip-dense", "sip-ladder"))
def test_parametric_candidates_feasible_on_grid_with_intended_active_set(tmp_path, workload):
    for inst in _build(tmp_path, workload, 5):
        fam = inst.family
        points = fam.points()
        values = np.array([fam.value(inst.x, t) for t in points])
        assert values.min() >= -1e-12, inst.name
        active = np.abs(values) <= 1e-12
        if workload == "sip-dense":  # the whole index set is active
            assert active.all(), inst.name
        else:  # exactly one active grid point, the candidate's t*
            assert active.sum() == 1, inst.name
            t_star = points[active][0]
            assert np.allclose(fam.grad(inst.x, t_star) @ inst.x, -1.0)


def test_finite_instances_active_members_are_exactly_the_intended_ones(tmp_path):
    for inst in _build(tmp_path, "finite-mixed", 5):
        for tag, (value, _) in inst.members.items():
            if tag in inst.active:
                assert abs(value) <= 1e-12, (inst.name, tag)
            else:  # inactive members sit above the first ladder rung
                assert value >= 0.05 - 1e-12, (inst.name, tag)


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_every_instance_passes_its_check(tmp_path, workload):
    for inst in _build(tmp_path, workload, 6):
        if inst.command == "admissible":
            inst.reference.update(checks.admissible_reference(inst))
        code, report = _run(inst)
        checks.check(inst, code, report)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    picked = {}
    for workload, names in (
        ("finite-mixed", ("finite-p5", "composed-p3", "equality-p6", "eq-vertex-p4")),
        ("sip-dense", ("stick-p3-a", "circle-fj-a")),
        ("sip-ladder", ("circle-0",)),
        ("admissible", ("polytope-m100", "cone-solid", "sip_linear")),
    ):
        insts = instances.build(workload, 8, tmp / workload)
        for name in names:
            inst = _named(insts, name)
            if inst.command == "admissible":
                inst.reference.update(checks.admissible_reference(inst))
            picked[name] = (inst, *_run(inst))
    return picked


def _rejects(reports, name, corrupt):
    inst, code, report = reports[name]
    checks.check(inst, code, report)
    bad = copy.deepcopy(report)
    corrupt(bad)
    with pytest.raises(checks.CheckError):
        checks.check(inst, code, bad)


def _shift_lambda(report, key="certificate"):
    report[key]["lambda"] += 1e-3
    report[key]["beta"] -= 1e-3


@pytest.mark.parametrize("name", ("finite-p5", "composed-p3", "stick-p3-a", "circle-0"))
def test_check_rejects_shifted_lambda(reports, name):
    _rejects(reports, name, _shift_lambda)


def test_check_rejects_fj_lambda_above_its_bound(reports):
    def corrupt(report):
        report["certificate"]["lambda"], report["certificate"]["beta"] = 0.9, 0.1

    _rejects(reports, "circle-fj-a", corrupt)


@pytest.mark.parametrize("name", ("finite-p5", "stick-p3-a"))
def test_check_rejects_dropped_weight(reports, name):
    def corrupt(report):
        assert len(report["certificate"]["coefficients"]) >= 2
        report["certificate"]["coefficients"].pop()

    _rejects(reports, name, corrupt)


def test_check_rejects_dropped_semi_infinite_multiplier(reports):
    def corrupt(report):
        report["sip_multipliers"]["entries"].pop()

    _rejects(reports, "circle-0", corrupt)


def test_check_rejects_support_point_off_the_active_set(reports):
    def corrupt(report):
        report["sip_multipliers"]["entries"][0]["t"][0] += 0.1

    _rejects(reports, "circle-0", corrupt)


def test_check_rejects_inactive_finite_member_in_support(reports):
    inst = reports["finite-p5"][0]
    inactive = sorted(set(inst.members) - inst.active)[0]

    def corrupt(report):
        report["certificate"]["coefficients"][0]["tag"] = inactive

    _rejects(reports, "finite-p5", corrupt)


def test_check_rejects_wrong_equality_multiplier(reports):
    def corrupt(report):
        report["w_star"][0] += 1e-3

    _rejects(reports, "equality-p6", corrupt)
    _rejects(reports, "eq-vertex-p4", lambda r: r["z_star"].__setitem__(0, r["z_star"][0] + 1e-3))


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("polytope-m100", lambda r: r.__setitem__("zero_in_full_hull", not r["zero_in_full_hull"])),
        ("polytope-m100", lambda r: r["determination"][3].__setitem__("infimum", r["determination"][3]["infimum"] + 1e-3)),
        ("sip_linear", lambda r: r.__setitem__("lipschitz_estimate", 1.01)),
        ("cone-solid", lambda r: r["cone"].__setitem__("margin", r["cone"]["margin"] * 0.99)),
    ],
)
def test_check_rejects_wrong_admissible_diagnostics(reports, name, corrupt):
    _rejects(reports, name, corrupt)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(instances.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["ops_per_s", "op_gmean_ms", "setup_s", "peak_rss_mb"]
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.METRICS) + ["traced.op_gmean_ms"]


def _traced_counts():
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "sip-ladder", "--seed", "2",
           "--seconds", "0.1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300,
                          cwd=BENCH.parent)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_traced_counts_repeat_exactly():
    first = _traced_counts()
    assert first["lp.solve_lp.calls"] > 0 and first["geometry.hull_distance.calls"] > 0
    assert first == _traced_counts()
