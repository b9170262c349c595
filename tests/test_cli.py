import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from sipcert.fixtures import fixture_names, fixture_path


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "sipcert", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc


def run_json(*args):
    proc = run_cli(*args, "--json")
    report = json.loads(proc.stdout)
    return proc.returncode, report


class TestCertify:
    def test_near_active_kkt_exit_zero(self):
        code, report = run_json("certify", fixture_path("near_active"))
        assert code == 0
        assert report["verdict"] == "KKT"
        assert report["certificate"]["lambda"] == pytest.approx(0.5, abs=1e-9)
        assert report["exit_code"] == 0

    def test_infeasible_candidate_exit_three(self, tmp_path):
        doc = json.loads(open(fixture_path("near_active")).read())
        doc["candidate"] = [-1.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("certify", str(path))
        assert code == 3
        assert report["verdict"] == "Infeasible"
        assert report["violations"][0]["tag"] == "phi0"

    def test_malformed_file_exit_four(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        proc = run_cli("certify", str(path), "--json")
        assert proc.returncode == 4
        assert "error" in json.loads(proc.stdout)

    def test_overflowing_literal_exit_four(self, tmp_path):
        doc = {"dimension": 1, "objective": "x1",
               "constraints": {"finite": ["1 - x1 + 0*sin(1e999)"]}, "candidate": [1.0]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("certify", str(path))
        assert code == 4
        assert "1e999" in report["error"]["message"]

    def test_strict_variant_exit_two(self):
        code, report = run_json("certify", fixture_path("strict_active"))
        assert code == 2
        assert report["verdict"] == "NoCertificate"

    def test_equality_fixture(self):
        code, report = run_json("certify", fixture_path("eq_circle"))
        assert code == 0
        assert report["branch"] == "onto_no_a"
        assert report["lambda0"] == 1
        assert report["w_star"][0] == pytest.approx(-0.5, abs=1e-9)

    def test_degenerate_equality_fixture(self):
        code, report = run_json("certify", fixture_path("eq_duplicated_rows"))
        assert code == 0
        assert report["verdict"] == "EqualityDegenerate"

    def test_flags_override_file_options(self):
        # forcing a tiny first rung makes the near_active union fixture collapse
        code, report = run_json("certify", fixture_path("near_active"), "--eps0", "1e-3")
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--shrink", "1.5", "must lie strictly between 0 and 1"),
            ("--shrink", "0", "must lie strictly between 0 and 1"),
            ("--eps0", "-1", "must be finite and > 0"),
            ("--eps0", "inf", "must be finite and > 0"),
            ("--refine", "-3", "must be >= 0"),
            ("--max-steps", "-1", "must be >= 0"),
            ("--tol", "nan", "must be finite and >= 0"),
            ("--grid", "1", "must be at least 2"),
        ],
    )
    def test_flag_out_of_range_exit_four(self, flag, value, message, capsys):
        # checked before any computation
        from sipcert import cli

        argv = ["certify", fixture_path("sip_trig"), f"{flag}={value}", "--json"]
        assert cli.main(argv) == 4
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "input", "message": f"{flag}: {message}"}

    def test_selftest_tolerance_checked(self, capsys):
        from sipcert import cli

        assert cli.main(["selftest", "--tol=-1"]) == 4
        assert capsys.readouterr().out == "error (input): --tol: must be finite and >= 0\n"

    def test_file_option_out_of_range_exit_four(self, tmp_path, capsys):
        from sipcert import cli

        doc = json.loads(open(fixture_path("sip_trig")).read())
        doc["options"] = {"lipschitz_radius": -1}
        path = tmp_path / "radius.json"
        path.write_text(json.dumps(doc))
        for command in ("admissible", "certify"):
            assert cli.main([command, str(path), "--json"]) == 4
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["message"] == "$.options.lipschitz_radius: must be finite and > 0"

    def test_non_finite_candidate_exit_four(self, tmp_path):
        # json reads NaN; the loader rejects it at its position
        doc = json.loads(open(fixture_path("near_active")).read())
        doc["candidate"] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert '"candidate": [NaN, 0.0]' in path.read_text()
        code, report = run_json("certify", str(path))
        assert code == 4
        assert report["error"]["message"] == "$.candidate[0]: expected a finite number"

    def test_missing_candidate_exit_four(self, tmp_path):
        doc = json.loads(open(fixture_path("near_active")).read())
        del doc["candidate"]
        path = tmp_path / "nocand.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("certify", str(path))
        assert proc.returncode == 4

    def test_parametric_report_carries_sip_multipliers(self, tmp_path):
        doc = json.loads(open(fixture_path("sip_linear")).read())
        doc["constraints"]["parametric"]["grid"] = 129
        path = tmp_path / "sip.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("certify", str(path))
        assert code == 0
        sip = report["sip_multipliers"]
        assert sip["lambda0"] == pytest.approx(1 / 3, abs=1e-6)
        assert sip["k"] == 1
        assert sip["entries"][0]["t"][0] == pytest.approx(0.5, abs=1e-6)

    def test_finite_ladder_shortcut_after_a_member_drops_out(self, tmp_path):
        # the third member has value 0.005 in (0, eps0]: it leaves at the third
        # rung, where the finite shortcut ends the ladder
        doc = {
            "dimension": 2,
            "objective": "-x1 - x2",
            "constraints": {"finite": ["x1", "x2", "0.005 + x1 + x2"]},
            "candidate": [0.0, 0.0],
        }
        path = tmp_path / "drop.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("certify", str(path))
        assert code == 0
        assert report["verdict"] == "KKT"
        assert report["stopped_by"] == "finite_shortcut"
        gaps = [row["gap"] for row in report["ladder"]]
        assert len(gaps) >= 3 and gaps[0] is None and None not in gaps[1:]

    def test_exit_code_is_function_of_verdict(self):
        # the whole bundled fixture verdict table
        for name, verdict, expected in (
            ("near_active", "KKT", 0),
            ("strict_active", "NoCertificate", 2),
            ("sip_linear", "KKT", 0),
            ("sip_trig", "FJ", 0),
            ("eq_circle", "KKT", 0),
            ("eq_duplicated_rows", "EqualityDegenerate", 0),
            ("eq_orthant_line", "KKT", 0),
            ("composed_parabola", "KKT", 0),
            ("cone_orthant", "KKT", 0),
            ("cone_hyperplane", "FJ", 0),
        ):
            code, report = run_json("certify", fixture_path(name))
            assert code == expected == report["exit_code"]
            assert report["verdict"] == verdict

    def test_composed_parametric_family_gets_sip_multipliers(self, tmp_path):
        # the semi-infinite recast reads the certificate's ladder, so a
        # parametric family behind an inner map no longer needs a re-evaluation
        doc = json.loads(open(fixture_path("sip_linear")).read())
        doc["inner_map"] = ["x1", "x2"]
        path = tmp_path / "composed_sip.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("certify", str(path))
        assert code == 0 and report["verdict"] == "KKT"
        assert report["problem"]["has_inner_map"]
        assert report["certificate"]["y_star"] == pytest.approx([-0.5, -0.5])
        assert report["sip_multipliers"]["residual"] <= 1e-9

    @pytest.mark.parametrize("doc, w_star", [
        ({"dimension": 1, "objective": "x1", "constraints": {"finite": ["x1 + 1"]},
          "equality": ["x1"], "candidate": [0.0]}, [-1.0]),
        ({"dimension": 2, "objective": "x1 + x2", "constraints": {"finite": ["x1 + x2"]},
          "equality": ["x1", "x2"], "candidate": [0.0, 0.0]}, [-1.0, -1.0]),
    ])
    def test_equality_jacobian_of_full_column_rank(self, tmp_path, doc, w_star):
        # Ker J_h = {0}: the inequalities have no direction left to certify in
        path = tmp_path / "square.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("certify", str(path))
        assert (code, report["verdict"], report["branch"]) == (0, "KKT", "onto_with_a")
        assert report["jacobian"]["kernel_dim"] == 0
        assert (report["lambda0"], report["z_star"]) == (1, [0] * len(w_star))
        assert report["w_star"] == pytest.approx(w_star, abs=1e-12)
        doc["constraints"]["finite"] = ["x1 - 1"]  # violated at x = 0
        path.write_text(json.dumps(doc))
        code, report = run_json("certify", str(path))
        assert (code, report["verdict"]) == (3, "Infeasible")

    def test_rank_deficient_equality_still_checks_the_family(self, tmp_path, capsys):
        # the degenerate branch answers only for a feasible candidate
        from sipcert import cli

        doc = {"dimension": 2, "objective": "x2", "constraints": {"finite": ["-x2"]},
               "equality": ["x1", "x1"], "candidate": [0.0, 0.5]}
        path = tmp_path / "rank_deficient.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["certify", str(path), "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["min_tag"], report["min_value"]) == ("Infeasible", "phi0", -0.5)
        assert report["violations"] == [{"tag": "phi0", "value": -0.5}]
        assert cli.main(["certify", str(path)]) == 3
        assert capsys.readouterr().out == "verdict: Infeasible\n  worst constraint phi0: -0.5\n"

    @pytest.mark.parametrize("objective, constraints, verdict", [
        ("x1 - x2", ["1 - x1"], "Unconstrained"),  # interior; grad f is orthogonal to the kernel
        ("x1 + x2", ["x1 + x2", "-x1 - x2"], "FJ"),  # 0 lies in the kernel-restricted T_C
    ])
    def test_equality_verdict_follows_the_inner_certificate(
        self, tmp_path, objective, constraints, verdict
    ):
        doc = {"dimension": 2, "objective": objective, "constraints": {"finite": constraints},
               "equality": ["x1 - x2"], "candidate": [0.0, 0.0]}
        path = tmp_path / "line.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("certify", str(path))
        assert (code, report["branch"], report["verdict"]) == (0, "onto_with_a", verdict)
        assert report["inequality_certificate"]["kind"] == verdict.lower()

    def test_equality_report_keeps_the_approximate_assumption(self, tmp_path, capsys):
        # one rung cannot stabilize; with or without the equality row the
        # report says so, as the inequality certificate's flag does
        from sipcert import cli

        doc = {
            "dimension": 2,
            "objective": "x1 + x2",
            "constraints": {"parametric": {
                "h": "1 - x1*cos(t1) - x2*sin(t1)", "t_dim": 1,
                "box": {"lower": [0.0], "upper": [math.pi / 2]}, "grid": 129,
            }},
            "candidate": [math.sqrt(0.5), math.sqrt(0.5)],
        }
        note = "ladder did not stabilize; the certificate is approximate"
        for equality, key in ((None, "certificate"), (["x1 - x2"], "inequality_certificate")):
            if equality:
                doc["equality"] = equality
            path = tmp_path / "quarter_circle.json"
            path.write_text(json.dumps(doc))
            assert cli.main(["certify", str(path), "--max-steps", "1", "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["verdict"] == "KKT" and report[key]["approximate"]
            assert note in report["assumptions"]

    def test_timings_count_the_ladders_gap_lps(self, tmp_path):
        # the quarter circle h = 1 - x . (cos t1, sin t1) at grid 1025, the
        # candidate on grid point 400, the one seed bisected: 184 deduped
        # dropped rows over the ladder, of which the early break needs 12 LPs
        t = float(np.linspace(0.0, math.pi / 2, 1025)[400])
        doc = {
            "dimension": 2,
            "objective": f"{math.cos(t)!r}*x1 + {math.sin(t)!r}*x2",
            "constraints": {"parametric": {
                "h": "1 - x1*cos(t1) - x2*sin(t1)", "t_dim": 1,
                "box": {"lower": [0.0], "upper": [math.pi / 2]}, "grid": 1025,
            }},
            "candidate": [math.cos(t), math.sin(t)],
        }
        path = tmp_path / "quarter_circle.json"
        path.write_text(json.dumps(doc))
        _, circle = run_json("certify", str(path))
        _, trig = run_json("certify", fixture_path("sip_trig"))  # dropped rows repeat kept ones
        counts = ("gap_lps", "gap_rows", "refined_seeds")
        for report in (circle, trig):
            assert set(report["timings"]) == {"total_s", *counts}
        assert (circle["verdict"], circle["stopped_by"]) == ("KKT", "stabilized")
        assert [circle["timings"][k] for k in counts] == [12, 184, 1]
        assert [trig["timings"][k] for k in counts] == [0, 0, 0]  # one flat run: no seed

    def test_bisection_stops_at_float_resolution(self, monkeypatch, capsys):
        # near_active's one seed is down to adjacent floats within about 60
        # levels and every later level repeats the last, so depth 20,000
        # reports what depth 60 does, in at most one more walk
        from sipcert import cli, model

        reports, walks = [], []
        walk = model.evaluate_many
        for depth in ("60", "20000"):
            sizes = []
            monkeypatch.setattr(
                model, "evaluate_many", lambda f, x, t: sizes.append(len(t)) or walk(f, x, t)
            )
            assert cli.main(["certify", fixture_path("near_active"), "--refine", depth, "--json"]) == 0
            out = capsys.readouterr().out
            reports.append(re.sub(r'"refine_depth": \d+|"timings": \{[^}]*\}', "", out))
            walks.append(len(sizes))
        assert reports[0] == reports[1]
        assert walks[1] <= walks[0] + 1

    @pytest.mark.parametrize("name", ["sip_linear", "sip_trig", "near_active"])
    def test_certify_discretizes_the_index_set_once(self, name, monkeypatch, capsys):
        from sipcert import cli
        from sipcert.model import IndexSet

        calls = []
        grid_points = IndexSet.grid_points

        def counted(self):
            calls.append(self)
            return grid_points(self)

        monkeypatch.setattr(IndexSet, "grid_points", counted)
        assert cli.main(["certify", fixture_path(name), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] in ("KKT", "FJ")
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["sip_linear", "sip_trig", "near_active"])
    def test_certify_differentiates_the_grid_in_one_batch(self, name, monkeypatch, capsys):
        # the scan's near-active grid points and their refined twins each
        # take one batched call (sip_linear and sip_trig are one flat run
        # each, so no seed is bisected and no twin differentiated); the
        # scalar gradient serves the objective and the listed members only
        from sipcert import cli, expr, model, multipliers

        calls = {"gradient": 0, "gradient_many": 0}

        def counting(fn):
            def counted(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return counted

        for module in (expr, model, multipliers):
            for attr in calls:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, counting(getattr(module, attr)))
        assert cli.main(["certify", fixture_path(name), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] in ("KKT", "FJ")
        listed = 1 if name == "near_active" else 0  # near_active lists phi0 = x1
        assert calls == {"gradient": 1 + listed, "gradient_many": 1 + listed}

    @pytest.mark.parametrize("name", ["sip_linear", "sip_trig"])
    def test_certify_formats_tags_for_reported_rows_only(self, name, monkeypatch, capsys):
        # the minimum and the certificate support: at most p + 2 of the 1,025 candidates
        tags = _count_param_tags(monkeypatch)
        from sipcert import cli

        assert cli.main(["certify", fixture_path(name), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0 < len(tags) <= report["problem"]["dimension"] + 2


def _count_param_tags(monkeypatch):
    from sipcert import model

    tags = []
    param_tag = model._param_tag
    monkeypatch.setattr(model, "_param_tag", lambda t: tags.append(t) or param_tag(t))
    return tags


class TestTcset:
    def test_near_active_final_generators(self):
        code, report = run_json("tcset", fixture_path("near_active"))
        assert code == 0
        gens = {tuple(g) for g in report["final"]["generators"]}
        assert gens == {(1.0, 0.0), (0.0, 1.0)}
        assert "phi0" in report["final"]["tags"]

    def test_interior_candidate(self, tmp_path):
        doc = json.loads(open(fixture_path("near_active")).read())
        doc["candidate"] = [1.0, 1.0]
        path = tmp_path / "interior.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("tcset", str(path))
        assert code == 0
        assert report["interior"] is True
        assert report["final"]["generators"] == []

    @pytest.mark.parametrize("name", ["sip_linear", "sip_trig", "near_active"])
    def test_tcset_formats_tags_for_the_final_hull_only(self, name, monkeypatch, capsys):
        tags = _count_param_tags(monkeypatch)
        from sipcert import cli

        assert cli.main(["tcset", fixture_path(name), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0 < len(tags) <= len(report["final"]["tags"]) + 1

    def test_linear_sip_segment_endpoints(self, tmp_path):
        doc = json.loads(open(fixture_path("sip_linear")).read())
        doc["constraints"]["parametric"]["grid"] = 65
        path = tmp_path / "sip.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("tcset", str(path))
        gens = {tuple(g) for g in report["final"]["generators"]}
        assert (-1.0, 0.0) in gens and (0.0, -1.0) in gens

    def test_a_closed_pipe_keeps_the_exit_code(self):
        # about 933 KB of output, and the reader leaves after one line: the
        # rest goes to os.devnull, with no traceback and the command's exit code
        proc = subprocess.Popen(
            [sys.executable, "-m", "sipcert", "tcset", fixture_path("sip_trig"),
             "--eps0", "1", "--grid", "16385"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"ladder")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert stderr == b""


class TestAdmissible:
    def test_orthant_cone(self):
        code, report = run_json("admissible", fixture_path("cone_orthant"))
        assert code == 0
        assert report["admissible_style"] is True
        assert report["cone"]["interior_nonempty"] is True

    def test_hyperplane_cone(self):
        code, report = run_json("admissible", fixture_path("cone_hyperplane"))
        assert code == 0
        assert report["admissible_style"] is False
        assert report["cone"]["interior_nonempty"] is False

    def test_near_active_admissible_pass(self):
        code, report = run_json("admissible", fixture_path("near_active"))
        assert code == 0
        assert report["admissible_style"] is True

    def test_timings_block_counts_the_work(self):
        _, cone = run_json("admissible", fixture_path("cone_orthant"))
        _, sip = run_json("admissible", fixture_path("sip_linear"))
        for report in (cone, sip):
            assert set(report["timings"]) == {
                "total_s", "support_lps", "support_pivots", "lipschitz_walks"
            }
            assert report["timings"]["total_s"] > 0.0
        counts = ("support_lps", "support_pivots", "lipschitz_walks")
        # the orthant's first minimiser, one degenerate pivot from the slack
        # basis, touches both facets; no grid to walk
        assert [cone["timings"][k] for k in counts] == [1, 1, 0]
        # 34 sample pairs at grid 1025: 3 pairs (6150 points) per walk
        assert [sip["timings"][k] for k in counts] == [0, 0, 12]

    def test_reports_identical_modulo_timings(self):
        _, first = run_json("admissible", fixture_path("cone_hyperplane"))
        _, second = run_json("admissible", fixture_path("cone_hyperplane"))
        first.pop("timings")
        second.pop("timings")
        assert first == second


class TestSelftest:
    def test_fresh_build_passes(self):
        proc = run_cli("selftest")
        assert proc.returncode == 0
        lines = [l for l in proc.stdout.splitlines() if l.startswith("[")]
        assert lines and all(l.startswith("[ok]") for l in lines)
        assert "15/15 checks passed" in proc.stdout

    def test_tampered_tolerance_fails_documented(self):
        proc = run_cli("selftest", "--tol", "1e-30")
        assert proc.returncode == 1
        assert "[FAIL]" in proc.stdout

    def test_json_names_every_check_in_order(self, capsys):
        from sipcert import cli

        assert cli.main(["selftest", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in report["results"]] == [
            "near-active window certificate",
            "strictly-active variant refuses",
            "linear SIP multipliers",
            "trigonometric SIP certificate",
            "circle equality multiplier",
            "duplicated-row equality degeneracy",
            "equality with polyhedral set",
            "composed parabola certificate",
            "cone admissibility fixtures",
            "gradients vs central differences",
            "hull membership vs grid oracle",
            "ladder nesting",
            "caratheodory support bound",
            "objective-scaling invariance",
            "cone interior vs direction sampling",
        ]
        assert all(r["ok"] for r in report["results"])
        assert (report["failures"], report["total"], report["exit_code"]) == (0, 15, 0)


@pytest.mark.parametrize("seed", ["abc", "-1"])
@pytest.mark.parametrize("argv", [["admissible", fixture_path("cone_orthant")], ["selftest"]])
def test_bad_seed_is_an_input_error(seed, argv, monkeypatch, capsys):
    from sipcert import cli

    monkeypatch.setenv("SIPCERT_SEED", seed)
    assert cli.main(argv) == 4
    assert capsys.readouterr().out == (
        f"error (input): SIPCERT_SEED: must be an integer >= 0, not '{seed}'\n"
    )


@pytest.mark.parametrize("name", fixture_names())
def test_tol_lp_changes_no_report_or_count(name, tmp_path, capsys):
    # tol_lp only accepts LP answers (the simplex pivots with lp._TOL): on the
    # fixtures, 1e-6 changes no verdict, number or work count of any report
    from sipcert import cli

    doc = json.loads(open(fixture_path(name)).read())
    doc["options"] = {**doc.get("options", {}), "tol_lp": 1e-6}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    for command in ("certify", "tcset", "admissible"):
        reports = []
        for file in (fixture_path(name), str(path)):
            code = cli.main([command, file, "--json"])
            report = json.loads(capsys.readouterr().out)
            report.get("timings", {}).pop("total_s", None)
            options = report.pop("options", {})
            reports.append((code, report, options))
        (code, report, options), (loose_code, loose, loose_options) = reports
        assert (loose_code, loose) == (code, report)
        assert loose_options == ({**options, "tol_lp": 1e-6} if options else {})


@pytest.mark.parametrize("command", ["certify", "tcset", "admissible"])
def test_grid_flag_is_the_file_grid(command, tmp_path, capsys):
    # --grid N gives the reports, work counts included, of a file that says
    # "grid": N, unlike the file's own grid; a polyhedral family ignores it
    from sipcert import cli

    doc = json.loads(open(fixture_path("sip_trig")).read())
    doc["constraints"]["parametric"]["grid"] = 257
    path = tmp_path / "sip_trig_257.json"
    path.write_text(json.dumps(doc))
    runs = [
        [fixture_path("sip_trig"), "--grid", "257"],
        [str(path)],
        [fixture_path("sip_trig")],
        [fixture_path("cone_orthant"), "--grid", "257"],
        [fixture_path("cone_orthant")],
    ]
    reports = []
    for argv in runs:
        code = cli.main([command, *argv, "--json"])
        report = json.loads(capsys.readouterr().out)
        report.get("timings", {}).pop("total_s", None)
        reports.append((code, report))
    assert reports[0] == reports[1] != reports[2]
    assert reports[3] == reports[4]


def test_every_command_names_a_violated_equality(tmp_path, capsys):
    # eq_circle off its circle: tcset and admissible say what certify says
    from sipcert import cli

    doc = json.loads(open(fixture_path("eq_circle")).read())
    doc["candidate"] = [0.5, 0.5]
    path = tmp_path / "off_circle.json"
    path.write_text(json.dumps(doc))
    expected = (
        '{"tool": "sipcert", "command": "certify", "verdict": "Infeasible", "violations": [], '
        '"min_value": -0.5, "min_tag": "equality", "equality_violation": 0.5, "exit_code": 3}\n'
    )
    for command in ("certify", "tcset", "admissible"):
        assert cli.main([command, str(path), "--json"]) == 3
        assert capsys.readouterr().out == expected.replace("certify", command)
        assert cli.main([command, str(path)]) == 3
        assert capsys.readouterr().out == "verdict: Infeasible\n  worst constraint equality: -0.5\n"


class TestDeterminism:
    def test_reports_identical_modulo_timings(self):
        _, first = run_json("certify", fixture_path("near_active"))
        _, second = run_json("certify", fixture_path("near_active"))
        first.pop("timings")
        second.pop("timings")
        assert first == second

    def test_report_round_trips(self):
        proc = run_cli("certify", fixture_path("near_active"), "--json")
        report = json.loads(proc.stdout)
        from sipcert.problemfile import emit_json

        assert json.loads(emit_json(report)) == report
