"""Command-line front end.

    sipcert certify <file>     certify the file's candidate point
    sipcert tcset <file>       dump the near-active ladder and final hull
    sipcert admissible <file>  admissibility diagnostics at the candidate
    sipcert selftest           run the bundled fixture and property suite

Exit codes: 0 certificate found, 2 no certificate, 3 infeasible candidate,
4 input error.  ``--json`` prints the full machine-readable report; flags
override problem-file options, which override the defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .expr import ExprError
from .geometry import cone_interior_nonempty
from .model import InfeasibleError, admissible_diagnostics
from .multipliers import Certificate, certify_fj, sip_multipliers, tc_approx
from .options import OPTION_KEYS, OptionError, Options
from .problemfile import LoadedProblem, ProblemFileError, emit_json, load_problem, resolve_options
from .reduction import FullCertificate, certify_composed, certify_equality
from .work import counting

EXIT_OK = 0
EXIT_NO_CERTIFICATE = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT_ERROR = 4

_VERDICT_EXIT = {
    "KKT": EXIT_OK,
    "FJ": EXIT_OK,
    "Unconstrained": EXIT_OK,
    "EqualityDegenerate": EXIT_OK,
    "NoCertificate": EXIT_NO_CERTIFICATE,
    "Infeasible": EXIT_INFEASIBLE,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    as_json = "--json" in argv  # until the command line is read
    stdout, sys.stdout = sys.stdout, _PipeGuard(sys.stdout)
    try:
        args = _build_parser().parse_args(argv)
        as_json = args.json
        return args.handler(args)
    except ProblemFileError as err:
        _print_error("input", str(err), as_json)
        return EXIT_INPUT_ERROR
    except ExprError as err:
        _print_error("expression", str(err), as_json)
        return EXIT_INPUT_ERROR
    except OptionError as err:  # SIPCERT_SEED, or a radius the ball cannot sample
        where = f"$.options.{err.key}" if err.key in OPTION_KEYS else err.key
        _print_error("input", f"{where}: {err.message}", as_json)
        return EXIT_INPUT_ERROR
    finally:
        sys.stdout.flush()
        sys.stdout = stdout


class _PipeGuard:
    """stdout that points its stream at os.devnull once the reader has gone (the SIGPIPE
    recipe of the Python docs): the command keeps its exit code, and prints no traceback."""

    def __init__(self, stream):
        self._stream = stream

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def write(self, text):
        self._guarded(self._stream.write, text)

    def flush(self):
        self._guarded(self._stream.flush)

    def _guarded(self, call, *args):
        try:
            call(*args)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), self._stream.fileno())


_ERROR_CHARS = 120  # argparse quotes a bad flag value whole, however many digits it has


class _Parser(argparse.ArgumentParser):
    """A command line that cannot be read is an input error (exit 4), not argparse's
    usage on stderr and exit 2; the sub-parsers are built from this class too."""

    def error(self, message):
        if len(message) > _ERROR_CHARS:
            message = message[: _ERROR_CHARS - 3] + "..."
        raise ProblemFileError(message, "command line")


def _build_parser():
    parser = _Parser(
        prog="sipcert",
        description="First-order optimality certificates via multiplier-set membership.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="problem file (JSON)")
        sp.add_argument("--tol", type=float, default=None, help="certificate tolerance")
        sp.add_argument("--eps0", type=float, default=None, help="first ladder rung")
        sp.add_argument("--shrink", type=float, default=None, help="ladder shrink factor")
        sp.add_argument("--max-steps", type=int, default=None, help="ladder length cap")
        sp.add_argument("--grid", type=int, default=None, help="parametric box grid, replacing the file's")
        sp.add_argument("--refine", type=int, default=None, help="refinement depth override")
        sp.add_argument("--json", action="store_true", help="print the full JSON report")

    for name, handler, text in (
        ("certify", cmd_certify, "certify first-order optimality of the candidate"),
        ("tcset", cmd_tcset, "dump the multiplier-set ladder"),
        ("admissible", cmd_admissible, "admissibility diagnostics"),
    ):
        sp = sub.add_parser(name, help=text)
        common(sp)
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("selftest", help="run the bundled fixture and property suite")
    sp.add_argument("--tol", type=float, default=None, help="certificate tolerance override")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=cmd_selftest)
    return parser


_LADDER_WORK = ("gap_lps", "gap_rows", "gap_pivots", "refined_seeds")
_ADMISSIBLE_WORK = ("support_lps", "support_pivots", "lipschitz_walks")


def _timings(started, counts, keys) -> dict:  # the counts of keys in order, 0 when none ran
    return {"total_s": time.perf_counter() - started, **{key: counts[key] for key in keys}}


def _print_error(kind, message, as_json):
    report = {"error": {"kind": kind, "message": message}}
    print(emit_json(report) if as_json else f"error ({kind}): {message}")


def _load(args) -> tuple[LoadedProblem, Options, np.ndarray]:
    """The problem file on the ``--grid`` grid, its resolved options and its required candidate."""
    if args.grid is not None and args.grid < 2:
        raise ProblemFileError("must be at least 2", "--grid")
    try:
        loaded = load_problem(args.file, args.grid)
    except ProblemFileError as err:  # the grid argument is the flag
        raise ProblemFileError(err.message, "--grid") if err.where == "grid" else err
    opts = resolve_options(
        loaded.options,
        {
            "--tol": ("tol", args.tol),
            "--eps0": ("eps0", args.eps0),
            "--shrink": ("shrink", args.shrink),
            "--max-steps": ("max_steps", args.max_steps),
            "--refine": ("refine_depth", args.refine),
        },
    )
    if loaded.candidate is None:
        raise ProblemFileError("a candidate point is required for this command", "$.candidate")
    return loaded, opts, loaded.candidate


def _assumptions(loaded, approximate=False):
    problem = loaded.problem
    notes = list(loaded.notes)
    if problem.family is not None and not problem.family.pure_finite:
        notes.append("equi-lower-semicontinuity of inactive members is assumed, not verified")
        notes.append("the index set is sampled on a grid; hulls may under-approximate between points")
    if problem.equality:
        notes.append("Jacobian regularity is tested at the candidate only, not in a neighborhood")
        notes.append("local Lipschitz behaviour of the objective and inner map is assumed")
    if approximate:
        notes.append("ladder did not stabilize; the certificate is approximate")
    return notes


def _ladder_rows(tc):
    return [{"eps": eps, "generators": count, "gap": gap} for eps, count, gap in tc.ladder_table()]


def _weight(tag, param, w):
    return {"tag": tag, "t": None if param is None else list(param), "weight": w}


def _certificate_payload(cert: Certificate):
    payload = {
        "kind": cert.kind,
        "lambda": cert.lam,
        "beta": cert.beta,
        "witness_x_star": None if cert.x_star is None else list(cert.x_star),
        "coefficients": [_weight(*c) for c in cert.coeffs],
        "residual": cert.residual,
        "zero_not_in_tc": cert.zero_not_in_tc,
        "objective_gradient": list(cert.grad_f),
        "approximate": cert.approximate,
    }
    if cert.y_star is not None:
        payload["y_star"] = list(cert.y_star)
    kkt = cert.kkt_weights()
    if kkt is not None:
        payload["kkt_weights"] = [_weight(*c) for c in kkt]
    if cert.diagnostics:
        payload["diagnostics"] = {k: _plain(v) for k, v in cert.diagnostics.items()}
    return payload


def _plain(v):
    return list(v) if isinstance(v, np.ndarray) else v


_KIND_VERDICT = {
    "kkt": "KKT", "fj": "FJ", "unconstrained": "Unconstrained", "no_certificate": "NoCertificate"
}


def _verdict_of(cert) -> str:
    if not isinstance(cert, FullCertificate):
        return _KIND_VERDICT[cert.kind]
    if not cert.found:
        return "NoCertificate"
    if cert.branch == "not_onto":
        return "EqualityDegenerate"
    return _KIND_VERDICT[cert.inner.kind] if cert.inner is not None else "KKT"


def cmd_certify(args) -> int:
    loaded, opts, candidate = _load(args)
    problem = loaded.problem
    started = time.perf_counter()
    try:
        with counting() as counts:
            if problem.equality:
                cert = certify_equality(problem, candidate, opts)
            elif problem.inner_map is not None:
                cert = certify_composed(problem, candidate, opts)
            else:
                cert = certify_fj(problem, candidate, opts)
    except InfeasibleError as err:
        return _emit_infeasible(args, err)

    verdict = _verdict_of(cert)
    # the inequality certificate: an equality certificate's inner one, if any
    inner = cert.inner if isinstance(cert, FullCertificate) else cert
    tc = cert.tc  # the ladder, built on every path and every equality branch
    report = {
        "tool": "sipcert",
        "command": "certify",
        "verdict": verdict,
        "problem": {
            "dimension": problem.p,
            "family": problem.family.kind if problem.family else "none",
            "has_inner_map": problem.inner_map is not None,
            "equality_rows": len(problem.equality or ()),
            "candidate": list(candidate),
        },
        "options": _options_payload(opts),
        "assumptions": _assumptions(loaded, inner is not None and inner.approximate),
        "exit_code": _VERDICT_EXIT[verdict],
    }
    if isinstance(cert, FullCertificate):
        report["branch"] = cert.branch
        report["lambda0"] = cert.lambda0
        report["z_star"] = None if cert.z_star is None else list(cert.z_star)
        report["w_star"] = None if cert.w_star is None else list(cert.w_star)
        report["residual"] = cert.residual
        report["jacobian"] = {
            "rows": cert.jacobian.matrix.shape[0],
            "rank": cert.jacobian.rank,
            "pivots": list(cert.jacobian.pivots),
            "kernel_dim": cert.jacobian.kernel_basis.shape[0],
        }
        if cert.inner is not None:
            report["inequality_certificate"] = _certificate_payload(cert.inner)
            report["ladder"] = _ladder_rows(tc)
        if cert.diagnostics:
            report["diagnostics"] = {k: _plain(v) for k, v in cert.diagnostics.items()}
    else:
        report["certificate"] = _certificate_payload(cert)
        report["ladder"] = _ladder_rows(tc)
        report["converged"] = tc.converged
        report["stopped_by"] = tc.stopped_by
        if (
            problem.family is not None
            and not problem.family.pure_finite
            and cert.found
            and not tc.interior
        ):
            sm = sip_multipliers(cert, opts)
            report["sip_multipliers"] = {
                "lambda0": sm.lambda0,
                "entries": [_weight(tag, param, w) for tag, param, w, _ in sm.entries],
                "k": sm.k,
                "residual": sm.residual,
                "lambda0_nonzero_guaranteed": sm.lambda0_nonzero_guaranteed,
            }
    # covers the certification and the semi-infinite recast; the ladder's work
    report["timings"] = _timings(started, counts, _LADDER_WORK)

    if args.json:
        print(emit_json(report))
    else:
        _print_certify_human(report)
    return report["exit_code"]


def _emit_infeasible(args, err: InfeasibleError) -> int:
    report = {
        "tool": "sipcert",
        "command": args.command,
        "verdict": "Infeasible",
        "violations": [{"tag": tag, "value": value} for tag, value in err.report.violations],
        "min_value": err.report.min_value,
        "min_tag": err.report.min_tag,
        "equality_violation": err.report.equality_violation,
        "exit_code": EXIT_INFEASIBLE,
    }
    if args.json:
        print(emit_json(report))
    else:
        print("verdict: Infeasible")
        print(f"  worst constraint {err.report.min_tag}: {err.report.min_value:.6g}")
    return EXIT_INFEASIBLE


def _print_certify_human(report):
    print(f"verdict: {report['verdict']}")
    cert = report.get("certificate")
    if cert is not None:
        print(f"  (lambda, beta) = ({cert['lambda']:.12g}, {cert['beta']:.12g})  [lambda + beta = 1]")
        if cert["witness_x_star"] is not None:
            print(f"  witness x* = {_vec_str(cert['witness_x_star'])}")
        for c in cert["coefficients"]:
            print(f"    alpha[{c['tag']}] = {c['weight']:.12g}")
        print(f"  residual = {cert['residual']:.3g}")
        if cert["zero_not_in_tc"] is not None:
            print(f"  0 not in T_C: {cert['zero_not_in_tc']}")
    if "branch" in report:
        print(f"  branch = {report['branch']}, lambda0 = {report['lambda0']:.12g}")
        if report.get("z_star") is not None:
            print(f"  z* = {_vec_str(report['z_star'])}")
        if report.get("w_star") is not None:
            print(f"  w* = {_vec_str(report['w_star'])}")
        print(f"  residual = {report['residual']:.3g}")
    if report.get("assumptions"):
        print("  assumptions:")
        for note in report["assumptions"]:
            print(f"    - {note}")


def _vec_str(v):
    return "[" + ", ".join(format(float(x), ".12g") for x in v) + "]"


def _options_payload(opts: Options):
    """Every option but the Lipschitz sampling ones (admissible's), in field order."""
    return {k: getattr(opts, k) for k in OPTION_KEYS if not k.startswith("lipschitz_")}


def cmd_tcset(args) -> int:
    loaded, opts, candidate = _load(args)
    started = time.perf_counter()
    try:
        with counting() as counts:
            tc = tc_approx(loaded.problem, candidate, opts)
    except InfeasibleError as err:
        return _emit_infeasible(args, err)
    report = {
        "tool": "sipcert",
        "command": "tcset",
        "interior": tc.interior,
        "family_infimum": tc.inf_value,
        "ladder": _ladder_rows(tc),
        "hausdorff_gaps": list(tc.hausdorff_gaps),
        "converged": tc.converged,
        "stopped_by": tc.stopped_by,
        "final": {
            "generators": [list(g) for g in tc.final],
            "tags": [tag for tag, _ in tc.labels()],
        },
        "assumptions": _assumptions(loaded),
        "options": _options_payload(opts),
        "exit_code": EXIT_OK,
        # the ladder and its work, as in certify's timings
        "timings": _timings(started, counts, _LADDER_WORK),
    }
    if args.json:
        print(emit_json(report))
    else:
        if tc.interior:
            print(f"interior candidate: family infimum {tc.inf_value:.6g} > 0, empty multiplier set")
        else:
            print(f"ladder ({tc.stopped_by}, converged={tc.converged}):")
            for row in report["ladder"]:
                gap = "-" if row["gap"] is None else format(row["gap"], ".3g")
                print(f"  eps = {row['eps']:<12.6g} generators = {row['generators']:<6d} gap = {gap}")
            print("final generators:")
            for g, tag in zip(report["final"]["generators"], report["final"]["tags"]):
                print(f"  {_vec_str(g)}  [{tag}]")
    return EXIT_OK


def cmd_admissible(args) -> int:
    loaded, opts, candidate = _load(args)
    started = time.perf_counter()
    family = loaded.problem.family  # the set A, in the inner map's image when there is one
    try:
        with counting() as counts:
            diag = admissible_diagnostics(loaded.problem, candidate, opts)
    except InfeasibleError as err:
        return _emit_infeasible(args, err)
    report = {
        "tool": "sipcert",
        "command": "admissible",
        "family": family.kind if family else "none",
        "zero_in_full_hull": diag.zero_in_full_hull,
        "hull_gap": diag.hull_gap,
        "admissible_style": diag.admissible_style,
        "lipschitz_estimate": diag.lipschitz_estimate,
        "determination": [
            {"normal": list(a), "infimum": inf, "stated_offset": b}
            for a, inf, b in diag.determination
        ],
        "assumptions": list(diag.assumptions),
        "exit_code": EXIT_OK,
    }
    cone = family.cone() if family is not None else None
    if cone is not None:
        interior = cone_interior_nonempty(cone, opts.tol_lp)
        report["cone"] = {
            "interior_nonempty": interior.nonempty,
            "witness": list(interior.witness),
            "margin": interior.margin,
        }
    # covers the diagnostics and the cone LP
    report["timings"] = _timings(started, counts, _ADMISSIBLE_WORK)
    if args.json:
        print(emit_json(report))
    else:
        if family is None:
            print("no inequality family: admissibility diagnostics are vacuous")
        style = "admissible-style" if diag.admissible_style else "weak-admissible only"
        print(f"0 in conv(all gradients): {diag.zero_in_full_hull}  ->  {style}")
        print(f"equi-Lipschitz estimate: {diag.lipschitz_estimate:.6g}")
        for d in report["determination"]:
            print(
                f"  normal {_vec_str(d['normal'])}: inf over A = {d['infimum']:.6g}"
                f" (stated offset {d['stated_offset']:.6g})"
            )
        if "cone" in report:
            cone = report["cone"]
            print(
                f"cone interior nonempty: {cone['interior_nonempty']}"
                f" (margin {cone['margin']:.6g}, witness {_vec_str(cone['witness'])})"
            )
        for note in report["assumptions"]:
            print(f"  - {note}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    resolve_options({}, {"--tol": ("tol", args.tol)})  # the range check, before any work
    return run_selftest(tol=args.tol, as_json=args.json)


if __name__ == "__main__":
    sys.exit(main())
