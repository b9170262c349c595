import numpy as np
import pytest

from sipcert.expr import evaluate, gradient, parse
from sipcert.fixtures import load_fixture
from sipcert.geometry import Polyhedron
from sipcert.model import (
    FiniteFamily,
    IndexSet,
    InfeasibleError,
    ParametricFamily,
    PolyhedralFamily,
    Problem,
)
from sipcert.multipliers import certify_fj
from sipcert.options import Options
from sipcert.problemfile import load_problem
from sipcert.reduction import (
    certify_composed,
    certify_equality,
    compose_family,
    compute_jacobian,
    convex_set_multiplier,
)

# a rank-deficient equality Jacobian at a candidate that violates -x2 >= 0
RANK_DEFICIENT = {
    "dimension": 2, "objective": "x2", "constraints": {"finite": ["-x2"]},
    "equality": ["x1", "x1"], "candidate": [0.0, 0.5],
}

ORTHANT = PolyhedralFamily(Polyhedron([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]))


def central_diff(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += step
        down[i] -= step
        out[i] = (evaluate(f, up) - evaluate(f, down)) / (2 * step)
    return out


class TestJacobian:
    def test_circle_jacobian(self):
        jac = compute_jacobian((parse("x1^2 + x2^2 - 1", 2),), (1, 0))
        assert jac.rank == 1
        assert np.array_equal(jac.matrix, [[2.0, 0.0]])
        assert jac.kernel_basis.shape == (1, 2)
        assert np.allclose(np.abs(jac.kernel_basis[0]), [0, 1])
        assert jac.left_null is None

    def test_duplicated_rows(self):
        jac = compute_jacobian((parse("x1", 2), parse("x1", 2)), (0, 0))
        assert jac.rank == 1
        assert np.linalg.norm(jac.left_null) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(jac.left_null @ jac.matrix).max() <= jac.tol_rank
        assert np.allclose(np.abs(jac.left_null), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_kernel_is_annihilated(self, rng):
        for _ in range(20):
            w, p = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            exprs = []
            for _ in range(w):
                coeffs = rng.standard_normal(p)
                src = " + ".join(f"{float(c)}*x{i+1}" for i, c in enumerate(coeffs))
                exprs.append(parse(src, p))
            jac = compute_jacobian(tuple(exprs), np.zeros(p))
            assert jac.rank + jac.kernel_basis.shape[0] == p
            for v in jac.kernel_basis:
                assert np.abs(jac.matrix @ v).max() <= max(jac.tol_rank, 1e-12)
            if jac.rank < w:
                assert np.abs(jac.left_null @ jac.matrix).max() <= max(jac.tol_rank, 1e-12)

    def test_pivot_magnitudes_reported(self):
        jac = compute_jacobian((parse("2*x1", 2), parse("x2/1000", 2)), (0, 0))
        assert jac.rank == 2
        assert jac.pivots[0] == pytest.approx(2.0)
        assert jac.pivots[1] == pytest.approx(1e-3)

    def test_empty_equality(self):
        jac = compute_jacobian((), (0.0, 0.0))
        assert jac.rank == 0
        assert np.array_equal(jac.kernel_basis, np.eye(2))


class TestComposeFamily:
    def test_linear_chain_gradient(self):
        prob = Problem(
            2,
            parse("x1", 2),
            FiniteFamily((parse("x1", 2),), ("m0",)),
            inner_map=(parse("x1 + x2", 2), parse("x1 - x2", 2)),
        )
        derived = compose_family(prob)
        assert np.array_equal(gradient(derived.family.members[0], (0, 0)), [1, 1])

    def test_identity_is_noop_up_to_representation(self):
        prob = Problem(
            2,
            parse("-x1^2 - x2", 2),
            FiniteFamily((parse("x1", 2), parse("x2", 2))),
            inner_map=(parse("x1", 2), parse("x2", 2)),
        )
        derived = compose_family(prob)
        for member, original in zip(derived.family.members, prob.family.members):
            for x in ([0.3, -0.2], [1.0, 2.0]):
                assert evaluate(member, x) == evaluate(original, x)

    def test_matrix_times_functional(self):
        # phi linear y*, g linear M: the composed generator is M^T y*
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        y_star = np.array([0.5, -1.5])
        inner = (parse("x1 + 2*x2", 2), parse("3*x1 + 4*x2", 2))
        phi = parse("0.5*x1 - 1.5*x2", 2)
        prob = Problem(2, parse("x1", 2), FiniteFamily((phi,)), inner_map=inner)
        derived = compose_family(prob)
        assert np.allclose(gradient(derived.family.members[0], (0, 0)), M.T @ y_star)

    def test_gradients_match_fd_on_random_composites(self, rng):
        bases = ("x1^2 + sin(x2)", "x1*x2 + cos(x1)", "exp(0.2*x1) - x2^2")
        inners = ("x1 - x2^2", "sin(x1) + x2", "x1*x2", "cos(x2) - x1")
        for _ in range(100):
            phi = parse(bases[rng.integers(len(bases))], 2)
            g1 = parse(inners[rng.integers(len(inners))], 2)
            g2 = parse(inners[rng.integers(len(inners))], 2)
            prob = Problem(2, parse("x1", 2), FiniteFamily((phi,)), inner_map=(g1, g2))
            derived = compose_family(prob)
            member = derived.family.members[0]
            x = rng.uniform(-1, 1, size=2)
            g = gradient(member, x)
            fd = central_diff(member, x)
            assert np.abs(g - fd).max() <= 1e-6 * (1 + np.abs(g).max())

    def test_requires_inner_map(self):
        with pytest.raises(ValueError):
            compose_family(Problem(2, parse("x1", 2)))


class TestCertifyComposed:
    def test_parabola_fixture(self):
        prob = Problem(
            2, parse("-x2", 2), ORTHANT, inner_map=(parse("x1", 2), parse("x2 - x1^2", 2))
        )
        cert = certify_composed(prob, (0, 0))
        assert cert.kind == "kkt"
        assert np.allclose(cert.y_star, [0, 1], atol=1e-9)
        assert cert.residual <= 1e-9
        # definitional identity x* = J_g^T y*
        jac_g = np.array([gradient(g, (0, 0)) for g in prob.inner_map])
        assert np.abs(jac_g.T @ cert.y_star - cert.x_star).max() <= 1e-8
        assert np.abs(cert.y_star).max() > 0

    def test_identity_inner_map_matches_plain_certificate(self):
        family = ParametricFamily(
            h=parse("x2 + t1", 2, 1),
            index=IndexSet.finite([[1.0 / k] for k in range(1, 11)]),
            extra=(parse("x1", 2),),
        )
        opts = Options(eps0=1.0)
        plain = certify_fj(Problem(2, parse("-x1^2 - x2", 2), family), (0, 0), opts)
        composed = certify_composed(
            Problem(
                2, parse("-x1^2 - x2", 2), family,
                inner_map=(parse("x1", 2), parse("x2", 2)),
            ),
            (0, 0),
            opts,
        )
        assert composed.kind == plain.kind
        assert composed.lam == pytest.approx(plain.lam, abs=1e-12)
        assert np.abs(composed.x_star - plain.x_star).max() <= 1e-9

    def test_infeasible_through_g(self):
        prob = Problem(
            2, parse("-x2", 2), ORTHANT, inner_map=(parse("x1", 2), parse("x2 - x1^2", 2))
        )
        with pytest.raises(InfeasibleError):
            certify_composed(prob, (1.0, 0.0))  # g = (1, -1) leaves the orthant


class TestCertifyEquality:
    def test_circle_lagrange_point(self):
        prob = Problem(2, parse("x1", 2), equality=(parse("x1^2 + x2^2 - 1", 2),))
        cert = certify_equality(prob, (1, 0))
        assert cert.found and cert.branch == "onto_no_a"
        assert cert.lambda0 == 1.0
        assert cert.w_star[0] == pytest.approx(-0.5, abs=1e-9)
        assert cert.residual <= 1e-9

    def test_circle_noncritical_point_refused(self):
        prob = Problem(2, parse("x1", 2), equality=(parse("x1^2 + x2^2 - 1", 2),))
        cert = certify_equality(prob, (0, 1))
        assert not cert.found
        assert cert.branch == "onto_no_a"

    def test_duplicated_rows_not_onto(self):
        prob = Problem(2, parse("x2", 2), equality=(parse("x1", 2), parse("x1", 2)))
        cert = certify_equality(prob, (0, 0.7))
        assert cert.found and cert.branch == "not_onto"
        assert cert.lambda0 == 0.0 and cert.z_star is None
        assert np.linalg.norm(cert.w_star) == pytest.approx(1.0, abs=1e-9)
        assert np.abs(cert.jacobian.matrix.T @ cert.w_star).max() <= 1e-9

    def test_orthant_line_fixture(self):
        prob = Problem(
            2, parse("-x1 - x2", 2), ORTHANT, equality=(parse("x1 - x2", 2),)
        )
        cert = certify_equality(prob, (0, 0))
        assert cert.found and cert.branch == "onto_with_a"
        assert cert.residual <= 1e-9
        assert (cert.lambda0, np.abs(cert.z_star).max(), np.abs(cert.w_star).max()) != (0, 0, 0)

    def test_violated_equality_raises(self):
        prob = Problem(2, parse("x1", 2), equality=(parse("x1^2 + x2^2 - 1", 2),))
        with pytest.raises(InfeasibleError):
            certify_equality(prob, (2, 0))

    def test_absent_equality_reduces_to_certify_fj(self):
        family = FiniteFamily((parse("x1", 2), parse("x2", 2)))
        prob = Problem(2, parse("-x1 - x2", 2), family)
        plain = certify_fj(prob, (0, 0))
        full = certify_equality(prob, (0, 0))
        assert full.found and full.branch == "onto_with_a"
        assert full.lambda0 == pytest.approx(plain.lam, abs=1e-12)
        assert np.allclose(full.z_star, plain.beta * plain.x_star, atol=1e-9)
        assert full.w_star.size == 0

    def test_absent_equality_reduces_to_certify_composed(self):
        prob = Problem(
            2, parse("-x2", 2), ORTHANT, inner_map=(parse("x1", 2), parse("x2 - x1^2", 2))
        )
        plain = certify_composed(prob, (0, 0))
        full = certify_equality(prob, (0, 0))
        assert full.found and full.branch == "onto_with_a"
        assert full.lambda0 == pytest.approx(plain.lam, abs=1e-12)
        assert np.allclose(full.z_star, plain.beta * plain.y_star, atol=1e-9)

    def test_full_rank_square_jacobian_isolated_point(self):
        prob = Problem(
            2, parse("x1 + x2", 2), equality=(parse("x1", 2), parse("x2 - x1", 2))
        )
        cert = certify_equality(prob, (0, 0))
        assert cert.found and cert.branch == "onto_no_a"
        assert cert.residual <= 1e-9

    @pytest.mark.parametrize("p, inequalities", [(1, ["x1 + 1"]), (2, ["x1 + x2"])])
    def test_trivial_kernel_with_inequalities(self, p, inequalities):
        # J_h has full column rank: Ker J_h = {0} leaves the inequalities (one
        # inactive, one active) no direction, so (lambda0, z*) = (1, 0) and
        # w* = -grad f, as without any inequality
        objective = parse(" + ".join(f"x{i + 1}" for i in range(p)), p)
        equality = tuple(parse(f"x{i + 1}", p) for i in range(p))
        family = FiniteFamily(tuple(parse(g, p) for g in inequalities))
        cert = certify_equality(Problem(p, objective, family, equality=equality), np.zeros(p))
        bare = certify_equality(Problem(p, objective, equality=equality), np.zeros(p))
        assert cert.found and cert.branch == "onto_with_a" and cert.inner is None
        assert (cert.lambda0, cert.z_star.tolist()) == (1.0, [0.0] * p)
        assert np.array_equal(cert.w_star, bare.w_star) and np.allclose(cert.w_star, -1.0)
        assert cert.residual == bare.residual <= 1e-12

    def test_trivial_kernel_still_reports_an_infeasible_inequality(self):
        prob = Problem(1, parse("x1", 1), FiniteFamily((parse("x1 - 1", 1),)),
                       equality=(parse("x1", 1),))
        with pytest.raises(InfeasibleError) as err:
            certify_equality(prob, (0.0,))
        assert err.value.report.min_value == -1.0
        # through an inner map: the member y1 - 1 at y = g(0) = 0
        composed = Problem(1, parse("x1", 1), FiniteFamily((parse("x1 - 1", 1),)),
                           inner_map=(parse("x1^2", 1),), equality=(parse("x1", 1),))
        with pytest.raises(InfeasibleError):
            certify_equality(composed, (0.0,))

    @pytest.mark.parametrize("name", ["eq_orthant_line", "eq_duplicated_rows", "eq_circle", None])
    def test_one_feasibility_check_per_certification(self, name, monkeypatch):
        # the family and the equality rows are evaluated once, by the ladder,
        # on every branch; None is a rank-deficient Jacobian whose candidate
        # violates its inequality
        from sipcert import model, multipliers, reduction

        loaded = load_problem(RANK_DEFICIENT) if name is None else load_fixture(name)
        prob, x = loaded.problem, loaded.candidate
        checks, rows = [], []
        evaluate_family, scalar = model.evaluate_family, model.evaluate

        def counted(f, *args, **kwargs):
            if f in prob.equality:
                rows.append(f)
            return scalar(f, *args, **kwargs)

        monkeypatch.setattr(
            multipliers, "evaluate_family", lambda *a: checks.append(a) or evaluate_family(*a)
        )
        monkeypatch.setattr(model, "evaluate", counted)
        monkeypatch.setattr(reduction, "evaluate", counted)
        if name is None:
            with pytest.raises(InfeasibleError) as err:
                certify_equality(prob, x)
            assert (err.value.report.min_tag, err.value.report.min_value) == ("phi0", -0.5)
        else:
            assert certify_equality(prob, x).found
        assert len(checks) == 1
        assert rows == list(prob.equality)

    def test_inner_map_and_equality_together(self):
        prob = Problem(
            2,
            parse("-x2", 2),
            ORTHANT,
            inner_map=(parse("x1", 2), parse("x2 - x1^2", 2)),
            equality=(parse("x1", 2),),
        )
        cert = certify_equality(prob, (0, 0))
        assert cert.found and cert.branch == "onto_with_a"
        assert cert.residual <= 1e-9
        grad_f = gradient(prob.objective, np.zeros(2))
        jac_g = np.array([gradient(g, np.zeros(2)) for g in prob.inner_map])
        recomputed = np.abs(
            cert.lambda0 * grad_f + jac_g.T @ cert.z_star + cert.jacobian.matrix.T @ cert.w_star
        ).max()
        assert recomputed <= 1e-9

    def test_residual_recomputable(self):
        prob = Problem(
            2, parse("-x1 - x2", 2), ORTHANT, equality=(parse("x1 - x2", 2),)
        )
        cert = certify_equality(prob, (0, 0))
        grad_f = gradient(prob.objective, np.zeros(2))
        recomputed = np.abs(
            cert.lambda0 * grad_f + cert.z_star + cert.jacobian.matrix.T @ cert.w_star
        ).max()
        assert recomputed == pytest.approx(cert.residual, abs=1e-12)


class TestConvexSetMultiplier:
    def test_active_face_passes(self):
        poly = Polyhedron([[1, 0], [0, 1]], [0, 0])
        check = convex_set_multiplier(poly, (0, 3), (1, 0))
        assert check.passed and check.minimum == pytest.approx(0.0, abs=1e-9)

    def test_inactive_face_fails(self):
        poly = Polyhedron([[1, 0], [0, 1]], [0, 0])
        check = convex_set_multiplier(poly, (1, 0), (1, 0))
        assert not check.passed
        assert check.in_dual_of_recession and not check.attains_minimum

    def test_shifted_halfplane(self):
        poly = Polyhedron([[1, 1], [1, 0]], [1, 0])
        z = np.array([1.0, 1.0]) / np.sqrt(2.0)
        check = convex_set_multiplier(poly, (0.5, 0.5), z)
        assert check.passed
        assert check.minimum == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_unbounded_direction_fails_with_ray(self):
        poly = Polyhedron([[1, 0]], [0])  # x >= 0, y free
        check = convex_set_multiplier(poly, (0, 0), (0, 1))
        assert not check.passed
        assert check.unbounded_ray is not None
        assert np.dot([0, 1], check.unbounded_ray) < 0
