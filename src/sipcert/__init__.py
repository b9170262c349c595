"""First-order optimality certificates via multiplier-set membership.

Certifies Fritz John / KKT conditions for candidate points of
finite-dimensional maximization problems with finite, semi-infinite
(parametric), polyhedral, composed (g(x) in A) and equality constraints.
The multiplier set is the intersection of near-active gradient hulls,
approximated by a shrinking epsilon-ladder; certification is the
membership 0 in [grad f, T_C] decided by linear programming.
"""

from .expr import (
    EvalDomainError,
    ExprError,
    ExprFn,
    KinkError,
    ParseError,
    evaluate,
    evaluate_many,
    format_expr,
    gradient,
    gradient_many,
    linear_expr,
    parse,
    substitute,
)
from .geometry import (
    GeometryError,
    Polyhedron,
    caratheodory_reduce,
    cone_interior_nonempty,
    hull_distance,
    hull_member,
    one_sided_hull_gap,
    polyhedron_minimize,
    recession_cone,
    segment_hull_member,
)
from .lp import SimplexError, SimplexSolution, solve_lp
from .model import (
    ActiveSet,
    FiniteFamily,
    IndexSet,
    InfeasibleError,
    ParametricFamily,
    PolyhedralFamily,
    Problem,
    admissible_diagnostics,
    equi_lipschitz_estimate,
    feasibility,
)
from .multipliers import Certificate, SipMultipliers, TCApprox, certify_fj, sip_multipliers, tc_approx
from .options import Options
from .problemfile import LoadedProblem, ProblemFileError, emit_json, load_problem
from .reduction import (
    ConvexSetCheck,
    FullCertificate,
    Jacobian,
    certify_composed,
    certify_equality,
    compose_family,
    compute_jacobian,
    convex_set_multiplier,
)

__version__ = "0.1.0"
