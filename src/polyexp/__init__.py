"""Polyexponential toolkit.

Evaluates e_s(x, lam) = sum_{n>=0} x^n / (n! (n+lam)^s) by several
independent routes (series, closed forms, recursion, branch-cut contour,
Taylor shift, asymptotics), drives Lerch/Hurwitz/Riemann/eta evaluations
through integral transforms, evaluates Mellin-Barnes integrals of
rational*Gamma integrands symbolically with a quadrature oracle, and sums
the h_s prefix-series family. The exact layer underneath works in
big-rational arithmetic.
"""

from .exact import (
    BivariatePoly,
    ExactPoly,
    bernoulli,
    euler_poly,
    exp_moment,
    faulhaber_poly,
    h_neg_closed_poly,
    phi_antiderivative,
    phi_poly,
    q_poly,
    stirling2,
)
from .core import (
    EvalResult,
    asymptotic_lambda,
    asymptotic_x_leading,
    ein,
    eval_hankel,
    eval_negint,
    eval_series,
    eval_via_recursion,
    evaluate,
    gamma_fn,
    generating_sum,
    lower_inc_gamma,
    taylor_shift,
)
from .quadrature import quad_semiinfinite, tanh_sinh
from .transforms import (
    eta,
    h_mellin_representation,
    hurwitz_zeta,
    lerch_phi,
    mellin_s_representation,
    mellin_transform_polyexp,
    riemann_zeta,
    vanishing_moment,
)
from .mellin import (
    MellinExpression,
    PartialFractions,
    RationalFunction,
    eval_expression,
    eval_theorem63,
    oracle_line_integral,
    parse_rational,
    partial_fractions,
    shift_adjust,
)
from .series import (
    HSeriesParams,
    borel_probe,
    h1_closed,
    h_asymptotic_lambda,
    h_direct,
    h_neg_alt_eval,
    h_neg_eval,
    h_quadrature,
)
from .result import (
    ConditioningError,
    ContourResolutionError,
    ConvergenceError,
    DomainError,
    ParseError,
    PoleError,
    PolyexpError,
    QuadratureError,
    UnsupportedError,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact layer
    "ExactPoly", "BivariatePoly", "bernoulli", "stirling2",
    "phi_poly", "q_poly", "euler_poly", "faulhaber_poly", "exp_moment",
    "phi_antiderivative", "h_neg_closed_poly",
    # evaluation routes
    "EvalResult", "gamma_fn", "lower_inc_gamma", "ein",
    "evaluate", "eval_series", "eval_negint", "eval_via_recursion", "eval_hankel",
    "taylor_shift", "generating_sum", "asymptotic_lambda", "asymptotic_x_leading",
    # quadrature + transforms
    "quad_semiinfinite", "tanh_sinh",
    "lerch_phi", "hurwitz_zeta", "eta", "riemann_zeta",
    "mellin_transform_polyexp", "vanishing_moment", "mellin_s_representation",
    "h_mellin_representation",
    # mellin pipeline
    "RationalFunction", "PartialFractions", "MellinExpression",
    "parse_rational", "partial_fractions", "eval_theorem63", "shift_adjust",
    "eval_expression", "oracle_line_integral",
    # h family
    "HSeriesParams", "h_direct", "h_quadrature", "h1_closed", "h_neg_eval",
    "h_neg_alt_eval", "borel_probe", "h_asymptotic_lambda",
    # errors
    "PolyexpError", "DomainError", "PoleError", "ConvergenceError",
    "QuadratureError", "ContourResolutionError", "ConditioningError",
    "UnsupportedError", "ParseError",
]
