"""Generalized zeta-function regularization of the divergent sums sum(n^alpha).

A generator L = -h(t) d/dt, encoded by the expansion of p(t) = 1/h(t),
defines a regularization of sum_{n>=1} n^alpha for Re alpha > -1 that
reduces to the Riemann zeta values when h = 1.  Integer orders are exact
rationals from a coefficient-extraction formula; non-integer orders come
from a finite-part Mellin integral, cross-checkable against a circle+ray
contour route.
"""

from .contour import (
    ComplexGrid,
    RegulatorValue,
    branch_map,
    circle_integral,
    ray_integral,
    regulator_circle_ray,
    write_grid_csv,
)
from .fractional import (
    FinitePartResult,
    RegulatorConfig,
    finite_part_mellin,
    frac_action_direct_sum,
    frac_regulator,
    frac_regulator_fp,
    richardson_integer_limit,
)
from .generator import (
    GeneratorSpec,
    build_phi,
    generator_from_dict,
    gsf_eval,
    load_generator,
    make_generator,
    neg_phi_neg,
    phi_eval_real,
    validate_hankel,
)
from .integer_trace import (
    TraceValue,
    trace_closed_form,
    trace_integer,
    trace_laurent_oracle,
)
from .series import PowerSeries, exp_series
from .special import (
    bernoulli_values,
    eulerian_rows,
    gamma_c,
    polylog_expand_near_one,
    polylog_neg_int,
    polylog_series,
    rgamma,
    zeta_c,
    zeta_neg_int,
)
from .stirling import eigen_check, frac_operator_apply, stirling2_frac
from .zeta_fn import ProductValue, gen_zeta, reg_product

__version__ = "0.1.0"
