"""opdyn: a numerical laboratory for nonexpansive operator dynamics.

Operators J (nonexpansive), A = I - J (accretive) and the perturbed
recession map Phi(lam, x) = lam J(((1-lam)/lam) x); Shapley operators of
finite zero-sum stochastic games; discrete schemes and certified ODE
integration; and a registry of quantitative inequality checks.
"""

from .bounds import BoundReport, Scenario, Settings, run_checks, run_suite, suite_plan, verify
from .continuous import (
    Constant,
    InverseTimeZeta,
    Parametrization,
    PowerAlpha,
    Table,
    Trajectory,
    euler_power,
    integrate_U,
    integrate_u,
    slow_param_bound,
    zeta,
    zeta_inverse,
)
from .core import (
    EUCLIDEAN,
    SUP,
    AffineNonexpansive,
    LinearIsometry,
    Operator,
    Translation,
    apply_A,
    apply_Phi,
    check_accretive,
    check_nonexpansive,
    identity_operator,
    norm,
    rotation,
)
from .discrete import (
    StepSequence,
    euler_scheme,
    iterate_Vn,
    phi_recursion,
    solve_vlambda,
)
from .errors import InputError, OpdynError, ResourceError, SchemaError
from .shapley import (
    ShapleyOperator,
    StochasticGame,
    load_game,
    matching_pennies,
    matrix_game_value,
    matrix_game_value_oracle,
    random_game,
)

__version__ = "0.1.0"

__all__ = [
    "AffineNonexpansive",
    "BoundReport",
    "Constant",
    "EUCLIDEAN",
    "InputError",
    "InverseTimeZeta",
    "LinearIsometry",
    "OpdynError",
    "Operator",
    "Parametrization",
    "PowerAlpha",
    "ResourceError",
    "SUP",
    "Scenario",
    "SchemaError",
    "Settings",
    "ShapleyOperator",
    "StepSequence",
    "StochasticGame",
    "Table",
    "Trajectory",
    "Translation",
    "apply_A",
    "apply_Phi",
    "check_accretive",
    "check_nonexpansive",
    "euler_power",
    "euler_scheme",
    "identity_operator",
    "integrate_U",
    "integrate_u",
    "iterate_Vn",
    "load_game",
    "matching_pennies",
    "matrix_game_value",
    "matrix_game_value_oracle",
    "norm",
    "phi_recursion",
    "random_game",
    "rotation",
    "run_checks",
    "run_suite",
    "slow_param_bound",
    "solve_vlambda",
    "suite_plan",
    "verify",
    "zeta",
    "zeta_inverse",
]
