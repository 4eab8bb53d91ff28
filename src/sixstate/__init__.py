"""Optimal individual eavesdropping on the noisy six-state protocol.

Library layout:

- `sixstate.linalg` — small dense linear-algebra helpers (adjoints,
  partial traces, isometry checks).
- `sixstate.protocol` — six-state signal states with source noise,
  error-rate bookkeeping and the `(p, q)` domain check.
- `sixstate.attack` — the constrained probe family, its isometry, and
  Eve's outcome distribution (closed form and simulated).
- `sixstate.info` — the information quantities and their closed-form
  optima.
- `sixstate.optimize` — brute-force maximization and stationarity
  checks, independent of the closed forms.
- `sixstate.analysis` — curve sweeps and key-rate crossing studies.
- `sixstate.cli` — the ``sixstate`` command-line tool.
"""

from . import analysis, attack, info, linalg, optimize, protocol
from .analysis import (
    CrossingResult,
    CurvePoint,
    crossing_point,
    crossing_sweep,
    curve_sweep,
    key_feasible,
)
from .attack import (
    AncillaSet,
    AttackParameters,
    antiphase_parameters,
    build_ancillas,
    build_isometry,
    eve_distribution_closed_form,
    optimal_parameters,
    overlap_target,
    parameters_from_squares,
    simulate_eve_distribution,
    simulate_qber,
)
from .exceptions import (
    AmbiguousCrossingError,
    ConstraintError,
    DimensionError,
    DomainError,
    NoCrossingError,
)
from .info import (
    beta_sq_optimal,
    i_ab,
    i_ae_antiphase,
    i_ae_general,
    i_ae_optimal,
    mutual_information,
    tau,
)
from .optimize import (
    LagrangeResidual,
    OptimizationResult,
    feasible_phase,
    grid_refine_maximize,
    lagrange_residual,
    verify_root_pair,
)

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "attack",
    "info",
    "linalg",
    "optimize",
    "protocol",
    "AncillaSet",
    "AttackParameters",
    "CrossingResult",
    "CurvePoint",
    "LagrangeResidual",
    "OptimizationResult",
    "AmbiguousCrossingError",
    "ConstraintError",
    "DimensionError",
    "DomainError",
    "NoCrossingError",
    "antiphase_parameters",
    "beta_sq_optimal",
    "build_ancillas",
    "build_isometry",
    "crossing_point",
    "crossing_sweep",
    "curve_sweep",
    "eve_distribution_closed_form",
    "feasible_phase",
    "grid_refine_maximize",
    "i_ab",
    "i_ae_antiphase",
    "i_ae_general",
    "i_ae_optimal",
    "key_feasible",
    "lagrange_residual",
    "mutual_information",
    "optimal_parameters",
    "overlap_target",
    "parameters_from_squares",
    "simulate_eve_distribution",
    "simulate_qber",
    "tau",
    "verify_root_pair",
    "__version__",
]
