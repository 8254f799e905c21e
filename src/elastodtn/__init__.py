"""Adaptive finite element solver for two-dimensional time-harmonic
elastic wave scattering by a rigid obstacle, with an exact transparent
boundary condition given by a truncated Fourier DtN operator."""

from .assembly import (
    IncidentWave,
    ProblemConfig,
    SolutionField,
    assemble,
    h1_norm,
    incident_field,
    incident_h1,
    solve,
)
from .driver import (
    RunHistory,
    RunRecord,
    adaptive_solve,
    example1_config,
    example1_mesh,
    example2_config,
    example2_mesh,
    uniform_solve,
)
from .dtn import (
    DtnSpectrum,
    build_spectrum,
    dtn_boundary_form,
    fourier_coefficients,
    select_truncation,
    truncation_error,
)
from .estimator import EstimateReport, global_estimate
from .mesh import Mesh, generate_annulus, load_mesh, mark, refine, refine_all, save_mesh
from .specfun import bessel_jy, hankel_ratio_gap, mode_scalar_arrays
from .verify import ConvergenceFit, exact_solution_example1, fit_rate, helmholtz_check

__version__ = "0.1.0"

__all__ = [
    "IncidentWave",
    "ProblemConfig",
    "SolutionField",
    "assemble",
    "h1_norm",
    "incident_field",
    "incident_h1",
    "solve",
    "RunHistory",
    "RunRecord",
    "adaptive_solve",
    "example1_config",
    "example1_mesh",
    "example2_config",
    "example2_mesh",
    "uniform_solve",
    "DtnSpectrum",
    "build_spectrum",
    "dtn_boundary_form",
    "fourier_coefficients",
    "select_truncation",
    "truncation_error",
    "EstimateReport",
    "global_estimate",
    "Mesh",
    "generate_annulus",
    "load_mesh",
    "mark",
    "refine",
    "refine_all",
    "save_mesh",
    "bessel_jy",
    "hankel_ratio_gap",
    "mode_scalar_arrays",
    "ConvergenceFit",
    "exact_solution_example1",
    "fit_rate",
    "helmholtz_check",
]
