"""Multivariable extremum seeking control under saturation constraints.

Gain synthesis via vertex LMI feasibility over a polytopic curvature family,
fixed-step simulation of the saturated seeking loops and their averages, and
numerical certification of the decay and convergence claims.
"""

from .analysis import (
    BandReport,
    DecayFit,
    ZeroMeanReport,
    average_rhs_consistency,
    check_convergence_bands,
    fit_decay,
    sample_deadzone_sector_global,
    sample_deadzone_sector_regional,
    sup_deviation,
    zero_mean_report,
)
from .plant import (
    AwController,
    GradSatController,
    PerturbationTerms,
    QuadraticMap,
    SaturationBounds,
    deadzone,
    loop_laws,
    perturbation_terms,
    saturate,
)
from .polytope import (
    HessianPolytope,
    evaluate,
    from_affine,
    from_eigen_interval,
    from_scaled_nominal,
)
from .sdp import LmiBlock, LmiProblem, SdpSolution, check_solution, solve_feasibility
from .signals import (
    DitherSpec,
    eval_S_M,
    eval_S_M_dot,
    validate_frequencies,
)
from .sim import (
    SimConfig,
    SimulationBlowUp,
    Trajectory,
    export_csv,
    simulate,
    simulate_batch,
)
from .synthesis import (
    AwDesign,
    GradSatDesign,
    InfeasibleDesignError,
    certify,
    design_aw_gains,
    design_gradsat_gain,
    find_aw_certificate,
    load_design,
    save_design,
    verify_aw_design,
    verify_ellipsoid_inclusion,
    verify_gradsat_design,
)

__version__ = "0.1.0"
