"""grflab: a desk-scale numerical laboratory for generalized Ricci flow.

The package studies the coupled evolution of a metric g and a closed 3-form
H = Hhat + db on flat tori (and its reduction to 3D Lie groups), together
with the variational structure behind it: the lowest eigenvalue of the
Schrodinger operator -4 Delta + R - |H|^2/12 acts as a Lyapunov functional
whose gradient flow the dynamics follows up to diffeomorphism.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    FieldError,
    GrflabError,
    JacobianError,
    NonFiniteError,
    PositivityError,
    StepSizeError,
)
from .lattice import (
    Grid,
    ScalarField,
    TensorField,
    weighted_inner,
)
from .geometry import MetricField, flat_metric, scalar_curvature
from .spectrum import (
    SchrodingerOperator,
    SpectralSolution,
    assemble_mu_gradient,
    critical_point_diagnostics,
    f_equation_residual,
    lowest_eigenpair,
    mu_directional_derivative,
    schrodinger_apply,
)
from .flow import (
    FlowConfig,
    FlowState,
    Trajectory,
    deturck_rhs,
    grf_rhs,
    mu_gradient_flow_rhs,
    run_flow,
    step,
    write_records_csv,
    write_trajectory_csv,
)
from .diffeo import diffeo_flow, pullback
from .lojasiewicz import lojasiewicz_estimate
from .homogeneous import (
    ALGEBRAS,
    LieData,
    find_stationary,
    invariant_flow,
    invariant_grf_rhs,
    invariant_h_squared,
    invariant_norm_sq,
    invariant_ricci,
    invariant_scalar_curvature,
    stationarity_residual,
)
from .perturbations import (
    random_form_perturbation,
    random_metric_perturbation,
    trig_polynomial,
)
from .experiments import (
    background_three_form,
    eigen_report,
    flat_equilibrium_report,
    gauge_consistency_run,
    gradient_check,
    homogeneous_report,
    lojasiewicz_report,
    monotonicity_run,
    perturbed_state,
    stability_run,
)

__version__ = "0.1.0"
