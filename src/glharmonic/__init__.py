"""Harmonic-map energy functionals between generalized Lagrange spaces,
minimizer certificates for first-order systems df = T, and the
Maxwell/Einstein field equations of conformal spaces."""

from .energy import (
    ConnectionTensor,
    MapJet,
    MetricPair,
    el_residual,
    el_residual_fiber_covector,
    el_residual_oneform_source,
    energy,
    induced_arguments,
    lagrangian_density,
)
from .errors import (
    AdmissibilityError,
    DivisionGuardError,
    GLHarmonicError,
    ScenarioValidationError,
    SingularDirectionError,
    SingularMetricError,
    StencilSupportError,
    StepLimitError,
)
from .field_equations import (
    EinsteinSystem,
    ElectromagneticTensors,
    deflection_tensor,
    einstein_system,
    em_tensors,
    maxwell_residuals,
)
from .gl_space import (
    ConformalFactorDerivatives,
    ConformalLagrangeSpace,
    conformal_space,
    delta_derivative,
    hv_covariant,
    hv_covariant_cov2,
    sigma_blocks,
)
from .riemann import RiemannPackage, christoffel, curvature_package, sphere_metric
from .systems import (
    FirstOrderSystem,
    MinimizerCertificate,
    SampledCurve,
    certify_minimizer,
    group_system_lagrangian,
    half_volume,
    integrate_orbit,
    level_set_geodesic_defect,
    orbit_geodesic_residual,
    orbit_metric,
    pfaff_metric,
    pseudolinear_scenario,
    quotient_functional,
    section_scalar_product,
)
from .tensor_core import (
    ChartGrid,
    MetricField,
    TensorField,
    box_grid,
    fd_partial,
    identity_metric,
    interval_grid,
    invert_metric,
    quadrature,
    sample_metric,
    sample_scalar,
)

__version__ = "0.1.0"
