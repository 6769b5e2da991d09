"""scalarflat: Chern curvature, RC-positivity certificates and scalar-flat
Hermitian metric classification on ruled-surface models."""

from .classifier import (
    GateResult,
    MinimalSurfaceDescriptor,
    classify_ruled,
    classify_split,
    hirzebruch_anticanonical_h0,
    is_stable_rank2,
    m_split_rank2,
    minimal_surface_gate,
    total_scalar_image,
    validate_m,
)
from .curvature import (
    MetricModel4T,
    RicciField,
    canonical_curvature_split,
    chern_curvature_matrix,
    chern_ricci,
    chern_scalar,
    conformal_ricci,
    tautological_base_curvature,
    total_scalar,
)
from .errors import (
    ConvergenceError,
    DegreeError,
    DescriptorError,
    NagataViolation,
    ScalarFlatError,
    SolvabilityError,
)
from .geom_core import (
    ClassificationReport,
    CurveModel,
    FiberSimplexPoint,
    LineBundleModel,
    OneOneForm,
    SplitBundle,
    integrate,
    load_bundle_descriptor,
    make_line_bundle,
    tensor_product,
)
from .pde import (
    ConformalSolution,
    conformal_scalar_flat,
    is_gauduchon,
    poisson_periodic,
    prescribe_curvature,
)
from .positivity import (
    Certificate,
    RCReport,
    anti_kx_rc_flag,
    kx_certificate_split,
    kx_curvature_form,
    rc_scan,
)

__version__ = "0.1.0"
