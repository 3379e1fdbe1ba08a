"""Certified upper bounds on parametric widths of fiberwise starshaped
cotangent-bundle domains, combining a loop-length extremization engine with a
filtered string-topology rewrite calculus."""

from .bounds import (
    CapacityBound,
    camel_limit_report,
    compute_bounds,
    resolve_bindings,
)
from .catalog import (
    Scenario,
    TargetClass,
    build_scenario,
    camel_scenario,
    ellipsoid2_scenario,
    ellipsoid_scenario,
    klein_bottle_scenario,
    open_book_scenario,
    product_torus_scenario,
)
from .gauge import (
    BaseDescriptor,
    BasePoint,
    ContainmentResult,
    GaugeDomain,
    MetricSpec,
    SamplePlan,
    TangentVector,
    codisk_domain,
    domain_contains,
    metric_norm,
    support,
)
from .frames import UnitaryFrame, sphere_unitary_frame, verify_frame_family
from .loops import (
    ExtremalLengthReport,
    GridAxis,
    Loop,
    LoopFamily,
    ParamGrid,
    QuadratureSpec,
    RefineSpec,
    concatenate,
    extremal_lengths,
    family_lengths,
    loop_length,
    reverse,
)
from .stralg import (
    Certificate,
    FilteredClass,
    FiltExpr,
    RULES,
    check_certificate,
    delta,
    derive_certificate,
    iota,
    star,
)

__version__ = "0.1.0"
