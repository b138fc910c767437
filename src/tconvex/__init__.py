"""Executable calculus of generalized convexity on metric Abelian groups.

Exact-arithmetic models of cyclic products, integer lattices and adic
modules; endomorphism algebra with certified spectral bounds; convex-set
and convex-function checkers for endomorphism-parameterized convexity
notions; and derivation rules that manufacture new convexity parameters
from verified ones, each carrying an explicit hypothesis audit.
"""

from .derive import (
    AffineDecomposition,
    DeriveError,
    DerivedPair,
    Infeasible,
    SupportCertificate,
    WrightDecomposition,
    affine_decompose,
    compose_pair,
    kuhn_derive,
    last_derive,
    right_inverse_derive,
    rode_support,
    twa_decompose,
    u_grid_verify,
    wright_ratio_derive,
)
from .endos import (
    Endo,
    EndoError,
    IllFormed,
    NotCertified,
    NotInvertible,
    PartialEndo,
    SpectralBound,
    complement,
    compose,
    deserialize_endo,
    identity_endo,
    midpoint_recursion,
    multiplication_endo,
    neumann_inverse,
    operator_norm,
    power,
    right_inverse_on,
    scaled_identity,
    serialize_endo,
    spectral_radius,
    try_inverse,
    validate_endo,
    zero_endo,
)
from .functions import (
    ConvexPair,
    FnError,
    Interval,
    KINDS,
    QUASICONVEX,
    QuadraticFn,
    TTCONVEX,
    TT_AFFINE,
    TableFn,
    WRIGHT,
    WRIGHT_AFFINE,
    check_inequality,
    convexity_interval,
    deserialize_fn,
    diamond_conv,
    inf_conv,
    level_set,
    lift_check,
    neg_char_fn,
    pointwise,
    qconv_envelope,
    serialize_fn,
    table_fn,
    transport,
)
from .generators import generate_instance
from .groups import (
    Element,
    GroupError,
    GroupSpec,
    cyclic_group,
    deserialize_group,
    divisible_by,
    lattice_group,
    mu_d,
    n_norm,
    nadic_group,
    serialize_group,
)
from .rationals import NEG_INF, format_rational, parse_rational
from .report import Report
from .sets import (
    GroundSet,
    SetError,
    box_set,
    closure_generate,
    deserialize_ground_set,
    enumerate_TD,
    finite_set,
    internal_points,
    is_T_convex,
    is_n_convex,
    radstrom_check,
    serialize_ground_set,
    whole_group_set,
)
from .suites import (
    Campaign,
    CampaignReport,
    SuiteConfig,
    SuiteError,
    replay_alarm,
    run_suite,
)

__version__ = "1.0.0"
