"""Deterministic relative-error estimation of total variation distance.

Represents likelihood ratios of discrete distribution pairs as explicit
sparse tables, multiplies them coordinate by coordinate (or step by step
along a Markov chain) and repeatedly merges nearby table entries so the
support stays polynomial.  The resulting estimate always lower-bounds the
true distance and is accurate to a chosen relative error.
"""

from .errors import (
    DimensionError,
    ParameterError,
    ParseError,
    SizeError,
    TVDistError,
    ValidityError,
)
from .files import (
    InstanceFile,
    derive_seed,
    emit_instance,
    emit_report,
    generate_instance,
    generate_markov_instance,
    generate_product_instance,
    instance_digest,
    parse_instance,
    region_csv,
)
from .markov import MarkovPair, estimate_markov_tv, markov_lower_bound
from .oracle import (
    brute_force_tv_markov,
    brute_force_tv_product,
    exact_ratio_markov,
    exact_ratio_product,
)
from .product import (
    EstimateReport,
    ProductPair,
    estimate_product_tv,
    product_lower_bound,
)
from .ratios import (
    VALIDITY_TOL,
    DiscreteDist,
    MassPoint,
    NPBoundary,
    RatioDist,
    concatenate,
    expectation,
    np_boundary,
    ratio_of,
    tv_discrete,
    tv_of_ratio,
)
from .sparsify import (
    IntervalPartition,
    build_partition,
    sparsify,
    sparsify_wrt_intervals,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "DiscreteDist",
    "EstimateReport",
    "InstanceFile",
    "IntervalPartition",
    "MarkovPair",
    "MassPoint",
    "NPBoundary",
    "ParameterError",
    "ParseError",
    "ProductPair",
    "RatioDist",
    "SizeError",
    "TVDistError",
    "VALIDITY_TOL",
    "ValidityError",
    "brute_force_tv_markov",
    "brute_force_tv_product",
    "build_partition",
    "concatenate",
    "derive_seed",
    "emit_instance",
    "emit_report",
    "estimate_markov_tv",
    "estimate_product_tv",
    "exact_ratio_markov",
    "exact_ratio_product",
    "expectation",
    "generate_instance",
    "generate_markov_instance",
    "generate_product_instance",
    "instance_digest",
    "markov_lower_bound",
    "np_boundary",
    "parse_instance",
    "product_lower_bound",
    "ratio_of",
    "region_csv",
    "sparsify",
    "sparsify_wrt_intervals",
    "tv_discrete",
    "tv_of_ratio",
]
