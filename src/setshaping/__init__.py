"""Information-content shaping of i.i.d. symbol strings.

The core object is an exact total order on fixed-length strings: information
content ascending, with ties broken by composition and position.  On top of
it sit exact rank/unrank, the order-preserving length-increasing bijection
that maps all a**n strings of length n onto the a**n lowest-content strings
of length n+k, exact and Monte Carlo mean-content analysis, and an adaptive
arithmetic codec for measuring the transform's effect on compressed sizes.
"""

from .analyzer import (
    AverageReport,
    average_info_exact,
    rank_info_series,
    shaped_average_info,
    shaped_average_info_exact,
)
from .bijection import (
    ShapingParameters,
    in_image,
    shape,
    string_rank,
    string_unrank,
    unshape,
)
from .codec import (
    ExperimentReport,
    decode,
    encode,
    encoded_bit_length,
    redundancy_bound_bits,
    shaping_experiment,
)
from .compositions import (
    ClassOrder,
    class_order,
    multinomial,
    order_product,
)
from .errors import (
    BlockLengthError,
    CorruptStreamError,
    DegenerateSampleError,
    InvalidSymbolError,
    NotInImageError,
    ResourceLimitError,
    ShapingError,
)
from .montecarlo import (
    McConfig,
    McEstimate,
    estimate_average_info,
    estimate_shaped_average_info,
    estimate_table,
    info_from_counts,
    sample_compositions,
    shard_generator,
)
from .source import (
    SourceEnsemble,
    composition_of,
    empirical_information_content,
    information_content,
    validate_symbols,
)

__version__ = "0.1.0"

__all__ = [
    "AverageReport",
    "BlockLengthError",
    "ClassOrder",
    "CorruptStreamError",
    "DegenerateSampleError",
    "ExperimentReport",
    "InvalidSymbolError",
    "McConfig",
    "McEstimate",
    "NotInImageError",
    "ResourceLimitError",
    "ShapingError",
    "ShapingParameters",
    "SourceEnsemble",
    "average_info_exact",
    "class_order",
    "composition_of",
    "decode",
    "empirical_information_content",
    "encode",
    "encoded_bit_length",
    "estimate_average_info",
    "estimate_shaped_average_info",
    "estimate_table",
    "in_image",
    "info_from_counts",
    "information_content",
    "multinomial",
    "order_product",
    "rank_info_series",
    "redundancy_bound_bits",
    "sample_compositions",
    "shard_generator",
    "shape",
    "shaped_average_info",
    "shaped_average_info_exact",
    "shaping_experiment",
    "string_rank",
    "string_unrank",
    "unshape",
    "validate_symbols",
]
