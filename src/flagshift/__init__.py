"""Colored simplicial complexes, their flag vectors, and color-shifting.

The library models complexes whose vertices carry colors (at most one
vertex per color in a face), computes flag f- and h-vectors, tests and
exploits the color-shifted property, builds the cone extension that is
pinned down by its flag f-vector, and verifies that uniqueness by
exhaustive, budgeted search.
"""

from .complexes import (
    ColoredComplex,
    EMPTY_FACE,
    Face,
    InvalidComplexError,
    Vertex,
    Violation,
    cone,
    empty_complex,
    from_generators,
    select_colors,
    trivial_complex,
    union,
    validate_faces,
)
from .construction import (
    ConstructionReport,
    TooManyColorsError,
    VerificationResult,
    cone_extension,
    verify_cone_extension,
)
from .flags import (
    CoarseFVector,
    FlagVector,
    MAX_COLORS,
    coarse_f,
    f_from_h,
    flag_f,
    h_from_f,
    two_color_realizable,
)
from .formats import (
    DocumentError,
    emit_coarse,
    emit_complex,
    emit_flag_vector,
    emit_report,
    parse_complex,
    parse_flag_vector,
)
from .oracle import (
    BudgetExhausted,
    SearchBudget,
    SearchOutcome,
    UniquenessResult,
    count_two_color_shifted_by_edges,
    enumerate_all_colored_complexes,
    enumerate_color_shifted_complexes,
    enumerate_color_shifted_with_flag,
    find_color_shifted_with_flag,
    partition_number,
    verify_uniqueness,
)
from .shifting import (
    dominance_le,
    down_set_faces,
    find_shift_violation,
    is_color_shifted,
    principal_downset,
    shift_closure,
    shift_max_key,
    shift_maximal_faces,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhausted",
    "CoarseFVector",
    "ColoredComplex",
    "ConstructionReport",
    "DocumentError",
    "EMPTY_FACE",
    "Face",
    "FlagVector",
    "InvalidComplexError",
    "MAX_COLORS",
    "SearchBudget",
    "SearchOutcome",
    "TooManyColorsError",
    "UniquenessResult",
    "VerificationResult",
    "Vertex",
    "Violation",
    "coarse_f",
    "cone",
    "cone_extension",
    "count_two_color_shifted_by_edges",
    "dominance_le",
    "down_set_faces",
    "emit_coarse",
    "emit_complex",
    "emit_flag_vector",
    "emit_report",
    "empty_complex",
    "enumerate_all_colored_complexes",
    "enumerate_color_shifted_complexes",
    "enumerate_color_shifted_with_flag",
    "f_from_h",
    "find_color_shifted_with_flag",
    "find_shift_violation",
    "flag_f",
    "from_generators",
    "h_from_f",
    "is_color_shifted",
    "parse_complex",
    "parse_flag_vector",
    "partition_number",
    "principal_downset",
    "select_colors",
    "shift_closure",
    "shift_max_key",
    "shift_maximal_faces",
    "trivial_complex",
    "two_color_realizable",
    "union",
    "validate_faces",
    "verify_cone_extension",
    "verify_uniqueness",
]
