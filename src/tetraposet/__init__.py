"""Exact combinatorics of the tetrahedral poset: colored subposets, order
ideals, staircase arrays, bijections to alternating sign matrices, plane
partitions and tournaments, and generating function identities."""

from .arrays import (
    ASM_COLORS,
    SORTED_COLORS,
    StaircaseArray,
    TOURNAMENT_COLORS,
    TSSCPP_COLORS,
    array_rank_gf,
    count_arrays,
    enumerate_arrays,
    enumerate_row_shuffles,
    row_shuffle_count,
    sort_to_tsscpp,
    validate,
    weight,
)
from .budget import DEFAULT_BUDGET, BudgetError, enumeration_budget
from .bijections import (
    Asm,
    FamilyMismatch,
    MonotoneTriangle,
    Tournament,
    Tsscpp,
    array_to_asm,
    array_to_mt,
    array_to_tournament,
    array_to_tsscpp,
    asm_to_array,
    asm_to_mt,
    enumerate_asms,
    enumerate_tournaments,
    enumerate_tsscpps,
    games,
    mt_to_array,
    mt_to_asm,
    tournament_to_array,
    tsscpp_to_array,
    tsscpp_tournament_check,
)
from .colors import (
    CANONICAL_ORDER,
    Color,
    admissibility_violations,
    all_admissible_sets,
    format_colors,
    is_admissible,
    parse_colors,
    require_admissible,
    sort_colors,
)
from .counting import count_ideals, enumerate_ideals, rank_gf
from .formulas import (
    asm_number,
    carlitz_riordan,
    catalan_number,
    catalan_product,
    formula_count,
    formula_rank_gf,
    q_binomial_product,
    q_factorial_product,
    three_color_product,
    tournament_gf,
    tspp_number,
)
from .identities import (
    ArrayStats,
    AsmStats,
    IDENTITY_NAMES,
    array_stats,
    asm_expansion_rhs,
    asm_stats,
    pairwise_product,
    robbins_rumsey_rhs,
    schur_expansion_rhs,
    tsscpp_expansion_rhs,
    tsscpp_lambda_count,
    verify_formulas,
    verify_identity,
)
from .polynomials import (
    QPoly,
    SparsePoly,
    first_difference,
    q_binomial,
    q_bracket,
    q_factorial,
)
from .poset import (
    OrderIdeal,
    Subposet,
    TetraPoset,
    Vertex,
    array_to_ideal,
    build,
    ideal_to_array,
    to_dot,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
