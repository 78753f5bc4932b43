"""Exact-arithmetic toolkit for a base-4 self-similar set whose third map
translates by a lacunary series u = sum_j 4**(-lam_j).

The library keeps every point in the symbolic form p + q*u with rationals
p and q >= 0, so set membership, distances and measure bounds are decided
exactly whenever the sequence permits, and by certified interval enclosures
otherwise.
"""

from .numeric import (
    CapError,
    DEFAULT_MATERIALIZE_CAP,
    EnclosureCapError,
    EnumerationCapError,
    LacunarySequence,
    SymbolicPoint,
    make_lacunary,
    parse_rational,
    rational_str,
)
from .ifs import (
    ALPHABET,
    BallCount,
    DEFAULT_ENUMERATION_CAP,
    IFSSystem,
    S_DIM,
    count_in_ball,
    distinct_level_points,
    project,
    similarity_dimension,
    validate_word,
)
from .codespace import (
    BlockDecomposition,
    InfluenceRecord,
    InfluenceSummary,
    block_decomposition,
    block_success_count,
    influence_count,
    is_influenced,
    perturb,
    perturbation_family,
    sample_sequence,
)
from .measure import (
    BoxCountProfile,
    DensityEntry,
    DensityProfile,
    MeasureBounds,
    PackingEstimate,
    box_counting_profile,
    density_profile,
    density_ratio,
    measure_bounds,
    packing_premeasure_estimate,
    recommended_word_length,
)
from .stats import (
    GrowthReport,
    ScaleTable,
    TailReport,
    XLawReport,
    binom_pmf,
    binom_tail,
    borel_cantelli_table,
    empirical_X_law,
    hoeffding_bound,
    monte_carlo_growth,
    tail_report,
)
from .config import DEFAULT_SEED, RunConfig, resolve_config

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
