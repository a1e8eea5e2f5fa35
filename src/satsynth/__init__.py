"""Synthesis of sparse categorical tables through saturated count models.

Per-cell independent draws from Poisson, negative binomial (NBI) or
Poisson-inverse Gaussian (PIG) distributions — mean equal to the
original count, dispersion sigma, pseudocount alpha on random zeros —
with analytic tau risk/utility metrics, a-priori parameter tuning, and
post-synthesis evaluation reports.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    FormatError,
    InfeasibleError,
    SatsynthError,
    UndefinedResultError,
    ValidationError,
)
from .schema import CategoricalSchema
from .table import (
    CellSizeDistribution,
    SparseContingencyTable,
    aggregate_microdata,
    aggregate_microdata_csv,
    mark_structural_zeros,
    read_table,
    write_table,
)
from .models import CountModelSpec, Family, log_bessel_k_half, pig_c, pmf, pmf_range
from .synthesis import Provenance, SynthesisJob, SyntheticTable, expected_grand_total, synthesize
from .taumetrics import (
    TauReport,
    tau1_expected,
    tau4_expected,
    tau_analytic,
    tau_empirical,
    tau2_of_table,
)
from .tuning import TuningResult, alpha_star_match_zeros, solve_alpha_for_tau4_target
from .evaluation import (
    FrontierPoint,
    Interval,
    ci_overlap,
    frontier_point,
    mean_ci_overlap,
    raab_variance,
    trimmed_mean_pct_diff,
    within_p_percent,
)
from .loglin import LoglinFit, all_two_way_terms, build_design, fit_loglinear
from .generator import (
    ESC_LIKE_CELL_SIZE_FREQUENCIES,
    ESC_LIKE_N,
    ESC_LIKE_TAIL,
    HistogramSpec,
    TailSpec,
    esc_like_schema,
    esc_like_spec,
    generate_table,
    scaled_spec,
)

__all__ = [name for name in dir() if not name.startswith("_")]
