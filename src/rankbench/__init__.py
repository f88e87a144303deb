"""Bootstrap-based robustness analysis of solver competition rankings."""

from .model import (
    AnalysisConfig,
    CompletenessError,
    DataError,
    Dataset,
    DuplicateEntryError,
    Mechanism,
    ParseError,
    ReferenceEntry,
    RunKey,
    RunRecord,
    RunStatus,
    default_stratified,
    load_dataset,
)
from .ranking import (
    RankGroup,
    RobustRanking,
    empirical_win_fractions,
    fractional_ranks,
    inversion_count,
    robust_ranking,
    tied_pair_count,
)
from .report import build_report, emit_csv, emit_json, emit_plot_data
from .resampling import (
    ReplicateStream,
    ScoreMatrix,
    draw_stratified_replicate,
    draw_uniform_replicate,
    generate_score_matrix,
)
from .scoring import (
    OfficialRanking,
    ScoringError,
    UnknownMechanismError,
    compute_scores,
    official_ranking,
)
from .sensitivity import SensitivityReport, leave_one_out_analysis
from .stats import (
    ConfidenceInterval,
    TestOutcome,
    bootstrap_p,
    holm_bonferroni,
    percentile_ci,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "CompletenessError",
    "ConfidenceInterval",
    "DataError",
    "Dataset",
    "DuplicateEntryError",
    "Mechanism",
    "OfficialRanking",
    "ParseError",
    "RankGroup",
    "ReferenceEntry",
    "ReplicateStream",
    "RobustRanking",
    "RunKey",
    "RunRecord",
    "RunStatus",
    "ScoreMatrix",
    "ScoringError",
    "SensitivityReport",
    "TestOutcome",
    "UnknownMechanismError",
    "bootstrap_p",
    "build_report",
    "compute_scores",
    "default_stratified",
    "draw_stratified_replicate",
    "draw_uniform_replicate",
    "emit_csv",
    "emit_json",
    "emit_plot_data",
    "empirical_win_fractions",
    "fractional_ranks",
    "generate_score_matrix",
    "holm_bonferroni",
    "inversion_count",
    "leave_one_out_analysis",
    "load_dataset",
    "official_ranking",
    "percentile_ci",
    "robust_ranking",
    "tied_pair_count",
]
