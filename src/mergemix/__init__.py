"""mergemix: data-mixture optimization via weight-space model merging.

Train one expert per data domain from a shared base, treat linear merges of
their weights as stand-ins for mixed-data training runs, fit a regression
surface over the merging simplex, and search it for the mixture that
maximizes a user-chosen utility. Includes exact second-order diagnostics of
the merge-vs-mix gap, rank-consistency experiments, hierarchical search
over domain taxonomies, and a reproducible CLI.
"""

from .errors import (
    BudgetExceededError,
    ConfigError,
    DegenerateInputError,
    DimensionError,
    MergeMixError,
    NumericError,
    SimplexError,
    TrainingDiverged,
    UndefinedCorrelationError,
)
from .gbt import BoostHyper, GradientBoostedRegressor
from .hierarchy import (
    HierarchyContext,
    MixtureNode,
    flatten_ratios,
    optimize_bottom_up,
    optimize_top_down,
)
from .merging import merge, select_top_checkpoints, simulate_anneal, soup
from .models import Quadratic, ToyNet, hvp_finite_difference
from .params import params_digest
from .simplex import normalize_simplex, simplex_lattice, uniform_weights
from .stats import (
    CorrelationReport,
    CostEntry,
    NormContext,
    UtilitySpec,
    cost_accounting,
    normalize,
    spearman,
    utilities,
    utility,
)
from .surface import (
    SeedDesign,
    SurfaceModel,
    SurfaceSample,
    collect_samples,
    fit_surface,
    run_search_stage,
    sample_seed_configs,
    search_optimum,
    verify_optimum,
)
from .theory import (
    CurvatureMatrix,
    DiscrepancyReport,
    TaylorContext,
    discrepancy,
    horizon_scaling_check,
    predict_merge_params,
    predict_mixture_params,
    relative_curvature,
    task_vector_cosines,
)
from .training import (
    ExpertArtifact,
    TrainConfig,
    train_all_experts,
    train_expert,
    train_on_mixture,
)
from .worlds import (
    Dataset,
    DomainSpec,
    QuadraticWorld,
    RegressionWorld,
    fixture_by_name,
    generate_world,
    raw_capability,
)
from .consistency import RankConsistencyResult, rank_consistency

__version__ = "0.1.0"
