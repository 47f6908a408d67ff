"""Rank-consistency experiment: does merging rank mixtures like training does?

For each candidate ratio, one model is built by merging the experts at
those weights and another by actually training on the mixed data; both are
scored in shared normalized units. The deliverable is the Spearman rank
correlation between the two score lists (plus the raw table), because
ranking, not absolute score, is what the merging proxy promises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MergeMixError
from .merging import merge_many
from .simplex import normalize_simplex
from .stats import (
    CorrelationReport,
    NormContext,
    UtilitySpec,
    normalize_row,
    spearman,
    utility,
)
from .training import TrainConfig, expert_params, train_on_mixtures
from .worlds import World, raw_capabilities


@dataclass(frozen=True)
class RankConsistencyResult:
    report: CorrelationReport
    rows: list[dict]
    mean_gap: float  # constant offset between the two score curves

    def to_dict(self) -> dict:
        return {
            "spearman": self.report.to_dict(),
            "rows": self.rows,
            "mean_gap": self.mean_gap,
        }


def rank_consistency(world: World, base: np.ndarray, experts,
                     ratios, train_config: TrainConfig,
                     utility_spec: UtilitySpec | None = None) -> RankConsistencyResult:
    ratios = [normalize_simplex(r) for r in ratios]
    if len(ratios) < 3:
        raise MergeMixError(f"need at least 3 ratios, got {len(ratios)}")
    spec = utility_spec or UtilitySpec()
    params = expert_params(experts)
    merged_raw = [raw_capabilities(world, theta)
                  for theta in merge_many(base, params, ratios)]
    trained_raw = [raw_capabilities(world, artifact.final)
                   for artifact in train_on_mixtures(world, ratios, base, train_config)]

    # One normalization context per capability over both arms, so the two
    # score lists live in the same units and the offset is meaningful.
    contexts = []
    for m in range(world.num_domains):
        pool = [row[m] for row in merged_raw] + [row[m] for row in trained_raw]
        contexts.append(NormContext.from_samples(pool))

    merged_scores = [utility(normalize_row(row, contexts), spec) for row in merged_raw]
    trained_scores = [utility(normalize_row(row, contexts), spec) for row in trained_raw]
    report = spearman(merged_scores, trained_scores)

    rows = []
    for i, lam in enumerate(ratios):
        row = {f"lambda_{k + 1}": float(lam[k]) for k in range(lam.shape[0])}
        row["merged_score"] = merged_scores[i]
        row["trained_score"] = trained_scores[i]
        row["merged_rank"] = report.x_ranks[i]
        row["trained_rank"] = report.y_ranks[i]
        rows.append(row)
    gap = float(np.mean(np.asarray(merged_scores) - np.asarray(trained_scores)))
    return RankConsistencyResult(report, rows, gap)
