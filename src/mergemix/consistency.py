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
from .merging import merge
from .simplex import normalize_simplex_rows
from .stats import (
    CorrelationReport,
    NormContext,
    UtilitySpec,
    normalize,
    spearman,
    utilities,
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
    ratios = normalize_simplex_rows(ratios)
    if ratios.shape[0] < 3:
        raise MergeMixError(f"need at least 3 ratios, got {ratios.shape[0]}")
    spec = utility_spec or UtilitySpec()
    params = expert_params(experts)
    merged_raw = raw_capabilities(world, merge(base, params, ratios))
    trained = train_on_mixtures(world, ratios, base, train_config)
    trained_raw = raw_capabilities(world, np.concatenate([c[:, -1] for _, c in trained]))

    # One normalization context per capability over both arms, so the two
    # score lists live in the same units and the offset is meaningful.
    contexts = [NormContext.from_samples(column)
                for column in np.vstack([merged_raw, trained_raw]).T]

    merged_scores = utilities(normalize(merged_raw, contexts), spec).tolist()
    trained_scores = utilities(normalize(trained_raw, contexts), spec).tolist()
    report = spearman(merged_scores, trained_scores)

    rows = []
    for i, lam in enumerate(ratios.tolist()):
        row = {f"lambda_{k + 1}": x for k, x in enumerate(lam)}
        row["merged_score"] = merged_scores[i]
        row["trained_score"] = trained_scores[i]
        row["merged_rank"] = report.x_ranks[i]
        row["trained_rank"] = report.y_ranks[i]
        rows.append(row)
    gap = float(np.mean(np.asarray(merged_scores) - np.asarray(trained_scores)))
    return RankConsistencyResult(report, rows, gap)
