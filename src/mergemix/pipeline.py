"""End-to-end runs: train experts, map the surface, search, verify, persist.

Every artifact except the manifest is reproducible byte-for-byte from
(config, seed); timestamps live only in the manifest, which is written
last so a failed run never looks complete.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .config import HIERARCHICAL_MODES, RunConfig, THEORY_REPORT_SCHEMA
from .consistency import rank_consistency
from .errors import ConfigError, MergeMixError, SimplexError, SurfaceFileError
from .hierarchy import HierarchyContext, MixtureNode, flatten_ratios, \
    optimize_bottom_up, optimize_top_down
from .merging import merge
from .persist import (
    CHECKPOINT_FORMAT,
    dumps_json,
    file_digest,
    read_json,
    save_checkpoint,
    write_csv,
    write_json,
)
from .schema import validate
from .seeding import stable_seed
from .simplex import (
    DEFAULT_POINT_BUDGET,
    lattice_size,
    lattice_steps,
    simplex_lattice,
    uniform_weights,
)
from .stats import (
    NormContext,
    cost_accounting,
    cost_entries_from_dicts,
    normalize,
    utilities,
    utility_columns,
)
from .surface import (
    SURFACE_FORMAT,
    StageResult,
    baseline_utilities,
    load_surface,
    merged_scores,
    run_search_stage,
    verify_optimum,
)
from .theory import (
    TaylorContext,
    discrepancy_sweep,
    horizon_scaling_check,
    relative_curvature,
    task_vector_cosines,
)
from .training import (
    ExpertArtifact,
    expert_params,
    final_only,
    train_all_experts,
    train_on_mixture,
)
from .worlds import World, raw_capabilities

REPORT_FORMAT = "mm-report-v1"
MANIFEST_FORMAT = "mm-manifest-v1"
THEORY_FORMAT = "mm-theory-v1"
SURFACE_FILE = "surface.model.json"
SAMPLES_FILE = "samples.csv"
REPORT_FILE = "report.json"
MANIFEST_FILE = "manifest.json"


def _prepare_run_dir(cfg: RunConfig, out_dir: str | Path) -> Path:
    """Create an empty run directory, replacing any earlier run's, so the
    manifest certifies only this run's files and a run that fails from here
    on never looks complete."""
    run_dir = Path(out_dir) / cfg.name
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    return run_dir


def _train_experts(cfg: RunConfig, world: World, base: np.ndarray, *,
                   all_checkpoints: bool = False):
    """(train config, experts) of the run, trained from `base`; the experts
    record only their final checkpoint unless `all_checkpoints`."""
    train_cfg = cfg.train_config(stable_seed(cfg.seed, "train"))
    if not all_checkpoints:
        train_cfg = final_only(train_cfg)
    return train_cfg, train_all_experts(world, base, train_cfg)


def _world_block(cfg: RunConfig, world: World) -> dict:
    block = {"domains": list(world.names)}
    if "fixture" in cfg.world_spec:
        block["fixture"] = cfg.world_spec["fixture"]
    return block


def _write_expert_artifacts(run_dir: Path, world: World,
                            experts: list[ExpertArtifact]) -> dict[str, str]:
    digests = {}
    for artifact in experts:
        ckpt = run_dir / "experts" / f"{artifact.name}.ckpt"
        save_checkpoint(ckpt, artifact.final, world.model_descriptor())
        digests[artifact.name] = file_digest(ckpt)
        header = (["step"]
                  + [f"raw_{n}" for n in world.names]
                  + [f"norm_{n}" for n in world.names])
        raws = raw_capabilities(world, artifact.checkpoints)
        contexts = [NormContext.from_samples(column) for column in raws.T]
        scores = np.hstack([raws, normalize(raws, contexts)]).tolist()
        rows = [[step, *row] for step, row in zip(artifact.steps, scores)]
        write_csv(run_dir / "experts" / f"{artifact.name}.trajectory.csv",
                  header, rows)
    return digests


def _write_samples(run_dir: Path, stage: StageResult, world: World) -> None:
    k = stage.configs.shape[1]
    header = ([f"alpha_{i + 1}" for i in range(k)]
              + [f"y_{i + 1}" for i in range(world.num_domains)]
              + ["digest"])
    rows = ([*weights, *scores, digest] for weights, scores, digest
            in zip(stage.configs.tolist(), stage.scores.tolist(), stage.digests))
    write_csv(run_dir / SAMPLES_FILE, header, rows)


def _export_datasets(run_dir: Path, world: World) -> None:
    if not hasattr(world, "train"):
        return
    for k, name in enumerate(world.names):
        for split, data in (("train", world.train[k]), ("heldout", world.heldout[k])):
            header = ([f"x_{i + 1}" for i in range(data.inputs.shape[1])]
                      + [f"y_{i + 1}" for i in range(data.targets.shape[1])])
            rows = [list(x) + list(y) for x, y in zip(data.inputs, data.targets)]
            write_csv(run_dir / "datasets" / f"{name}.{split}.csv", header, rows)


def _flat_stage(cfg: RunConfig, world: World, base: np.ndarray,
                experts) -> StageResult:
    """The global surface pass over all domains, as the config sets it up."""
    return run_search_stage(
        world, base, experts,
        design_size=cfg.design_size, priors=cfg.priors,
        seed=stable_seed(cfg.seed, "design"),
        hyper=cfg.hyper, utility_spec=cfg.utility_spec,
        resolution=cfg.resolution, budget=cfg.budget,
    )


def _optimize_hierarchy(cfg: RunConfig, world: World, base: np.ndarray,
                        experts: list[ExpertArtifact]):
    """Optimized tree plus the global stage."""
    ctx = HierarchyContext(
        world=world, base=base, experts=experts,
        design_size=cfg.design_size, hyper=cfg.hyper,
        utility_spec=cfg.utility_spec, resolution=cfg.resolution,
        budget=cfg.budget, seed=cfg.seed,
    )
    optimize = (optimize_top_down if cfg.mode == "hierarchical-top-down"
                else optimize_bottom_up)
    tree = optimize(cfg.build_tree(), ctx)
    return tree, ctx.stage_log[("design",)]


def _hierarchy_report(cfg: RunConfig, world: World, base: np.ndarray,
                      experts: list[ExpertArtifact], tree: MixtureNode,
                      weights: np.ndarray, contexts) -> dict:
    leaf_names, shares = flatten_ratios(tree)
    spec = cfg.utility_spec
    scores = merged_scores(world, base, experts, [weights], contexts)
    return {
        "tree": tree.to_dict(),
        "leaf_order": leaf_names,
        "leaf_ratios": shares.tolist(),
        "ratios_by_domain": dict(zip(world.names, weights.tolist())),
        "actual_utility": float(utilities(scores, spec)[0]),
        "baseline_utilities": baseline_utilities(world, base, experts, contexts, spec),
    }


def recalibrate(cfg: RunConfig, world: World, midpoint: np.ndarray,
                alpha_old: np.ndarray) -> dict:
    """Re-run the whole expert/surface/search pipeline from a mid-training
    checkpoint and compare the fresh optimum with the original one.

    Uses the same derived seeds as the first pass, so recalibrating from
    the untouched base reproduces the original optimum exactly.
    """
    _, experts = _train_experts(cfg, world, midpoint)
    stage = _flat_stage(cfg, world, midpoint, experts)
    alpha_new = stage.search.weights
    return {
        "alpha_old": alpha_old.tolist(),
        "alpha_new": alpha_new.tolist(),
        "max_weight_shift": float(np.max(np.abs(alpha_new - alpha_old))),
        "predicted_utility_new": stage.search.predicted_utility,
    }


def _continuation_curves(cfg: RunConfig, world: World, midpoint: np.ndarray,
                         alpha_old: np.ndarray, alpha_new: np.ndarray,
                         remaining_steps: int, contexts) -> list[dict]:
    curves = []
    for weights, seed_label in ((alpha_old, "continue-static"),
                                (alpha_new, "continue-dynamic")):
        run_cfg = replace(cfg.train_config(stable_seed(cfg.seed, seed_label)),
                          steps=remaining_steps)
        artifact = train_on_mixture(world, weights, midpoint, run_cfg)
        raws = raw_capabilities(world, artifact.checkpoints)
        curves.append(utilities(normalize(raws, contexts), cfg.utility_spec).tolist())
    # The two runs differ only in weights and seed, so they share artifact.steps.
    return [
        {"step": step, "static_utility": static, "dynamic_utility": dynamic}
        for step, static, dynamic in zip(artifact.steps, *curves)
    ]


def run_pipeline(cfg: RunConfig, out_dir: str | Path) -> Path:
    """Execute the configured pipeline and return the run directory."""
    world = cfg.build_world()
    run_dir = _prepare_run_dir(cfg, out_dir)
    base = world.base_params()

    _, experts = _train_experts(cfg, world, base, all_checkpoints=True)
    expert_digests = _write_expert_artifacts(run_dir, world, experts)
    if cfg.export_datasets:
        _export_datasets(run_dir, world)

    report: dict = {
        "format": REPORT_FORMAT,
        "run": cfg.name,
        "mode": cfg.mode,
        "world": _world_block(cfg, world),
        "experts": expert_digests,
    }

    tree = None
    if cfg.mode in HIERARCHICAL_MODES:
        tree, stage = _optimize_hierarchy(cfg, world, base, experts)
        leaf_names, shares = flatten_ratios(tree)
        by_name = dict(zip(leaf_names, shares.tolist()))
        weights = np.asarray([by_name[name] for name in world.names])
    else:
        stage = _flat_stage(cfg, world, base, experts)
        weights = stage.search.weights
    _write_samples(run_dir, stage, world)
    write_json(run_dir / SURFACE_FILE, stage.model.lazy_dict())
    report["optimum"] = verify_optimum(world, base, stage.experts,
                                       stage.model, stage.search)
    if tree is not None:
        hierarchy = _hierarchy_report(cfg, world, base, experts, tree, weights,
                                      stage.model.contexts)
        report["hierarchy"] = hierarchy
        write_json(run_dir / "hierarchy.tree.json", tree.to_dict())
        write_csv(run_dir / "hierarchy.ratios.csv",
                  ["domain", "ratio"],
                  [[n, s] for n, s in zip(hierarchy["leaf_order"],
                                          hierarchy["leaf_ratios"])])
    save_checkpoint(
        run_dir / "merged.optimum.ckpt",
        merge(base, expert_params(experts), weights),
        world.model_descriptor(),
        provenance={"weights": weights.tolist(), "experts": expert_digests},
    )

    if cfg.mode == "dynamic-recalibrate":
        total = cfg.recalibrate_steps
        half = total // 2
        mid_cfg = replace(cfg.train_config(stable_seed(cfg.seed, "mixture-train")),
                          steps=half)
        midpoint = train_on_mixture(world, weights, base, mid_cfg).final
        recal = recalibrate(cfg, world, midpoint, weights)
        curve = _continuation_curves(
            cfg, world, midpoint, weights,
            np.asarray(recal["alpha_new"]), total - half, stage.model.contexts)
        recal["total_steps"] = total
        recal["midpoint_step"] = half
        recal["continuation"] = curve
        report["recalibration"] = recal
        write_csv(run_dir / "recalibration.curve.csv",
                  ["step", "static_utility", "dynamic_utility"],
                  [[r["step"], r["static_utility"], r["dynamic_utility"]]
                   for r in curve])

    write_json(run_dir / REPORT_FILE, report)
    _write_manifest(cfg, run_dir)
    return run_dir


def _write_manifest(cfg: RunConfig, run_dir: Path) -> None:
    artifacts = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file() and path.name != MANIFEST_FILE:
            artifacts[str(path.relative_to(run_dir))] = file_digest(path)
    manifest = {
        "format": MANIFEST_FORMAT,
        "run": cfg.name,
        "created_unix": time.time(),
        "config_digest": _config_digest(cfg),
        "artifacts": artifacts,
        "format_versions": {
            "checkpoint": CHECKPOINT_FORMAT,
            "surface": SURFACE_FORMAT,
            "report": REPORT_FORMAT,
            "manifest": MANIFEST_FORMAT,
        },
    }
    write_json(run_dir / MANIFEST_FILE, manifest)


def _config_digest(cfg: RunConfig) -> str:
    """Digest of every RunConfig field, so no field can be left out."""
    payload = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        payload[f.name] = value.to_dict() if hasattr(value, "to_dict") else value
    return hashlib.sha256(dumps_json(payload).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Theory runner
# ---------------------------------------------------------------------------

def run_theory(cfg: RunConfig, out_dir: str | Path) -> Path:
    """Scaling check, discrepancy sweep, curvature and cosine matrices."""
    world = cfg.build_world()
    run_dir = _prepare_run_dir(cfg, out_dir)
    base = world.base_params()
    names = world.names
    k = world.num_domains

    lr = float(cfg.theory.get("learning_rate", cfg.train["learning_rate"]))
    steps = int(cfg.theory.get("steps", cfg.train["steps"]))
    weights = np.asarray(cfg.theory.get("weights", uniform_weights(k)))
    sweep_res = float(cfg.theory.get("sweep_resolution", 0.1))

    # One context at base: its K x K curvature table serves the scaling
    # check, the curvature matrix and the sweep.
    ctx = TaylorContext.from_world(world, base, lr * steps)
    scaling = horizon_scaling_check(world, weights, lr, steps, base, taylor=ctx)

    train_cfg, experts = _train_experts(cfg, world, base)
    params = expert_params(experts)

    curvature = relative_curvature(world, base, taylor=ctx)
    cosines = task_vector_cosines(experts, base)

    grid = simplex_lattice(k, lattice_steps(sweep_res))
    norms = discrepancy_sweep(world, base, params, grid, ctx, train_cfg)

    write_csv(run_dir / "delta_sweep.csv",
              [f"lambda_{i + 1}" for i in range(k)]
              + ["delta_norm", "cross_norm", "self_norm",
                 "observed_norm", "residual_norm"],
              ([*lam.tolist(), *row.tolist()] for lam, row in zip(grid, norms)))
    write_csv(run_dir / "curvature_matrix.csv",
              ["domain", *names, "diagonally_dominant"],
              [[names[i], *curvature.values[i].tolist(),
                curvature.row_dominant[i]] for i in range(k)])
    write_csv(run_dir / "task_vector_cosine.csv",
              ["domain", *names],
              [[names[i], *cosines[i].tolist()] for i in range(k)])

    report = {
        "format": THEORY_FORMAT,
        "world": _world_block(cfg, world),
        "scaling": scaling,
        "curvature": {
            "values": curvature.values.tolist(),
            "row_dominant": list(curvature.row_dominant),
        },
        "task_vector_cosine": cosines.tolist(),
        "sweep": {
            "resolution": sweep_res,
            "rows": len(norms),
            "max_delta_norm": max(0.0, *norms[:, 0].tolist()),
            "max_residual_norm": max(0.0, *norms[:, 4].tolist()),
        },
    }
    validate(report, THEORY_REPORT_SCHEMA, "theory report")
    write_json(run_dir / "theory_report.json", report)
    return run_dir


# ---------------------------------------------------------------------------
# Consistency and cost runners
# ---------------------------------------------------------------------------

def run_consistency(cfg: RunConfig, out_dir: str | Path) -> tuple[Path, float]:
    if not cfg.consistency_ratios:
        raise ConfigError("consistency requires a non-empty 'consistency.ratios' list")
    world = cfg.build_world()
    run_dir = _prepare_run_dir(cfg, out_dir)
    base = world.base_params()
    train_cfg, experts = _train_experts(cfg, world, base)
    result = rank_consistency(world, base, experts,
                              [np.asarray(r) for r in cfg.consistency_ratios],
                              train_cfg, cfg.utility_spec)
    k = world.num_domains
    header = ([f"lambda_{i + 1}" for i in range(k)]
              + ["merged_score", "trained_score", "merged_rank", "trained_rank"])
    rows = [[row[f"lambda_{i + 1}"] for i in range(k)]
            + [row["merged_score"], row["trained_score"],
               row["merged_rank"], row["trained_rank"]]
            for row in result.rows]
    write_csv(run_dir / "rank_table.csv", header, rows)
    write_json(run_dir / "consistency_report.json", {
        "format": "mm-consistency-v1",
        "world": _world_block(cfg, world),
        **result.to_dict(),
    })
    return run_dir, result.report.rho


def run_cost(entries_path: str | Path | None, out_dir: str | Path) -> tuple[Path, dict]:
    if entries_path is None:
        data = json.loads(
            resources.files("mergemix.data")
            .joinpath("reference_costs.json").read_text("utf-8")
        )
    else:
        data = read_json(entries_path)
    entries = cost_entries_from_dicts(data["rows"])
    model = cost_accounting(entries)
    report = model.to_dict()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "cost_report.json"
    write_json(path, report)
    return path, report


# ---------------------------------------------------------------------------
# Heatmap export
# ---------------------------------------------------------------------------

def export_heatmap(surface_path: str | Path, capability: str,
                   resolution: float, out_path: str | Path,
                   top_percent: float | None = None) -> Path:
    """Dump (weights, predicted value) over the simplex lattice as CSV.

    The utility is predicted from the capabilities it reads, every other
    column 0.0, as the search predicts it. Bad arguments fail before the
    surface is read or anything is predicted, a lattice over the point
    budget with a ConfigError once the surface gives its domain count, and
    a capability the surface did not fit with a SurfaceFileError that names
    the fitted ones."""
    if top_percent is not None and not 0 < top_percent <= 100:
        raise ConfigError(f"top percentile must be in (0, 100], got {top_percent}")
    try:
        steps = lattice_steps(resolution)
    except SimplexError as exc:
        raise ConfigError(f"heatmap {exc}") from None
    model = load_surface(surface_path)
    k = model.input_dim
    points = lattice_size(k, steps)
    if points > DEFAULT_POINT_BUDGET:
        raise ConfigError(
            f"heatmap resolution {resolution} gives {points} lattice points "
            f"over {k} domains, exceeding the budget of {DEFAULT_POINT_BUDGET}"
        )
    index = None
    if capability != "utility":
        if capability.isdigit():
            index = int(capability)
        elif capability in model.capabilities:
            index = model.capabilities.index(capability)
        else:
            raise MergeMixError(
                f"unknown capability {capability!r}; "
                f"use an index, a name from {model.capabilities}, or 'utility'"
            )
        if not 0 <= index < model.num_capabilities:
            raise MergeMixError(f"capability index {index} out of range")
        columns = [index]
        try:
            model.require_fitted(columns)
        except MergeMixError as exc:
            raise SurfaceFileError(f"{surface_path}: {exc}") from None
    else:
        # load_surface checked that the utility's capabilities are fitted.
        columns = utility_columns(model.utility_spec, model.num_capabilities)

    grid = simplex_lattice(k, steps)
    predictions = model.predict_batch(grid, columns)
    values = (utilities(predictions, model.utility_spec) if index is None
              else predictions[:, index])

    keep = np.arange(grid.shape[0])
    if top_percent is not None:
        n_keep = int(np.floor(grid.shape[0] * top_percent / 100.0))
        n_keep = max(1, n_keep)
        order = np.argsort(-values, kind="stable")
        keep = np.sort(order[:n_keep])

    header = [f"alpha_{i + 1}" for i in range(k)] + ["predicted"]
    rows = [[*grid[i].tolist(), float(values[i])] for i in keep]
    return write_csv(out_path, header, rows)
