"""Run configuration: JSON with a published schema, strictly validated.

Unknown keys are rejected by the schema; cross-field constraints (fixture
names, hierarchy leaves, mode-specific sections) are checked here. Nothing
touches the filesystem until the config is fully valid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, MergeMixError, SchemaViolation, SimplexError
from .gbt import BoostHyper
from .hierarchy import MixtureNode
from .models import Quadratic, ToyNet
from .schema import validate
from .simplex import (
    DEFAULT_POINT_BUDGET,
    lattice_size,
    lattice_steps,
    normalize_simplex,
)
from .stats import UtilitySpec
from .surface import is_exact_stage
from .training import TrainConfig
from .worlds import (
    DomainSpec,
    FIXTURES,
    QuadraticWorld,
    RegressionWorld,
    World,
)

DEFAULT_DESIGN_SIZE = 40
DEFAULT_RESOLUTION = 0.05
DEFAULT_SWEEP_RESOLUTION = 0.1
HIERARCHICAL_MODES = ("hierarchical-top-down", "hierarchical-bottom-up")


def _load_schema(name: str) -> dict:
    text = resources.files("mergemix.schemas").joinpath(name).read_text("utf-8")
    return json.loads(text)


CONFIG_SCHEMA = _load_schema("config.schema.json")
THEORY_REPORT_SCHEMA = _load_schema("theory_report.schema.json")


@dataclass(frozen=True)
class RunConfig:
    name: str
    seed: int
    mode: str
    world_spec: dict
    train: dict
    design_size: int = DEFAULT_DESIGN_SIZE
    priors: tuple = ()
    hyper: BoostHyper = field(default_factory=BoostHyper)
    utility_spec: UtilitySpec = field(default_factory=UtilitySpec)
    resolution: float = DEFAULT_RESOLUTION
    budget: int = DEFAULT_POINT_BUDGET
    hierarchy: dict | None = None
    recalibrate_steps: int | None = None
    consistency_ratios: tuple = ()
    theory: dict = field(default_factory=dict)
    export_datasets: bool = False

    def build_world(self) -> World:
        """The world of `world_spec`, built on the first call and kept, so
        a run shares the world its parse built to validate the config. It is
        kept outside the fields: `replace` builds a fresh one."""
        world = self.__dict__.get("_world")
        if world is None:
            world = build_world(self.world_spec)
            object.__setattr__(self, "_world", world)
        return world

    @property
    def sweep_resolution(self) -> float:
        """Resolution of the theory sweep's simplex grid."""
        return float(self.theory.get("sweep_resolution", DEFAULT_SWEEP_RESOLUTION))

    def build_tree(self) -> MixtureNode:
        if self.hierarchy is None:
            raise ConfigError(f"mode {self.mode!r} requires a 'hierarchy' section")
        return MixtureNode.from_dict(self.hierarchy)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=float(self.train["learning_rate"]),
            steps=int(self.train["steps"]),
            batch_size=self.train.get("batch_size", "full"),
            checkpoint_interval=int(self.train.get("checkpoint_interval", 1)),
            seed=seed,
        )


def _inline_array(data: dict, key: str) -> np.ndarray:
    """A domain's inline number array; rows of unequal lengths, which the
    schema accepts, are a config error naming the domain and the key."""
    try:
        return np.asarray(data[key], dtype=np.float64)
    except ValueError:
        raise ConfigError(
            f"{data['kind']} domain {data['name']!r}: {key} has rows of unequal lengths"
        ) from None


def _build_domain(data: dict) -> DomainSpec | None:
    """Check that a domain has the keys its kind needs; return a regression
    domain's DomainSpec, or None for a quadratic domain. `build_world`
    builds the `Quadratic`s once every domain is quadratic, so a mix of
    kinds is reported before any curvature check."""
    if data["kind"] == "quadratic":
        if "minimizer" not in data or "curvature" not in data:
            raise ConfigError(
                f"quadratic domain {data['name']!r} needs minimizer and curvature"
            )
        return None
    required = ("target_weight", "input_dim", "train_size", "heldout_size")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigError(
            f"regression domain {data['name']!r} is missing {missing}"
        )
    return DomainSpec(
        name=data["name"],
        target_weight=_inline_array(data, "target_weight"),
        noise=float(data.get("noise", 0.0)),
        input_dim=int(data["input_dim"]),
        train_size=int(data["train_size"]),
        heldout_size=int(data["heldout_size"]),
        seed=int(data.get("seed", 0)),
    )


def build_world(spec: dict) -> World:
    if "fixture" in spec:
        name = spec["fixture"]
        if name not in FIXTURES:
            raise ConfigError(
                f"unknown fixture {name!r}; available: {sorted(FIXTURES)}"
            )
        return FIXTURES[name]()
    try:
        data = spec["domains"]
        specs = [_build_domain(d) for d in data]
        kinds = {d["kind"] for d in data}
        if kinds == {"quadratic"}:
            quads = [Quadratic(_inline_array(d, "minimizer"), _inline_array(d, "curvature"))
                     for d in data]
            return QuadraticWorld([d["name"] for d in data], quads)
        if kinds == {"regression"}:
            model = spec.get("model", {})
            input_dim = specs[0].input_dim
            out_dim = specs[0].target_weight.shape[0]
            net = ToyNet(input_dim, int(model.get("hidden_dim", 8)), out_dim)
            return RegressionWorld(net, specs,
                                   init_seed=int(model.get("init_seed", 0)))
        raise ConfigError("cannot mix quadratic and regression domains")
    except MergeMixError as exc:
        raise ConfigError(str(exc)) from exc


def _validate_cross_fields(cfg: RunConfig) -> None:
    # The run directory is <out>/<name>, and a rerun replaces it.
    if cfg.name in (".", "..") or any(c in cfg.name for c in ("/", "\\", "\0")):
        raise ConfigError(
            f"run name {cfg.name!r} must be a single path component: "
            "no '/', '\\' or NUL, and not '.' or '..'"
        )
    # JSON's NaN and Infinity pass the schema's exclusiveMinimum; TrainConfig
    # rejects them here rather than as a diverged run after the run directory
    # exists.
    train = cfg.train_config(cfg.seed)
    if "learning_rate" in cfg.theory:
        try:
            replace(train, learning_rate=float(cfg.theory["learning_rate"]))
        except MergeMixError as exc:
            raise ConfigError(f"theory {exc}") from exc
    # JSON's NaN passes the schema's bounds too.
    try:
        sweep_steps = lattice_steps(cfg.sweep_resolution)
    except SimplexError as exc:
        raise ConfigError(f"theory sweep {exc}") from exc
    world = cfg.build_world()  # resolves fixture names and domain specs
    k = world.num_domains
    # A config with a theory section runs the sweep, which builds its whole
    # grid under the default point budget.
    if cfg.theory:
        points = lattice_size(k, sweep_steps)
        if points > DEFAULT_POINT_BUDGET:
            raise ConfigError(
                f"theory sweep resolution {cfg.sweep_resolution} gives {points} "
                f"lattice points over {k} domains, exceeding the budget of "
                f"{DEFAULT_POINT_BUDGET}"
            )
    if cfg.design_size < k + 1:
        raise ConfigError(
            f"design size {cfg.design_size} too small for {k} domains"
        )
    vectors = [("prior", prior) for prior in cfg.priors]
    vectors += [("consistency ratio", lam) for lam in cfg.consistency_ratios]
    if "weights" in cfg.theory:
        vectors.append(("theory weights", tuple(cfg.theory["weights"])))
    for label, weights in vectors:
        if len(weights) != k:
            raise ConfigError(f"{label} {weights} does not have {k} entries")
        try:
            normalize_simplex(weights)
        except SimplexError as exc:
            raise ConfigError(f"{label} {weights}: {exc}") from exc
    # A one-hot mixture trains its own expert, so both of the scaling check's
    # gaps are exactly 0 and their ratios would be 0/0.
    if "weights" in cfg.theory and np.count_nonzero(cfg.theory["weights"]) == 1:
        raise ConfigError(
            f"theory weights {list(cfg.theory['weights'])} are one-hot: that "
            f"mixture is its own expert, so the scaling check has no gap to measure"
        )
    # An empty list means no consistency run; the consistency command
    # reports that with its usage line.
    if 0 < len(cfg.consistency_ratios) < 3:
        raise ConfigError(
            f"consistency needs at least 3 ratios to rank, "
            f"got {len(cfg.consistency_ratios)}"
        )
    if cfg.utility_spec.kind == "weighted" and len(cfg.utility_spec.weights) != k:
        raise ConfigError("utility weights must have one entry per domain")
    if cfg.utility_spec.kind == "single" and cfg.utility_spec.index >= k:
        raise ConfigError("utility capability index out of range")
    search_sizes = [k]
    if cfg.mode in HIERARCHICAL_MODES:
        if cfg.priors:
            raise ConfigError(
                f"design.priors are not read in mode {cfg.mode!r}: a prior "
                f"weights the world's domains, but each hierarchical stage "
                f"searches over one node's children"
            )
        tree = cfg.build_tree()
        leaves = [leaf.domain for leaf in tree.iter_leaves()]
        if sorted(leaves) != sorted(world.names):
            raise ConfigError(
                f"hierarchy leaves {sorted(leaves)} must cover exactly the "
                f"world domains {sorted(world.names)}"
            )
        # The root's split is the run's global search; one child leaves
        # nothing to search.
        if len(tree.children) < 2:
            raise ConfigError(
                f"hierarchy root {tree.name!r} needs at least 2 children, "
                f"got {len(tree.children)}"
            )
        search_sizes = [len(node.children) for node in tree.iter_internal()]
    steps = lattice_steps(cfg.resolution)
    for size in search_sizes:
        points = lattice_size(size, steps)
        if points > cfg.budget:
            raise ConfigError(
                f"a {size}-way search at resolution {cfg.resolution} covers "
                f"{points} lattice points, exceeding the budget of {cfg.budget}"
            )
    if cfg.priors and is_exact_stage(k, steps, cfg.design_size):
        raise ConfigError(
            f"design.priors are not read: the {k}-way lattice at resolution "
            f"{cfg.resolution} has {lattice_size(k, steps)} points, no more "
            f"than design.size {cfg.design_size}, so the search scores every "
            f"lattice point and draws no design"
        )
    if cfg.mode == "dynamic-recalibrate" and cfg.recalibrate_steps is None:
        raise ConfigError("dynamic-recalibrate mode requires a 'recalibrate' section")


def parse_config(data: dict) -> RunConfig:
    try:
        validate(data, CONFIG_SCHEMA, "config")
    except SchemaViolation as exc:
        raise ConfigError(str(exc)) from exc

    design = data.get("design", {})
    surface = data.get("surface", {})
    search = data.get("search", {})
    utility = data.get("utility", {})
    try:
        default = BoostHyper()
        hyper = BoostHyper(
            n_trees=int(surface.get("n_trees", default.n_trees)),
            max_depth=int(surface.get("max_depth", default.max_depth)),
            learning_rate=float(surface.get("learning_rate", default.learning_rate)),
            min_leaf=int(surface.get("min_leaf", default.min_leaf)),
        )
        utility_spec = UtilitySpec(
            kind=utility.get("kind", "macro"),
            weights=tuple(utility["weights"]) if "weights" in utility else None,
            index=utility.get("index"),
        )
        cfg = RunConfig(
            name=data["name"],
            seed=int(data["seed"]),
            mode=data.get("mode", "flat"),
            world_spec=data["world"],
            train=data["train"],
            design_size=int(design.get("size", DEFAULT_DESIGN_SIZE)),
            priors=tuple(tuple(p) for p in design.get("priors", [])),
            hyper=hyper,
            utility_spec=utility_spec,
            resolution=float(search.get("resolution", DEFAULT_RESOLUTION)),
            budget=int(search.get("budget", DEFAULT_POINT_BUDGET)),
            hierarchy=data.get("hierarchy"),
            recalibrate_steps=(int(data["recalibrate"]["total_steps"])
                               if "recalibrate" in data else None),
            consistency_ratios=tuple(
                tuple(r) for r in data.get("consistency", {}).get("ratios", [])
            ),
            theory=data.get("theory", {}),
            export_datasets=bool(data.get("export_datasets", False)),
        )
        _validate_cross_fields(cfg)
    except ConfigError:
        raise
    except MergeMixError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)
