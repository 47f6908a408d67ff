"""Divide-and-conquer mixture search over a tree of domains.

Leaves reference trained domain experts; internal nodes carry simplex
weights over their children. Top-down fixes the coarse split first and then
refines inside each cluster against that cluster's own capabilities;
bottom-up consolidates each cluster at its locally optimal mix and then
splits the budget across the consolidated experts. A leaf's final share is
the product of the weights along its root path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, MergeMixError, SimplexError
from .gbt import BoostHyper
from .merging import merge
from .seeding import stable_seed
from .simplex import DEFAULT_POINT_BUDGET, normalize_simplex, uniform_weights
from .stats import UtilitySpec
from .surface import StageResult, run_search_stage
from .training import ExpertArtifact
from .worlds import World


@dataclass
class MixtureNode:
    """Tree node; leaves name a domain, internal nodes weight their children."""

    name: str
    children: list["MixtureNode"] = field(default_factory=list)
    weights: np.ndarray | None = None
    domain: str | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def validate(self) -> None:
        if self.is_leaf:
            if self.domain is None:
                raise MergeMixError(f"leaf {self.name!r} references no domain")
            return
        if self.domain is not None:
            raise MergeMixError(f"internal node {self.name!r} cannot bind a domain")
        if self.weights is not None:
            if len(self.weights) != len(self.children):
                raise DimensionError(
                    f"node {self.name!r} has {len(self.children)} children "
                    f"but {len(self.weights)} weights"
                )
            try:
                normalize_simplex(self.weights)
            except SimplexError as exc:
                raise SimplexError(f"node {self.name!r}: {exc}") from exc
        for child in self.children:
            child.validate()
        names = [leaf.name for leaf in self.iter_leaves()]
        domains = [leaf.domain for leaf in self.iter_leaves()]
        internal = [node.name for node in self.iter_internal()]
        if len(set(names)) != len(names):
            raise MergeMixError(f"duplicate leaf names under {self.name!r}")
        if len(set(internal)) != len(internal):
            raise MergeMixError(f"duplicate internal node names under {self.name!r}")
        if len(set(domains)) != len(domains):
            raise MergeMixError(
                f"multiple leaves reference one domain under {self.name!r}"
            )

    def iter_leaves(self):
        if self.is_leaf:
            yield self
            return
        for child in self.children:
            yield from child.iter_leaves()

    def iter_internal(self):
        if self.is_leaf:
            return
        yield self
        for child in self.children:
            yield from child.iter_internal()

    def copy(self) -> "MixtureNode":
        return MixtureNode(
            name=self.name,
            children=[c.copy() for c in self.children],
            weights=None if self.weights is None else np.array(self.weights),
            domain=self.domain,
        )

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"name": self.name, "domain": self.domain}
        out: dict = {"name": self.name,
                     "children": [c.to_dict() for c in self.children]}
        if self.weights is not None:
            out["weights"] = [float(w) for w in self.weights]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MixtureNode":
        if "children" in data:
            node = cls(
                name=data["name"],
                children=[cls.from_dict(c) for c in data["children"]],
                weights=(np.asarray(data["weights"], dtype=np.float64)
                         if "weights" in data else None),
            )
        else:
            node = cls(name=data["name"], domain=data.get("domain", data["name"]))
        node.validate()
        return node


def flatten_ratios(tree: MixtureNode) -> tuple[list[str], np.ndarray]:
    """Leaf domains and their shares: products of weights along each path."""
    names: list[str] = []
    shares: list[float] = []
    _collect_shares(tree, 1.0, names, shares)
    return names, normalize_simplex(np.asarray(shares))


# The recursions are module functions, not closures: a closure that calls
# itself is a reference cycle, and one holding `ctx` would keep every
# stage's surface alive until the cyclic collector runs.

def _collect_shares(node: MixtureNode, mass: float, names: list[str],
                    shares: list[float]) -> None:
    if node.is_leaf:
        names.append(node.domain)
        shares.append(mass)
        return
    if node.weights is None:
        raise MergeMixError(f"node {node.name!r} has no weights to flatten")
    for child, w in zip(node.children, node.weights):
        _collect_shares(child, mass * float(w), names, shares)


@dataclass(frozen=True)
class HierarchyContext:
    """Shared machinery for every per-node search.

    Each search pass's StageResult is recorded in stage_log, keyed by its
    seed labels (("design",) for the global split, ("design", node name)
    for within-cluster splits), so callers can persist the surfaces that
    produced the weights. A within-cluster surface maps only the cluster's
    capabilities.
    """

    world: World
    base: np.ndarray
    experts: list[ExpertArtifact]
    design_size: int = 40
    hyper: BoostHyper | None = None
    utility_spec: UtilitySpec | None = None
    resolution: float = 0.05
    budget: int = DEFAULT_POINT_BUDGET
    seed: int = 0
    stage_log: dict = field(default_factory=dict)

    def expert_vector(self, domain: str) -> np.ndarray:
        for artifact in self.experts:
            if artifact.name == domain:
                return artifact.final
        raise MergeMixError(f"no trained expert for domain {domain!r}")

    def domain_index(self, domain: str) -> int:
        try:
            return self.world.names.index(domain)
        except ValueError:
            raise MergeMixError(f"unknown domain {domain!r}") from None

    def cluster_scope(self, node: MixtureNode) -> tuple[World, UtilitySpec]:
        """The world over the cluster's domains, in world order, and the
        unweighted mean over their capabilities.

        The weights are the non-zero entries of the mean over the whole
        world, so that a cluster stage scores, fits and searches only the
        capabilities its utility reads and still picks what a stage over
        the whole world with zero weights elsewhere would pick.
        """
        idx = [self.domain_index(leaf.domain) for leaf in node.iter_leaves()]
        weights = np.zeros(self.world.num_domains)
        weights[idx] = 1.0 / len(idx)
        weights[idx[-1]] = 1.0 - float(weights.sum() - weights[idx[-1]])
        keep = sorted(idx)
        world = self.world.restrict([self.world.names[k] for k in keep])
        spec = UtilitySpec(kind="weighted", weights=tuple(weights[keep].tolist()))
        return world, spec

    def stage(self, experts, seed_labels: tuple[str, ...],
              cluster: MixtureNode | None) -> StageResult:
        """One surface pass: over the whole world with the run's utility,
        or with `cluster`, over that cluster's `cluster_scope`."""
        world, spec = ((self.world, self.utility_spec) if cluster is None
                       else self.cluster_scope(cluster))
        result = run_search_stage(
            world, self.base, experts,
            design_size=self.design_size,
            seed=stable_seed(self.seed, *seed_labels),
            hyper=self.hyper,
            utility_spec=spec,
            resolution=self.resolution,
            budget=self.budget,
        )
        self.stage_log[seed_labels] = result
        return result


def _consolidated_vector(ctx: HierarchyContext, node: MixtureNode) -> np.ndarray:
    """Merge a subtree into one vector using its weights (uniform if unset)."""
    if node.is_leaf:
        return ctx.expert_vector(node.domain)
    parts = [_consolidated_vector(ctx, child) for child in node.children]
    weights = node.weights if node.weights is not None \
        else uniform_weights(len(parts))
    return merge(ctx.base, parts, weights)


def _identical_vectors(parts: list[np.ndarray]) -> bool:
    return all(np.array_equal(parts[0], p) for p in parts[1:])


def _searched_weights(ctx: HierarchyContext, experts: list[np.ndarray],
                      node: MixtureNode) -> np.ndarray:
    """Weights for a node below the root. The root's split always runs its
    stage: the run reports that stage's surface and search."""
    if len(experts) == 1:
        return np.array([1.0])
    if _identical_vectors(experts):
        # Any split of identical experts merges to the same model; the
        # canonical answer is the uniform one.
        return uniform_weights(len(experts))
    return ctx.stage(experts, ("design", node.name), node).search.weights


def _snapshot(ctx: HierarchyContext, node: MixtureNode, frozen: dict) -> None:
    """Uniform-internal consolidation of every subtree below node, by id."""
    for child in node.children:
        frozen[id(child)] = _consolidated_vector(ctx, child)
        _snapshot(ctx, child, frozen)


def _refine(ctx: HierarchyContext, frozen: dict, node: MixtureNode, mass: float,
            rest: np.ndarray) -> None:
    """Optimize node.weights; `rest` is the merged contribution of
    everything outside this subtree, `mass` the subtree's total share.

    The candidate model for within-weights w is
    rest + mass * sum_i w_i (consolidated child_i - base),
    an affine merge over virtual experts.
    """
    if node.is_leaf:
        return
    parts = [frozen[id(child)] for child in node.children]
    virtual = [rest + mass * (p - ctx.base) for p in parts]
    node.weights = _searched_weights(ctx, virtual, node)
    _refine_children(ctx, frozen, node, mass, rest)


def _refine_children(ctx: HierarchyContext, frozen: dict, node: MixtureNode,
                     mass: float, rest: np.ndarray) -> None:
    """Refine each child of a node whose weights are set, with its
    siblings frozen at those weights."""
    parts = [frozen[id(child)] for child in node.children]
    for i, child in enumerate(node.children):
        child_rest = rest.copy()
        for j, pv in enumerate(parts):
            if j != i:
                child_rest = child_rest + mass * float(node.weights[j]) * (
                    pv - ctx.base
                )
        _refine(ctx, frozen, child, mass * float(node.weights[i]), child_rest)


def optimize_top_down(tree: MixtureNode, ctx: HierarchyContext) -> MixtureNode:
    """Coarse split first, then independent refinement inside each cluster.

    During refinement every subtree outside the node under optimization is
    frozen at its uniform-internal consolidation, so sibling refinements do
    not depend on the order they run in.
    """
    tree = tree.copy()
    tree.validate()
    # Uniform-internal consolidations, captured before any weights change.
    frozen: dict[int, np.ndarray] = {}
    _snapshot(ctx, tree, frozen)
    tree.weights = ctx.stage(
        [frozen[id(c)] for c in tree.children], ("design",), None).search.weights
    _refine_children(ctx, frozen, tree, 1.0, ctx.base)  # 1.0 * w is exactly w
    tree.validate()
    return tree


def _settle(ctx: HierarchyContext, node: MixtureNode) -> np.ndarray:
    """Optimize within-cluster weights deepest-first; return the
    consolidated vector."""
    if node.is_leaf:
        return ctx.expert_vector(node.domain)
    parts = [_settle(ctx, child) for child in node.children]
    node.weights = _searched_weights(ctx, parts, node)
    return merge(ctx.base, parts, node.weights)


def optimize_bottom_up(tree: MixtureNode, ctx: HierarchyContext) -> MixtureNode:
    """Local mixes first, then a global split across consolidated experts."""
    tree = tree.copy()
    tree.validate()
    consolidated = [_settle(ctx, child) for child in tree.children]
    tree.weights = ctx.stage(consolidated, ("design",), None).search.weights
    tree.validate()
    return tree
