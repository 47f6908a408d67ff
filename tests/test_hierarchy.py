import gc
import weakref

import numpy as np
import pytest

from mergemix.errors import MergeMixError, NumericError, SimplexError
from mergemix.gbt import BoostHyper
from mergemix.hierarchy import (
    HierarchyContext,
    MixtureNode,
    flatten_ratios,
    optimize_bottom_up,
    optimize_top_down,
)
from mergemix.merging import merge
from mergemix.models import Quadratic
from mergemix.seeding import stable_seed
from mergemix.stats import UtilitySpec, utility
from mergemix.surface import run_search_stage
from mergemix.training import TrainConfig, train_expert
from mergemix.worlds import QuadraticWorld, raw_capability
from tests.conftest import RUN_SEED


def two_level_tree():
    return MixtureNode.from_dict({
        "name": "root",
        "children": [
            {"name": "m", "children": [{"name": "m-a", "domain": "m-a"},
                                       {"name": "m-b", "domain": "m-b"}]},
            {"name": "c", "children": [{"name": "c-a", "domain": "c-a"},
                                       {"name": "c-b", "domain": "c-b"}]},
        ],
    })


def depth_one_tree(names):
    return MixtureNode.from_dict({
        "name": "root",
        "children": [{"name": n, "domain": n} for n in names],
    })


class TestFlattenRatios:
    def test_hand_example(self):
        tree = MixtureNode.from_dict({
            "name": "root",
            "weights": [0.6, 0.4],
            "children": [
                {"name": "a", "weights": [0.5, 0.5],
                 "children": [{"name": "a1", "domain": "a1"},
                              {"name": "a2", "domain": "a2"}]},
                {"name": "b", "domain": "b"},
            ],
        })
        names, shares = flatten_ratios(tree)
        assert names == ["a1", "a2", "b"]
        np.testing.assert_allclose(shares, [0.3, 0.3, 0.4], atol=1e-12)

    def test_uniform_balanced_binary(self):
        tree = MixtureNode.from_dict({
            "name": "root", "weights": [0.5, 0.5],
            "children": [
                {"name": "l", "weights": [0.5, 0.5],
                 "children": [{"name": "l1", "domain": "l1"},
                              {"name": "l2", "domain": "l2"}]},
                {"name": "r", "weights": [0.5, 0.5],
                 "children": [{"name": "r1", "domain": "r1"},
                              {"name": "r2", "domain": "r2"}]},
            ],
        })
        _, shares = flatten_ratios(tree)
        np.testing.assert_array_equal(shares, [0.25, 0.25, 0.25, 0.25])

    def test_always_on_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w_root = rng.dirichlet(np.ones(2))
            w_sub = rng.dirichlet(np.ones(3))
            tree = MixtureNode.from_dict({
                "name": "root", "weights": w_root.tolist(),
                "children": [
                    {"name": "s", "weights": w_sub.tolist(),
                     "children": [{"name": f"s{i}", "domain": f"s{i}"}
                                  for i in range(3)]},
                    {"name": "leaf", "domain": "leaf"},
                ],
            })
            _, shares = flatten_ratios(tree)
            assert shares.sum() == pytest.approx(1.0, abs=1e-12)

    def test_missing_weights_rejected(self):
        tree = depth_one_tree(["a", "b"])
        with pytest.raises(MergeMixError):
            flatten_ratios(tree)

    def test_leaves_no_reference_cycles(self):
        tree = MixtureNode.from_dict({
            "name": "root", "weights": [0.5, 0.5],
            "children": [
                {"name": "a", "weights": [0.25, 0.75],
                 "children": [{"name": "a1", "domain": "a1"},
                              {"name": "a2", "domain": "a2"}]},
                {"name": "b", "domain": "b"},
            ],
        })
        gc.collect()
        gc.disable()
        try:
            flatten_ratios(tree)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTreeValidation:
    def test_duplicate_leaves_rejected(self):
        with pytest.raises(MergeMixError):
            MixtureNode.from_dict({
                "name": "root",
                "children": [{"name": "x", "domain": "d"},
                             {"name": "y", "domain": "d"}],
            })

    def test_duplicate_internal_names_rejected(self):
        with pytest.raises(MergeMixError):
            MixtureNode.from_dict({
                "name": "root",
                "children": [
                    {"name": "c", "children": [{"name": "a", "domain": "a"},
                                               {"name": "b", "domain": "b"}]},
                    {"name": "c", "children": [{"name": "x", "domain": "x"},
                                               {"name": "y", "domain": "y"}]},
                ],
            })

    @pytest.mark.parametrize("weights,message", [
        ([0.7, 0.7], "weights sum to 1.4"),
        ([1.5, -0.5], "negative weight"),
        ([float("nan"), 1.0], "non-finite weight"),
    ])
    def test_node_weights_off_the_simplex_rejected(self, weights, message):
        with pytest.raises(SimplexError, match=f"node 'c': {message}"):
            MixtureNode.from_dict({
                "name": "root",
                "children": [
                    {"name": "c", "weights": weights,
                     "children": [{"name": "a", "domain": "a"},
                                  {"name": "b", "domain": "b"}]},
                    {"name": "x", "domain": "x"},
                ],
            })

    def test_round_trip(self):
        tree = two_level_tree()
        clone = MixtureNode.from_dict(tree.to_dict())
        assert clone.to_dict() == tree.to_dict()


def _ctx(world, experts, seed=RUN_SEED, **kw):
    return HierarchyContext(world=world, base=world.base_params(),
                            experts=experts, seed=seed, **kw)


class TestNoReferenceCycles:
    @pytest.mark.parametrize("optimize", [optimize_top_down, optimize_bottom_up])
    def test_context_freed_without_the_cycle_collector(self, qw4, qw4_experts,
                                                       optimize):
        """Once the caller drops it, the context and every stage surface it
        logged are freed at once, not when the cyclic collector runs."""
        tree = MixtureNode.from_dict({
            "name": "root",
            "children": [
                {"name": "a", "children": [{"name": "math", "domain": "math"},
                                           {"name": "code", "domain": "code"}]},
                {"name": "b", "children": [{"name": "sft", "domain": "sft"},
                                           {"name": "web", "domain": "web"}]},
            ],
        })
        gc.collect()
        gc.disable()
        try:
            ctx = _ctx(qw4, qw4_experts, resolution=0.25)
            optimize(tree, ctx)
            assert len(ctx.stage_log) == 3
            freed = weakref.ref(ctx)
            del ctx
            assert freed() is None
        finally:
            gc.enable()


class TestDegenerateHierarchies:
    def test_depth_one_bit_identical_to_flat(self, qw4, qw4_experts):
        flat = run_search_stage(qw4, qw4.base_params(), qw4_experts,
                                design_size=40,
                                seed=stable_seed(RUN_SEED, "design"))
        for optimize in (optimize_top_down, optimize_bottom_up):
            tree = optimize(depth_one_tree(list(qw4.names)),
                            _ctx(qw4, qw4_experts, design_size=40))
            assert np.array_equal(tree.weights, flat.search.weights)

    def test_single_child_gets_unit_weight(self, qw2, qw2_experts):
        tree = MixtureNode.from_dict({
            "name": "root",
            "children": [
                {"name": "solo", "children": [{"name": "d1", "domain": "d1"}]},
                {"name": "d2", "domain": "d2"},
            ],
        })
        out = optimize_top_down(tree, _ctx(qw2, qw2_experts, design_size=8))
        solo = out.children[0]
        np.testing.assert_array_equal(solo.weights, [1.0])

    def test_identical_leaves_canonical_uniform(self):
        """Two domains with the same objective train to identical experts;
        their within-cluster split is then canonically uniform, not a
        search artifact."""
        from mergemix.models import Quadratic
        from mergemix.worlds import QuadraticWorld

        q = Quadratic(np.array([1.0, 0.0]), np.eye(2))
        other = Quadratic(np.array([0.0, 1.0]), np.diag([2.0, 1.0]))
        world = QuadraticWorld(["twin-a", "twin-b", "solo"], [q, q, other])
        cfg = TrainConfig(learning_rate=0.05, steps=10, checkpoint_interval=2,
                          seed=stable_seed(RUN_SEED, "train"))
        experts = [train_expert(world, k, world.base_params(), cfg)
                   for k in range(3)]
        tree = MixtureNode.from_dict({
            "name": "root",
            "children": [
                {"name": "twins",
                 "children": [{"name": "twin-a", "domain": "twin-a"},
                              {"name": "twin-b", "domain": "twin-b"}]},
                {"name": "solo", "domain": "solo"},
            ],
        })
        out = optimize_bottom_up(tree, _ctx(world, experts, design_size=8))
        np.testing.assert_array_equal(out.children[0].weights, [0.5, 0.5])


@pytest.fixture(scope="module")
def sep_setup(qw_sep):
    base = qw_sep.base_params()
    cfg = TrainConfig(learning_rate=0.1, steps=60, checkpoint_interval=60,
                      seed=stable_seed(RUN_SEED, "train"))
    experts = [train_expert(qw_sep, k, base, cfg) for k in range(4)]
    return base, experts


class TestSeparableFixtureAgreement:
    RESOLUTION = 0.1
    DESIGN = 600

    def test_flat_top_down_bottom_up_agree(self, qw_sep, sep_setup):
        base, experts = sep_setup
        flat = run_search_stage(qw_sep, base, experts,
                                design_size=self.DESIGN,
                                seed=stable_seed(RUN_SEED, "design"),
                                resolution=self.RESOLUTION)
        lam = {"flat": flat.search.weights}
        for label, optimize in (("td", optimize_top_down),
                                ("bu", optimize_bottom_up)):
            tree = optimize(
                two_level_tree(),
                _ctx(qw_sep, experts, design_size=self.DESIGN,
                     resolution=self.RESOLUTION))
            names, shares = flatten_ratios(tree)
            by_name = dict(zip(names, shares))
            lam[label] = np.array([by_name[n] for n in qw_sep.names])

        def actual_utility(weights):
            merged = merge(base, [e.final for e in experts], weights)
            scores = [flat.model.contexts[m].apply(raw_capability(qw_sep, m, merged))
                      for m in range(4)]
            return utility(scores, UtilitySpec())

        utilities = {k: actual_utility(v) for k, v in lam.items()}
        pairs = [("flat", "td"), ("flat", "bu"), ("td", "bu")]
        for a, b in pairs:
            assert np.max(np.abs(lam[a] - lam[b])) <= self.RESOLUTION, (a, b)
            assert abs(utilities[a] - utilities[b]) <= 0.05, (a, b)


class FullWorldClusterContext(HierarchyContext):
    """Cluster stages as they ran over the whole world: every capability
    scored, fitted and searched, those outside the cluster at weight 0."""

    def cluster_scope(self, node):
        idx = [self.domain_index(leaf.domain) for leaf in node.iter_leaves()]
        weights = np.zeros(self.world.num_domains)
        weights[idx] = 1.0 / len(idx)
        weights[idx[-1]] = 1.0 - float(weights.sum() - weights[idx[-1]])
        return self.world, UtilitySpec(kind="weighted", weights=tuple(weights.tolist()))


def qw4_three_leaf_tree():
    """A 3-leaf cluster whose leaves are listed out of world order."""
    return MixtureNode.from_dict({
        "name": "root",
        "children": [
            {"name": "trio", "children": [{"name": "web", "domain": "web"},
                                          {"name": "math", "domain": "math"},
                                          {"name": "sft", "domain": "sft"}]},
            {"name": "code", "domain": "code"},
        ],
    })


SMALL_HYPER = BoostHyper(n_trees=50)


def _internal_weights(tree):
    return {node.name: node.weights.tobytes() for node in tree.iter_internal()}


class TestClusterStagesOverTheirDomains:
    @pytest.fixture(params=["qw-sep", "qw4-trio"])
    def case(self, request, qw_sep, sep_setup, qw4, qw4_experts):
        if request.param == "qw-sep":
            return qw_sep, sep_setup[1], two_level_tree, {"m": ["m-a", "m-b"],
                                                          "c": ["c-a", "c-b"]}
        return qw4, qw4_experts, qw4_three_leaf_tree, {"trio": ["math", "sft", "web"]}

    @pytest.mark.parametrize("optimize", [optimize_top_down, optimize_bottom_up])
    def test_node_weights_bit_identical_to_full_world_stages(self, case, optimize):
        world, experts, make_tree, _ = case
        kw = dict(design_size=40, resolution=0.1, hyper=SMALL_HYPER)
        got = optimize(make_tree(), _ctx(world, experts, **kw))
        ref = optimize(make_tree(), FullWorldClusterContext(
            world=world, base=world.base_params(), experts=experts,
            seed=RUN_SEED, **kw))
        assert _internal_weights(got) == _internal_weights(ref)

    @pytest.mark.parametrize("optimize", [optimize_top_down, optimize_bottom_up])
    def test_cluster_surfaces_map_only_their_capabilities(self, case, optimize):
        """At 0.01 a two-way lattice has 101 points, more than the design, so
        every stage fits a surface."""
        world, experts, make_tree, clusters = case
        ctx = _ctx(world, experts, design_size=40, resolution=0.01,
                   hyper=SMALL_HYPER)
        optimize(make_tree(), ctx)
        assert ctx.stage_log[("design",)].model.capabilities == world.names
        for name, capabilities in clusters.items():
            stage = ctx.stage_log[("design", name)]
            assert stage.model.capabilities == capabilities
            assert stage.scores.shape == (40, len(capabilities))
            assert len(stage.model.utility_spec.weights) == len(capabilities)


class Unscorable(Quadratic):
    """A domain that trains normally but whose loss is never finite."""

    def loss(self, theta):
        if np.ndim(theta) == 2:  # a stack of parameter rows
            return np.full(len(theta), np.inf)
        return float("inf")


def test_unscorable_domain_fails_only_the_stages_that_score_it():
    good = Quadratic(np.array([1.0, 0.0]), np.eye(2))
    other = Quadratic(np.array([0.0, 1.0]), np.diag([2.0, 1.0]))
    bad = Unscorable(np.array([-0.5, 0.5]), np.eye(2))
    world = QuadraticWorld(["a", "b", "bad"], [good, other, bad])
    cfg = TrainConfig(learning_rate=0.05, steps=10, checkpoint_interval=5,
                      seed=stable_seed(RUN_SEED, "train"))
    experts = [train_expert(world, k, world.base_params(), cfg) for k in range(3)]
    tree = MixtureNode.from_dict({
        "name": "root",
        "children": [
            {"name": "ab", "children": [{"name": "a", "domain": "a"},
                                        {"name": "b", "domain": "b"}]},
            {"name": "bad", "domain": "bad"},
        ],
    })
    ctx = _ctx(world, experts, design_size=12, resolution=0.25)
    with pytest.raises(NumericError, match="'bad'"):
        optimize_bottom_up(tree, ctx)
    assert list(ctx.stage_log) == [("design", "ab")]
