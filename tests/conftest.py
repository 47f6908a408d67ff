"""Shared fixtures: standard worlds and pre-trained expert sets.

Session scope keeps the expensive pieces (QW-4 experts, surface stages)
trained once for the whole run.
"""

from __future__ import annotations

import numpy as np
import pytest

from mergemix.gbt import BoostHyper, GradientBoostedRegressor, RegressionTree
from mergemix.seeding import stable_seed
from mergemix.stats import NormContext, UtilitySpec
from mergemix.surface import SurfaceModel, run_search_stage
from mergemix.training import TrainConfig, train_expert
from mergemix.worlds import fixture_qw2, fixture_qw4, fixture_qw_separable, fixture_toy

RUN_SEED = 11

QW2_TRAIN = TrainConfig(learning_rate=0.05, steps=10, checkpoint_interval=2,
                        seed=stable_seed(RUN_SEED, "train"))
QW4_TRAIN = TrainConfig(learning_rate=0.05, steps=3, checkpoint_interval=1,
                        seed=stable_seed(RUN_SEED, "train"))


@pytest.fixture(scope="session")
def qw2():
    return fixture_qw2()


@pytest.fixture(scope="session")
def qw4():
    return fixture_qw4()


@pytest.fixture(scope="session")
def qw_sep():
    return fixture_qw_separable()


@pytest.fixture(scope="session")
def toy_world():
    return fixture_toy()


@pytest.fixture(scope="session")
def qw2_experts(qw2):
    base = qw2.base_params()
    return [train_expert(qw2, k, base, QW2_TRAIN) for k in range(qw2.num_domains)]


@pytest.fixture(scope="session")
def qw4_experts(qw4):
    base = qw4.base_params()
    return [train_expert(qw4, k, base, QW4_TRAIN) for k in range(qw4.num_domains)]


@pytest.fixture(scope="session")
def qw4_stage(qw4, qw4_experts):
    return run_search_stage(
        qw4, qw4.base_params(), qw4_experts,
        design_size=40, seed=stable_seed(RUN_SEED, "design"),
    )


# Hand-built surfaces: tree ensembles whose value at every lattice point is
# known exactly, for search tests that used to pass bare functions.

def _staircase_nodes(grid, values, first: int, last: int, lists) -> int:
    """Append a balanced subtree over grid[first..last]; return its index."""
    index = len(lists[0])
    for column in lists:
        column.append(None)
    features, thresholds, lefts, rights, leaf_values = lists
    if first == last:
        features[index], thresholds[index] = -1, 0.0
        lefts[index] = rights[index] = -1
        leaf_values[index] = values[first]
        return index
    middle = (first + last + 1) // 2
    features[index] = 0  # relabelled by staircase_tree
    thresholds[index] = 0.5 * (grid[middle - 1] + grid[middle])
    lefts[index] = _staircase_nodes(grid, values, first, middle - 1, lists)
    rights[index] = _staircase_nodes(grid, values, middle, last, lists)
    leaf_values[index] = 0.0
    return index


STAIRCASE_STEPS = 100
STAIRCASE_DEPTH = 7  # a balanced tree over 101 leaves


def staircase_tree(feature: int, function) -> RegressionTree:
    """A tree on one feature whose value at x = v / STAIRCASE_STEPS is
    function(x), for every v; thresholds sit halfway between those x."""
    grid = np.arange(STAIRCASE_STEPS + 1) / STAIRCASE_STEPS
    lists = ([], [], [], [], [])
    _staircase_nodes(grid, [float(function(x)) for x in grid], 0,
                     STAIRCASE_STEPS, lists)
    features = np.asarray(lists[0], dtype=np.int64)
    features[features >= 0] = feature
    return RegressionTree(features, np.asarray(lists[1], dtype=np.float64),
                          np.asarray(lists[2], dtype=np.int64),
                          np.asarray(lists[3], dtype=np.int64),
                          np.asarray(lists[4], dtype=np.float64),
                          STAIRCASE_DEPTH)


def staircase_regressor(*terms) -> GradientBoostedRegressor:
    """Sum over (feature, function) terms of staircase trees: exactly
    0.0 + f1(x[a]) + f2(x[b]) + ... at every point of any lattice whose
    steps divide STAIRCASE_STEPS."""
    hyper = BoostHyper(n_trees=len(terms), max_depth=STAIRCASE_DEPTH,
                       learning_rate=1.0)
    return GradientBoostedRegressor(
        hyper, trees=[staircase_tree(f, fn) for f, fn in terms])


def constant_regressor(value: float) -> GradientBoostedRegressor:
    """An ensemble with no trees, as a fit to a constant target leaves it."""
    return GradientBoostedRegressor(BoostHyper(), init_value=value)


def surface_of(k: int, *regressors,
               spec: UtilitySpec | None = None) -> SurfaceModel:
    """A k-domain surface with one capability per regressor."""
    m = len(regressors)
    return SurfaceModel(
        capabilities=[f"c{j}" for j in range(m)], regressors=list(regressors),
        contexts=[NormContext(0, 1)] * m, hyper=regressors[0].hyper,
        utility_spec=spec or UtilitySpec(kind="single", index=0),
        sample_digest="d", train_error=[0.0] * m, num_samples=k + 1,
        input_dim=k)
