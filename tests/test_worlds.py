import numpy as np
import pytest

import mergemix.worlds
from mergemix.errors import MergeMixError, NumericError
from mergemix.merging import merge_many
from mergemix.models import Quadratic
from mergemix.stats import NormContext, normalize
from mergemix.worlds import (
    DomainSpec,
    QuadraticWorld,
    fixture_by_name,
    fixture_qw2,
    generate_domain,
    generate_world,
    raw_capabilities,
    raw_capability,
)
from tests.conftest import QW2_TRAIN


def _regression_spec(seed=3, noise=0.0):
    return DomainSpec("r", "regression",
                      target_weight=np.array([[1.0, -2.0], [0.5, 0.0]]),
                      noise=noise, input_dim=2, train_size=10,
                      heldout_size=6, seed=seed)


class TestGeneration:
    def test_deterministic(self):
        a_train, a_held = generate_domain(_regression_spec())
        b_train, b_held = generate_domain(_regression_spec())
        np.testing.assert_array_equal(a_train.inputs, b_train.inputs)
        np.testing.assert_array_equal(a_held.targets, b_held.targets)

    def test_noiseless_targets_exact(self):
        spec = _regression_spec(noise=0.0)
        train, _ = generate_domain(spec)
        np.testing.assert_array_equal(train.targets,
                                      train.inputs @ spec.target_weight.T)

    def test_quadratic_domains_have_empty_datasets(self):
        spec = DomainSpec("q", "quadratic", minimizer=np.zeros(2),
                          curvature=np.eye(2))
        train, held = generate_domain(spec)
        assert len(train) == 0 and len(held) == 0

    def test_duplicate_names_rejected(self):
        with pytest.raises(MergeMixError):
            generate_world([_regression_spec(), _regression_spec()])
        q = Quadratic(np.zeros(2), np.eye(2))
        with pytest.raises(MergeMixError, match="duplicate domain names"):
            QuadraticWorld(["a", "a"], [q, q])

    def test_unknown_fixture(self):
        with pytest.raises(MergeMixError):
            fixture_by_name("QW-999")


class TestCapability:
    def test_maximal_at_minimizer(self, qw2):
        theta = qw2.quadratics[0].minimizer
        assert raw_capability(qw2, 0, theta) == 0.0

    def test_expert_beats_base_on_own_domain(self, qw2, qw2_experts):
        base = qw2.base_params()
        for k in range(qw2.num_domains):
            assert (raw_capability(qw2, k, qw2_experts[k].final)
                    > raw_capability(qw2, k, base))

    def test_normalization_degenerate_range(self, qw2):
        raw = raw_capabilities(qw2, qw2.base_params())
        assert normalize(raw, [NormContext(1.0, 1.0)] * 2).tolist() == [0.5, 0.5]

    def test_score_fields(self, qw2):
        base = qw2.base_params()
        raw = raw_capabilities(qw2, base)
        assert raw.shape == (2,) and qw2.names[1] == "d2"
        assert raw[1] == -qw2.loss(1, base)
        assert 0.0 <= normalize(raw, [NormContext(-2.0, 0.0)] * 2)[1] <= 1.0

    def test_merged_score_continuous_in_weights(self, qw2, qw2_experts):
        """Nearby merge weights give nearby scores on the standard fixture."""
        base = qw2.base_params()
        experts = [e.final for e in qw2_experts]
        contexts = [NormContext(-1.0, 0.0)] * 2
        rng = np.random.default_rng(17)
        for _ in range(25):
            a = rng.uniform(0.05, 0.95)
            da = rng.uniform(-1e-3, 1e-3)
            merged = merge_many(base, experts, [[a, 1 - a], [a + da, 1 - a - da]])
            s1, s2 = normalize(raw_capabilities(qw2, merged), contexts)[:, 0]
            assert abs(s1 - s2) <= 1e-2

    def test_fixture_qw2_layout(self):
        w = fixture_qw2()
        np.testing.assert_array_equal(w.quadratics[0].minimizer, [1.0, 0.0])
        np.testing.assert_array_equal(w.quadratics[1].curvature,
                                      np.diag([2.0, 1.0]))


def raw_capabilities_reference(world, stack) -> np.ndarray:
    """The per-row loop `raw_capabilities` replaced on stacks."""
    return np.array([[raw_capability(world, k, theta) for k in range(world.num_domains)]
                     for theta in stack])


class TestRawCapabilitiesStack:
    @pytest.fixture(params=["QW-4", "TOY-2"])
    def world_and_stack(self, request):
        world = fixture_by_name(request.param)
        rng = np.random.default_rng(31)
        base = world.base_params()
        return world, base + rng.standard_normal((12, world.dim))

    def test_stack_bit_identical_to_per_row_loop(self, world_and_stack):
        world, stack = world_and_stack
        got = raw_capabilities(world, stack)
        assert got.shape == (12, world.num_domains)
        assert got.tobytes() == raw_capabilities_reference(world, stack).tobytes()

    def test_one_vector_is_one_row(self, world_and_stack):
        world, stack = world_and_stack
        one = raw_capabilities(world, stack[3])
        assert one.shape == (world.num_domains,)
        assert one.tobytes() == raw_capabilities(world, stack)[3].tobytes()

    def test_empty_stack(self, world_and_stack):
        world, stack = world_and_stack
        assert raw_capabilities(world, stack[:0]).shape == (0, world.num_domains)

    def test_scores_through_raw_capability(self, world_and_stack, monkeypatch):
        """Each (row, domain) pair is one raw_capability call, so its checks
        and call counts hold for stacks too."""
        world, stack = world_and_stack
        calls = []
        original = mergemix.worlds.raw_capability

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(mergemix.worlds, "raw_capability", counted)
        raw_capabilities(world, stack[:5])
        assert calls == list(range(world.num_domains)) * 5

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_names_its_domain(self, qw2):
        stack = np.array([[0.0, 0.0], [1e200, 0.0]])
        with pytest.raises(NumericError, match="'d1'"):
            raw_capabilities(qw2, stack)


class TestOrthogonalTaskGeometry:
    def test_orthogonal_targets_give_low_task_vector_cosine(self, toy_world):
        from mergemix.theory import task_vector_cosines
        from mergemix.training import TrainConfig, train_expert
        from mergemix.seeding import stable_seed

        base = toy_world.base_params()
        cfg = TrainConfig(learning_rate=0.05, steps=40, batch_size=16,
                          checkpoint_interval=10, seed=stable_seed(4, "train"))
        experts = [train_expert(toy_world, k, base, cfg) for k in range(2)]
        cos = task_vector_cosines(experts, base)
        assert abs(cos[0, 1]) < 0.3
