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
    return DomainSpec(name="r",
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

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(MergeMixError, match="noise must be finite and >= 0"):
            _regression_spec(noise=noise)

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
        assert raw[1] == -qw2.heldout_loss(1, base)
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


class TestRestrict:
    @pytest.fixture(params=["QW-4", "TOY-2"])
    def world(self, request):
        return fixture_by_name(request.param)

    def test_kept_heldout_losses_bit_identical(self, world):
        rng = np.random.default_rng(8)
        stack = world.base_params() + rng.standard_normal((6, world.dim))
        full = raw_capabilities(world, stack)
        for kept in ([world.names[-1]], world.names[::2], list(world.names)):
            sub = world.restrict(kept)
            idx = [world.names.index(name) for name in sub.names]
            assert sub.dim == world.dim
            assert sub.base_params().tobytes() == world.base_params().tobytes()
            for theta in stack:
                for j, k in enumerate(idx):
                    assert (np.float64(sub.heldout_loss(j, theta)).tobytes()
                            == np.float64(world.heldout_loss(k, theta)).tobytes())
            assert raw_capabilities(sub, stack).tobytes() == full[:, idx].tobytes()

    def test_names_in_world_order(self, world):
        reverse = world.restrict(world.names[::-1])
        assert reverse.names == world.names
        assert reverse.num_domains == world.num_domains
        last_first = [world.names[-1], world.names[0]]
        assert world.restrict(last_first).names == [world.names[0], world.names[-1]]
        assert world.model_descriptor()["domains"] == world.names

    def test_shares_the_parent_domains(self, world):
        sub = world.restrict([world.names[-1]])
        if isinstance(world, QuadraticWorld):
            assert sub.quadratics[0] is world.quadratics[-1]
        else:
            assert sub.net is world.net
            assert sub.train[0] is world.train[-1]
            assert sub.heldout[0] is world.heldout[-1]

    @pytest.mark.parametrize("names,message", [
        (["nowhere"], "unknown domains"),
        ([], "no domains"),
    ])
    def test_bad_name_lists_rejected(self, world, names, message):
        with pytest.raises(MergeMixError, match=message):
            world.restrict(names)

    def test_duplicate_names_rejected(self, world):
        with pytest.raises(MergeMixError, match="duplicate domain names"):
            world.restrict([world.names[0], world.names[0]])


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
