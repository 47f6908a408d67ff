import json

import numpy as np
import pytest

from mergemix.config import load_config, parse_config
from mergemix.errors import ConfigError, MergeMixError
from mergemix.persist import (
    dumps_json,
    load_checkpoint,
    read_json,
    save_checkpoint,
    write_csv,
    write_json,
)


BASE_CONFIG = {
    "name": "unit",
    "seed": 5,
    "world": {"fixture": "QW-2"},
    "train": {"learning_rate": 0.05, "steps": 4},
}


class TestCheckpoints:
    def test_round_trip_exact(self, tmp_path):
        theta = np.random.default_rng(0).standard_normal(32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, theta, {"kind": "quadratic-world", "dim": 32})
        loaded, meta = load_checkpoint(path)
        np.testing.assert_array_equal(loaded, theta)
        assert meta["format"] == "mergemix-ckpt-v1"
        assert meta["param_count"] == 32

    def test_params_are_decimal_text(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, np.array([1 / 3]), {"dim": 1})
        raw = read_json(path)
        assert raw["params"] == ["0.33333333333333331"]

    def test_digest_detects_corruption(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, np.array([1.0, 2.0]), {"dim": 2})
        data = read_json(path)
        data["params"][0] = "1.5"
        path.write_text(json.dumps(data))
        with pytest.raises(MergeMixError):
            load_checkpoint(path)

    def test_provenance_persisted(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, np.array([1.0]), {"dim": 1},
                        provenance={"weights": [0.5, 0.5]})
        assert read_json(path)["provenance"]["weights"] == [0.5, 0.5]


class TestArtifactWriters:
    def test_no_temp_files_left(self, tmp_path):
        write_json(tmp_path / "a.json", {"x": 1})
        write_csv(tmp_path / "b.csv", ["u", "v"], [[1.0, 2.0]])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.csv"]

    def test_csv_format(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b"],
                         [[0.1, 1], [True, "x"]])
        text = path.read_bytes().decode("utf-8")
        assert text == "a,b\n0.1,1\ntrue,x\n"
        assert "\r" not in text

    def test_json_key_order_stable(self, tmp_path):
        p1 = write_json(tmp_path / "1.json", {"b": 1, "a": 2})
        p2 = write_json(tmp_path / "2.json", {"a": 2, "b": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_streamed_json_equals_dumps_json(self, tmp_path):
        payload = {
            "zeta": [0.1, 1e-300, -2.5e17, 1 / 3, [float("nan"), 7]],
            "alpha": {"z": {"b": 2, "a": [{"y": 1.0, "x": -0.0}]}, "": None},
            "µ-naïve": "日本語 ✓ \"quoted\" \\ tab\t",
            "empty": [[], {}],
            "flag": True,
        }
        path = write_json(tmp_path / "stream.json", payload)
        assert path.read_bytes() == dumps_json(payload).encode("utf-8")

    def test_failed_json_write_keeps_old_file(self, tmp_path):
        path = write_json(tmp_path / "a.json", {"x": 1})
        with pytest.raises(TypeError):
            write_json(path, {"x": object()})
        assert read_json(path) == {"x": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


class TestConfigValidation:
    def test_minimal_config_parses(self):
        cfg = parse_config(dict(BASE_CONFIG))
        assert cfg.mode == "flat"
        assert cfg.design_size == 40
        assert cfg.resolution == 0.05
        assert cfg.hyper.n_trees == 200

    def test_unknown_key_rejected(self):
        bad = dict(BASE_CONFIG)
        bad["surprise"] = True
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_nested_unknown_key_rejected(self):
        bad = dict(BASE_CONFIG)
        bad["train"] = {"learning_rate": 0.05, "steps": 4, "momentum": 0.9}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_missing_required_field(self):
        bad = {k: v for k, v in BASE_CONFIG.items() if k != "train"}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_unknown_fixture(self):
        bad = dict(BASE_CONFIG)
        bad["world"] = {"fixture": "QW-3"}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_hierarchy_required_for_hierarchical_mode(self):
        bad = dict(BASE_CONFIG)
        bad["mode"] = "hierarchical-top-down"
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_hierarchy_leaves_must_cover_domains(self):
        bad = dict(BASE_CONFIG)
        bad["mode"] = "hierarchical-top-down"
        bad["hierarchy"] = {
            "name": "root",
            "children": [{"name": "d1", "domain": "d1"}],
        }
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_recalibrate_needs_budget(self):
        bad = dict(BASE_CONFIG)
        bad["mode"] = "dynamic-recalibrate"
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_prior_dimension_checked(self):
        bad = dict(BASE_CONFIG)
        bad["design"] = {"priors": [[0.2, 0.3, 0.5]]}
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_search_budget_checked_per_search(self):
        """Budget 100 cannot hold the 4-way lattice at resolution 0.05
        (1,771 points) but holds every 2-way one (21 points)."""
        flat = {"name": "b", "seed": 1, "world": {"fixture": "QW-4"},
                "train": {"learning_rate": 0.05, "steps": 2},
                "search": {"resolution": 0.05, "budget": 100}}
        with pytest.raises(ConfigError, match="budget"):
            parse_config(flat)
        hier = dict(flat, mode="hierarchical-top-down", hierarchy={
            "name": "all",
            "children": [
                {"name": "x", "children": [{"name": "math", "domain": "math"},
                                           {"name": "code", "domain": "code"}]},
                {"name": "y", "children": [{"name": "sft", "domain": "sft"},
                                           {"name": "web", "domain": "web"}]},
            ],
        })
        assert parse_config(hier).budget == 100

    def test_search_budget_covers_smallest_refinement_box(self):
        """QW-2 at resolution 0.05: 21 coarse points plus the 6-point box
        around a corner."""
        cfg = {"name": "b", "seed": 1, "world": {"fixture": "QW-2"},
               "train": {"learning_rate": 0.05, "steps": 2},
               "search": {"resolution": 0.05, "budget": 26}}
        with pytest.raises(ConfigError, match="refinement"):
            parse_config(cfg)
        cfg["search"] = {"resolution": 0.05, "budget": 27}
        assert parse_config(cfg).budget == 27

    def test_config_digest_covers_export_datasets(self):
        from mergemix.pipeline import _config_digest

        plain = parse_config(dict(BASE_CONFIG))
        exporting = parse_config(dict(BASE_CONFIG, export_datasets=True))
        assert _config_digest(plain) != _config_digest(exporting)
        assert _config_digest(plain) == _config_digest(parse_config(dict(BASE_CONFIG)))

    def test_custom_quadratic_world(self):
        cfg = parse_config({
            "name": "custom",
            "seed": 1,
            "world": {"domains": [
                {"name": "a", "kind": "quadratic", "minimizer": [1.0, 0.0],
                 "curvature": [[1.0, 0.0], [0.0, 1.0]]},
                {"name": "b", "kind": "quadratic", "minimizer": [0.0, 1.0],
                 "curvature": [[2.0, 0.0], [0.0, 1.0]]},
            ]},
            "train": {"learning_rate": 0.1, "steps": 2},
        })
        world = cfg.build_world()
        assert world.names == ["a", "b"]
        assert world.dim == 2

    def test_custom_regression_world(self):
        cfg = parse_config({
            "name": "reg",
            "seed": 1,
            "world": {
                "domains": [
                    {"name": "a", "kind": "regression",
                     "target_weight": [[1.0, 0.0]], "input_dim": 2,
                     "train_size": 8, "heldout_size": 4, "seed": 3},
                    {"name": "b", "kind": "regression",
                     "target_weight": [[0.0, 1.0]], "input_dim": 2,
                     "train_size": 8, "heldout_size": 4, "seed": 4},
                ],
                "model": {"hidden_dim": 3, "init_seed": 7},
            },
            "train": {"learning_rate": 0.05, "steps": 2, "batch_size": 4},
        })
        world = cfg.build_world()
        assert world.kind == "toy-net"
        assert world.net.hidden_dim == 3

    def test_file_not_found(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)
