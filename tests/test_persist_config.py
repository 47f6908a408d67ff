import enum
import gc
import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mergemix.pipeline
from mergemix.cli import main
from mergemix.config import load_config, parse_config
from mergemix.errors import ConfigError, MergeMixError
from mergemix.gbt import BoostHyper, GradientBoostedRegressor, RegressionTree
from mergemix.persist import (
    dumps_json,
    file_digest,
    load_checkpoint,
    read_json,
    recording_digests,
    save_checkpoint,
    write_csv,
    write_json,
)
from tests.conftest import surface_of


def reference_format_cell(value) -> str:
    """Test-only copy of the per-cell formatting every CSV cell took
    before `write_csv` wrote plain floats directly."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


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

    def test_csv_cells_match_reference(self, tmp_path):
        row = [True, np.bool_(False), 3, np.int64(-7), 0.1, np.float64(1 / 3),
               -0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
               np.float32(0.1), "x"]
        path = write_csv(tmp_path / "c.csv", [f"c{i}" for i in range(len(row))],
                         [row, row[::-1]])
        lines = path.read_text("utf-8").splitlines()
        assert lines[1:] == [",".join(reference_format_cell(c) for c in r)
                             for r in (row, row[::-1])]
        assert lines[1] == ("true,false,3,-7,0.1,0.3333333333333333,-0.0,nan,"
                            "inf,-inf,5e-324,0.10000000149011612,x")

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

    def test_recorded_digests_are_the_bytes_written(self, tmp_path):
        """Every file written under the root is recorded by its relative
        path with the sha256 of its bytes; the last write of a path wins, and
        a file outside the root or a failed write is not recorded."""
        run = tmp_path / "run"
        with recording_digests(run) as written:
            write_json(run / "a.json", {"x": 1})
            write_csv(run / "sub" / "b.csv", ["u"], [[0.5]])
            save_checkpoint(run / "c.ckpt", np.array([-0.0, 5e-324]), {"k": 1})
            write_json(run / "a.json", {"x": 2})
            write_json(tmp_path / "outside.json", {"x": 3})
            with pytest.raises(TypeError):
                write_json(run / "bad.json", {"x": object()})
        write_json(run / "after.json", {"x": 4})
        assert written == {rel: file_digest(run / rel)
                           for rel in ("a.json", "sub/b.csv", "c.ckpt")}
        assert read_json(run / "a.json") == {"x": 2}

    def test_failed_json_write_keeps_old_file(self, tmp_path):
        path = write_json(tmp_path / "a.json", {"x": 1})
        with pytest.raises(TypeError):
            write_json(path, {"x": object()})
        assert read_json(path) == {"x": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    assert load_config(path).name == path.stem


def test_shipped_configs_found():
    assert len(SHIPPED_CONFIGS) >= 6


def reference_dumps(obj) -> str:
    """What persist's encoder must write: the standard library's text."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def command_for(path: Path) -> str:
    data = json.loads(path.read_text("utf-8"))
    return ("theory" if "theory" in data
            else "consistency" if "consistency" in data else "pipeline")


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    """Every shipped config run once through the CLI."""
    out = tmp_path_factory.mktemp("shipped")
    for path in SHIPPED_CONFIGS:
        assert main([command_for(path), "--config", str(path),
                     "--out", str(out)]) == 0
    return out


class Color(enum.IntEnum):
    RED = 1


EDGE_VALUES = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16,
    -1e16, 2 ** 70, -2 ** 70, 0, -1, 0.1, 1 / 3, True, False, None,
    np.float64(0.1), np.float64("nan"), np.float64(-0.0), Color.RED,
    "", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
    "naïve µ 日本語 ✓", "\u2028\u2029", "\ud800",
]
EDGE_KEYS = ["", "a", "B", 'q"uote', "back\\slash", "ctl\x01\n", "ü", "日本",
             "z" * 3]


def random_json(rng: random.Random, depth: int = 0):
    """A nested value that stresses the encoder: number lists (sometimes
    with a bool, NaN or numpy float in them), tuples, empty containers,
    odd keys and strings."""
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        if rng.random() < 0.5:
            return rng.choice(EDGE_VALUES)
        return rng.choice([rng.random(), rng.randint(-10 ** 9, 10 ** 9),
                           rng.uniform(-1e300, 1e300), rng.random() * 1e-300])
    if roll < 0.55:
        numbers = [rng.choice([rng.random(), rng.randint(-99, 99),
                               rng.uniform(-1e20, 1e20)])
                   for _ in range(rng.randint(0, 6))]
        if numbers and rng.random() < 0.4:
            numbers[rng.randrange(len(numbers))] = rng.choice(EDGE_VALUES)
        return tuple(numbers) if rng.random() < 0.2 else numbers
    if roll < 0.75:
        items = [random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.2 else items
    return {rng.choice(EDGE_KEYS): random_json(rng, depth + 1)
            for _ in range(rng.randint(0, 4))}


def synthetic_surface(capabilities: int, trees: int, seed: int = 0):
    """A surface of depth-3 trees with arbitrary nodes, only for writing."""
    rng = np.random.default_rng(seed)

    def tree():
        return RegressionTree(rng.integers(-1, 16, 15), rng.random(15),
                              rng.integers(-1, 15, 15), rng.integers(-1, 15, 15),
                              rng.standard_normal(15), 3)

    return surface_of(16, *(
        GradientBoostedRegressor(BoostHyper(), init_value=float(rng.random()),
                                 trees=[tree() for _ in range(trees)])
        for _ in range(capabilities)))


class TestEncoderMatchesStandardLibrary:
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_every_artifact_of_a_shipped_config(self, shipped_runs, path):
        files = sorted((shipped_runs / load_config(path).name).rglob("*.json"))
        assert files
        for file in files:
            text = file.read_bytes().decode("utf-8")
            data = json.loads(text)
            assert text == reference_dumps(data), file.name
            assert dumps_json(data) == text, file.name

    def test_edge_values(self):
        for value in EDGE_VALUES:
            for obj in (value, [value], [1, value, 2.5], (value,),
                        {"k": value}, [[], {}, [value, [{}]]]):
                assert dumps_json(obj) == reference_dumps(obj), repr(obj)

    def test_non_string_keys(self):
        for obj in ({1: "a", -3: "b"}, {1.5: 0, -0.0: 1, float("nan"): 2},
                    {True: 1, False: 0}, {None: 1}, {2 ** 70: 1}):
            assert dumps_json(obj) == reference_dumps(obj)

    def test_seeded_corpus(self):
        rng = random.Random(20260)
        for _ in range(3000):
            obj = random_json(rng)
            assert dumps_json(obj) == reference_dumps(obj), repr(obj)

    def test_generators_are_arrays(self, tmp_path):
        def lazy():
            return {"empty": (x for x in ()),
                    "nums": (x for x in [1, 2.5, float("nan")]),
                    "nested": ({"t": (y for y in range(i))} for i in range(3))}

        expected = reference_dumps({"empty": [], "nums": [1, 2.5, float("nan")],
                                    "nested": [{"t": list(range(i))}
                                               for i in range(3)]})
        assert dumps_json(lazy()) == expected
        assert write_json(tmp_path / "g.json", lazy()).read_text("utf-8") == expected

    def test_lazy_surface_writes_to_dict(self, qw4_stage, tmp_path):
        model = qw4_stage.model
        path = write_json(tmp_path / "surface.json", model.lazy_dict())
        assert path.read_bytes() == reference_dumps(model.to_dict()).encode("utf-8")

    @pytest.mark.parametrize("bad", [np.int64(1), np.bool_(True), object(),
                                     {1, 2}, b"x", np.zeros(2)],
                             ids=lambda v: type(v).__name__)
    def test_unsupported_types_raise_type_error(self, bad):
        for obj in (bad, [1.0, bad], {"k": bad}):
            with pytest.raises(TypeError) as expected:
                reference_dumps(obj)
            with pytest.raises(TypeError) as actual:
                dumps_json(obj)
            assert str(actual.value) == str(expected.value)

    @pytest.mark.parametrize("obj", [{(1, 2): 0}, {1: 0, "a": 1}],
                             ids=["tuple-key", "mixed-keys"])
    def test_bad_keys_raise_type_error(self, obj):
        with pytest.raises(TypeError) as expected:
            reference_dumps(obj)
        with pytest.raises(TypeError) as actual:
            dumps_json(obj)
        assert str(actual.value) == str(expected.value)


class TestStreamedWrites:
    def test_pipeline_streams_the_surface(self, tmp_path, monkeypatch):
        """The run hands write_json its surface with lazy regressors."""
        seen = {}

        def spy(path, obj):
            if Path(path).name == "surface.model.json":
                seen["regressors"] = type(obj["regressors"]).__name__
            return write_json(path, obj)

        monkeypatch.setattr(mergemix.pipeline, "write_json", spy)
        main(["pipeline", "--config", str(CONFIG_DIR / "qw2-flat.json"),
              "--out", str(tmp_path)])
        assert seen == {"regressors": "generator"}

    def test_surface_write_peak_below_a_quarter_of_the_file(self, tmp_path):
        model = synthetic_surface(6, 200)
        path = tmp_path / "surface.json"
        tracemalloc.start()
        try:
            write_json(path, model.lazy_dict())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_000_000
        assert peak < size / 4, (peak, size)
        assert path.read_bytes() == reference_dumps(model.to_dict()).encode("utf-8")

    def test_file_digest_peak_below_one_megabyte(self, tmp_path):
        payload = np.random.default_rng(0).bytes(6 * 2 ** 20)
        path = tmp_path / "big.bin"
        path.write_bytes(payload)
        tracemalloc.start()
        try:
            digest = file_digest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(payload).hexdigest()
        assert peak < 2 ** 20, peak

    def test_json_writes_leave_no_cyclic_garbage(self, shipped_runs, tmp_path):
        """The encoder recurses through module functions, not closures, so
        writing JSON leaves nothing for the cyclic collector."""
        report = read_json(shipped_runs / "qw4-recalibrate" / "report.json")
        gc.collect()
        gc.disable()
        try:
            for i in range(10):
                write_json(tmp_path / f"report{i}.json", report)
                dumps_json(report)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestConfigValidation:
    def test_minimal_config_parses(self):
        cfg = parse_config(dict(BASE_CONFIG))
        assert cfg.mode == "flat"
        assert cfg.design_size == 40
        assert cfg.resolution == 0.05
        assert cfg.hyper.n_trees == 50
        assert cfg.hyper.learning_rate == 0.2

    def test_surface_defaults_are_the_boost_hyper_defaults(self):
        """A config without a `surface` section fits with `BoostHyper()`, so
        the two defaults cannot drift apart."""
        assert "surface" not in BASE_CONFIG
        assert parse_config(dict(BASE_CONFIG)).hyper == BoostHyper()
        cfg = parse_config({**BASE_CONFIG, "surface": {"n_trees": 7}})
        assert cfg.hyper == BoostHyper(n_trees=7)

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

    @pytest.mark.parametrize("section", [
        lambda w: {"design": {"priors": [[0.5, 0.5], w]}},
        lambda w: {"consistency": {"ratios": [[0.5, 0.5], w]}},
        lambda w: {"theory": {"weights": w}},
    ])
    @pytest.mark.parametrize("weights,message", [
        ([0.5, 0.3], "sum to 0.8"),
        ([float("nan"), 0.5], "non-finite"),
        ([0.2, 0.3, 0.5], "does not have 2 entries"),
    ])
    def test_every_weight_vector_checked_at_parse_time(self, section, weights,
                                                       message):
        with pytest.raises(ConfigError, match=message):
            parse_config(dict(BASE_CONFIG, **section(weights)))

    def test_weight_vectors_within_tolerance_parse(self):
        drift = [0.5, 0.5 + 5e-10]
        # A design of 12 is smaller than the 21-point lattice, so it reads
        # its priors.
        cfg = parse_config(dict(BASE_CONFIG, design={"size": 12, "priors": [drift]},
                                consistency={"ratios": [drift, [0.2, 0.8],
                                                        [0.8, 0.2]]},
                                theory={"weights": drift}))
        assert cfg.priors == (tuple(drift),)

    @pytest.mark.parametrize("count", [1, 2])
    def test_fewer_than_three_consistency_ratios_rejected(self, count):
        ratios = [[0.5, 0.5], [0.2, 0.8]][:count]
        with pytest.raises(ConfigError, match="at least 3 ratios"):
            parse_config(dict(BASE_CONFIG, consistency={"ratios": ratios}))

    @pytest.mark.parametrize("count", [0, 3])
    def test_no_or_three_consistency_ratios_parse(self, count):
        ratios = [[0.5, 0.5], [0.2, 0.8], [0.8, 0.2]][:count]
        cfg = parse_config(dict(BASE_CONFIG, consistency={"ratios": ratios}))
        assert len(cfg.consistency_ratios) == count

    @pytest.mark.parametrize("name", ["/abs/run", "../up", "a/b", "a\\b", ".",
                                      "..", "nul\0byte"])
    def test_run_name_must_be_one_path_component(self, name):
        with pytest.raises(ConfigError, match="single path component"):
            parse_config(dict(BASE_CONFIG, name=name))

    @pytest.mark.parametrize("name", ["run", "qw4-flat.v2", "..hidden", "a b"])
    def test_plain_run_names_parse(self, name):
        assert parse_config(dict(BASE_CONFIG, name=name)).name == name

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

    def test_search_budget_is_the_lattice_size(self):
        """QW-2 at resolution 0.05: the search covers exactly its 21 lattice
        points."""
        cfg = {"name": "b", "seed": 1, "world": {"fixture": "QW-2"},
               "train": {"learning_rate": 0.05, "steps": 2},
               "search": {"resolution": 0.05, "budget": 20}}
        with pytest.raises(ConfigError, match="^a 2-way search at resolution "
                           "0.05 covers 21 lattice points, exceeding the "
                           "budget of 20$"):
            parse_config(cfg)
        cfg["search"] = {"resolution": 0.05, "budget": 21}
        assert parse_config(cfg).budget == 21

    def test_build_world_is_the_world_parse_built(self, monkeypatch):
        """Parse builds the world once to validate the config; the run gets
        that world. A replaced config builds its own, and the kept world is
        no field: the config digest does not change."""
        from dataclasses import fields, replace

        import mergemix.config
        from mergemix.pipeline import _config_digest

        built = []
        build = mergemix.config.build_world
        monkeypatch.setattr(mergemix.config, "build_world",
                            lambda spec: built.append(spec) or build(spec))
        cfg = parse_config(dict(BASE_CONFIG))
        digest = _config_digest(cfg)
        world = cfg.build_world()
        assert cfg.build_world() is world
        assert len(built) == 1
        assert _config_digest(cfg) == digest
        assert "_world" not in {f.name for f in fields(cfg)}
        other = replace(cfg, seed=cfg.seed + 1)
        assert other.build_world() is not world
        assert other.build_world() is other.build_world()
        assert other.build_world().names == world.names
        assert len(built) == 2

    def test_config_digest_covers_export_datasets(self):
        from mergemix.pipeline import _config_digest

        plain = parse_config(dict(BASE_CONFIG))
        exporting = parse_config(dict(BASE_CONFIG, export_datasets=True))
        assert _config_digest(plain) != _config_digest(exporting)
        assert _config_digest(plain) == _config_digest(parse_config(dict(BASE_CONFIG)))

    # Inline domains: (first domain, second domain, the exact message).
    # A domain's own errors report in domain order before a mix of kinds,
    # and a mix reports before any quadratic's matrix checks.
    _QUAD = {"name": "b", "kind": "quadratic", "minimizer": [0.0, 1.0],
             "curvature": [[1.0, 0.0], [0.0, 1.0]]}
    _REG = {"name": "b", "kind": "regression", "target_weight": [[0.0, 1.0]],
            "input_dim": 2, "train_size": 8, "heldout_size": 4}
    _NOT_PD = dict(_QUAD, name="a", curvature=[[1.0, 0.0], [0.0, -1.0]])

    @pytest.mark.parametrize("first,second,message", [
        ({"name": "a", "kind": "quadratic", "minimizer": [1.0, 0.0]}, _QUAD,
         "quadratic domain 'a' needs minimizer and curvature"),
        ({"name": "a", "kind": "regression", "target_weight": [[1.0, 0.0]],
          "input_dim": 2}, _REG,
         "regression domain 'a' is missing ['train_size', 'heldout_size']"),
        (dict(_QUAD, name="a"), _REG,
         "cannot mix quadratic and regression domains"),
        (_NOT_PD, _REG, "cannot mix quadratic and regression domains"),
        (_NOT_PD, _QUAD, "curvature matrix must be positive definite"),
        (dict(_REG, name="a", target_weight=[[1.0, 0.0, 0.0]]), _REG,
         "target weight must be (out x 2), got (1, 3)"),
        ({"name": "a", "kind": "quadratic", "curvature": [[1.0]]}, _REG,
         "quadratic domain 'a' needs minimizer and curvature"),
        (dict(_REG, name="a", target_weight=[[1.0, 0.0, 0.0]]), _QUAD,
         "target weight must be (out x 2), got (1, 3)"),
        (_QUAD, dict(_QUAD, name="a", curvature=[[1.0, 0.0], [0.0]]),
         "quadratic domain 'a': curvature has rows of unequal lengths"),
        (_REG, dict(_REG, name="a", target_weight=[[1.0, 0.0], [0.0]]),
         "regression domain 'a': target_weight has rows of unequal lengths"),
        (dict(_QUAD, name="a", curvature=[[1.0, 0.0], [0.0]]), _REG,
         "cannot mix quadratic and regression domains"),
    ], ids=["quadratic-keys", "regression-keys", "mixed", "mixed-not-pd",
            "not-pd", "target-shape", "mixed-quadratic-keys",
            "mixed-target-shape", "ragged-curvature", "ragged-target",
            "mixed-ragged-curvature"])
    def test_inline_domain_errors(self, first, second, message):
        cfg = dict(BASE_CONFIG, world={"domains": [first, second]})
        with pytest.raises(ConfigError) as excinfo:
            parse_config(cfg)
        assert str(excinfo.value) == message

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
