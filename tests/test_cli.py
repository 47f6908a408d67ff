"""End-to-end command-line behavior: artifacts, exit codes, reproducibility."""

import json
from pathlib import Path

import numpy as np
import pytest

from mergemix.cli import main
from mergemix.config import THEORY_REPORT_SCHEMA
from mergemix.persist import read_json

import jsonschema

QW2_PIPELINE = {
    "name": "qw2",
    "seed": 7,
    "world": {"fixture": "QW-2"},
    "train": {"learning_rate": 0.05, "steps": 10, "checkpoint_interval": 2},
    "design": {"size": 12},
    "search": {"resolution": 0.05},
}

QW2_THEORY = {
    "name": "qw2-theory",
    "seed": 7,
    "world": {"fixture": "QW-2"},
    "train": {"learning_rate": 0.05, "steps": 10},
    "theory": {"learning_rate": 0.004, "steps": 50, "sweep_resolution": 0.25},
}

QW2_CONSISTENCY = {
    "name": "qw2-cons",
    "seed": 7,
    "world": {"fixture": "QW-2"},
    "train": {"learning_rate": 0.05, "steps": 10},
    "consistency": {"ratios": [[round(a, 1), round(1 - a, 1)]
                               for a in np.arange(0.1, 0.91, 0.1)]},
}


def write_config(tmp_path, payload, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_zero_steps_keep_earlier_run(tmp_path, capsys, command, payload):
    """A rerun with `train.steps: 0` exits 2 at parse, before touching the
    earlier run: every expert would equal the base, so the run could measure
    nothing."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    earlier = tree_bytes(out)
    capsys.readouterr()
    zero = write_config(tmp_path, dict(payload, train=dict(payload["train"], steps=0)),
                        name="zero.json")
    assert main([command, "--config", str(zero), "--out", str(out)]) == 2
    assert ("config error: config invalid at train.steps: 0 is less than the "
            "minimum of 1" in capsys.readouterr().err)
    assert tree_bytes(out) == earlier


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    cfg = write_config(tmp, QW2_PIPELINE)
    out = tmp / "out"
    assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "qw2"


class TestPipelineCommand:
    def test_zero_training_steps_exit_2_before_the_run_directory(
            self, tmp_path, capsys):
        assert_zero_steps_keep_earlier_run(tmp_path, capsys, "pipeline",
                                           QW2_PIPELINE)

    def test_artifacts_exist(self, pipeline_run):
        for name in ("samples.csv", "surface.model.json", "report.json",
                     "manifest.json", "merged.optimum.ckpt",
                     "experts/d1.ckpt", "experts/d1.trajectory.csv",
                     "experts/d2.ckpt", "experts/d2.trajectory.csv"):
            assert (pipeline_run / name).exists(), name

    def test_manifest_lists_existing_files_with_digests(self, pipeline_run):
        manifest = read_json(pipeline_run / "manifest.json")
        assert manifest["format"] == "mm-manifest-v1"
        assert manifest["artifacts"], "manifest must list artifacts"
        from mergemix.persist import file_digest

        for rel, digest in manifest["artifacts"].items():
            path = pipeline_run / rel
            assert path.exists()
            assert file_digest(path) == digest

    def test_manifest_lists_only_the_files_the_run_wrote(self, tmp_path,
                                                          monkeypatch):
        """The manifest is the run's own record of what it wrote: a file
        that appears in the run directory from elsewhere is not certified."""
        import mergemix.pipeline

        write_experts = mergemix.pipeline._write_expert_artifacts

        def write_and_intrude(run_dir, *args):
            digests = write_experts(run_dir, *args)
            (run_dir / "stray.txt").write_text("not written by the run")
            return digests

        monkeypatch.setattr(mergemix.pipeline, "_write_expert_artifacts",
                            write_and_intrude)
        cfg = write_config(tmp_path, QW2_PIPELINE)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        run = out / "qw2"
        listed = read_json(run / "manifest.json")["artifacts"]
        on_disk = {str(p.relative_to(run)) for p in run.rglob("*") if p.is_file()}
        assert on_disk - set(listed) == {"manifest.json", "stray.txt"}

    def test_manifest_names_the_surface_format(self, pipeline_run):
        manifest = read_json(pipeline_run / "manifest.json")
        surface = read_json(pipeline_run / "surface.model.json")
        assert manifest["format_versions"]["surface"] == surface["format"]

    def test_samples_csv_shape(self, pipeline_run):
        lines = (pipeline_run / "samples.csv").read_text().splitlines()
        assert lines[0] == "alpha_1,alpha_2,y_1,y_2,digest"
        assert len(lines) == 1 + 12

    def test_reproducible_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, QW2_PIPELINE)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["pipeline", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("samples.csv", "surface.model.json", "report.json"):
            assert ((out_a / "qw2" / name).read_bytes()
                    == (out_b / "qw2" / name).read_bytes()), name

    def test_missing_config_field_exits_2_no_artifacts(self, tmp_path, capsys):
        broken = {k: v for k, v in QW2_PIPELINE.items() if k != "train"}
        cfg = write_config(tmp_path, broken)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path):
        bad = dict(QW2_PIPELINE)
        bad["typo_key"] = 1
        cfg = write_config(tmp_path, bad)
        assert main(["pipeline", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, QW2_PIPELINE)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["pipeline", "--config", str(cfg), "--out", str(out_a)])
        main(["pipeline", "--config", str(cfg), "--out", str(out_b),
              "--seed", "8"])
        assert ((out_a / "qw2" / "samples.csv").read_bytes()
                != (out_b / "qw2" / "samples.csv").read_bytes())

    def test_threads_flag_rejected(self, tmp_path):
        cfg = write_config(tmp_path, QW2_PIPELINE)
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--config", str(cfg), "--out",
                  str(tmp_path / "out"), "--threads", "4"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_budget_below_lattice_exits_2_before_training(self, tmp_path):
        payload = dict(QW2_PIPELINE)
        payload["search"] = {"resolution": 0.05, "budget": 10}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "qw2" / "experts").exists()

    def test_budget_of_exactly_the_lattice_runs(self, tmp_path):
        """The 2-way lattice at resolution 0.05 has 21 points; a budget of 21
        holds the whole search."""
        payload = dict(QW2_PIPELINE)
        payload["search"] = {"resolution": 0.05, "budget": 21}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "qw2" / "manifest.json").is_file()

    def test_budget_one_below_the_lattice_exits_2_before_training(
            self, tmp_path, capsys):
        payload = dict(QW2_PIPELINE)
        payload["search"] = {"resolution": 0.05, "budget": 20}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("covers 21 lattice points, exceeding the budget of 20"
                in capsys.readouterr().err)
        assert not (out / "qw2" / "experts").exists()

    def test_priors_with_an_exact_search_exit_2_before_any_directory(
            self, tmp_path, capsys):
        """The 11-point lattice at 0.1 fits in a design of 12, so the stage
        scores the lattice and would drop the prior."""
        payload = dict(QW2_PIPELINE, design={"size": 12, "priors": [[0.7, 0.3]]},
                       search={"resolution": 0.1})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: design.priors are not read")
        assert "has 11 points, no more than design.size 12" in err
        assert not out.exists()

    @pytest.mark.parametrize("prior,message", [
        ([float("nan"), 0.5], "non-finite"),
        ([0.5, 0.3], "sum to 0.8"),
    ])
    def test_bad_design_prior_exits_2_before_any_directory(
            self, tmp_path, capsys, prior, message):
        payload = dict(QW2_PIPELINE, design={"size": 8, "priors": [prior]})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_exits_2_before_any_directory(
            self, tmp_path, capsys, rate):
        """JSON's NaN and Infinity pass the schema; before the parse-time
        check the run trained, diverged and exited 1."""
        payload = dict(QW2_PIPELINE, train=dict(QW2_PIPELINE["train"],
                                                learning_rate=rate))
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert "learning rate must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_non_finite_regression_noise_exits_2_before_any_directory(
            self, tmp_path, capsys, noise):
        """NaN noise passed the `noise < 0` check, and the world then added
        no noise while the config digest recorded NaN."""
        domain = {"name": "a", "kind": "regression", "target_weight": [[1.0, 0.0]],
                  "input_dim": 2, "train_size": 6, "heldout_size": 4}
        payload = dict(QW2_PIPELINE, world={"domains": [
            dict(domain, noise=noise), dict(domain, name="b", seed=1)]})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert "noise must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_utility_weights_exit_2_before_any_directory(
            self, tmp_path):
        payload = dict(QW2_PIPELINE, utility={"kind": "weighted",
                                              "weights": [float("nan"), 1.0]})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_duplicate_quadratic_domain_names_exit_2_before_any_directory(
            self, tmp_path, capsys):
        """Experts, checkpoints and report entries are keyed by domain name,
        so two domains named "a" would write one expert over the other."""
        domain = {"name": "a", "kind": "quadratic", "minimizer": [1.0, 0.0],
                  "curvature": [[1.0, 0.0], [0.0, 1.0]]}
        payload = dict(QW2_PIPELINE, world={"domains": [
            domain, dict(domain, minimizer=[0.0, 1.0])]})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert "duplicate domain names" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("domain,key", [
        ({"name": "a", "kind": "quadratic", "minimizer": [1.0, 0.0],
          "curvature": [[1.0, 0.0], [0.0]]}, "curvature"),
        ({"name": "a", "kind": "regression", "target_weight": [[1.0, 0.0], [0.0]],
          "input_dim": 2, "train_size": 6, "heldout_size": 4}, "target_weight"),
    ])
    def test_ragged_inline_array_exit_2_before_any_directory(
            self, tmp_path, capsys, domain, key):
        payload = dict(QW2_PIPELINE, world={"domains": [
            domain, dict(domain, name="b")]})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"domain 'a': {key} has rows of unequal lengths" in err
        assert not out.exists()

    def test_failed_rerun_removes_stale_manifest(self, tmp_path):
        out = tmp_path / "out"
        good = write_config(tmp_path, QW2_PIPELINE, "good.json")
        assert main(["pipeline", "--config", str(good), "--out", str(out)]) == 0
        assert (out / "qw2" / "manifest.json").exists()
        payload = dict(QW2_PIPELINE)
        payload["train"] = {"learning_rate": 3.0, "steps": 2000,
                            "checkpoint_interval": 2000}
        bad = write_config(tmp_path, payload, "bad.json")
        assert main(["pipeline", "--config", str(bad), "--out", str(out)]) == 1
        assert not (out / "qw2" / "manifest.json").exists()

    def test_rerun_under_same_name_drops_stale_artifacts(self, tmp_path):
        out = tmp_path / "out"
        recal = dict(QW2_PIPELINE, mode="dynamic-recalibrate",
                     recalibrate={"total_steps": 8})
        cfg = write_config(tmp_path, recal, "recal.json")
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "qw2" / "recalibration.curve.csv").exists()
        cfg = write_config(tmp_path, QW2_PIPELINE, "flat.json")
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = read_json(out / "qw2" / "manifest.json")
        assert "recalibration.curve.csv" not in manifest["artifacts"]
        assert not (out / "qw2" / "recalibration.curve.csv").exists()
        on_disk = {str(p.relative_to(out / "qw2"))
                   for p in (out / "qw2").rglob("*") if p.is_file()}
        assert on_disk == set(manifest["artifacts"]) | {"manifest.json"}

    @pytest.mark.parametrize("name", ["../escaped", "/abs/escaped"])
    def test_run_name_outside_out_exits_2_before_any_directory(
            self, tmp_path, capsys, name):
        if name.startswith("/"):
            name = str(tmp_path / "abs" / "escaped")
        cfg = write_config(tmp_path, dict(QW2_PIPELINE, name=name))
        out = tmp_path / "sub" / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert "single path component" in capsys.readouterr().err
        assert not (tmp_path / "sub").exists()
        assert not (tmp_path / "abs").exists()

    def test_report_weights_match_checkpoint_provenance(self, pipeline_run):
        report = read_json(pipeline_run / "report.json")
        ckpt = read_json(pipeline_run / "merged.optimum.ckpt")
        assert ckpt["provenance"]["weights"] == report["optimum"]["weights"]

    def test_four_domain_run_finishes_quickly(self, tmp_path):
        import time

        config = {
            "name": "qw4",
            "seed": 11,
            "world": {"fixture": "QW-4"},
            "train": {"learning_rate": 0.05, "steps": 3,
                      "checkpoint_interval": 1},
            "design": {"size": 40},
        }
        cfg = write_config(tmp_path, config)
        start = time.monotonic()
        assert main(["pipeline", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert time.monotonic() - start < 300  # single core, wide margin


@pytest.fixture(scope="module")
def theory_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("theory")
    cfg = write_config(tmp, QW2_THEORY)
    out = tmp / "out"
    assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "qw2-theory"


class TestTheoryCommand:
    def test_curvature_csv_exact_values(self, theory_run):
        lines = (theory_run / "curvature_matrix.csv").read_text().splitlines()
        assert lines[0] == "domain,d1,d2,diagonally_dominant"
        assert lines[1] == "d1,1.0,1.0,true"
        assert lines[2] == "d2,2.0,1.0,false"

    def test_report_validates_against_published_schema(self, theory_run):
        report = read_json(theory_run / "theory_report.json")
        jsonschema.validate(report, THEORY_REPORT_SCHEMA)

    def test_scaling_ratios_in_bands(self, theory_run):
        scaling = read_json(theory_run / "theory_report.json")["scaling"]
        assert 3.2 <= scaling["gap_ratio"] <= 4.8
        assert 6.0 <= scaling["residual_ratio"] <= 10.0

    def test_identical_domain_world_zero_delta_column(self, tmp_path):
        cfg_payload = {
            "name": "same",
            "seed": 3,
            "world": {"domains": [
                {"name": "a", "kind": "quadratic", "minimizer": [1.0, 0.0],
                 "curvature": [[1.0, 0.0], [0.0, 1.0]]},
                {"name": "b", "kind": "quadratic", "minimizer": [1.0, 0.0],
                 "curvature": [[1.0, 0.0], [0.0, 1.0]]},
            ]},
            "train": {"learning_rate": 0.05, "steps": 10},
            "theory": {"learning_rate": 0.01, "steps": 20,
                       "sweep_resolution": 0.25},
        }
        cfg = write_config(tmp_path, cfg_payload)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "same" / "delta_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("delta_norm")
        for line in lines[1:]:
            assert float(line.split(",")[col]) <= 1e-12

    @pytest.mark.parametrize("minimizers", [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]],
                             ids=["identical-domains", "one-domain"])
    def test_undefined_scaling_ratios_are_null(self, tmp_path, minimizers):
        """Identical domains, or a single one, leave no mix-vs-merge gap at
        either horizon, so both ratios are 0/0: the report writes null,
        which strict JSON parsers read, and its schema allows."""
        domains = [{"name": name, "kind": "quadratic", "minimizer": mu,
                    "curvature": [[1.0, 0.0], [0.0, 1.0]]}
                   for name, mu in zip("ab", minimizers)]
        payload = {"name": "gapless", "seed": 3, "world": {"domains": domains},
                   "train": {"learning_rate": 0.05, "steps": 10},
                   "theory": {"learning_rate": 0.01, "steps": 20,
                              "sweep_resolution": 0.25}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")
        text = (out / "gapless" / "theory_report.json").read_text("utf-8")
        report = json.loads(text, parse_constant=refuse)
        scaling = report["scaling"]
        assert scaling["gap_norm_full"] == scaling["gap_norm_half"] == 0.0
        assert scaling["gap_ratio"] is None
        assert scaling["residual_ratio"] is None
        jsonschema.validate(report, THEORY_REPORT_SCHEMA)

    def test_theory_weights_length_exits_2_before_any_directory(
            self, tmp_path, capsys):
        payload = dict(QW2_THEORY, world={"fixture": "QW-4"},
                       theory={"sweep_resolution": 0.25, "weights": [0.5, 0.5]})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
        assert "does not have 4 entries" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weights", [[1, 0, 0, 0], [0.0, 0.0, 1.0, 0.0]])
    def test_one_hot_theory_weights_exit_2_before_any_directory(
            self, tmp_path, capsys, weights):
        """A one-hot mixture is its own expert: both scaling gaps are 0, and
        the run used to exit 0 with "gap_ratio": Infinity in its report,
        which is not JSON."""
        payload = dict(QW2_THEORY, world={"fixture": "QW-4"},
                       theory={"sweep_resolution": 0.25, "weights": weights})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: theory weights {weights} are one-hot: that mixture "
            f"is its own expert, so the scaling check has no gap to measure"]
        assert not out.exists()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_theory_learning_rate_exits_2_before_any_directory(
            self, tmp_path, capsys, rate):
        payload = dict(QW2_THEORY, theory=dict(QW2_THEORY["theory"],
                                               learning_rate=rate))
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("theory learning rate must be finite"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_nan_sweep_resolution_exits_2_before_any_directory(
            self, tmp_path, capsys):
        """NaN passes the schema's bounds; before the parse-time check the
        run directory was made and the sweep then exited 1."""
        payload = dict(QW2_THEORY, theory=dict(QW2_THEORY["theory"],
                                               sweep_resolution=float("nan")))
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("theory sweep resolution must be in (0, 1], got nan"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zero_training_steps_exit_2_before_the_run_directory(
            self, tmp_path, capsys):
        assert_zero_steps_keep_earlier_run(tmp_path, capsys, "theory", QW2_THEORY)

    def test_sweep_over_the_point_budget_exits_2_before_any_directory(
            self, tmp_path, capsys):
        """QW-4 at 0.004 is a 2,667,126-point grid. Before the parse-time
        check the run trained its experts, then exited 1 and left an empty
        run directory."""
        payload = dict(QW2_THEORY, world={"fixture": "QW-4"},
                       theory=dict(QW2_THEORY["theory"], sweep_resolution=0.004))
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: theory sweep resolution 0.004 gives 2667126 lattice "
            "points over 4 domains, exceeding the budget of 2000000"]
        assert not out.exists()

    def test_sweep_of_a_config_without_theory_section_fails_before_training(
            self, tmp_path, capsys):
        """Without a theory section the config parses, and the theory
        command sweeps at 0.1: 3,268,760 points over 16 domains. It fails
        before anything is trained or written."""
        domains = [{"name": f"d{i}", "kind": "quadratic",
                    "minimizer": [i / 16], "curvature": [[1.0]]}
                   for i in range(16)]
        payload = {"name": "k16", "seed": 7, "world": {"domains": domains},
                   "train": {"learning_rate": 0.05, "steps": 2},
                   "search": {"resolution": 0.25}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: simplex lattice exceeds the budget of 2000000"]
        assert not out.exists()

    def test_report_failing_its_schema_exits_1_without_report(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("mergemix.pipeline.THEORY_FORMAT", "mm-theory-v0")
        cfg = write_config(tmp_path, QW2_THEORY)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: theory report invalid at format: 'mm-theory-v1' was expected"]
        assert not (out / "qw2-theory" / "theory_report.json").exists()


class TestConsistencyCommand:
    def test_qw2_rho_printed_and_high(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QW2_CONSISTENCY)
        out = tmp_path / "out"
        assert main(["consistency", "--config", str(cfg),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "rank consistency rho = " in printed
        report = read_json(out / "qw2-cons" / "consistency_report.json")
        assert report["spearman"]["rho"] >= 0.8
        table = (out / "qw2-cons" / "rank_table.csv").read_text().splitlines()
        assert table[0] == ("lambda_1,lambda_2,merged_score,trained_score,"
                            "merged_rank,trained_rank")
        assert len(table) == 1 + 9

    def test_two_ratios_exit_2_before_any_directory(self, tmp_path, capsys):
        payload = dict(QW2_CONSISTENCY,
                       consistency={"ratios": [[0.1, 0.9], [0.9, 0.1]]})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["consistency", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "at least 3 ratios" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_training_steps_exit_2_before_the_run_directory(
            self, tmp_path, capsys):
        assert_zero_steps_keep_earlier_run(tmp_path, capsys, "consistency",
                                           QW2_CONSISTENCY)

    def test_empty_ratio_list_exits_2_with_usage(self, tmp_path, capsys):
        payload = dict(QW2_CONSISTENCY)
        payload["consistency"] = {"ratios": []}
        cfg = write_config(tmp_path, payload)
        assert main(["consistency", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "usage" in capsys.readouterr().err.lower()


class TestCostCommand:
    def test_reference_table(self, tmp_path, capsys):
        assert main(["cost", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "Manual: equivalent 16000, relative 100×" in printed
        assert "MergeMix: equivalent 160, relative 1.0×" in printed
        report = read_json(tmp_path / "cost_report.json")
        by_method = {r["method"]: r for r in report["rows"]}
        assert by_method["CLIMB"]["equivalent_cost"] == "1568"
        assert by_method["CLIMB"]["relative_label"] == "9.8×"
        assert by_method["Scaling Laws"]["equivalent_cost"] == "1200"
        assert by_method["Scaling Laws"]["relative_label"] == "7.5×"

    def test_custom_entries_file(self, tmp_path):
        entries = {"rows": [
            {"method": "MergeMix", "model_size_b": "8", "tokens_b": "5",
             "runs": "4"},
        ]}
        path = tmp_path / "entries.json"
        path.write_text(json.dumps(entries))
        assert main(["cost", "--entries", str(path), "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "cost_report.json")
        assert report["rows"][0]["relative_label"] == "1.0×"


@pytest.fixture(scope="module")
def weighted_run(tmp_path_factory):
    """A QW-2 run whose utility reads d1 only, so d2 is not fitted."""
    tmp = tmp_path_factory.mktemp("weighted")
    cfg = write_config(tmp, {**QW2_PIPELINE, "name": "qw2-weighted",
                             "utility": {"kind": "weighted",
                                         "weights": [1.0, 0.0]}})
    assert main(["pipeline", "--config", str(cfg), "--out", str(tmp)]) == 0
    return tmp / "qw2-weighted"


class TestHeatmapCommand:
    def test_coarse_two_domain_lattice(self, pipeline_run, tmp_path):
        out_csv = tmp_path / "heat.csv"
        assert main(["export-heatmap",
                     "--surface", str(pipeline_run / "surface.model.json"),
                     "--capability", "utility",
                     "--resolution", "0.5",
                     "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "alpha_1,alpha_2,predicted"
        assert len(lines) == 1 + 3
        firsts = [float(l.split(",")[0]) for l in lines[1:]]
        assert firsts == [0.0, 0.5, 1.0]

    def test_constant_surface_rows_equal(self, tmp_path):
        from mergemix.gbt import BoostHyper
        from mergemix.simplex import dirichlet_points
        from mergemix.stats import NormContext, UtilitySpec
        from mergemix.surface import fit_surface
        from mergemix.persist import write_json

        rng = np.random.default_rng(0)
        model = fit_surface(dirichlet_points(2, 8, rng), np.full((8, 1), 0.25),
                            ["cap"], [NormContext(0, 1)],
                            BoostHyper(), UtilitySpec(kind="single", index=0))
        surf = tmp_path / "s.json"
        write_json(surf, model.to_dict())
        out_csv = tmp_path / "heat.csv"
        assert main(["export-heatmap", "--surface", str(surf),
                     "--capability", "0", "--resolution", "0.25",
                     "--out", str(out_csv)]) == 0
        values = {line.split(",")[-1]
                  for line in out_csv.read_text().splitlines()[1:]}
        assert values == {"0.25"}

    def test_top_percent_filter(self, pipeline_run, tmp_path):
        out_csv = tmp_path / "heat15.csv"
        assert main(["export-heatmap",
                     "--surface", str(pipeline_run / "surface.model.json"),
                     "--capability", "utility",
                     "--resolution", "0.05",
                     "--top-percent",
                     "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        # 21 lattice points at resolution 0.05 for two domains; 15% -> 3 rows
        assert len(lines) - 1 <= 15
        assert len(lines) - 1 == 3

    def test_lattice_over_the_budget_exits_2_before_predicting(
            self, pipeline_run, tmp_path, capsys, monkeypatch):
        """Resolution 4e-7 puts 2,500,001 points on the 2-way lattice, over
        the budget of 2,000,000."""
        from mergemix.surface import SurfaceModel

        def no_predict(self, configs, columns=None):
            raise AssertionError("predicted a lattice over the budget")

        monkeypatch.setattr(SurfaceModel, "predict_batch", no_predict)
        out_csv = tmp_path / "x.csv"
        assert main(["export-heatmap",
                     "--surface", str(pipeline_run / "surface.model.json"),
                     "--resolution", "4e-7", "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: heatmap resolution 4e-07 gives 2500001 "
                       "lattice points over 2 domains, exceeding the budget "
                       "of 2000000\n")
        assert not out_csv.exists()

    def test_unknown_capability_errors(self, pipeline_run, tmp_path):
        assert main(["export-heatmap",
                     "--surface", str(pipeline_run / "surface.model.json"),
                     "--capability", "nonsense",
                     "--resolution", "0.25",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_unknown_capability_fails_before_predicting(self, pipeline_run,
                                                         tmp_path, monkeypatch):
        from mergemix.surface import SurfaceModel

        def no_predict(self, configs):
            raise AssertionError("predicted before resolving the capability")

        monkeypatch.setattr(SurfaceModel, "predict_batch", no_predict)
        assert main(["export-heatmap",
                     "--surface", str(pipeline_run / "surface.model.json"),
                     "--capability", "7",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_weighted_run_writes_null_slots(self, weighted_run):
        surface = read_json(weighted_run / "surface.model.json")
        assert surface["regressors"][1] is None
        assert surface["train_error"][1] is None
        assert len(surface["contexts"]) == 2
        optimum = read_json(weighted_run / "report.json")["optimum"]
        assert optimum["predicted_scores"][1] is None
        assert optimum["per_capability_gap"][1] is None
        assert optimum["max_abs_gap"] == abs(optimum["per_capability_gap"][0])
        assert len(optimum["actual_scores"]) == 2

    def test_utility_of_a_weighted_surface(self, weighted_run, tmp_path):
        """The utility reads d1 alone, so its heatmap is d1's."""
        surface = str(weighted_run / "surface.model.json")
        for capability in ("utility", "d1"):
            assert main(["export-heatmap", "--surface", surface,
                         "--capability", capability, "--resolution", "0.1",
                         "--out", str(tmp_path / f"{capability}.csv")]) == 0
        assert ((tmp_path / "utility.csv").read_text()
                == (tmp_path / "d1.csv").read_text())

    @pytest.mark.parametrize("capability", ["d2", "1"])
    def test_unfitted_capability_exits_2_before_predicting(
            self, weighted_run, tmp_path, capsys, monkeypatch, capability):
        from mergemix.surface import SurfaceModel

        def no_predict(self, configs, columns=None):
            raise AssertionError("predicted an unfitted capability")

        monkeypatch.setattr(SurfaceModel, "predict_batch", no_predict)
        out_csv = tmp_path / "x.csv"
        assert main(["export-heatmap",
                     "--surface", str(weighted_run / "surface.model.json"),
                     "--capability", capability, "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("surface error: ") and err.count("\n") == 1
        assert "['d2'] are not fitted" in err and "fits only ['d1']" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("content,message", [
        (None, "surface file not found"),
        ("{not json", "cannot read surface file"),
        (json.dumps({"format": "mm-surface-v0"}), "unsupported surface format"),
    ], ids=["missing", "not-json", "wrong-format"])
    def test_bad_surface_file_exits_2(self, tmp_path, capsys, content, message):
        surface = tmp_path / "surface.model.json"
        if content is not None:
            surface.write_text(content)
        out_csv = tmp_path / "x.csv"
        assert main(["export-heatmap", "--surface", str(surface),
                     "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("surface error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out_csv.exists()

    def test_surface_missing_a_field_exits_2(self, pipeline_run, tmp_path, capsys):
        data = read_json(pipeline_run / "surface.model.json")
        del data["regressors"]
        surface = write_config(tmp_path, data, "surface.model.json")
        assert main(["export-heatmap", "--surface", str(surface),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "surface error: " in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--top-percent", "0"], "top percentile"),
        (["--top-percent", "150"], "top percentile"),
        (["--resolution", "0"], "resolution"),
        (["--resolution", "2"], "resolution"),
        (["--resolution", "-1"], "resolution"),
    ])
    def test_bad_flag_exits_2_before_reading_the_surface(self, tmp_path, capsys,
                                                          flags, message):
        out_csv = tmp_path / "x.csv"
        assert main(["export-heatmap",
                     "--surface", str(tmp_path / "missing.json"),
                     *flags, "--out", str(out_csv)]) == 2
        assert message in capsys.readouterr().err
        assert not out_csv.exists()


QW2_EXACT = dict(QW2_PIPELINE, name="qw2-exact", search={"resolution": 0.1})


@pytest.fixture(scope="module")
def exact_run(tmp_path_factory):
    """A QW-2 run whose 11-point lattice fits in its design of 12."""
    tmp = tmp_path_factory.mktemp("exact")
    cfg = write_config(tmp, QW2_EXACT)
    assert main(["pipeline", "--config", str(cfg), "--out", str(tmp)]) == 0
    return tmp / "qw2-exact"


class TestExactStageRun:
    def test_samples_are_the_scored_lattice(self, exact_run):
        lines = (exact_run / "samples.csv").read_text().splitlines()
        assert lines[0] == "alpha_1,alpha_2,y_1,y_2,digest"
        assert [line.split(",")[0] for line in lines[1:]] == [
            str(c / 10) for c in range(11)]

    def test_surface_holds_only_the_contexts(self, exact_run):
        surface = read_json(exact_run / "surface.model.json")
        assert surface["format"] == "mm-surface-v2"
        assert surface["regressors"] == [None, None]
        assert surface["train_error"] == [None, None]
        assert len(surface["contexts"]) == 2
        assert surface["num_samples"] == 11

    def test_report_names_the_exact_search(self, exact_run):
        report = read_json(exact_run / "report.json")
        assert report["format"] == "mm-report-v3"
        optimum = report["optimum"]
        assert optimum["search_kind"] == "exact"
        for key in ("predicted_utility", "max_abs_gap"):
            assert optimum[key] is None, key
        for key in ("predicted_scores", "per_capability_gap"):
            assert optimum[key] == [None, None], key
        assert optimum["evaluated_points"] == 11
        assert optimum["actual_utility"] >= max(
            optimum["baseline_utilities"].values())

    def test_surrogate_report_names_its_search(self, pipeline_run):
        report = read_json(pipeline_run / "report.json")
        assert report["format"] == "mm-report-v3"
        assert report["optimum"]["search_kind"] == "surrogate"

    def test_reproducible_byte_identical(self, exact_run, tmp_path):
        cfg = write_config(tmp_path, QW2_EXACT)
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        again = tree_bytes(tmp_path / "qw2-exact")
        first = tree_bytes(exact_run)
        del again["manifest.json"], first["manifest.json"]
        assert again == first

    def test_depth_one_tree_matches_flat(self, exact_run, tmp_path):
        hier = dict(QW2_EXACT, mode="hierarchical-top-down", hierarchy={
            "name": "root", "children": [{"name": "d1", "domain": "d1"},
                                         {"name": "d2", "domain": "d2"}]})
        cfg = write_config(tmp_path, hier)
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        run = tmp_path / "qw2-exact"
        for name in ("samples.csv", "surface.model.json"):
            assert (run / name).read_bytes() == (exact_run / name).read_bytes()
        flat_report = read_json(exact_run / "report.json")
        hier_report = read_json(run / "report.json")
        assert (hier_report["hierarchy"]["ratios_by_domain"]
                == dict(zip(["d1", "d2"], flat_report["optimum"]["weights"])))

    @pytest.mark.parametrize("capability", ["utility", "d1"])
    def test_heatmap_of_an_exact_surface_exits_2(self, exact_run, tmp_path,
                                                 capsys, monkeypatch,
                                                 capability):
        from mergemix.surface import SurfaceModel

        def no_predict(self, configs, columns=None):
            raise AssertionError("predicted from an exact surface")

        monkeypatch.setattr(SurfaceModel, "predict_batch", no_predict)
        out_csv = tmp_path / "x.csv"
        assert main(["export-heatmap",
                     "--surface", str(exact_run / "surface.model.json"),
                     "--capability", capability, "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("surface error: ") and err.count("\n") == 1
        assert "scored its lattice exactly and fitted no regressor" in err
        assert not out_csv.exists()


class TestHierarchicalAndRecalibrateModes:
    def test_depth_one_tree_matches_flat_pipeline(self, tmp_path):
        flat_cfg = dict(QW2_PIPELINE)
        hier_cfg = dict(QW2_PIPELINE)
        hier_cfg["mode"] = "hierarchical-top-down"
        hier_cfg["hierarchy"] = {
            "name": "root",
            "children": [{"name": "d1", "domain": "d1"},
                         {"name": "d2", "domain": "d2"}],
        }
        out_flat, out_hier = tmp_path / "flat", tmp_path / "hier"
        main(["pipeline", "--config", str(write_config(tmp_path, flat_cfg,
                                                       "f.json")),
              "--out", str(out_flat)])
        main(["pipeline", "--config", str(write_config(tmp_path, hier_cfg,
                                                       "h.json")),
              "--out", str(out_hier)])
        flat_samples = (out_flat / "qw2" / "samples.csv").read_bytes()
        hier_samples = (out_hier / "qw2" / "samples.csv").read_bytes()
        assert flat_samples == hier_samples
        flat_report = read_json(out_flat / "qw2" / "report.json")
        hier_report = read_json(out_hier / "qw2" / "report.json")
        assert (hier_report["hierarchy"]["ratios_by_domain"]
                == dict(zip(["d1", "d2"], flat_report["optimum"]["weights"])))

    def test_internal_node_named_root_keeps_global_stage(self, tmp_path):
        """A cluster called "root" must not replace the global search in
        the persisted surface and the verified optimum."""
        cfg_payload = {
            "name": "qw4",
            "seed": 11,
            "mode": "hierarchical-top-down",
            "world": {"fixture": "QW-4"},
            "train": {"learning_rate": 0.05, "steps": 3},
            "design": {"size": 12},
            "search": {"resolution": 0.25},
            "hierarchy": {
                "name": "all",
                "children": [
                    {"name": "root", "children": [
                        {"name": "math", "domain": "math"},
                        {"name": "code", "domain": "code"}]},
                    {"name": "rest", "children": [
                        {"name": "sft", "domain": "sft"},
                        {"name": "web", "domain": "web"}]},
                ],
            },
        }
        cfg = write_config(tmp_path, cfg_payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        surface = read_json(out / "qw4" / "surface.model.json")
        assert surface["utility"] == {"kind": "macro"}
        report = read_json(out / "qw4" / "report.json")
        assert (report["optimum"]["weights"]
                == report["hierarchy"]["tree"]["weights"])

    def test_node_weights_off_the_simplex_exit_2_before_any_directory(
            self, tmp_path, capsys):
        payload = dict(QW2_PIPELINE, mode="hierarchical-top-down", hierarchy={
            "name": "root", "weights": [0.7, 0.7],
            "children": [{"name": "d1", "domain": "d1"},
                         {"name": "d2", "domain": "d2"}],
        })
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert "node 'root': weights sum to 1.4" in capsys.readouterr().err
        assert not out.exists()

    def test_one_child_root_exits_2_before_any_directory(self, tmp_path, capsys):
        """A root with one child has no split to search; the run would
        train and then fail without a root search."""
        payload = {
            "name": "qw-sep",
            "seed": 11,
            "mode": "hierarchical-top-down",
            "world": {"fixture": "QW-SEP"},
            "train": {"learning_rate": 0.1, "steps": 5},
            "design": {"size": 12},
            "search": {"resolution": 0.25},
            "hierarchy": {"name": "root", "children": [
                {"name": "all", "children": [
                    {"name": d, "domain": d}
                    for d in ("m-a", "m-b", "c-a", "c-b")]}]},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("hierarchy root 'root' needs at least 2 children, got 1"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["hierarchical-top-down",
                                      "hierarchical-bottom-up"])
    def test_identical_root_children_search_like_flat(self, tmp_path, mode):
        """Root children that train to identical experts still get the root
        search, so the run completes and picks what a flat run picks."""
        same = {"kind": "quadratic", "minimizer": [1.0, 0.0],
                "curvature": [[1.0, 0.0], [0.0, 1.0]]}
        flat = {"name": "twins", "seed": 3,
                "world": {"domains": [dict(same, name="a"), dict(same, name="b")]},
                "train": {"learning_rate": 0.05, "steps": 10},
                "design": {"size": 12}, "search": {"resolution": 0.25}}
        hier = dict(flat, mode=mode, hierarchy={
            "name": "root", "children": [{"name": "a", "domain": "a"},
                                         {"name": "b", "domain": "b"}]})
        runs = {}
        for label, payload in (("flat", flat), ("hier", hier)):
            cfg = write_config(tmp_path, payload, f"{label}.json")
            out = tmp_path / label
            assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
            assert (out / "twins" / "manifest.json").is_file()
            runs[label] = read_json(out / "twins" / "report.json")
        flat_weights = runs["flat"]["optimum"]["weights"]
        assert runs["hier"]["hierarchy"]["tree"]["weights"] == flat_weights
        assert runs["hier"]["optimum"]["weights"] == flat_weights

    @pytest.mark.parametrize("mode", ["hierarchical-top-down",
                                      "hierarchical-bottom-up"])
    def test_priors_exit_2_before_any_directory(self, tmp_path, capsys, mode):
        """A prior weights the world's domains, but each hierarchical stage
        searches over one node's children: no stage could read it."""
        payload = dict(QW2_PIPELINE, mode=mode,
                       design={"size": 12, "priors": [[0.7, 0.3]]},
                       hierarchy={"name": "root", "children": [
                           {"name": "d1", "domain": "d1"},
                           {"name": "d2", "domain": "d2"}]})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert "design.priors" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_run_exits_1_without_manifest(self, tmp_path):
        cfg_payload = dict(QW2_PIPELINE)
        cfg_payload["train"] = {"learning_rate": 3.0, "steps": 2000,
                                "checkpoint_interval": 2000}
        cfg = write_config(tmp_path, cfg_payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        assert not (out / "qw2" / "manifest.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_run_exits_1_without_manifest(self, tmp_path, capsys):
        """At lr 2.2 the parameters stay finite for 3000 steps, but their
        held-out losses overflow; the run must not look complete. The error
        line is all it prints: no numpy overflow warning comes first."""
        cfg_payload = dict(QW2_PIPELINE, design={"size": 10},
                           search={"resolution": 0.25})
        cfg_payload["train"] = {"learning_rate": 2.2, "steps": 3000,
                                "checkpoint_interval": 3000}
        cfg = write_config(tmp_path, cfg_payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: held-out loss on domain 'd1' is inf"]
        assert not (out / "qw2" / "manifest.json").exists()

    def test_dataset_export_flag(self, tmp_path):
        cfg_payload = {
            "name": "reg",
            "seed": 2,
            "world": {
                "domains": [
                    {"name": "a", "kind": "regression",
                     "target_weight": [[1.0, 0.0]], "input_dim": 2,
                     "train_size": 6, "heldout_size": 4, "seed": 3},
                    {"name": "b", "kind": "regression",
                     "target_weight": [[0.0, 1.0]], "input_dim": 2,
                     "train_size": 6, "heldout_size": 4, "seed": 4},
                ],
                "model": {"hidden_dim": 3, "init_seed": 7},
            },
            "train": {"learning_rate": 0.05, "steps": 4, "batch_size": 3},
            "design": {"size": 8},
            "export_datasets": True,
        }
        cfg = write_config(tmp_path, cfg_payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        train_csv = out / "reg" / "datasets" / "a.train.csv"
        assert train_csv.exists()
        lines = train_csv.read_text().splitlines()
        assert lines[0] == "x_1,x_2,y_1"
        assert len(lines) == 1 + 6

    def test_recalibrate_mode_artifacts(self, tmp_path):
        cfg_payload = dict(QW2_PIPELINE)
        cfg_payload["mode"] = "dynamic-recalibrate"
        cfg_payload["recalibrate"] = {"total_steps": 8}
        cfg = write_config(tmp_path, cfg_payload)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        report = read_json(out / "qw2" / "report.json")
        recal = report["recalibration"]
        assert "alpha_old" in recal and "alpha_new" in recal
        assert recal["max_weight_shift"] >= 0.0
        curve = recal["continuation"]
        assert curve and {"step", "static_utility", "dynamic_utility"} <= set(
            curve[0])
        assert (out / "qw2" / "recalibration.curve.csv").exists()

    def test_recalibrating_from_base_reproduces_optimum(self, qw2):
        """Zero training progress means identical pipeline inputs, so the
        re-optimized mixture equals the original one exactly."""
        from mergemix.config import parse_config
        from mergemix.pipeline import recalibrate
        from mergemix.seeding import stable_seed
        from mergemix.surface import run_search_stage
        from mergemix.training import train_expert

        cfg = parse_config(dict(QW2_PIPELINE))
        base = qw2.base_params()
        train_cfg = cfg.train_config(stable_seed(cfg.seed, "train"))
        experts = [train_expert(qw2, k, base, train_cfg) for k in range(2)]
        stage = run_search_stage(
            qw2, base, experts, design_size=cfg.design_size,
            seed=stable_seed(cfg.seed, "design"), hyper=cfg.hyper,
            utility_spec=cfg.utility_spec, resolution=cfg.resolution)
        recal = recalibrate(cfg, qw2, base, stage.search.weights)
        assert recal["alpha_new"] == stage.search.weights.tolist()
        assert recal["max_weight_shift"] == 0.0

    def test_trajectory_csv_layout(self, pipeline_run):
        lines = (pipeline_run / "experts" / "d1.trajectory.csv")\
            .read_text().splitlines()
        assert lines[0] == "step,raw_d1,raw_d2,norm_d1,norm_d2"
        # step 0 plus every second step of ten
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        assert steps == [0, 2, 4, 6, 8, 10]
        for line in lines[1:]:
            for cell in line.split(",")[3:]:
                assert 0.0 <= float(cell) <= 1.0
