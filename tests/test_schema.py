"""The in-package schema checker, against jsonschema and on its own."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from mergemix.config import CONFIG_SCHEMA, THEORY_REPORT_SCHEMA
from mergemix.errors import MergeMixError, SchemaViolation
from mergemix.schema import check_schema, validate

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.json"))
NAN = float("nan")
DROP = object()  # as a mutation value: delete the key

BASE = {
    "name": "unit",
    "seed": 5,
    "world": {"fixture": "QW-2"},
    "train": {"learning_rate": 0.05, "steps": 4},
}
DOMAINS = [
    {"name": "a", "kind": "quadratic", "minimizer": [1.0, 0.0],
     "curvature": [[1.0, 0.0], [0.0, 1.0]]},
    {"name": "b", "kind": "quadratic", "minimizer": [0.0, 1.0],
     "curvature": [[2.0, 0.0], [0.0, 1.0]]},
]
INLINE = dict(BASE, world={"domains": DOMAINS})
HIERARCHY = dict(BASE, world={"fixture": "QW-4"}, mode="hierarchical-top-down",
                 hierarchy={"name": "all", "children": [
                     {"name": "x", "children": [{"name": "math", "domain": "math"},
                                                {"name": "code", "domain": "code"}]},
                     {"name": "y", "children": [{"name": "sft", "domain": "sft"},
                                                {"name": "web", "domain": "web"}]},
                 ]})
REPORT = {
    "format": "mm-theory-v1",
    "world": {"fixture": "QW-2", "domains": ["d1", "d2"]},
    "scaling": {"horizon": 0.2, "learning_rate": 0.004, "steps": 50,
                "gap_norm_full": 0.1, "gap_norm_half": 0.025, "gap_ratio": 4.0,
                "residual_norm_full": 0.01, "residual_norm_half": 0.00125,
                "residual_ratio": 8.0},
    "curvature": {"values": [[1.0, 1.0], [2.0, 1.0]],
                  "row_dominant": [True, False]},
    "task_vector_cosine": [[1.0, -0.5], [-0.5, 1.0]],
    "sweep": {"resolution": 0.25, "rows": 5, "max_delta_norm": 0.3,
              "max_residual_norm": 0.02},
}


def mutate(document: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(document)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


# (id, document, key path to change, new value, error path or None if valid)
CONFIG_MUTATIONS = [
    ("seed-3.0", BASE, ("seed",), 3.0, None),
    ("seed-True", BASE, ("seed",), True, ("seed",)),
    ("seed-negative-float", BASE, ("seed",), -1.5, ("seed",)),
    ("steps-3.0", BASE, ("train", "steps"), 3.0, None),
    ("steps-True", BASE, ("train", "steps"), True, ("train", "steps")),
    ("design-size-True", BASE, ("design",), {"size": True}, ("design", "size")),
    ("prior-nan", BASE, ("design",), {"priors": [[NAN, 0.5]]}, None),
    ("prior-string", BASE, ("design",), {"priors": [[0.5, "x"]]},
     ("design", "priors", 0, 1)),
    ("utility-weight-nan", BASE, ("utility",),
     {"kind": "weighted", "weights": [NAN, 1.0]}, None),
    ("learning-rate-nan", BASE, ("train", "learning_rate"), NAN, None),
    ("learning-rate-zero", BASE, ("train", "learning_rate"), 0, ("train", "learning_rate")),
    ("learning-rate-True", BASE, ("train", "learning_rate"), True,
     ("train", "learning_rate")),
    ("batch-full", BASE, ("train", "batch_size"), "full", None),
    ("batch-Full", BASE, ("train", "batch_size"), "Full", ("train", "batch_size")),
    ("batch-2.0", BASE, ("train", "batch_size"), 2.0, None),
    ("batch-True", BASE, ("train", "batch_size"), True, ("train", "batch_size")),
    ("batch-0", BASE, ("train", "batch_size"), 0, ("train", "batch_size")),
    ("world-both", INLINE, ("world", "fixture"), "QW-2", ("world",)),
    ("world-neither", BASE, ("world",), {}, ("world",)),
    ("world-neither-with-model", BASE, ("world",), {"model": {"hidden_dim": 3}},
     ("world",)),
    ("domain-extra-key", INLINE, ("world", "domains", 1, "colour"), "red",
     ("world", "domains", 1)),
    ("domain-kind-True", INLINE, ("world", "domains", 0, "kind"), True,
     ("world", "domains", 0, "kind")),
    ("domains-empty", INLINE, ("world", "domains"), [], ("world", "domains")),
    ("curvature-row-empty", INLINE, ("world", "domains", 0, "curvature"), [[]],
     ("world", "domains", 0, "curvature", 0)),
    ("node-extra-key", HIERARCHY, ("hierarchy", "children", 0, "children", 1, "x"),
     1, ("hierarchy", "children", 0, "children", 1)),
    ("node-name-empty", HIERARCHY, ("hierarchy", "children", 1, "name"), "",
     ("hierarchy", "children", 1, "name")),
    ("node-children-empty", HIERARCHY, ("hierarchy", "children", 1, "children"), [],
     ("hierarchy", "children", 1, "children")),
    ("name-empty", BASE, ("name",), "", ("name",)),
    ("mode-Flat", BASE, ("mode",), "Flat", ("mode",)),
    ("resolution-0.25", BASE, ("search",), {"resolution": 0.25}, None),
    ("resolution-0.3", BASE, ("search",), {"resolution": 0.3}, ("search", "resolution")),
    ("export-datasets-1", BASE, ("export_datasets",), 1, ("export_datasets",)),
    ("train-missing-and-deep-error", mutate(BASE, ("train",), DROP),
     ("world", "fixture"), 3, ()),
    ("unknown-top-level-key", BASE, ("surprise",), True, ()),
    # Two errors at one depth: jsonschema's best_match picks the larger path.
    ("name-and-seed", mutate(BASE, ("name",), ""), ("seed",), -1, ("seed",)),
]
REPORT_MUTATIONS = [
    ("format", REPORT, ("format",), "mm-theory-v0", ("format",)),
    ("rows-3.0", REPORT, ("sweep", "rows"), 3.0, None),
    ("rows-True", REPORT, ("sweep", "rows"), True, ("sweep", "rows")),
    ("row-dominant-1", REPORT, ("curvature", "row_dominant", 0), 1,
     ("curvature", "row_dominant", 0)),
    ("cosine-nan", REPORT, ("task_vector_cosine", 0, 1), NAN, None),
    ("sweep-missing", REPORT, ("sweep",), DROP, ()),
    ("scaling-extra", REPORT, ("scaling", "extra"), 1.0, ("scaling",)),
]


def reference_error_path(document, schema):
    try:
        jsonschema.validate(document, schema)
    except jsonschema.ValidationError as exc:
        return tuple(exc.absolute_path)
    return None


def checker_error_path(document, schema):
    try:
        validate(document, schema, "document")
    except SchemaViolation as exc:
        return exc.path
    return None


def cases(mutations, schema):
    return [pytest.param(mutate(doc, path, value), schema, expected, id=name)
            for name, doc, path, value, expected in mutations]


@pytest.mark.parametrize("document,schema,expected", [
    *[pytest.param(json.loads(p.read_text("utf-8")), CONFIG_SCHEMA, None, id=p.name)
      for p in SHIPPED_CONFIGS],
    pytest.param(INLINE, CONFIG_SCHEMA, None, id="inline-domains"),
    pytest.param(HIERARCHY, CONFIG_SCHEMA, None, id="hierarchy"),
    pytest.param(REPORT, THEORY_REPORT_SCHEMA, None, id="theory-report"),
    *cases(CONFIG_MUTATIONS, CONFIG_SCHEMA),
    *cases(REPORT_MUTATIONS, THEORY_REPORT_SCHEMA),
])
def test_agrees_with_jsonschema(document, schema, expected):
    """Both accept or both reject, at the same error path."""
    assert checker_error_path(document, schema) == expected
    assert reference_error_path(document, schema) == expected


INF = float("inf")


@pytest.mark.parametrize("instance,schema,valid", [
    (3.0, {"type": "integer"}, True),
    (INF, {"type": "integer"}, False),
    (True, {"type": "integer"}, False),
    (True, {"type": "number"}, False),
    ((1, 2), {"type": "array"}, False),
    (True, {"const": 1}, False),
    (1.0, {"const": 1}, True),
    ([True], {"const": [1]}, False),
    ({"a": [0]}, {"const": {"a": [False]}}, False),
    (False, {"enum": [0, "no"]}, False),
    (0, {"enum": [False, 0.0]}, True),
    (NAN, {"type": "number", "minimum": 0, "maximum": 1}, True),
    (NAN, {"exclusiveMinimum": 0}, True),
    (-INF, {"minimum": 0}, False),
    (True, {"minimum": 2}, True),
    ("", {"minItems": 1, "minimum": 1}, True),
])
def test_keyword_semantics_agree_with_jsonschema(instance, schema, valid):
    expected = None if valid else ()
    assert checker_error_path(instance, schema) == expected
    assert reference_error_path(instance, schema) == expected


def test_error_text_names_label_and_path():
    with pytest.raises(SchemaViolation, match=r"^config invalid at train\.steps: "
                                              r"True is not of type 'integer'$"):
        validate(mutate(BASE, ("train", "steps"), True), CONFIG_SCHEMA, "config")
    with pytest.raises(SchemaViolation, match="^config invalid at <root>: 'train' "
                                              "is a required property$"):
        validate(mutate(BASE, ("train",), DROP), CONFIG_SCHEMA, "config")


@pytest.mark.parametrize("batch_size,message", [
    # Both branches fail at the same rank, so the oneOf error itself is kept.
    ("Full", "'Full' is not valid under any of the given schemas"),
    # Only the integer branch matches the type, so its error is reported.
    (0, "0 is less than the minimum of 1"),
])
def test_one_of_reports_the_best_branch(batch_size, message):
    with pytest.raises(SchemaViolation) as err:
        validate(mutate(BASE, ("train", "batch_size"), batch_size),
                 CONFIG_SCHEMA, "config")
    assert str(err.value) == f"config invalid at train.batch_size: {message}"


class TestKeywordCoverage:
    @pytest.mark.parametrize("schema", [CONFIG_SCHEMA, THEORY_REPORT_SCHEMA],
                             ids=["config", "theory-report"])
    def test_shipped_schemas_use_only_supported_keywords(self, schema):
        check_schema(schema)

    @pytest.mark.parametrize("schema", [
        {"type": "string", "pattern": "^a"},
        {"type": "object", "properties": {"unused": {"maxLength": 3}}},
        {"oneOf": [{"type": "string"}, {"type": "integer", "multipleOf": 2}]},
        {"$defs": {"unused": {"format": "email"}}},
        {"items": {"anyOf": [{"type": "string"}]}},
        {"additionalProperties": {"type": "string"}},
        {"type": ["string", "null"]},
        {"type": "float"},
        {"$ref": "#/definitions/weights"},
        {"$ref": "#/$defs/missing"},
    ])
    def test_unsupported_schema_raises_even_where_not_reached(self, schema):
        """The instance passes every keyword the checker knows here."""
        with pytest.raises(ValueError, match="unsupported|only"):
            validate("abc", schema, "document")


def test_hand_broken_theory_report_raises_package_error():
    broken = mutate(REPORT, ("sweep", "rows"), "five")
    with pytest.raises(MergeMixError, match="^theory report invalid at "
                                            "sweep.rows: 'five' is not of "
                                            "type 'integer'$"):
        validate(broken, THEORY_REPORT_SCHEMA, "theory report")


def test_cold_start_does_not_import_jsonschema():
    """Importing the CLI and pipeline and loading every shipped config
    leaves jsonschema unimported."""
    code = (
        "import sys, pathlib\n"
        "import mergemix.cli, mergemix.pipeline\n"
        "from mergemix.config import load_config\n"
        "paths = sorted(pathlib.Path(sys.argv[1]).glob('*.json'))\n"
        "assert paths\n"
        "for path in paths:\n"
        "    load_config(path)\n"
        "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code, str(ROOT / "configs")],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
