"""Validation against the package's published JSON schemas.

Implements the subset of JSON Schema draft 2020-12 that
`schemas/config.schema.json` and `schemas/theory_report.schema.json` use,
with the semantics of the reference implementation (`jsonschema`): `3.0` is
an integer, `True` is neither an integer nor a number, an array is a `list`,
`const` and `enum` do not equate `True` with `1`, and NaN passes `minimum`
and `exclusiveMinimum`. Of several violations the one reported is the one
`jsonschema.exceptions.best_match` picks, so error paths agree with it.

A schema keyword outside the subset raises `ValueError` rather than being
skipped, so a schema edit cannot go silently unchecked.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

from .errors import SchemaViolation

# Annotations, and the definitions that `$ref` points into.
IGNORED = frozenset({"$schema", "$id", "title", "$defs"})
KEYWORDS = frozenset({
    "type", "enum", "const", "required", "properties", "additionalProperties",
    "items", "minItems", "minLength", "minimum", "exclusiveMinimum", "maximum",
    "oneOf", "$ref",
})
TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
}
DEFS_PREFIX = "#/$defs/"


class _Error(NamedTuple):
    path: tuple
    keyword: str
    message: str
    schema: dict
    instance: object
    context: tuple = ()

    def relevance(self) -> tuple:
        """`jsonschema.exceptions.relevance`: shallow errors rank higher."""
        expected = self.schema.get("type")
        matches = expected is not None and TYPES[expected](self.instance)
        return (-len(self.path), self.path, self.keyword != "oneOf", not matches)


def check_schema(schema: dict, root: dict | None = None) -> None:
    """Raise ValueError if `schema` uses anything outside the subset."""
    root = schema if root is None else root
    for keyword, value in schema.items():
        if keyword in IGNORED:
            continue
        if keyword not in KEYWORDS:
            raise ValueError(f"unsupported schema keyword {keyword!r}")
        if keyword == "type" and not (isinstance(value, str) and value in TYPES):
            raise ValueError(f"unsupported schema type {value!r}")
        if keyword == "additionalProperties" and value is not False:
            raise ValueError("only 'additionalProperties: false' is supported")
        if keyword == "$ref":
            _resolve(root, value)
    children = [*schema.get("$defs", {}).values(),
                *schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    if "items" in schema:
        children.append(schema["items"])
    for child in children:
        check_schema(child, root)


def validate(instance, schema: dict, label: str) -> None:
    """Raise SchemaViolation naming `label` if `instance` fails `schema`."""
    check_schema(schema)
    best = max(_errors(instance, schema, (), schema), key=_Error.relevance,
               default=None)
    while best is not None and best.context:  # best_match's descent
        first, *rest = sorted(best.context, key=_Error.relevance)[:2]
        if rest and first.relevance() == rest[0].relevance():
            break
        best = first
    if best is not None:
        raise SchemaViolation(label, best.path, best.message)


def _resolve(root: dict, ref: str) -> dict:
    name = ref[len(DEFS_PREFIX):]
    if not ref.startswith(DEFS_PREFIX) or name not in root.get("$defs", {}):
        raise ValueError(f"unsupported $ref {ref!r}")
    return root["$defs"][name]


def _equal(a, b) -> bool:
    """JSON equality: `True` is not `1`, at any depth."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _errors(instance, schema: dict, path: tuple, root: dict):
    """Every violation, in the order jsonschema's iter_errors yields them."""
    def error(keyword, message, context=()):
        return _Error(path, keyword, message, schema, instance, context)

    for keyword, value in schema.items():
        if keyword == "$ref":
            yield from _errors(instance, _resolve(root, value), path, root)
        elif keyword == "type":
            if not TYPES[value](instance):
                yield error(keyword, f"{instance!r} is not of type {value!r}")
        elif keyword == "enum":
            if not any(_equal(instance, each) for each in value):
                yield error(keyword, f"{instance!r} is not one of {value!r}")
        elif keyword == "const":
            if not _equal(instance, value):
                yield error(keyword, f"{value!r} was expected")
        elif keyword == "oneOf":
            found = [list(_errors(instance, sub, path, root)) for sub in value]
            valid = [sub for sub, errs in zip(value, found) if not errs]
            if not valid:
                yield error(keyword, f"{instance!r} is not valid under any of "
                            "the given schemas", tuple(e for es in found for e in es))
            elif len(valid) > 1:
                reprs = ", ".join(repr(sub) for sub in valid[1:] + valid[:1])
                yield error(keyword, f"{instance!r} is valid under each of {reprs}")
        elif isinstance(instance, dict):
            if keyword == "required":
                for name in value:
                    if name not in instance:
                        yield error(keyword, f"{name!r} is a required property")
            elif keyword == "properties":
                for name, sub in value.items():
                    if name in instance:
                        yield from _errors(instance[name], sub, path + (name,), root)
            elif keyword == "additionalProperties":
                known = schema.get("properties", {})
                extras = sorted((k for k in instance if k not in known), key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    names = ", ".join(repr(k) for k in extras)
                    yield error(keyword, "Additional properties are not allowed "
                                f"({names} {verb} unexpected)")
        elif isinstance(instance, list):
            if keyword == "items":
                for index, item in enumerate(instance):
                    yield from _errors(item, value, path + (index,), root)
            elif keyword == "minItems" and len(instance) < value:
                short = "should be non-empty" if value == 1 else "is too short"
                yield error(keyword, f"{instance!r} {short}")
        elif isinstance(instance, str):
            if keyword == "minLength" and len(instance) < value:
                short = "should be non-empty" if value == 1 else "is too short"
                yield error(keyword, f"{instance!r} {short}")
        elif TYPES["number"](instance):
            if keyword == "minimum" and instance < value:
                yield error(keyword, f"{instance!r} is less than the minimum "
                            f"of {value!r}")
            elif keyword == "exclusiveMinimum" and instance <= value:
                yield error(keyword, f"{instance!r} is less than or equal to "
                            f"the minimum of {value!r}")
            elif keyword == "maximum" and instance > value:
                yield error(keyword, f"{instance!r} is greater than the maximum "
                            f"of {value!r}")
