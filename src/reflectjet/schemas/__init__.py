"""Shipped JSON schemas and a small validator for the model and CLI
report formats.

The validator covers the subset of JSON Schema the shipped files use
(type, properties, required, items, minItems, additionalProperties,
enum, patternProperties for the per-order maps).  It exists so model
input and emitted documents can be checked without an external
dependency.
"""

from __future__ import annotations

import json
import re
from importlib import resources

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
}


def load_schema(name: str) -> dict:
    path = resources.files(__package__).joinpath(f"{name}.schema.json")
    with path.open() as fh:
        return json.load(fh)


class SchemaError(ValueError):
    pass


def _check(instance, schema, path):
    typ = schema.get("type")
    if typ == "number":
        if isinstance(instance, bool) or not isinstance(instance, (int, float)):
            raise SchemaError(f"{path}: expected number, got {type(instance).__name__}")
    elif typ == "integer":
        if isinstance(instance, bool) or not isinstance(instance, int):
            raise SchemaError(f"{path}: expected integer, got {type(instance).__name__}")
    elif typ is not None:
        if not isinstance(instance, _TYPES[typ]):
            raise SchemaError(f"{path}: expected {typ}, got {type(instance).__name__}")
    if "enum" in schema and instance not in schema["enum"]:
        raise SchemaError(f"{path}: {instance!r} not in {schema['enum']}")
    if typ == "object":
        props = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        for key in schema.get("required", ()):
            if key not in instance:
                raise SchemaError(f"{path}: missing required member '{key}'")
        for key, value in instance.items():
            if key in props:
                _check(value, props[key], f"{path}.{key}")
                continue
            for pattern, sub in patterns.items():
                if re.fullmatch(pattern, key):
                    _check(value, sub, f"{path}.{key}")
                    break
            else:
                if schema.get("additionalProperties") is False:
                    raise SchemaError(f"{path}: unexpected member '{key}'")
    elif typ == "array":
        if len(instance) < schema.get("minItems", 0):
            raise SchemaError(f"{path}: expected at least {schema['minItems']} "
                              f"item(s), got {len(instance)}")
        for i, value in enumerate(instance if "items" in schema else ()):
            _check(value, schema["items"], f"{path}[{i}]")


def validate(instance, schema_name: str):
    """Raise SchemaError when `instance` violates the named shipped schema."""
    _check(instance, load_schema(schema_name), "$")
