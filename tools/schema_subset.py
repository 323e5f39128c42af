"""Stdlib-only JSON-Schema subset shared by every tools/validate_*.py.

Implements the keywords the schemas under schemas/ use, so CI needs no
third-party validator: type, const, enum, pattern, minimum, maximum,
required, properties, additionalProperties, propertyNames, items,
minItems, maxItems and local '#/...' $ref pointers.

A $ref composes with its sibling keywords (draft 2019+ semantics): the
bench schema layers extra `required` keys on a shared shape that way
(batch_timing = campaign_timing + lane counters required), and the
referenced shape alone decides which keys are allowed.

validate() appends one "PATH: problem" line per violation to `errors`.
"""

import re


def type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "null":
        return value is None
    raise ValueError(f"unsupported schema type {expected!r}")


def resolve_ref(ref, root):
    if not ref.startswith("#/"):
        raise ValueError(f"only local refs supported, got {ref!r}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def validate(value, schema, path, errors, root=None):
    """Checks `value` against `schema`; `root` resolves $ref (default: schema)."""
    if root is None:
        root = schema
    if "$ref" in schema:
        validate(value, resolve_ref(schema["$ref"], root), path, errors, root)

    expected_type = schema.get("type")
    if expected_type is not None and not type_ok(value, expected_type):
        errors.append(f"{path}: expected {expected_type}, got {type(value).__name__}")
        return
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected const {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "pattern" in schema and isinstance(value, str):
        if not re.search(schema["pattern"], value):
            errors.append(f"{path}: {value!r} does not match {schema['pattern']!r}")
    if isinstance(value, (int, float)):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value} above maximum {schema['maximum']}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors, root)
        additional = schema.get("additionalProperties", True)
        name_schema = schema.get("propertyNames")
        for key in value:
            if name_schema is not None:
                validate(key, name_schema, f"{path}.{key} (name)", errors, root)
            if key in properties:
                continue
            if additional is False and "$ref" not in schema:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                validate(value[key], additional, f"{path}.{key}", errors, root)

    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(f"{path}: fewer than {schema['minItems']} items")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            errors.append(f"{path}: more than {schema['maxItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                validate(item, schema["items"], f"{path}[{i}]", errors, root)
