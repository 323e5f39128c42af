#!/usr/bin/env python3
"""Validate a ground-truth subset cache against schemas/subset_cache.schema.json.

Checks the schema with the stdlib JSON-Schema subset in schema_subset.py,
then adds
the cross-field checks a schema cannot express (and which the C++ lint
reports as EPEA-W061): detected <= active, coverage <= 1, and coverage
consistent with detected/active to float noise.

Usage: validate_subset_cache.py SUBSET_CACHE.json [SCHEMA.json]
Exit code 0 when valid; 1 with one line per violation otherwise.
"""

import json
import sys
from pathlib import Path

from schema_subset import validate


def check_entries(cache, errors):
    for key, entry in cache.get("entries", {}).items():
        if not isinstance(entry, dict):
            continue
        detected = entry.get("detected")
        active = entry.get("active")
        coverage = entry.get("coverage")
        if not all(isinstance(v, (int, float)) for v in (detected, active, coverage)):
            continue  # schema validation already reported the type error
        path = f"$.entries.{key}"
        if detected > active:
            errors.append(f"{path}: detected {detected} exceeds active {active}")
        if coverage > 1:
            errors.append(f"{path}: coverage {coverage} exceeds 1")
        derived = detected / active if active else 0.0
        if abs(coverage - derived) > 1e-9:
            errors.append(
                f"{path}: coverage {coverage} inconsistent with "
                f"detected/active = {derived}"
            )


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cache_path = Path(argv[1])
    schema_path = (
        Path(argv[2])
        if len(argv) == 3
        else Path(__file__).resolve().parent.parent
        / "schemas"
        / "subset_cache.schema.json"
    )
    cache = json.loads(cache_path.read_text())
    schema = json.loads(schema_path.read_text())
    errors = []
    validate(cache, schema, "$", errors)
    check_entries(cache, errors)
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        return 1
    print(f"{cache_path}: valid ({len(cache.get('entries', {}))} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
