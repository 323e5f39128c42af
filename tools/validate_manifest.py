#!/usr/bin/env python3
"""Validate a run provenance manifest against schemas/manifest.schema.json.

The schema keywords are checked by the stdlib JSON-Schema subset in
schema_subset.py (same directory), so CI needs no third-party validator.

Usage: validate_manifest.py MANIFEST.json [SCHEMA.json]
Exit code 0 when valid; 1 with one line per violation otherwise.
"""

import json
import sys
from pathlib import Path

from schema_subset import validate


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    manifest_path = Path(argv[1])
    schema_path = (
        Path(argv[2])
        if len(argv) == 3
        else Path(__file__).resolve().parent.parent / "schemas" / "manifest.schema.json"
    )
    manifest = json.loads(manifest_path.read_text())
    schema = json.loads(schema_path.read_text())
    errors = []
    validate(manifest, schema, "$", errors)
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        return 1
    print(f"{manifest_path}: valid (schema {manifest.get('schema')})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
