#!/usr/bin/env python3
"""Validate a serve API body against schemas/serve_*.schema.json.

Both schema files are definitions-keyed: one named definition per
endpoint body. This wrapper picks the definition and delegates to the
stdlib JSON-Schema subset in schema_subset.py (same directory), so CI
needs no third-party JSON-Schema package.

Usage: validate_serve_api.py {request|response} DEFINITION BODY.json
       (BODY.json of "-" reads the body from stdin)

Exit code 0 when valid; 1 with one line per violation; 2 on usage or an
unknown definition name.
"""

import json
import sys
from pathlib import Path

from schema_subset import validate


def main(argv):
    if len(argv) != 4 or argv[1] not in ("request", "response"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    side, definition, body_path = argv[1], argv[2], argv[3]
    schema_path = (
        Path(__file__).resolve().parent.parent
        / "schemas"
        / f"serve_{side}.schema.json"
    )
    schema = json.loads(schema_path.read_text())
    definitions = schema.get("definitions", {})
    if definition not in definitions:
        print(
            f"unknown {side} definition {definition!r} "
            f"(have: {', '.join(sorted(definitions))})",
            file=sys.stderr,
        )
        return 2
    text = sys.stdin.read() if body_path == "-" else Path(body_path).read_text()
    body = json.loads(text)
    errors = []
    validate(body, definitions[definition], "$", errors)
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        return 1
    print(f"{body_path}: valid serve {side} body ({definition})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
