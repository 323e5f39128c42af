#!/usr/bin/env python3
"""Validate committed benchmark artifacts against schemas/bench.schema.json.

The schema is a discriminated union: its top-level 'benchmarks' map keys
sub-schemas by the document's 'benchmark' field (BM_CampaignFastpath,
BM_CampaignBatch, obs_overhead, timeline_overhead, analytic, serve).
Shared shapes live in '$defs' and are resolved through local
'#/$defs/...' $ref pointers.

The schema keywords are checked by the stdlib JSON-Schema subset in
schema_subset.py (same directory), so CI needs no third-party validator.

Usage: validate_bench.py BENCH.json [BENCH.json ...] [--schema SCHEMA.json]
Exit code 0 when every file is valid; 1 with one line per violation
otherwise.
"""

import json
import sys
from pathlib import Path

from schema_subset import validate


def validate_bench_file(bench_path, schema):
    errors = []
    try:
        doc = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{bench_path}: {exc}"], None
    if not isinstance(doc, dict) or "benchmark" not in doc:
        return [f"{bench_path}: $: missing required key 'benchmark'"], None
    name = doc["benchmark"]
    sub = schema.get("benchmarks", {}).get(name)
    if sub is None:
        known = sorted(schema.get("benchmarks", {}))
        return [f"{bench_path}: $.benchmark: unknown benchmark {name!r} (known: {known})"], name
    validate(doc, sub, "$", errors, root=schema)
    return [f"{bench_path}: {e}" for e in errors], name


def main(argv):
    schema_path = Path(__file__).resolve().parent.parent / "schemas" / "bench.schema.json"
    bench_paths = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--schema":
            try:
                schema_path = Path(next(args))
            except StopIteration:
                print("--schema requires a path", file=sys.stderr)
                return 2
        elif arg.startswith("--schema="):
            schema_path = Path(arg.split("=", 1)[1])
        else:
            bench_paths.append(Path(arg))
    if not bench_paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    schema = json.loads(schema_path.read_text())
    failed = False
    for bench_path in bench_paths:
        errors, name = validate_bench_file(bench_path, schema)
        for err in errors:
            print(err, file=sys.stderr)
        if errors:
            failed = True
        else:
            print(f"{bench_path}: valid (benchmark {name})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
