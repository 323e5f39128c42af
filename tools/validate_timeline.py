#!/usr/bin/env python3
"""Validate a campaign flight-recorder file against schemas/timeline.schema.json.

Every non-empty line of timeline.jsonl must be a "sample" object matching
the per-line schema, and the stream as a whole must satisfy the
flight-recorder contract (DESIGN.md §15): sequence numbers increase by one
within a run segment (a reset to 0 starts a new segment — resumed
campaigns append), timestamps are non-decreasing per segment, the worker
set never changes mid-segment, and per-worker runs counters never
decrease. A torn final line from a killed sampler is tolerated.

The per-line schema is checked by the stdlib JSON-Schema subset in
schema_subset.py (same directory), so CI needs no third-party validator.

Usage: validate_timeline.py TIMELINE.jsonl [SCHEMA.json]
Exit code 0 when valid; 1 with one line per violation otherwise.
"""

import json
import sys
from pathlib import Path

from schema_subset import validate


def check_stream(samples, errors):
    """Cross-line flight-recorder invariants over (lineno, sample) pairs."""
    in_segment = False
    prev_seq = 0
    prev_t = 0.0
    segment_workers = None
    prev_runs = {}
    for lineno, sample in samples:
        where = f"line {lineno}"
        seq = sample.get("seq")
        t_s = sample.get("t_s")
        workers = sample.get("workers")
        if (
            not isinstance(seq, int)
            or not isinstance(t_s, (int, float))
            or not isinstance(workers, list)
            or not all(
                isinstance(w, dict)
                and isinstance(w.get("worker"), int)
                and isinstance(w.get("runs"), int)
                for w in workers
            )
        ):
            continue  # per-line schema errors already reported
        if seq == 0 or not in_segment:
            if in_segment and seq != 0:
                errors.append(
                    f"{where}: seq jumps to {seq} after {prev_seq} "
                    "(expected +1 or a reset to 0)"
                )
            in_segment = True
            segment_workers = None
            prev_runs = {}
            prev_t = t_s
        elif seq != prev_seq + 1:
            errors.append(
                f"{where}: seq {seq} after {prev_seq} (expected +1 or a reset to 0)"
            )
            segment_workers = None
            prev_runs = {}
        elif t_s < prev_t:
            errors.append(f"{where}: t_s {t_s} decreases from {prev_t}")
        prev_seq = seq
        prev_t = max(prev_t, t_s)

        workers_seen = [w["worker"] for w in workers]
        for w in workers:
            wid = w["worker"]
            if wid in prev_runs and w["runs"] < prev_runs[wid]:
                errors.append(
                    f"{where}: worker {wid} runs {w['runs']} decreases "
                    f"from {prev_runs[wid]}"
                )
            prev_runs[wid] = w["runs"]
        if segment_workers is None:
            segment_workers = workers_seen
        elif segment_workers != workers_seen:
            errors.append(
                f"{where}: worker set changed mid-segment "
                f"({workers_seen} vs {segment_workers})"
            )
            segment_workers = workers_seen


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    timeline_path = Path(argv[1])
    schema_path = (
        Path(argv[2])
        if len(argv) == 3
        else Path(__file__).resolve().parent.parent / "schemas" / "timeline.schema.json"
    )
    schema = json.loads(schema_path.read_text())
    lines = timeline_path.read_text().splitlines()
    errors = []
    samples = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            sample = json.loads(line)
        except json.JSONDecodeError as exc:
            # A torn final line from a killed sampler is expected.
            if i < len(lines):
                errors.append(f"line {i}: unparsable ({exc.msg})")
            continue
        validate(sample, schema, f"line {i}", errors)
        if isinstance(sample, dict) and sample.get("type") == "sample":
            samples.append((i, sample))
    check_stream(samples, errors)
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        return 1
    print(f"{timeline_path}: valid ({len(samples)} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
