#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload perm_campaign --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first call configures and builds
the workload binary epea_perfbench (a Release build of ../src plus this
directory) in .bench_build, or in $CARGO_TARGET_DIR when that is set;
later calls rebuild only what changed. Its last stdout line is the
one-line result {"correct", "attempted", "failed", "metrics"}. The full record
(host and build fingerprint, samples, checks, stage ledger) is written
to <build dir>/results/, and a traced run (--trace 1) also writes the
stage table <workload>-seed<N>-ledger.md there.

Workloads: perm_campaign, severe_campaign, serve_mixed (see README.md).
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("perm_campaign", "severe_campaign", "serve_mixed")
STAGES = ("golden-build", "fork", "batch-kernel", "scalar-run", "checkpoint",
          "merge", "orchestration", "other", "idle")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds epea_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no project sources under {ROOT / 'src'}")
    build_log = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_log, "a") as out:
        if not (build_dir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "epea_perfbench", "-j", jobs],
                       stdout=out, stderr=subprocess.STDOUT, check=True)
    return build_dir / "epea_perfbench"


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over the sources epea_perfbench is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ledger_table(record):
    """Markdown table of a traced run's stage ledger and counters."""
    ledger = record["detail"].get("ledger")
    metrics = record["summary"]["metrics"]
    lines = [f"# {record['workload']} seed {record['seed']}: stage ledger", "",
             "| stage | self time per unit (s) | share | spans |",
             "|---|---|---|---|"]
    for stage in STAGES:
        row = ledger["stages"][stage]
        lines.append(f"| {stage} | {row['self_s_per_unit']:.6f} | "
                     f"{row['share']:.4f} | {row['spans']} |")
    dropped = metrics["obs.dropped_spans"]["value"]
    lines += ["",
              f"units traced: {ledger['units']}, spans: {ledger['span_count']}, "
              f"stage total {ledger['total_s']:.6f} s, idle {ledger['idle_s']:.6f} s",
              f"clock budget (campaign wall, or server handler time) {ledger['budget_s']:.6f} s, "
              f"spans over the same ground {ledger['reconciled_s']:.6f} s, "
              f"residual {ledger['residual_pct']:.3f} % (stated bound 2 %)",
              f"dropped spans: {int(dropped)}"
              + ("  ** SPANS DROPPED: the ledger is incomplete **" if dropped else ""),
              "", "| counter | value | unit |", "|---|---|---|"]
    for name, m in metrics.items():
        if not name.startswith("stage."):
            lines.append(f"| {name} | {m['value']:.6g} | {m['unit']} |")
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizing; never for reported numbers")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: corrupt the reference answer")
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e} (see {build_dir / 'build.log'})")
        return 1

    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = results / f"{stem}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(build_dir / "work"), "--record", str(record_path),
           "--commit", commit_id(), "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 110)
    except subprocess.TimeoutExpired:
        log("epea_perfbench timed out and was killed")
        return 1
    if proc.returncode != 0:
        log(f"epea_perfbench exited with {proc.returncode}")
        return proc.returncode
    record = json.loads(record_path.read_text())
    if args.trace == "1":
        table = ledger_table(record)
        (results / f"{args.workload}-seed{args.seed}-ledger.md").write_text(table)
        sys.stderr.write(table)
    fp = record["fingerprint"]
    log(f"{args.workload} seed {args.seed}: {fp['cpu_model']}, nproc {fp['nproc']}, "
        f"threads {fp['threads_used']}, {fp['build_type']} {fp['compiler']}, "
        f"obs {fp['epea_obs_enabled']}, commit {fp['commit']}, "
        f"error_rate {record['error_rate']}; record {record_path}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
