#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark crate is built in release mode
(into ``$CARGO_TARGET_DIR`` when set, else ``perfbench/target``), then run
with ``ASGD_THREADS`` pinned to the cores available to this process. Its
standard output ends with one JSON result line; the exit code is non-zero
when the build fails or a correctness check fails. Result rows, span traces
and output fingerprints go to ``perfbench/out/``.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("train-dense", "train-sampled-wide", "serve-fleet")
# Sources the benchmark binary is built from; their digest keys the output
# fingerprints, so a run is only compared with runs of the same code.
SOURCE_DIRS = ("crates", "vendor", "perfbench/src")
SOURCE_FILES = ("Cargo.toml", "perfbench/Cargo.toml", "perfbench/Cargo.lock")
RUN_TIMEOUT_S = 170


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / f for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(ROOT / d):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            files += [Path(dirpath) / n for n in filenames]
    for f in sorted(files):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    manifest = BENCH / "Cargo.toml"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env["ASGD_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE"] = source_digest()
    target = Path(env.get("CARGO_TARGET_DIR", BENCH / "target")).resolve()
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", str(BENCH / "out"),
    ]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
