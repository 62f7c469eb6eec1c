#!/usr/bin/env python3
"""Build and run composim's end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload matrix_untraced --seed 7 --seconds 30 --trace 0

The first run configures and builds the simulator library and the
benchmark (RelWithDebInfo, the repository's default build type) into
.bench_build, or into $CARGO_TARGET_DIR when that is set; later runs only
rebuild what changed. The benchmark's last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

Other modes:

    python3 e2ebench/run.py --selftest
        build and run the benchmark's own unit tests
    python3 e2ebench/run.py --record-digests 0 32
        recompute digests.json for seeds 0..31 of every workload
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
WORKLOADS = ("matrix_untraced", "analyze_export", "fault_fork_sweep")
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target: str) -> Path:
    """Configure (once) and build `target`; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: no simulator sources at %s/src" % ROOT)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / target


def recorded_digests(workload: str, seed: int) -> list:
    if not DIGESTS.is_file():
        return []
    book = json.loads(DIGESTS.read_text())
    return book.get(workload, {}).get(str(seed), [])


def run_benchmark(args) -> int:
    exe = build("e2ebench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    expected = recorded_digests(args.workload, args.seed)
    if expected:
        cmd += ["--expect", ",".join(expected)]
    if args.trace == 1:
        spans = build_dir() / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / ("%s-seed%d.jsonl" % (args.workload, args.seed)))]
    return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode


def record_digests(first: int, count: int) -> int:
    exe = build("e2ebench")
    book = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for workload in WORKLOADS:
        for seed in range(first, first + count):
            out = subprocess.run(
                [str(exe), "--workload", workload, "--seed", str(seed),
                 "--print-digests"],
                cwd=ROOT, check=True, capture_output=True, text=True,
                timeout=RUN_TIMEOUT_S).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: outputs failed their checks" % (workload, seed),
                      file=sys.stderr)
                return 1
            book.setdefault(workload, {})[str(seed)] = result["digests"]
            print("%s seed %d: %d digests" % (workload, seed, len(result["digests"])),
                  file=sys.stderr)
    DIGESTS.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-digests", nargs=2, type=int,
                        metavar=("FIRST", "COUNT"))
    args = parser.parse_args()

    if args.selftest:
        return subprocess.run([str(build("e2ebench_selftest"))], cwd=ROOT).returncode
    if args.record_digests:
        return record_digests(*args.record_digests)
    if not args.workload:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("e2ebench: %s" % e)
