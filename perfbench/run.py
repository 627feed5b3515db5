#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) as a Release CMake build of perfbench/CMakeLists.txt.
Every line the benchmark prints is passed through; the last line is the
JSON result. With --seed 1 the output digest is checked against
perfbench/digests.json. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "exact", "service", "synth"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few calls per workload; for testing the harness")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-out",
               os.path.join(build_dir, f"trace-{args.workload}-{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    elif args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as f:
            command += ["--expect-digest", json.load(f)[args.workload]]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env, timeout=175)
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        print(f"perfbench: exited with code {result.returncode}", file=sys.stderr)
        return result.returncode
    lines = result.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    json.loads(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
