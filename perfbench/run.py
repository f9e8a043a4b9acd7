#!/usr/bin/env python3
"""Builds the benchmark binary from the checkout's sources and runs one
workload for one seed.

    python3 perfbench/run.py --workload rules_mem --seed 1 --seconds 10 --trace 0

The last line of stdout is the JSON result (see README.md in this
directory). The build goes to .bench_build/ at the checkout root; scratch
files (the WAL directory, span dumps) go to .bench_build/out/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "odebench")
# The binary exits by itself; this only bounds a hung run.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the repository's sources (CMakeLists.txt, src/) are missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "odebench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def provenance():
    commit = "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # The checkout the benchmark runs in is usually not a git repository,
    # so the source tree's content hash identifies the build as well.
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["rules_mem", "wire_durable"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--open-rate", type=int, default=10000,
                        help="open-loop phase rate, events per second")
    args = parser.parse_args()

    build()
    commit, tree = provenance()
    print(f"provenance: commit={commit} src_sha256={tree}", flush=True)
    cmd = [
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--open-rate", str(args.open_rate), "--out-dir", os.path.join(BUILD, "out"),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"odebench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace == 1)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
