#!/usr/bin/env python3
"""Builds and runs the control-loop benchmark (see README.md).

    python3 loopbench/run.py --workload per_tti_ingest --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is compiled from source
into $CARGO_TARGET_DIR (default .bench_build) on first use; later runs only
rebuild what changed. The last line of standard output is the result
object; build output goes to standard error.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("per_tti_ingest", "closed_loop_sched", "sharded_fleet")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"loopbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "loopbench")


def build(directory):
    """Configures once, then lets the build tool rebuild what changed."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(directory, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                        *generator], check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", directory, "--target", "loopbench", "-j", "3"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(directory, "loopbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the benchmarked sources (src/) and the benchmark itself,
    so a result identifies its code even where no git metadata exists."""
    digest = hashlib.sha256()
    for top in ("src", "loopbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("drop_report", "unrouted_command"),
                        help="inject one defect (oracle self-test)")
    parser.add_argument("--hash-inputs", action="store_true",
                        help="print the digest of the generated inputs and exit")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no src/ next to {HERE}: run from a full checkout")
    directory = build_dir()
    os.makedirs(directory, exist_ok=True)
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", directory, "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    if args.inject:
        command += ["--inject", args.inject]
    if args.hash_inputs:
        command.append("--hash-inputs")

    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or args.hash_inputs:
        return proc.returncode

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        fail(f"metrics differ from BENCHMARK.json (missing {missing}, extra {extra})")
    print(f"loopbench: {args.workload} took {time.monotonic() - started:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
