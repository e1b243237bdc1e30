#!/usr/bin/env python3
"""End-to-end benchmark of DPCopula.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. On first use it builds the repository's
libraries and the benchmark program (perfbench/e2e_bench.cc) into
.bench_build/perfbench with the repository's own CMake settings; later runs
rebuild only what changed. A run's inputs and outputs live under
.bench_build/work and are removed when it ends; a traced run (--trace 1)
leaves its spans in .bench_build/traces/<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (see perfbench/README.md).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("table3", "census_hybrid")
# One run must end well inside three minutes, set-up included.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once and builds e2e_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no DPCopula sources next to perfbench/")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", "4"],
        stdout=sys.stderr)
    if result.returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "e2e_bench")


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the files that make up the benchmarked program."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1

    workdir = os.path.join(BUILD_ROOT, "work",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(workdir)
    os.makedirs(traces, exist_ok=True)
    command = [
        binary, "run", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir,
        "--commit", git_commit(), "--source-digest", source_digest(),
        "--spans", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed)),
    ]
    sys.stdout.flush()
    # e2e_bench and the copies of itself it starts share one process
    # group, so a timeout or a signal to this script stops all of them.
    child = subprocess.Popen(command, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        code = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
