#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload crawl|site|history --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
xydiff library and the `perfbench` program (Release) under .bench_build/;
later runs rebuild incrementally. Every store lives in the program's
memory (a RAM-backed Env, like a tmpfs mount), so no run writes a store
to disk. The span file of a traced run and one JSON record per run are
kept under .bench_build/results/.

Prints the program's `detail` line, a `stamp` line (git sha when there
is one, source hash, compiler, nproc, workers, store, flush policy) and,
last, the
result object {"correct", "attempted", "failed", "metrics"}. Exits
non-zero without a result when the build fails, and non-zero with the
result when a correctness check fails.

A traced run covers a prefix of the untraced run of the same seed and
--seconds, and both print the `agree.*` figures over that prefix (delta
and new-version bytes, delta ratio, alerts, failed ops). When the record
of the other --trace mode for the same workload, seed, --seconds and
sources is present, every `agree.*` figure must match it exactly, or the
run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench")
RESULTS = os.path.join(BUILD, "results")

WORKERS = {"crawl": 2, "site": 1, "history": 2}
STORE = "memory: RAM-backed Env in the perfbench process (tmpfs semantics)"
FLUSH = {
    "crawl": "group commit of 8 slots per SaveRepositoryBatch; every "
             "SyncFile/SyncDir is issued to the RAM-backed Env, where it "
             "returns at once, as fsync does on tmpfs",
    "site": "none: commits stay in memory (a traced run saves the final "
            "repository once)",
    "history": "every write is a single-URL DiffBatch whose "
               "SaveRepositoryBatch issues SyncFile/SyncDir to the "
               "RAM-backed Env",
}
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds (incrementally); True on success."""
    configure = subprocess.run(
        ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr)
    if configure.returncode != 0:
        return False
    compile_step = subprocess.run(
        ["cmake", "--build", CMAKE_DIR, "--target", "perfbench", "-j", "3"],
        stdout=sys.stderr, stderr=sys.stderr)
    return compile_step.returncode == 0 and os.path.exists(BINARY)


def source_sha256():
    """Hash of the library and benchmark sources that were built."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(REPO, top)
        for root, dirs, files in os.walk(base):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    """HEAD of the repository this benchmark sits in, if it is one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=REPO, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(REPO):
        return None
    return lines[1]


def compiler():
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"],
                                         capture_output=True, text=True,
                                         timeout=10)
                    return out.stdout.splitlines()[0] if out.stdout else path
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return None


def record_path(workload, seed, trace):
    return os.path.join(RESULTS, "%s-seed%d-trace%d.json" %
                        (workload, seed, trace))


def disagreements(stamp, detail):
    """The agree.* figures on which this run differs from the run of the
    other --trace mode with the same workload, seed, --seconds and sources;
    empty when there is no such run."""
    try:
        with open(record_path(stamp["workload"], stamp["seed"],
                              1 - stamp["trace"])) as f:
            other = json.load(f)
    except (OSError, ValueError):
        return []
    same = ("workload", "seed", "seconds", "source_sha256")
    if any(other["stamp"].get(key) != stamp[key] for key in same):
        return []
    names = sorted(name for name in detail if name.startswith("agree."))
    if not names:
        return ["agree.* (missing)"]
    return [name for name in names
            if other["detail"].get(name) != detail[name]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 1

    os.makedirs(RESULTS, exist_ok=True)
    stamp = {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "compiler": compiler(),
        "nproc": os.cpu_count(),
        "workers": WORKERS[args.workload],
        "store": STORE,
        "flush": FLUSH[args.workload],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    try:
        run = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", RESULTS],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1

    lines = [line for line in run.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    except (IndexError, ValueError, KeyError):
        log("perfbench: no result (exit code %d)" % run.returncode)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        return 1

    differ = disagreements(stamp, detail)
    for name in differ:
        log("check failed: traced and untraced runs disagree on %s" % name)
    if differ:
        result["correct"] = False
    record = {"stamp": stamp, "detail": detail, "result": result}
    with open(record_path(args.workload, args.seed, args.trace), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
