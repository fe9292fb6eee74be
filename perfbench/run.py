#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep [--seed 1]
        [--seconds 20] [--trace 0|1]

The first run configures and builds perfbench/ (the cedar library
from src/ plus the runner) in Release mode under $CARGO_TARGET_DIR
(default .bench_build); later runs only re-check the build. After
each build the runner's own arithmetic tests run. The runner's output
is passed through; its last line is the result object.

    python3 perfbench/run.py --record

re-records perfbench/reference.txt, the digests of the published
results for every workload and input set, which every timed run
checks against. Record only when a change is meant to alter what the
simulator computes, and say so in the change.

Exit status: the runner's (0 = every check passed), or 3 when the
benchmark cannot be built or its self-test fails, or 4 when the
runner's metrics disagree with BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_sweep", "study_grid", "observed_run")
INPUT_SETS = 8  # --seed selects one of this many recorded input sets
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout):
    """Run cmd with output into log; True when it exits 0. Temporary
    files (the compiler's) go next to the log, inside the checkout."""
    tmp = os.path.join(os.path.dirname(log), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "w") as out:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=out, env=env,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
    return proc.returncode == 0


def tail(path, n=30):
    with open(path) as f:
        return "".join(f.readlines()[-n:])


def build():
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(3, "no cedar sources under src/ next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", bdir,
                           "-DCMAKE_BUILD_TYPE=Release"], log, 300):
            fail(3, "configure failed:\n" + tail(log))
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", bdir, "-j", jobs], log, 850):
        fail(3, "build failed:\n" + tail(log))
    if not run_logged([os.path.join(bdir, "perfbench_selftest")],
                      os.path.join(bdir, "selftest.log"), 120):
        fail(3, "self-test failed:\n" + tail(os.path.join(bdir,
                                                          "selftest.log")))
    return bdir


def source_id():
    """Git commit when the checkout is a repository, plus a digest of
    every file the benchmark builds from (a checkout need not be one)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "bench", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, files in os.walk(base):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "--git-dir", os.path.join(ROOT, ".git"),
                 "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=30).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "git:%s src-sha256:%s" % (commit, h.hexdigest()[:16])


def declared_metrics():
    """(end_to_end, per_layer) names from BENCHMARK.json, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def drive(bdir, args):
    """Run the perfbench binary once; returns (exit code, stdout lines)."""
    cmd = [os.path.join(bdir, "perfbench")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "runner did not finish within %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed (default 1; held-out seed: 5)")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record perfbench/reference.txt")
    a = ap.parse_args()
    if not a.record and not a.workload:
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build()
    common = ["--out", ".bench_out", "--commit", source_id(),
              "--reference", os.path.join("perfbench", "reference.txt")]

    if a.record:
        for w in WORKLOADS:
            for seed in range(1, INPUT_SETS + 1):
                code, out = drive(bdir, ["--workload", w, "--seed", str(seed),
                                         "--record"] + common)
                print("%s seed %d: %s" % (w, seed, out[-1] if out else ""))
                if code != 0:
                    fail(code, "recording %s seed %d failed" % (w, seed))
        return 0

    code, out = drive(bdir, ["--workload", a.workload, "--seed",
                             str(a.seed), "--seconds", str(a.seconds),
                             "--trace", str(a.trace)] + common)
    if not out:
        fail(code or 1, "runner printed nothing")
    try:
        result = json.loads(out[-1])
    except ValueError:
        print("\n".join(out))
        fail(code or 1, "runner's last line is not a result object")
    declared = declared_metrics()
    if declared is not None:
        want = set(declared[1] if a.trace else declared[0])
        if set(result["metrics"]) != want:
            print("\n".join(out[:-1]))
            fail(4, "runner metrics differ from BENCHMARK.json: %s" %
                 sorted(want.symmetric_difference(result["metrics"])))
    print("\n".join(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
