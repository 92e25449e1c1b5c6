#!/usr/bin/env python3
"""Builds and runs the IPAS end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload workflow-is --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark package (this directory's CMakeLists.txt, which compiles the
libraries under src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only rebuild what changed. Build output goes to stderr;
the last line of stdout is the JSON result the benchmark binary prints.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("workflow-is", "train-grid", "adhoc-vm")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(out_dir):
    """Configures and builds the package; returns the binary or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", out_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            sys.stderr.write("error: benchmark build failed: %s\n"
                             % " ".join(cmd))
            return None
    return os.path.join(out_dir, "ipas_e2ebench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every campaign and grid (self-test scale)")
    p.add_argument("--refs", help="reference digests to check against "
                   "(default: refs/<workload>.json beside this script)")
    p.add_argument("--backend", choices=("vm", "interp"),
                   help="adhoc-vm engine (interp only to take references)")
    p.add_argument("--dump-digests", help="write this run's digests here")
    a = p.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    refs = a.refs or os.path.join(HERE, "refs", a.workload + ".json")
    work = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", work, "--programs", os.path.join(HERE, "programs"),
           "--refs", refs]
    if a.tiny:
        cmd.append("--tiny")
    if a.backend:
        cmd += ["--backend", a.backend]
    if a.dump_digests:
        cmd += ["--dump-digests", a.dump_digests]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: benchmark run exceeded %d s\n"
                         % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.stderr.write("error: benchmark exited with %d\n" % done.returncode)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
