#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny scale (about a minute).

    python3 e2ebench/selftest.py

Run from the root of a checkout. Checks that
  1. every workload prints exactly the metrics BENCHMARK.json names, each
     with its unit, untraced and traced, and passes its correctness checks
     against the pinned tiny-scale references;
  2. a perturbed reference digest makes every workload report failed
     operations, so the correctness checks are not vacuous;
  3. the benchmark binary refuses unoptimised and sanitizer builds.
Prints one line per check and exits non-zero if any fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1
failures = []


def report(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def bench(workload, trace, refs=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    if refs:
        cmd += ["--refs", refs]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def check_metrics(spec):
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, out = bench(workload, trace)
            what = "%s --trace %d" % (workload, trace)
            if result is None:
                report(False, what + " ran: " + out[-500:])
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            report(got == want, what + " prints every %s metric with its "
                   "unit" % key)
            report(result["correct"] and result["failed"] == 0 and
                   "references pinned" in out,
                   what + " matches the pinned tiny-scale references")


def check_perturbed(work):
    for workload in run.WORKLOADS:
        with open(os.path.join(HERE, "refs", workload + ".json")) as f:
            refs = json.load(f)
        pins = refs["tiny"][str(SEED)]
        name = sorted(pins)[0]
        digit = pins[name][0]
        pins[name] = ("1" if digit == "0" else "0") + pins[name][1:]
        path = os.path.join(work, workload + ".json")
        with open(path, "w") as f:
            json.dump(refs, f)
        result, out = bench(workload, 0, refs=path)
        report(result is not None and result["failed"] > 0 and
               not result["correct"],
               "%s flags a perturbed digest of '%s'" % (workload, name))


def check_build_refusal(work):
    cxx = os.environ.get("CXX") or shutil.which("c++") or "g++"
    probe = os.path.join(HERE, "buildcheck_probe.cpp")
    cases = ((["-O2"], 0, "optimised build accepted"),
             (["-O0"], 3, "unoptimised build refused"),
             (["-O2", "-fsanitize=address"], 3, "ASan build refused"),
             (["-O2", "-DIPAS_BENCH_SANITIZED"], 3,
              "build flagged sanitized by CMake refused"))
    for flags, want, what in cases:
        exe = os.path.join(work, "probe")
        built = subprocess.run([cxx, "-std=c++20", "-I", HERE] + flags +
                               [probe, "-o", exe], stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        if built.returncode != 0:
            report(False, what + " (probe did not compile: %s)"
                   % built.stdout[-300:])
            continue
        got = subprocess.run([exe], stdout=subprocess.PIPE).returncode
        report(got == want, what)
    # CMake marks a package configured with -fsanitize flags.
    cfg = os.path.join(work, "cmake-sanitized")
    subprocess.run(["cmake", "-S", HERE, "-B", cfg,
                    "-DCMAKE_CXX_FLAGS=-fsanitize=undefined"],
                   stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    flagged = False
    for root, _, files in os.walk(cfg):
        for name in files:
            if name in ("build.ninja", "flags.make"):
                with open(os.path.join(root, name)) as f:
                    flagged |= "IPAS_BENCH_SANITIZED" in f.read()
    report(flagged, "CMake flags a -fsanitize configuration")


def main():
    if run.build(run.build_dir()) is None:
        return 1
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.build_dir())
    try:
        check_metrics(spec)
        check_perturbed(work)
        check_build_refusal(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
