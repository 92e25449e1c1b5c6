#!/usr/bin/env python3
"""Pins reference digests for the end-to-end benchmark's correctness checks.

    python3 e2ebench/pin_refs.py --workload adhoc-vm --seeds 1-10 [--tiny]

Runs one iteration per seed with nothing pinned, collects the digest of
every operation (campaign record streams, grid rankings, Table 4, top-N
selections) and stores them in refs/<workload>.json under the scale and
seed. adhoc-vm references are taken on the interpreter, so the VM runs of
the benchmark are checked against the reference engine. Pin only from a
commit whose outputs are known good: a later mismatch counts as a failed
operation.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    p.add_argument("--tiny", action="store_true")
    a = p.parse_args()

    if run.build(run.build_dir()) is None:
        return 1
    scratch = tempfile.mkdtemp(prefix="pin-", dir=run.build_dir())

    def pin(seed):
        out = os.path.join(scratch, "%d.json" % seed)
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", a.workload, "--seed", str(seed),
               "--seconds", "0", "--trace", "0",
               "--refs", os.path.join(scratch, "none.json"),
               "--dump-digests", out]
        if a.tiny:
            cmd.append("--tiny")
        if a.workload == "adhoc-vm":
            cmd += ["--backend", "interp"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode or not result["correct"]:
            raise RuntimeError("seed %d failed its own checks" % seed)
        with open(out) as f:
            return seed, json.load(f)

    pinned = [pin(seed) for seed in seeds(a.seeds)]

    path = os.path.join(HERE, "refs", a.workload + ".json")
    refs = {}
    if os.path.exists(path):
        with open(path) as f:
            refs = json.load(f)
    scale = refs.setdefault("tiny" if a.tiny else "default", {})
    for seed, digests in pinned:
        scale[str(seed)] = digests
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print("pinned %d seed(s) into %s" % (len(pinned), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
