#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune into .bench_build (release
profile), runs it, and passes its output through. The last stdout line
is the JSON result {correct, attempted, failed, metrics}. When
perfbench/digests.json pins a digest for (workload, seed), the program
counts every operation whose output differs from it as failed.

    python3 perfbench/run.py --workload NAME --seed N --seconds 1 --trace 0 --pin

records the run's digest for (workload, seed) in perfbench/digests.json.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
DIGESTS = os.path.join(HERE, "digests.json")


def build():
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0 and os.path.exists(EXE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--pin", action="store_true",
                    help="record this run's digest in perfbench/digests.json")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    with open(DIGESTS) as f:
        digests = json.load(f)
    expected = digests.get(args.workload, {}).get(str(args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    if expected and not args.pin:
        cmd += ["--expect-digest", expected]
    print(f"# host: nproc={os.cpu_count()} pinned_digest={expected or 'none'}", flush=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds * 3 + 120)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines:
            if line.startswith("#"):
                print(line)
        print(f"perfbench: program exited with {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    if args.pin:
        run_digest = [l.split()[-1] for l in lines if l.startswith("# run digest:")]
        digests.setdefault(args.workload, {})[str(args.seed)] = run_digest[0]
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
