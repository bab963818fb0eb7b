#!/usr/bin/env python3
"""Build and run the lazydram end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload membound-lazy --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later calls only re-check the build. The benchmark's
output, ending in one JSON result line, goes to stdout; build output goes to
stderr.

    python3 perfbench/run.py --pin 0-99

re-pins the simulated-output digests in perfbench/digests.json for the given
seeds (plus the held-out seed) on every workload.
"""
import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lazydram_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
JOBS = max(1, min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: lazydram sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "lazydram_perfbench",
                    "-j", str(JOBS)], check=True, stdout=sys.stderr)


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def workload_names():
    out = subprocess.run([BINARY, "--list"], check=True, capture_output=True, text=True)
    return [line.split("\t")[0] for line in out.stdout.splitlines() if line]


def digest(workload, seed):
    out = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                          "--digest-only"], check=True, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    return out.stdout.strip()


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def pin(seeds):
    pinned = load_digests()
    seeds = sorted(set(seeds) | {pinned["held_out_seed"]})
    jobs = [(w, s) for w in workload_names() for s in seeds]
    with concurrent.futures.ThreadPoolExecutor(max_workers=min(3, JOBS)) as pool:
        results = list(pool.map(lambda job: digest(*job), jobs))
    table = {}
    for (w, s), d in zip(jobs, results):
        table.setdefault(w, {})[str(s)] = d
    pinned["digests"] = table
    with open(DIGESTS, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"pinned {len(jobs)} digests in {os.path.relpath(DIGESTS, ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--pin", metavar="LO-HI", help="re-pin digests for these seeds")
    args = parser.parse_args()

    build()
    if args.pin:
        pin(parse_seeds(args.pin))
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    expected = load_digests()["digests"].get(args.workload, {}).get(str(args.seed))
    if expected:
        cmd += ["--expect-digest", expected]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
