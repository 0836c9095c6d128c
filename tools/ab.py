#!/usr/bin/env python3
"""A/B a change against a parent revision with dqbench.

    tools/ab.py <parent-rev> [--change REV] [--pairs N] [--seeds 1,2]
                [--workloads ingest,query,wire,durable] [--seconds S]
                [--cgu1] [--dir DIR]

Builds benchmarks/dqbench for the parent and then for the change (the
working tree, tracked and untracked files that git does not ignore, or
`--change REV`) in one scratch directory, one after the other: a path
dependency's absolute path is in its crate hash, so two checkouts at
different paths time differently even at the same code. `--cgu1` builds
both with one codegen unit, to tell a code-layout shift from a real one.
Then, per workload and seed, it runs N alternating pairs (the parent
first on even pairs, the change first on odd ones) and prints, per
timing metric, the median change/parent ratio, the pairs the change won,
the parent's IQR over its median, and whether the change's median lies
outside the parent's IQR on the better side.

Exits 1 if `node_reads_per_frame` or `dist_comps_per_frame` differs
between any two runs of one workload and seed (counts are exact: a
change that moves them says so in its own claim), or if a run is not
`correct`; exits 2 on a usage or build error. Every run's result line is
appended to DIR/runs.jsonl. Each run pins itself to one CPU: run nothing
heavy beside it.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["ingest", "query", "wire", "durable"]
# (metric, higher is better)
TIMED = [("frames_per_s", True), ("cpu_us_per_frame", False), ("setup_s", False), ("peak_rss_mb", False)]
COUNTS = ["node_reads_per_frame", "dist_comps_per_frame"]


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE, **kw).stdout


def export(rev, src):
    """Write `rev`'s tree (None: the working tree) into a fresh `src`,
    every file stamped now: cargo rebuilds what is newer than its last
    build, and an archive keeps its commit's times, older than the other
    side's build."""
    shutil.rmtree(src, ignore_errors=True)
    os.makedirs(src)
    if rev is not None:
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
            tar.extractall(src)
    else:
        for path in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
            path = path.decode()
            if path and os.path.isfile(os.path.join(ROOT, path)):
                os.makedirs(os.path.dirname(os.path.join(src, path)), exist_ok=True)
                shutil.copy(os.path.join(ROOT, path), os.path.join(src, path))
    for top, _, files in os.walk(src):
        for name in files:
            os.utime(os.path.join(top, name))


def build(rev, side, work, cgu1):
    """Build dqbench from `rev` in `work/src`; returns the saved binary."""
    src, target = os.path.join(work, "src"), os.path.join(work, "target")
    export(rev, src)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if cgu1:
        env["CARGO_PROFILE_RELEASE_CODEGEN_UNITS"] = "1"
    manifest = os.path.join(src, "benchmarks", "dqbench", "Cargo.toml")
    print(f"# building {side} ({rev or 'working tree'})", file=sys.stderr, flush=True)
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest], check=True, env=env)
    binary = os.path.join(work, "bin", side)
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    shutil.copy2(os.path.join(target, "release", "dqbench"), binary)
    return binary


def run(binary, workload, seed, seconds, log):
    """One dqbench run; its result object (the last line of stdout)."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    log.write(json.dumps({"binary": os.path.basename(binary), "workload": workload, "seed": seed, **result}) + "\n")
    log.flush()
    return result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("--change", default=None, help="revision to compare (default: the working tree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--cgu1", action="store_true", help="build both sides with one codegen unit")
    ap.add_argument("--dir", default=os.path.join(ROOT, "target", "ab"))
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    if args.pairs < 1 or any(w not in WORKLOADS for w in workloads):
        ap.error(f"--pairs >= 1, and workloads among {WORKLOADS}")
    work = os.path.abspath(args.dir)
    try:
        parent = build(args.parent, "parent", work, args.cgu1)
        change = build(args.change, "change", work, args.cgu1)
    except subprocess.CalledProcessError as e:
        print(f"ab: build failed: {e}", file=sys.stderr)
        return 2
    with open(parent, "rb") as a, open(change, "rb") as b:
        if a.read() == b.read():
            print("# the two sides built the same binary: an A/A run", file=sys.stderr)

    print(f"parent {args.parent}, change {args.change or 'working tree'}, {args.pairs} pairs, "
          f"{args.seconds:g} s a run, codegen units {'1' if args.cgu1 else 'default'}")
    print("| workload | seed | metric | parent median | change/parent | pairs won | parent IQR/median | beyond IQR |")
    print("|---|---|---|---|---|---|---|---|")
    failed = []
    with open(os.path.join(work, "runs.jsonl"), "a") as log:
        for workload in workloads:
            for seed in seeds:
                pairs = []
                for p in range(args.pairs):
                    order = [("parent", parent), ("change", change)]
                    if p % 2:
                        order.reverse()
                    got = {side: run(binary, workload, seed, args.seconds, log) for side, binary in order}
                    pairs.append((got["parent"], got["change"]))
                runs = [r for pair in pairs for r in pair]
                if not all(r["correct"] for r in runs):
                    failed.append(f"{workload} seed {seed}: a run is not correct")
                for count in COUNTS:
                    seen = sorted({r["metrics"][count]["value"] for r in runs})
                    if len(seen) > 1:
                        failed.append(f"{workload} seed {seed}: {count} moved: {seen}")
                for metric, higher in TIMED:
                    a = [p["metrics"][metric]["value"] for p, _ in pairs]
                    b = [c["metrics"][metric]["value"] for _, c in pairs]
                    ratio = statistics.median(y / x for x, y in zip(a, b))
                    won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
                    q1, med, q3 = quartiles(a)
                    beyond = statistics.median(b) > q3 if higher else statistics.median(b) < q1
                    print(f"| {workload} | {seed} | {metric} | {med:.4g} | {ratio:.3f} | {won}/{len(pairs)} | "
                          f"{(q3 - q1) / med:.3f} | {'yes' if beyond else 'no'} |", flush=True)
                counts = " / ".join(f"{runs[0]['metrics'][c]['value']:.4f}" for c in COUNTS)
                print(f"| {workload} | {seed} | {' / '.join(COUNTS)} | {counts} | | | | |", flush=True)
    for f in failed:
        print(f"ab: FAIL: {f}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
