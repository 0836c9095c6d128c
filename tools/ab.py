#!/usr/bin/env python3
"""A/B a change against a parent revision with dqbench.

    tools/ab.py <parent-rev> [--change REV] [--pairs N] [--seeds 1,2]
                [--workloads ingest,query,wire,durable] [--seconds S]
                [--cgu1] [--dir DIR] [--moves COUNT,...] [--record PR]
    tools/ab.py --check-trajectory

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

Counts (`node_reads_per_frame`, `dist_comps_per_frame`) are exact, so
each must be one value across every run of one workload and seed. A
change that moves a count names it in `--moves`: that count must then be
one value within each side, and the table prints it as parent -> change
with their ratio. Exits 1 if a count not named in `--moves` differs
between any two runs, a named one within a side, or a run is not
`correct`; exits 2 on a usage or build error. Every run's result line is
appended to DIR/runs.jsonl. Each run pins itself to one CPU: run nothing
heavy beside it.

`--record PR` appends, when nothing failed, one row per workload and
seed to BENCH_trajectory.json at the repository root: the PR number, the
workload, the seed, the pairs run, the codegen-unit setting, per timing
metric the median change/parent ratio and the pairs the change won, and
each count's value on both sides. `--check-trajectory` checks that file
(the rows' schema, and PR numbers that never decrease down it), prints
every fault and exits 1 if there is one; tools/check.sh runs it.
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
TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.json")


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


def trajectory_faults(rows):
    """Every way `rows`, BENCH_trajectory.json's list, breaks its schema
    or lets a PR number fall; empty when it is sound."""
    if not isinstance(rows, list):
        return ["the file is not a JSON list of rows"]
    faults, last = [], 0
    num = (int, float)
    for i, row in enumerate(rows):
        where = f"row {i}"
        if not isinstance(row, dict):
            faults.append(f"{where}: not an object")
            continue
        want = {"pr", "workload", "seed", "pairs", "codegen_units", "ratio", "won", "counts"}
        if set(row) != want:
            faults.append(f"{where}: keys {sorted(row)}, not {sorted(want)}")
            continue
        if not isinstance(row["pr"], int) or row["pr"] < last:
            faults.append(f"{where}: PR {row['pr']!r} after PR {last}")
        else:
            last = row["pr"]
        if row["workload"] not in WORKLOADS or not isinstance(row["seed"], int):
            faults.append(f"{where}: workload {row['workload']!r}, seed {row['seed']!r}")
        if not isinstance(row["pairs"], int) or row["pairs"] < 1 or row["codegen_units"] not in ("default", 1):
            faults.append(f"{where}: pairs {row['pairs']!r}, codegen_units {row['codegen_units']!r}")
        timed = sorted(m for m, _ in TIMED)
        if not (isinstance(row["ratio"], dict) and sorted(row["ratio"]) == timed
                and all(isinstance(v, num) and v > 0 for v in row["ratio"].values())):
            faults.append(f"{where}: ratio must hold a positive number for each of {timed}")
        if not (isinstance(row["won"], dict) and sorted(row["won"]) == timed
                and all(isinstance(v, int) and 0 <= v <= row["pairs"] for v in row["won"].values())):
            faults.append(f"{where}: won must hold 0..pairs for each of {timed}")
        counts = row["counts"]
        if not (isinstance(counts, dict) and sorted(counts) == ["change", "parent"]
                and all(isinstance(c, dict) and sorted(c) == sorted(COUNTS)
                        and all(isinstance(v, num) and v >= 0 for v in c.values()) for c in counts.values())):
            faults.append(f"{where}: counts must hold {COUNTS} for parent and change")
    return faults


def check_trajectory():
    if not os.path.exists(TRAJECTORY):
        print(f"ab: no {os.path.basename(TRAJECTORY)}", file=sys.stderr)
        return 1
    with open(TRAJECTORY) as f:
        faults = trajectory_faults(json.load(f))
    for fault in faults:
        print(f"ab: {os.path.basename(TRAJECTORY)}: {fault}", file=sys.stderr)
    return 1 if faults else 0


def record(rows):
    """Append `rows` to BENCH_trajectory.json, refusing a file or rows
    that would not check."""
    old = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as f:
            old = json.load(f)
    faults = trajectory_faults(old + rows)
    if faults:
        for fault in faults:
            print(f"ab: not recorded: {fault}", file=sys.stderr)
        return False
    with open(TRAJECTORY, "w") as f:
        json.dump(old + rows, f, indent=1)
        f.write("\n")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("--change", default=None, help="revision to compare (default: the working tree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--cgu1", action="store_true", help="build both sides with one codegen unit")
    ap.add_argument("--dir", default=os.path.join(ROOT, "target", "ab"))
    ap.add_argument("--moves", default="", help="counts the change moves, comma-separated")
    ap.add_argument("--record", type=int, metavar="PR", help="append the rows to BENCH_trajectory.json")
    ap.add_argument("--check-trajectory", action="store_true", help="check BENCH_trajectory.json and exit")
    args = ap.parse_args()
    if args.check_trajectory:
        return check_trajectory()
    if args.parent is None:
        ap.error("the parent revision is required")
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    moves = [c for c in args.moves.split(",") if c]
    if args.pairs < 1 or any(w not in WORKLOADS for w in workloads) or any(c not in COUNTS for c in moves):
        ap.error(f"--pairs >= 1, workloads among {WORKLOADS}, --moves among {COUNTS}")
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
    failed, rows = [], []
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
                sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
                for count in COUNTS:
                    groups = sides.values() if count in moves else [runs]
                    for group in groups:
                        seen = sorted({r["metrics"][count]["value"] for r in group})
                        if len(seen) > 1:
                            failed.append(f"{workload} seed {seed}: {count} moved: {seen}")
                row = {"pr": args.record, "workload": workload, "seed": seed, "pairs": len(pairs),
                       "codegen_units": 1 if args.cgu1 else "default", "ratio": {}, "won": {},
                       "counts": {side: {c: rs[0]["metrics"][c]["value"] for c in COUNTS}
                                  for side, rs in sides.items()}}
                rows.append(row)
                for metric, higher in TIMED:
                    a = [p["metrics"][metric]["value"] for p, _ in pairs]
                    b = [c["metrics"][metric]["value"] for _, c in pairs]
                    ratio = statistics.median(y / x for x, y in zip(a, b))
                    won = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
                    q1, med, q3 = quartiles(a)
                    beyond = statistics.median(b) > q3 if higher else statistics.median(b) < q1
                    row["ratio"][metric], row["won"][metric] = ratio, won
                    print(f"| {workload} | {seed} | {metric} | {med:.4g} | {ratio:.3f} | {won}/{len(pairs)} | "
                          f"{(q3 - q1) / med:.3f} | {'yes' if beyond else 'no'} |", flush=True)
                for count in COUNTS:
                    a, b = row["counts"]["parent"][count], row["counts"]["change"][count]
                    if count in moves:
                        ratio = f"{b / a:.3f}" if a else "-"
                        print(f"| {workload} | {seed} | {count} | {a:.4f} | {ratio} (-> {b:.4f}) | | | |",
                              flush=True)
                    else:
                        print(f"| {workload} | {seed} | {count} | {a:.4f} | | | | |", flush=True)
    for f in failed:
        print(f"ab: FAIL: {f}", file=sys.stderr)
    if failed:
        return 1
    if args.record is not None and not record(rows):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
