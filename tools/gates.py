#!/usr/bin/env python3
"""Figure gates for tools/check.sh: one table, one checker.

Usage: tools/gates.py <group>...   (run from the repository root)

Every experiment binary writes a figure `{"columns": [...], "rows":
[[cell, ...], ...]}` under target/figures/. A gate picks rows of one
figure, reads one column, folds the values and compares the result with
a bound — a number, or the same kind of measurement taken from another
figure times a factor. Every figure gated here is seeded counts, so a
bound holds on any machine. A reference that yields one value bounds
every value measured; one that yields as many bounds them pairwise, in
row order.
Exit status 1 names every gate of the requested groups that failed.
"""
import json
import sys

FIGURES = "target/figures/"

# Column picker CELLS: every number of every cell past the row label. A
# single-column gate reads the last number of its cell.
CELLS = "cells"


def numbers(cell):
    """A "leaf/total" cell (Figs. 6-13) holds two numbers; "2.70x",
    "45.3%" and "+4.7%" hold one; "-" and a label ("static index") hold
    none."""
    return [float(n.rstrip("x%")) for n in cell.split("/") if any(c.isdigit() for c in n)]


def label(prefix):
    return lambda r: r[0].startswith(prefix)


def updates(mode):
    """exp_updates rows: engine, mode, disk/query, dups skipped/dq,
    delivered/dq."""
    return lambda r: r[0] == "PDQ" and r[1] == mode


# The committed quick-scale figures. Each is seeded and counts only, so
# any build reproduces it cell for cell.
PINNED = "results/figures_smoke/"
TPR_PINNED = f"{PINNED}exp_tpr.json"

# Figs. 6, 10 and 11's column layout: overlap, naive first, naive
# subsequent, PDQ/NPDQ first, PDQ/NPDQ subsequent; overlap rises down the
# rows.
NAIVE_FIRST, NAIVE_SUBS, DQ_FIRST, DQ_SUBS = 1, 2, 3, 4


def every(_row):
    return True


def pinned(group, figure, what):
    """The gate row holding `figure` to its committed copy."""
    return (group, figure, every, CELLS, "each", "==",
            (1.0, f"{PINNED}{figure}.json", every, CELLS, "each"),
            f"{what} at quick scale vs the committed figure, cell for cell")


def measure(figure, rows, column, fold):
    path = figure if figure.endswith(".json") else f"{FIGURES}{figure}.json"
    with open(path) as f:
        picked = [r for r in json.load(f)["rows"] if rows(r)]
    if column is CELLS:
        values = [n for r in picked for c in r[1:] for n in numbers(c)]
    else:
        values = [numbers(r[column])[-1] for r in picked]
    if fold == "each":
        if not values:
            sys.exit(f"FAIL: {path} has no row for a gate that needs one")
        return values
    return [sum(values)]


# group, figure, rows, column, fold, comparison, bound, what is measured.
# A tuple bound is (factor, figure, rows, column, fold): that measurement,
# scaled.
GATES = [
    ("updates", "exp_updates", updates("live insertions"), 4, "each", "==",
     (1.0, "exp_updates", updates("static index"), 4, "each"),
     "objects a PDQ delivers over a live index vs over the finished one"),
    ("updates", "exp_updates", updates("live insertions"), 2, "each", "<=",
     (1.05, "exp_updates", updates("static index"), 2, "each"),
     "PDQ disk accesses per frame, live index vs 1.05x the finished one"),
    ("updates", "exp_updates", updates("live insertions"), 3, "each", "<=",
     (0.25, "exp_updates", updates("live insertions"), 4, "each"),
     "duplicate queue entries a live PDQ drops vs a quarter of what it delivers"),
    # The NPDQ row is the one figure row §4.2's update rule drives: each
    # child is judged by its own stamp, and an unwritten one is skipped
    # by the motion-bounded discard (crates/mobiquery/src/npdq.rs), so a
    # change to either moves its disk/query cell and re-pins it here.
    pinned("updates", "exp_updates", "The live-insert figure (NPDQ row included)"),
    ("tpr", "exp_tpr", every, 2, "sum", "==", (1.0, TPR_PINNED, every, 2, "sum"),
     "TPR disk accesses per frame, summed over the overlap sweep, vs the committed figure"),
    ("tpr", "exp_tpr", every, 4, "sum", "==", (1.0, TPR_PINNED, every, 4, "sum"),
     "TPR distance computations per frame, summed, vs the committed figure"),
    ("tpr", "exp_tpr", every, 6, "sum", "==", (1.0, TPR_PINNED, every, 6, "sum"),
     "objects a TPR dynamic query delivers, summed, vs the committed figure"),
    ("tpr", "exp_tpr", every, 6, "sum", "==", (1.0, "exp_tpr", every, 5, "sum"),
     "objects delivered over the TPR-tree vs by PDQ over NSI, same run"),
    pinned("paper", "fig06", "Fig. 6"),
    pinned("paper", "fig10", "Fig. 10"),
    ("paper", "fig06", every, DQ_FIRST, "each", "==",
     (1.0, "fig06", every, NAIVE_FIRST, "each"),
     "PDQ's first query vs the naive first query, disk accesses (§5: the same)"),
    ("paper", "fig06", every, DQ_SUBS, "each", "<", (1.0, "fig06", every, NAIVE_SUBS, "each"),
     "PDQ's subsequent queries vs naive's at the same overlap, disk accesses"),
    ("paper", "fig06", lambda r: r[0] != "0%", DQ_SUBS, "each", "<",
     (1.0, "fig06", lambda r: r[0] != "99.99%", DQ_SUBS, "each"),
     "PDQ's subsequent queries vs the next lower overlap's, disk accesses"),
    ("paper", "fig10", every, DQ_SUBS, "each", "<=", (1.0, "fig10", every, NAIVE_SUBS, "each"),
     "NPDQ's subsequent queries vs naive's at the same overlap (§5: no harm)"),
    # ablation_npdq_clustering: clustering, query shape, naive disk/query,
    # NPDQ disk/query, saving. The binary asserts every frame against
    # naive's newly visible set, so a saving here is a sound one.
    pinned("paper", "ablation_npdq_clustering", "The NPDQ clustering ablation"),
    ("paper", "ablation_npdq_clustering", every, 3, "each", "<=",
     (1.0, "ablation_npdq_clustering", every, 2, "each"),
     "NPDQ's disk accesses per query vs naive's, every clustering and query shape"),
    pinned("paper", "fig11", "Fig. 11"),
    ("paper", "fig11", every, DQ_FIRST, "each", "==",
     (1.0, "fig11", every, NAIVE_FIRST, "each"),
     "NPDQ's first query vs the naive first query, distance computations (§5: the same)"),
    ("paper", "fig11", every, DQ_SUBS, "each", "<=", (1.0, "fig11", every, NAIVE_SUBS, "each"),
     "NPDQ's subsequent queries vs naive's at the same overlap, distance computations"),
    # exp_spdq: delta, disk/query, cpu/query, objects/dq, overhead; delta
    # rises down the rows.
    pinned("extensions", "exp_spdq", "The SPDQ delta sweep"),
    ("extensions", "exp_spdq", lambda r: r[0] != "8.00", 1, "each", "<=",
     (1.0, "exp_spdq", lambda r: r[0] != "0.00", 1, "each"),
     "SPDQ's disk accesses per query vs the next larger delta's (non-decreasing)"),
    ("extensions", "exp_spdq", lambda r: r[0] != "8.00", 3, "each", "<",
     (1.0, "exp_spdq", lambda r: r[0] != "0.00", 3, "each"),
     "objects an SPDQ delivers vs the next larger delta's (strictly increasing)"),
    # exp_join: delta, pairs, join cpu, brute cpu, pruning, join disk.
    pinned("extensions", "exp_join", "The distance self-join"),
    ("extensions", "exp_join", every, 2, "each", "<", (1.0, "exp_join", every, 3, "each"),
     "dual-tree join vs brute force at the same delta, distance computations"),
    # ablation_psi: overlap, NSI disk, PSI disk, NSI cpu, PSI cpu.
    pinned("extensions", "ablation_psi", "NSI vs PSI"),
    ("extensions", "ablation_psi", every, 2, "each", ">", (1.0, "ablation_psi", every, 1, "each"),
     "PSI's disk accesses per query vs NSI's at the same overlap (§2: NSI wins)"),
    # ablation_split: policy, nodes, leaf fill, build writes, naive disk,
    # naive cpu; rows linear, quadratic, r-star.
    pinned("extensions", "ablation_split", "The split-policy ablation"),
    ("extensions", "ablation_split", lambda r: r[0] != "linear", 4, "each", "<",
     (1.0, "ablation_split", lambda r: r[0] != "r-star", 4, "each"),
     "naive disk accesses per query vs the row above's (r-star < quadratic < linear)"),
    # ablation_buffer: configuration, buffer pages, disk reads, hit ratio.
    pinned("extensions", "ablation_buffer", "The server-buffer ablation"),
    ("extensions", "ablation_buffer", label("naive"), 2, "each", ">",
     (1.0, "ablation_buffer", label("PDQ"), 2, "each"),
     "naive + LRU reads per query at each buffer size vs PDQ with no buffer (§4)"),
]

COMPARE = {
    ">=": lambda v, b: v >= b,
    "<=": lambda v, b: v <= b,
    "<": lambda v, b: v < b,
    ">": lambda v, b: v > b,
    "==": lambda v, b: v == b,
}


def main(groups):
    unknown = set(groups) - {g[0] for g in GATES}
    if unknown or not groups:
        sys.exit(f"usage: gates.py <group>...; no gate group {sorted(unknown)}")
    failed = 0
    for group, figure, rows, column, fold, op, bound, what in GATES:
        if group not in groups:
            continue
        values = measure(figure, rows, column, fold)
        bounds = [bound]
        if isinstance(bound, tuple):
            factor, *reference = bound
            bounds = [factor * b for b in measure(*reference)]
        if len(bounds) == 1:
            bounds *= len(values)
        if len(bounds) != len(values):
            sys.exit(f"FAIL: [{group}] {what}: {len(values)} values against {len(bounds)} bounds")
        pairs = list(zip(values, bounds))
        bad = [p for p in pairs if not COMPARE[op](*p)]
        failed += len(bad)
        # Green: one line, the value nearest its bound.
        slack = (lambda p: p[0] - p[1]) if op.startswith(">") else (lambda p: p[1] - p[0])
        for value, limit in bad or [min(pairs, key=slack)]:
            print(f"{'FAIL' if bad else 'OK'}: [{group}] {what}: {value:.2f} "
                  f"(must be {op} {limit:.2f})")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
