#!/usr/bin/env python3
"""Figure gates for tools/check.sh: one table, one checker.

Usage: tools/gates.py <group>...   (run from the repository root)

Every experiment binary writes a figure `{"columns": [...], "rows":
[[cell, ...], ...]}` under target/figures/. A gate picks rows of one
figure, reads one column, folds the values and compares the result with
a bound — a number, or the same kind of measurement taken from another
figure times a factor, which is how every timing gate here is a ratio
(ratios are machine-portable where absolute throughputs are not). A
reference that yields one value bounds every value measured; one that
yields as many bounds them pairwise, in row order.
Exit status 1 names every gate of the requested groups that failed.
"""
import json
import os
import sys

FIGURES = "target/figures/"

# One bound can be moved from the environment, as before the table.
OBS_TOL = float(os.environ.get("DQ_OBS_SPEEDUP_TOL", "0.25"))

# Column pickers. SPEEDUP: a read_path ratio row keeps its one value in
# whichever cell the throughput column is ("2.70x"). CELLS: every number
# of every cell past the row label. A "leaf/total" cell (Figs. 6-13) is
# two numbers to CELLS and its total to a single-column gate.
SPEEDUP = None
CELLS = "cells"


def label(prefix):
    return lambda r: r[0].startswith(prefix)


def updates(mode):
    """exp_updates rows: engine, mode, disk/query, dups skipped/dq,
    delivered/dq."""
    return lambda r: r[0] == "PDQ" and r[1] == mode


# The committed quick-scale TPR figure: exp_tpr is seeded and counts
# only, so any build reproduces it cell for cell.
TPR_PINNED = "results/figures_smoke/exp_tpr.json"


# The committed quick-scale Figs. 6, 10 and 11 (seeded, counts only), and
# their row and column layout: overlap, naive first, naive subsequent,
# PDQ/NPDQ first, PDQ/NPDQ subsequent; overlap rises down the rows.
FIG06_PINNED = "results/figures_smoke/fig06.json"
FIG10_PINNED = "results/figures_smoke/fig10.json"
FIG11_PINNED = "results/figures_smoke/fig11.json"
NAIVE_FIRST, NAIVE_SUBS, DQ_FIRST, DQ_SUBS = 1, 2, 3, 4


def every(_row):
    return True


def measure(figure, rows, column, fold):
    path = figure if figure.endswith(".json") else f"{FIGURES}{figure}.json"
    with open(path) as f:
        picked = [r for r in json.load(f)["rows"] if rows(r)]
    if column is CELLS:
        values = [float(n) for r in picked for c in r[1:] for n in c.split("/")]
    else:
        cells = [next(c for c in r[1:] if c.strip()) if column is SPEEDUP else r[column]
                 for r in picked]
        values = [float(c.rstrip("x").rsplit("/", 1)[-1]) for c in cells]
    if fold == "each":
        if not values:
            sys.exit(f"FAIL: {path} has no row for a gate that needs one")
        return values
    return [sum(values)]


# group, figure, rows, column, fold, comparison, bound, what is measured.
# A tuple bound is (factor, figure, rows, column, fold): that measurement,
# scaled.
GATES = [
    ("bench", "read_path_smoke", label("batched/scalar"), SPEEDUP, "each", ">=", 1.0,
     "SoA overlap kernel vs the scalar loop, speedup"),
    ("bench", "read_path_smoke", label("patched/rebuilt"), SPEEDUP, "each", ">=", 1.0,
     "page-editing insert vs the node rebuild, speedup"),
    ("bench", "read_path_smoke", label("indexed/all-pieces"), SPEEDUP, "each", ">=", 2.0,
     "indexed trajectory pieces vs solving every piece, speedup"),
    ("bench", "read_path_smoke", label("packed/inserted"), SPEEDUP, "each", ">=", 2.0,
     "packed rebuild vs one insert per record, speedup"),
    ("obs", "read_path_obs_smoke", label("view/decode"), SPEEDUP, "each", ">=",
     (1.0 - OBS_TOL, "BENCH_read_path.json", label("view/decode"), SPEEDUP, "each"),
     f"instrumented view/decode speedup vs the committed baseline less {OBS_TOL:.0%}"),
    ("updates", "exp_updates", updates("live insertions"), 4, "each", "==",
     (1.0, "exp_updates", updates("static index"), 4, "each"),
     "objects a PDQ delivers over a live index vs over the finished one"),
    ("updates", "exp_updates", updates("live insertions"), 2, "each", "<=",
     (1.05, "exp_updates", updates("static index"), 2, "each"),
     "PDQ disk accesses per frame, live index vs 1.05x the finished one"),
    ("updates", "exp_updates", updates("live insertions"), 3, "each", "<=",
     (0.25, "exp_updates", updates("live insertions"), 4, "each"),
     "duplicate queue entries a live PDQ drops vs a quarter of what it delivers"),
    ("tpr", "exp_tpr", every, 2, "sum", "==", (1.0, TPR_PINNED, every, 2, "sum"),
     "TPR disk accesses per frame, summed over the overlap sweep, vs the committed figure"),
    ("tpr", "exp_tpr", every, 4, "sum", "==", (1.0, TPR_PINNED, every, 4, "sum"),
     "TPR distance computations per frame, summed, vs the committed figure"),
    ("tpr", "exp_tpr", every, 6, "sum", "==", (1.0, TPR_PINNED, every, 6, "sum"),
     "objects a TPR dynamic query delivers, summed, vs the committed figure"),
    ("tpr", "exp_tpr", every, 6, "sum", "==", (1.0, "exp_tpr", every, 5, "sum"),
     "objects delivered over the TPR-tree vs by PDQ over NSI, same run"),
    ("paper", "fig06", every, CELLS, "each", "==", (1.0, FIG06_PINNED, every, CELLS, "each"),
     "Fig. 6 at quick scale vs the committed figure, cell for cell"),
    ("paper", "fig10", every, CELLS, "each", "==", (1.0, FIG10_PINNED, every, CELLS, "each"),
     "Fig. 10 at quick scale vs the committed figure, cell for cell"),
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
    ("paper", "fig11", every, CELLS, "each", "==", (1.0, FIG11_PINNED, every, CELLS, "each"),
     "Fig. 11 at quick scale vs the committed figure, cell for cell"),
    ("paper", "fig11", every, DQ_FIRST, "each", "==",
     (1.0, "fig11", every, NAIVE_FIRST, "each"),
     "NPDQ's first query vs the naive first query, distance computations (§5: the same)"),
    ("paper", "fig11", every, DQ_SUBS, "each", "<=", (1.0, "fig11", every, NAIVE_SUBS, "each"),
     "NPDQ's subsequent queries vs naive's at the same overlap, distance computations"),
]

COMPARE = {
    ">=": lambda v, b: v >= b,
    "<=": lambda v, b: v <= b,
    "<": lambda v, b: v < b,
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
        slack = (lambda p: p[0] - p[1]) if op == ">=" else (lambda p: p[1] - p[0])
        for value, limit in bad or [min(pairs, key=slack)]:
            print(f"{'FAIL' if bad else 'OK'}: [{group}] {what}: {value:.2f} "
                  f"(must be {op} {limit:.2f})")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
