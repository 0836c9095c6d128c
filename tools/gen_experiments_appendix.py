#!/usr/bin/env python3
"""Regenerate the EXPERIMENTS.md appendix from target/figures/*.json.

Run after the figure suite:
    DQ_SCALE=paper cargo run --release -p bench --bin <figure>   # each figure
    python3 tools/gen_experiments_appendix.py
"""
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIGDIR = ROOT / "target" / "figures"
OUT = ROOT / "EXPERIMENTS_APPENDIX.md"

ORDER = [
    "inspect_index",
    "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13",
    "ablation_split", "ablation_leaf_exact", "ablation_buffer",
    "ablation_npdq_clustering", "ablation_npdq_axes", "ablation_psi",
    "exp_spdq", "exp_updates", "exp_tpr", "exp_join",
]

def render(table):
    lines = [f"## {table['figure']} — {table['title']}", ""]
    cols = table["columns"]
    lines.append("| " + " | ".join(cols) + " |")
    lines.append("|" + "|".join(["---"] * len(cols)) + "|")
    for row in table["rows"]:
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return "\n".join(lines)

def main():
    parts = [
        "# EXPERIMENTS appendix — raw tables",
        "",
        "Machine-generated from `target/figures/*.json` by",
        "`tools/gen_experiments_appendix.py`; see EXPERIMENTS.md for the",
        "paper-vs-reproduction discussion.",
        "",
    ]
    for name in ORDER:
        path = FIGDIR / f"{name}.json"
        if path.exists():
            parts.append(render(json.loads(path.read_text())))
    OUT.write_text("\n".join(parts))
    print(f"wrote {OUT}")

if __name__ == "__main__":
    main()
