"""Mean self time per operation of each stage, by qubit count, from trace files.

    python3 magicbench/stages.py magicbench/out/trace-*.jsonl

A traced run (``run.py --trace 1``) writes its trace to
``magicbench/out/trace-<workload>-seed<seed>-trace1.jsonl``: one line per
operation (op, n, kind, wall) followed by one line per span.  Prints a
Markdown table in milliseconds; the ``op wall`` row is the whole call.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def stage_table(paths: list[str]) -> str:
    total: dict[tuple[str, int], float] = defaultdict(float)
    ops_per_n: dict[int, int] = defaultdict(int)
    for path in paths:
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        ops = {r["op"]: r for r in records if "wall" in r}
        spans = [r for r in records if "wall" not in r]
        self_s = [s["end"] - s["start"] for s in spans]
        for s in spans:
            if s["parent"] >= 0:
                self_s[s["parent"]] -= s["end"] - s["start"]
        for s, t in zip(spans, self_s):
            total[s["name"], ops[s["op"]]["n"]] += t
        for op in ops.values():
            ops_per_n[op["n"]] += 1
            total["op wall", op["n"]] += op["wall"]
    ns = sorted(ops_per_n)
    names = sorted({name for name, _ in total}, key=lambda s: (s == "op wall", s))
    lines = ["| stage | " + " | ".join(f"n = {n}" for n in ns) + " |",
             "| --- |" + " ---: |" * len(ns)]
    for name in names:
        cells = [f"{1e3 * total[name, n] / ops_per_n[n]:.2f}" for n in ns]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    print(stage_table(sys.argv[1:]))
