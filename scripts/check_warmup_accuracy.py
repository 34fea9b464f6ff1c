#!/usr/bin/env python3
"""Checks a functionally warmed campaign against its all-detailed reference.

    scripts/check_warmup_accuracy.py FUNCTIONAL.jsonl REFERENCE.jsonl \\
        [--tolerance-pct 0.5]

FUNCTIONAL is a bsp-sweep store whose tasks warm functionally (ids carry
"/fw=F"), REFERENCE the same campaign run with --detailed-warmup at or
above the warm-up. Tasks are paired by id with "/fw=F" removed. Fails
(exit 1) when a task is missing or not ok in either store, when any bar's
IPC differs from the reference by more than the tolerance, or when two
bars of one slice-count stack (same workload, seed and slice count)
swap order. Bars that tie in either store do not count as swapped.
Prints how many tasks have exactly equal cycles.
"""

import argparse
import json
import re
import sys
from itertools import combinations


def load(path):
    recs = {}
    for line in open(path):
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if rec.get("status") == "queued":
            continue
        recs[re.sub(r"/fw=\d+", "", rec["task"])] = rec  # latest wins
    return recs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("functional")
    ap.add_argument("reference")
    ap.add_argument("--tolerance-pct", type=float, default=0.5)
    args = ap.parse_args()

    fw, ref = load(args.functional), load(args.reference)
    problems = []
    if fw.keys() != ref.keys():
        problems.append("task sets differ: "
                        + ", ".join(sorted(fw.keys() ^ ref.keys())[:5]))
    pairs = {}
    for tid in sorted(fw.keys() & ref.keys()):
        a, b = fw[tid], ref[tid]
        if a["status"] != "ok" or b["status"] != "ok":
            problems.append(f"{tid}: status {a['status']} / {b['status']}")
            continue
        pairs[tid] = (a, b)

    equal_cycles = 0
    worst = 0.0
    stacks = {}
    for tid, (a, b) in pairs.items():
        ipc_fw, ipc_ref = a["stats"]["ipc"], b["stats"]["ipc"]
        delta = abs(ipc_fw - ipc_ref) / ipc_ref * 100 if ipc_ref else 0.0
        worst = max(worst, delta)
        if delta > args.tolerance_pct:
            problems.append(f"{tid}: IPC {ipc_fw:.6f} vs reference "
                            f"{ipc_ref:.6f} ({delta:.3f}% > "
                            f"{args.tolerance_pct}%)")
        if a["stats"]["cycles"] == b["stats"]["cycles"]:
            equal_cycles += 1
        if b["machine"] != "base":
            key = (b["workload"], b["seed"], b["slices"])
            stacks.setdefault(key, []).append((b["label"], ipc_fw, ipc_ref))

    for (workload, seed, slices), bars in sorted(stacks.items()):
        for (la, fa, ra), (lb, fb, rb) in combinations(bars, 2):
            if (fa - fb) * (ra - rb) < 0:
                problems.append(f"{workload} {seed} x{slices}: '{la}' and "
                                f"'{lb}' swap order ({fa:.6f}/{fb:.6f} vs "
                                f"reference {ra:.6f}/{rb:.6f})")

    print(f"warm-up accuracy: {len(pairs)} bars, worst |dIPC| "
          f"{worst:.3f}% (tolerance {args.tolerance_pct}%), "
          f"{equal_cycles}/{len(pairs)} with equal cycles, "
          f"{len(stacks)} stacks checked for order")
    for p in problems[:20]:
        print("  " + p)
    if len(problems) > 20:
        print(f"  ... and {len(problems) - 20} more")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
