"""Compare two sets of benchmark results: metric deltas and output equivalence.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by ``run.py`` or directories of them.
Results are paired by (workload, seed, trace).  For every pair it prints each
metric's relative change, marked ``worse`` when it moved against the metric's
direction, and whether the five output digests of every simulated seed match.
Exit status is 1 when any digest differs or a seed is missing on one side,
so the command doubles as the "outputs unchanged" check for refactors.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from run import DIRECTION


def load(path: str) -> dict[tuple, dict]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if "workload" in r and "metrics" in r:
            out[(r["workload"], r["seed"], bool(r["trace"]))] = r
    return out


def seed_digests(result: dict) -> dict[int, dict]:
    """The output digests of each simulated seed (the first run of it)."""
    out: dict[int, dict] = {}
    for sim in result["simulations"]:
        if "digests" in sim:
            out.setdefault(sim["seed"], sim["digests"])
    return out


def digest_report(base: dict, new: dict) -> list[str]:
    """Lines describing every digest difference; empty when outputs are identical."""
    a, b = seed_digests(base), seed_digests(new)
    lines = []
    for seed in sorted(set(a) | set(b)):
        if seed not in a or seed not in b:
            lines.append(f"seed {seed}: only in {'base' if seed in a else 'new'}")
            continue
        differ = sorted(k for k in set(a[seed]) | set(b[seed])
                        if a[seed].get(k) != b[seed].get(k))
        if differ:
            lines.append(f"seed {seed}: {', '.join(differ)} differ")
    return lines


def metric_lines(base: dict, new: dict) -> list[str]:
    lines = []
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            lines.append(f"  {name:<44} only in base")
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        rel = (b - a) / abs(a) if a else float("inf") if b else 0.0
        better = DIRECTION.get(name.removeprefix("outcome."))
        worse = (better == "lower" and b > a) or (better == "higher" and b < a)
        lines.append(f"  {name:<44}{a:>14.6g}{b:>14.6g}{rel:>+10.1%} {m['unit']}"
                     f"{'  worse' if worse else ''}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two benchmark result sets")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)
    identical = True
    for key in sorted(set(base) | set(new)):
        workload, seed, trace = key
        print(f"{workload}  seed {seed}  trace {int(trace)}")
        if key not in base or key not in new:
            print(f"  only in {'base' if key in base else 'new'}")
            identical = False
            continue
        print(f"  {'metric':<44}{'base':>14}{'new':>14}{'change':>10}")
        for line in metric_lines(base[key], new[key]):
            print(line)
        problems = digest_report(base[key], new[key])
        if problems:
            identical = False
            for line in problems:
                print(f"  DIGEST MISMATCH {line}")
        else:
            print("  digests: all outputs identical")
    print("outputs identical" if identical else "outputs differ")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
