"""Command line entry points: sim, eval, report."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .alignment import DegenerateInputError
from .ate import (
    TooFewAssociationsError,
    TrajectoryFormatError,
    compute_ate,
    load_trajectory_csv,
    trajectory_to_csv,
)
from .config import ConfigError, load_scenario
from .net_sim import CATEGORIES
from .simulation import Simulation


def run_scenario(scenario_path: str, seed: int, out_dir: str,
                 check_invariants: bool = False) -> int:
    """Run one scenario and write trajectories, ledger, event log and ATE report."""
    try:
        scenario = load_scenario(scenario_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    sim = Simulation(scenario, seed, check_invariants=check_invariants)
    result = sim.run()

    with open(os.path.join(out_dir, "trajectory_est.csv"), "w", newline="") as fh:
        fh.write(trajectory_to_csv(result.est_rows))
    with open(os.path.join(out_dir, "trajectory_gt.csv"), "w", newline="") as fh:
        fh.write(trajectory_to_csv(result.gt_rows))
    with open(os.path.join(out_dir, "ledger.csv"), "w", newline="") as fh:
        fh.write(result.net.ledger.to_csv(result.duration))
    with open(os.path.join(out_dir, "events.jsonl"), "w", newline="") as fh:
        fh.write(result.log.to_jsonl())

    try:
        report = compute_ate(result.est_rows, result.gt_rows)
        with open(os.path.join(out_dir, "ate.json"), "w") as fh:
            fh.write(report.to_json())
        print(f"rms ate: {report.rms_m:.4f} m over {report.length_m:.1f} m "
              f"combined trajectory ({report.n_pairs} pose pairs)")
    except (TooFewAssociationsError, DegenerateInputError) as exc:
        print(f"ate skipped: {exc}", file=sys.stderr)
    merges = result.log.named("group_merged")
    print(f"merges: {[e['detail']['roster'] for e in merges]}")
    print(f"outputs written to {out_dir}")
    return 0


def eval_command(est_path: str, gt_path: str, json_path: str | None) -> int:
    try:
        est = load_trajectory_csv(est_path)
        gt = load_trajectory_csv(gt_path)
        report = compute_ate(est, gt)
    except (TrajectoryFormatError, TooFewAssociationsError, DegenerateInputError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.to_json_dict(), indent=2))
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(report.to_json())
    return 0


_LEDGER_INTS = ("agent", "bytes_sent", "bytes_received", "bytes_dropped")


def _read_ledger(path: str) -> list[dict]:
    """Ledger rows with typed fields; ValueError names the first bad one."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns = ("category", *_LEDGER_INTS, "avg_kbps")
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"missing columns {missing}")
        rows = []
        for r in reader:
            try:
                row = {c: int(r[c]) for c in _LEDGER_INTS}
                row["avg_kbps"] = float(r["avg_kbps"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from exc
            row["category"] = r["category"]
            rows.append(row)
    return rows


def report_command(ledger_path: str) -> int:
    try:
        rows = _read_ledger(ledger_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {ledger_path}: {exc}", file=sys.stderr)
        return 2
    agents = sorted({r["agent"] for r in rows})
    print(f"{'category':<16}{'agent':>6}{'sent KB':>12}{'recv KB':>12}"
          f"{'drop KB':>12}{'avg KB/s':>12}")
    totals = {"sent": 0, "recv": 0, "drop": 0, "rate": 0.0}
    for cat in CATEGORIES:
        for agent in agents:
            match = [r for r in rows
                     if r["category"] == cat and r["agent"] == agent]
            if not match:
                continue
            r = match[0]
            sent = r["bytes_sent"]
            recv = r["bytes_received"]
            drop = r["bytes_dropped"]
            rate = r["avg_kbps"]
            totals["sent"] += sent
            totals["recv"] += recv
            totals["drop"] += drop
            totals["rate"] += rate
            print(f"{cat:<16}{agent:>6}{sent / 1000:>12.1f}{recv / 1000:>12.1f}"
                  f"{drop / 1000:>12.1f}{rate:>12.2f}")
    print(f"{'Total':<16}{'':>6}{totals['sent'] / 1000:>12.1f}"
          f"{totals['recv'] / 1000:>12.1f}{totals['drop'] / 1000:>12.1f}"
          f"{totals['rate']:>12.2f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="meshslam",
        description="Decentralized cooperative SLAM coordination simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="run a scenario")
    p_sim.add_argument("--scenario", required=True, help="scenario YAML path")
    p_sim.add_argument("--seed", type=int, required=True, help="run seed (u64)")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--check-invariants", action="store_true",
                       help="assert protocol invariants after every event (slow)")

    p_eval = sub.add_parser("eval", help="trajectory error between two CSVs")
    p_eval.add_argument("--est", required=True, help="estimated trajectory CSV")
    p_eval.add_argument("--gt", required=True, help="ground truth trajectory CSV")
    p_eval.add_argument("--json", default=None, help="also write the report here")

    p_rep = sub.add_parser("report", help="print a bandwidth ledger summary")
    p_rep.add_argument("--ledger", required=True, help="ledger CSV path")

    args = parser.parse_args(argv)
    if args.command == "sim":
        return run_scenario(args.scenario, args.seed, args.out,
                            check_invariants=args.check_invariants)
    if args.command == "eval":
        return eval_command(args.est, args.gt, args.json)
    return report_command(args.ledger)


if __name__ == "__main__":
    sys.exit(main())
