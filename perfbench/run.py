"""meshslam benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload loops_long --seed 7 --seconds 56 --trace 0

A run simulates the workload's fixed ensemble of seeds derived from
``--seed`` (member ``j`` uses ``seed + j * 1000003``; member 0 is the seed
itself), each in a fresh single-threaded worker process, one process at a
time.  Until ``--seconds`` is spent it then repeats members, which adds
timing samples and re-checks that outputs are byte-identical.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` simulates every
member once under the span tracer and once untraced, for the overhead and
the digest comparison, and reports the per-layer metrics.  The full record
(environment, per-simulation results, digests) goes to
``perfbench/results/``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")

MEMBER_STRIDE = 1_000_003
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better).  Each is measured per simulation, then reduced to
# the median over a member's runs and the median over the ensemble's members.
HOST = {
    "run_s": ("s", "lower"),
    "tick_ms_p50": ("ms", "lower"),
    "tick_ms_p99": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# simulated outcomes, exact for a seed
OUTCOMES = {
    "ate_rms_m": ("m", "lower"),
    "bandwidth_kbps": ("kB/s", "lower"),
    "map_completeness": ("ratio", "higher"),
    "merge_time_s": ("s", "lower"),
}
SETUP = {"setup_s": ("s", "lower")}
# the metrics BENCHMARK.json bounds, printed on the last line with --trace 0;
# merge_time_s is left out because the last merge of a seed lands in one of
# a few discrete times, so a run's median jumps between them
END_TO_END = ["run_s", "setup_s", "tick_ms_p50", "tick_ms_p99", "peak_rss_mb",
              "ate_rms_m", "bandwidth_kbps", "map_completeness"]
DIRECTION = {k: v[1] for k, v in {**HOST, **SETUP, **OUTCOMES}.items()}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (as opposed to the program failing)."""


def member_seeds(seed: int, size: int) -> list[int]:
    return [seed + j * MEMBER_STRIDE for j in range(size)]


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(workload: str, seed: int, trace: bool = False,
               setup_only: bool = False, spans_out: str | None = None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker for {workload} seed {seed} exceeded "
                           f"{WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker for {workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    record = json.loads(lines[-1])
    record["wall_s"] = time.perf_counter() - t0
    return record


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "worker_threads": {var: "1" for var in THREAD_VARS},
    }


# -- digests -------------------------------------------------------------------------

def source_fingerprint() -> str:
    """Hash of everything that determines a simulation's outputs."""
    h = hashlib.sha256()
    for pattern in ("src/meshslam/*.py", "scenarios/*.yaml", "perfbench/workloads.py"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_digests(records: list[dict], known: dict[str, dict]) -> None:
    """Fail every simulation whose outputs differ from an earlier run of its seed.

    ``known`` maps a seed to the digests of its earlier runs of the same
    sources; seeds seen for the first time are added to it.
    """
    for r in records:
        if "digests" not in r:
            continue
        ref = known.setdefault(str(r["seed"]), r["digests"])
        if r["digests"] != ref:
            differ = sorted(k for k in ref if ref[k] != r["digests"].get(k))
            r["problems"].append(f"{', '.join(differ)} differ from an earlier run")
            r["ok"] = False


def checked_digests(workload: str, records: list[dict]) -> None:
    """``check_digests`` against the digest record kept in ``results/``."""
    path = os.path.join(RESULTS, "digests.json")
    try:
        with open(path) as fh:
            book = json.load(fh)
    except (OSError, ValueError):
        book = {}
    known = book.setdefault(source_fingerprint(), {}).setdefault(workload, {})
    check_digests(records, known)
    os.makedirs(RESULTS, exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(book, fh)
    os.replace(path + ".tmp", path)


# -- metrics -------------------------------------------------------------------------

def per_member(records: list[dict], key: str) -> list[float]:
    """One value per ensemble member: the median over that member's runs."""
    by_seed: dict[int, list[float]] = {}
    for r in records:
        if key in r:
            by_seed.setdefault(r["seed"], []).append(r[key])
    return [statistics.median(v) for _, v in sorted(by_seed.items())]


def member_median(records: list[dict], key: str) -> float:
    return statistics.median(per_member(records, key))


def end_to_end(sims: list[dict], setups: list[float]) -> tuple[dict, dict]:
    values = {k: member_median(sims, k) for k in (*HOST, *OUTCOMES)}
    values["setup_s"] = statistics.median(setups)
    detail = {"tick_samples": sum(r["tick_samples"] for r in sims),
              "setup_samples": len(setups), "simulations": len(sims)}
    return values, detail


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its (unit, better), in report order."""
    import layers
    out = {name: (unit, better) for name, unit, better in layers.metric_names()}
    out.update({f"outcome.{k}": v for k, v in OUTCOMES.items()})
    out["trace.overhead_ratio"] = ("ratio", "lower")
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer values: per simulation, median over the traced members."""
    import layers
    rows = [{"seed": r["seed"], **r["layers"]} for r in traced]
    out = {name: member_median(rows, name) for name, _, _ in layers.metric_names()}
    out.update({f"outcome.{k}": member_median(traced, k) for k in OUTCOMES})
    out["trace.overhead_ratio"] = (sum(per_member(traced, "run_s"))
                                   / sum(per_member(untraced, "run_s")))
    return out


# -- the run -------------------------------------------------------------------------

def execute(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    if workload not in workloads.WORKLOADS:
        raise HarnessError(f"unknown workload {workload!r}; "
                           f"choose from {sorted(workloads.WORKLOADS)}")
    members = member_seeds(seed, workloads.ENSEMBLE[workload])
    deadline = time.perf_counter() + seconds
    env = environment()
    env["loadavg_before"] = os.getloadavg()

    setups = [run_worker(workload, seed, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    sims: list[dict] = []
    if trace:
        os.makedirs(os.path.join(RESULTS, "spans"), exist_ok=True)
        for s in members:  # back-to-back pairs, so host drift hits both sides
            spans = os.path.join(RESULTS, "spans", f"{workload}-seed{s}.json")
            sims.append(run_worker(workload, s, trace=True, spans_out=spans))
            sims.append(run_worker(workload, s))
    else:
        for s in members:
            sims.append(run_worker(workload, s))
        cost = {r["seed"]: r["wall_s"] for r in sims}
        j = 0
        while time.perf_counter() + cost[members[j]] <= deadline:
            sims.append(run_worker(workload, members[j]))
            j = (j + 1) % len(members)
    setups += [r["setup_s"] for r in sims if not r["trace"]]
    env["loadavg_after"] = os.getloadavg()
    env["numpy"] = sims[0]["numpy"]

    checked_digests(workload, sims)
    problems = [f"seed {r['seed']}: {p}" for r in sims for p in r["problems"]]
    failed = sum(not r["ok"] for r in sims)
    done = [r for r in sims if "run_s" in r]
    if {r["seed"] for r in done} != set(members) or all(r["trace"] for r in done):
        raise HarnessError("a member never completed, nothing to measure:\n"
                           + "\n".join(problems))
    untraced = [r for r in done if not r["trace"]]
    if trace:
        metrics = per_layer([r for r in done if r["trace"]], untraced)
        units = {k: unit for k, (unit, _) in per_layer_metrics().items()}
        detail = {"simulations": len(sims)}
        reported = list(units)
    else:
        metrics, detail = end_to_end(untraced, setups)
        units = {k: v[0] for k, v in {**HOST, **SETUP, **OUTCOMES}.items()}
        reported = END_TO_END
    return {
        "workload": workload, "seed": seed, "trace": trace, "members": members,
        "seconds": seconds, "environment": env, "detail": detail,
        "attempted": len(sims), "failed": failed,
        "error_rate": failed / len(sims), "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "reported": reported,
        "simulations": sims,
    }


def print_table(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"members {result['members']}  trace {int(result['trace'])}")
    for key, val in sorted(result["detail"].items()):
        print(f"  {key:<40}{val}")
    print(f"  {'error_rate':<40}{result['error_rate']:.4f} "
          f"({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"  {name:<40}{m['value']:>16.6g} {m['unit']}")
    for p in result["problems"]:
        print(f"  PROBLEM {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="meshslam benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=56.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="result file (default: perfbench/results/)")
    args = p.parse_args(argv)

    for need in (os.path.join(SRC, "meshslam", "__init__.py"),
                 os.path.join(ROOT, "scenarios")):
        if not os.path.exists(need):
            print(f"error: {need} is missing; run from a meshslam checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out or os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    print_table(result)
    print(f"result written to {os.path.relpath(out)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: result["metrics"][k] for k in result["reported"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
