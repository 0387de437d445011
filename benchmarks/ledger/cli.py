"""Command line of the ledger: the driver contract, the suite, repeats
and the comparison."""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from ledger import report, spec
from ledger.workloads import WORKLOADS
from ledger.workloads.base import run_workload

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

#: ``--smoke`` measures for this long per pass, on a tenth of the data.
SMOKE_SECONDS = 1.0


def environment(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name](seed=seed, smoke=smoke, seconds=seconds)
    return run_workload(
        workload, seconds, trace,
        trace_dir=os.path.join(OUT_DIR, "trace") if trace else None,
    )


def run_suite(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """All workloads once; returns the suite record (baseline format)."""
    suite = {"schema": 1, "environment": environment(seed, seconds), "workloads": {}}
    for name in WORKLOADS:
        started = time.perf_counter()
        result = run_one(name, seed, seconds, trace, smoke)
        result["wall_s"] = time.perf_counter() - started
        suite["workloads"][name] = result
        report.print_workload(result)
        print(f"   ({name}: {result['wall_s']:.1f} s wall, set-up "
              f"{result['end_to_end']['setup_s']:.1f} s)\n", flush=True)
    return suite


def driver_line(result: dict, trace: bool) -> str:
    """The one JSON object the driver reads."""
    if trace:
        values = result["per_layer"]
        metrics = {
            m.name: {
                "value": float(values.get(
                    m.name, 0.0 if m.unit in spec.ADDITIVE_UNITS else spec.NOT_MEASURED
                )),
                "unit": m.unit,
            }
            for m in spec.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": float(result["end_to_end"][m.name]), "unit": m.unit}
            for m in spec.END_TO_END
        }
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare OLD.json NEW.json", file=sys.stderr)
            return 2
        return 1 if report.compare(argv[1], argv[2]) else 0
    if argv and argv[0] == "manifest":
        print(json.dumps(spec.manifest(), indent=2))
        return 0

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the suite N times and print the run-to-run spread")
    parser.add_argument("--no-trace", action="store_true",
                        help="suite mode: skip the traced pass (end-to-end only)")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the data and one second per pass")
    parser.add_argument("--out", help="write the suite record(s) as JSON here")
    args = parser.parse_args(argv)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds

    if args.workload:
        trace = bool(args.trace)
        result = run_one(args.workload, args.seed, seconds, trace, args.smoke)
        report.print_workload(result)
        print(driver_line(result, trace), flush=True)
        return 0  # the verdict is in the line: "correct" and "failed"

    runs = []
    for index in range(args.repeat):
        if args.repeat > 1:
            print(f"#### run {index + 1} of {args.repeat}\n")
        runs.append(run_suite(args.seed, seconds, not args.no_trace, args.smoke))
    if args.repeat > 1:
        report.print_spread(runs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs} if args.repeat > 1 else runs[0], handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
    failed = sum(r["failed"] for run in runs for r in run["workloads"].values())
    return 1 if failed else 0
