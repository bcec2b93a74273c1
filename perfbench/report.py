"""Run perfbench/run.py over workloads and seeds and summarize the runs.

    python3 perfbench/report.py [--workloads groups-verify,sweep,queries]
        [--seeds 1-10] [--seconds 10] [--trace 0|1|both]

For each workload and metric it prints the median over the runs and the
quartile spread, (Q3 - Q1) / median with Q1, Q3 from
statistics.quantiles(values, n=4), and the bound from BENCHMARK.json.
With --trace both it also prints the tracing overhead: the median traced
pass (trace.wall_s) minus the median untraced pass (wall_s).  Every run's
result line is written to perfbench/out/report.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[0].split(" ", 1)[1])
    return {"meta": meta, "elapsed_s": elapsed, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="groups-verify,sweep,queries")
    parser.add_argument("--seeds", default="1-10", help="a seed or a range like 1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    runs = []
    for workload in args.workloads.split(","):
        for trace in traces:
            for seed in _seeds(args.seeds):
                run = run_once(workload, seed, seconds, trace)
                res = run["result"]
                print(f"# {workload} trace={trace} seed={seed} "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                      f"elapsed={run['elapsed_s']:.1f}s", flush=True)
                runs.append(run)
        print(f"\n{workload}: median, quartile spread, bound")
        medians = {}
        for trace in traces:
            rows = [r["result"]["metrics"] for r in runs
                    if r["meta"]["workload"] == workload and r["meta"]["trace"] == trace]
            for name, first in rows[0].items():
                values = [row[name]["value"] for row in rows]
                medians[name] = statistics.median(values)
                cell = f"{spread(values):.4f}" if len(values) > 1 else "-"
                bound = bounds.get(name, "")
                print(f"  {name:48s} {medians[name]:14.6g} {first['unit']:6s} {cell:>8s} {bound}")
        if "trace.wall_s" in medians and "wall_s" in medians:
            over = medians["trace.wall_s"] - medians["wall_s"]
            print(f"  tracing overhead: {over:.4g} s per pass "
                  f"({over / medians['wall_s']:.1%} of wall_s)")
        print(flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
