"""ringfunc benchmark: one workload, one run.

    python3 perfbench/run.py --workload {groups-verify,sweep,queries} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.  The
ops are generated from the seed, then whole passes over them are timed until
S seconds of passes have run (at least one pass).  Every answer is checked
against perfbench/oracle.py outside the timed region.

Times are in reference seconds (perfbench/speed.py): wall time scaled by
the host's speed, sampled every 50 ms, so that a slow spell on a shared host
does not read as a slower program.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the program's
public functions (perfbench/spans.py) and prints the per-layer metrics,
writing every span to perfbench/out/spans-<workload>.jsonl.gz.  Each metric is
printed on its own line with its unit; the last line is the JSON result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("groups-verify", "sweep", "queries")
SETUP_REPEATS = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(sorted_values, pct: int):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def tail_percentile(samples, want: int = 99, beyond: int = 10) -> tuple[int, float]:
    """(pct, value) for the highest whole percentile from `want` down to 50
    that leaves at least `beyond` samples above it; the median if none does."""
    values = sorted(samples)
    n = len(values)
    for pct in range(want, 49, -1):
        if n - max(1, math.ceil(pct * n / 100)) >= beyond:
            return pct, percentile(values, pct)
    return 50, percentile(values, 50)


def setup_probe(workload: str):
    """A function returning the set-up time, in reference seconds, of one
    fresh interpreter that imports ringfunc.cli and builds the workload's
    rings with their operation tables (setup_probe.py, which times itself)."""
    import workloads

    env = {k: v for k, v in os.environ.items() if k != "RINGFUNC_CAP"}
    env["PYTHONPATH"] = str(SRC)
    argv = [sys.executable, str(HERE / "setup_probe.py"), *workloads.RINGS[workload]]

    def probe() -> float:
        done = subprocess.run(argv, env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True)
        return float(done.stdout)

    return probe


def run_passes(ops, seconds: float, clock, tracer=None) -> dict:
    """Time whole passes over `ops` until `seconds` of passes have run.

    `op_times[i]` holds op i's time in each pass as read on `clock`; the
    run's length is wall time.

    Each op's answer is checked after its pass, outside the timed region.
    An op fails when it raises, exits nonzero or answers wrong; `wrong`
    lists the failures the oracle does not know to be false FAILs.
    """
    import oracle

    pass_times = []
    op_times = [[] for _ in ops]
    failed, known, wrong = 0, {}, []
    wall = time.perf_counter
    while True:
        base = len(pass_times) * len(ops)
        answers = []
        start = wall()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = base + i
            t0 = clock()
            try:
                answer = op.run()
            except Exception as exc:  # an op that raises is a failed op
                answer = exc
            op_times[i].append(clock() - t0)
            answers.append(answer)
            if op.fresh_heap:
                gc.collect()
        pass_times.append(wall() - start)
        if tracer is not None:
            tracer.op = None
        for op, answer in zip(ops, answers):
            try:
                op.check(answer)
            except oracle.KnownFalseFail as exc:
                failed += 1
                known[str(exc)] = op.label
            except oracle.OracleError as exc:
                failed += 1
                wrong.append(f"{op.label}: {exc}")
        if sum(pass_times) >= seconds:
            break
    return {
        "pass_times": pass_times,
        "op_times": op_times,
        "attempted": len(pass_times) * len(ops),
        "failed": failed,
        "known": known,
        "wrong": wrong,
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_meta() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ringfunc" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'ringfunc'}; run from the "
              "root of a ringfunc checkout", file=sys.stderr)
        return 2
    # default caps: the benchmark never measures an overridden enumeration cap
    os.environ.pop("RINGFUNC_CAP", None)
    sys.path.insert(0, str(SRC))

    # set-up is timed in fresh interpreters, half before and half after the
    # passes, each in reference seconds, and reported as their median
    probe = setup_probe(args.workload) if not args.trace else None
    setup_times = [probe() for _ in range(SETUP_REPEATS // 2)] if probe else []

    from speed import SpeedClock

    clock = SpeedClock()
    with clock:
        tracer = None
        if args.trace:
            import ringfunc.cli  # noqa: F401  (load every module before patching)
            from spans import Tracer

            tracer = Tracer(clock.now)
            tracer.install()
        import oracle
        import workloads

        make_ops, per_op = workloads.WORKLOADS[args.workload]
        built = workloads.build_rings(args.workload)
        if tracer is not None:
            tracer.op = None
        ops = make_ops(args.seed, built)
        result = run_passes(ops, args.seconds, clock.now, tracer)
    if probe:
        setup_times += [probe() for _ in range(SETUP_REPEATS - len(setup_times))]

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine_meta(), "passes": len(result["pass_times"]),
            "ops_per_pass": len(ops),
            "wall_pass_median_s": statistics.median(result["pass_times"]),
            "kernel_median_us": statistics.median(clock.kernel_s) * 1e6,
            "kernel_ticks": len(clock.kernel_s)}
    # each op at its median over the run's passes, in reference seconds, and
    # a pass as the sum of those; the first, cold pass (module caches still
    # empty) is outvoted wherever three passes fit
    typical = [statistics.median(times) for times in result["op_times"]]
    wall_s = sum(typical)
    lines = []
    if tracer is None:
        if per_op:
            lat_us = [t * 1e6 for t in typical]
        else:
            lat_us = [wall_s * 1e6]
        tail_pct, tail_us = tail_percentile(lat_us)
        meta["op_samples"] = len(lat_us)
        meta["op_p99_us_is_percentile"] = tail_pct
        values = {
            "wall_s": wall_s,
            "op_p50_us": percentile(sorted(lat_us), 50),
            "op_p99_us": tail_us,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        from spans import LAYER_METRICS

        layer = tracer.layer_metrics(len(ops), len(result["pass_times"]))
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in layer.items()}
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        meta["spans"] = len(tracer.spans)
        meta["absent"] = tracer.absent_metrics()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.jsonl.gz", meta)
        if meta["absent"]:
            lines.append("absent (not in this program, reported as 0): "
                         + ", ".join(meta["absent"]))

    lines.insert(0, "meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    lines.append(f"failed_ratio {result['failed'] / result['attempted']:.6g} "
                 f"({result['failed']} of {result['attempted']} ops)")
    for check, label in result["known"].items():
        why = oracle.KNOWN_FALSE_FAILS.get(check, "see perfbench/NOTES.md")
        lines.append(f"known false FAIL {check} from `{label}`: {why}")
    lines.extend(f"WRONG {w}" for w in result["wrong"][:20])
    print("\n".join(lines))
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
