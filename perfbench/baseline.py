"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10
    python3 perfbench/baseline.py --workloads graded-cold --seeds 1-5
    python3 perfbench/baseline.py --seeds 1-10 --write perfbench/baseline.json

For every workload and end-to-end metric it prints the median and the
quartile spread (q3 - q1) / median of the per-seed values, next to the
bound in BENCHMARK.json.  ``--write`` also makes one traced run per
workload and stores everything, with machine info, git revision and the
per-layer -> end-to-end map, as a JSON baseline.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402


def spread(values):
    """Quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(spec, workload, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        rows[name] = {"median": statistics.median(values),
                      "spread": spread(values), "bound": bound,
                      "values": values}
        flag = "" if rows[name]["spread"] < bound / 3 else "  <-- wide"
        print(f"{workload:12s} {name:14s} median {rows[name]['median']:<12.6g}"
              f" spread {rows[name]['spread']:6.3f}  bound {bound}{flag}"
              f"  [{' '.join(f'{v:.4g}' for v in values)}]", flush=True)
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"{workload:12s} failed {failed} of {attempted} jobs", flush=True)
    return rows, failed, attempted


def machine():
    import numpy
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "git_rev": rev}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--write", help="baseline JSON file to write")
    args = ap.parse_args(argv)

    report = {"machine": machine(), "run_seconds": args.seconds,
              "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, args.seconds, 0) for s in args.seeds]
        rows, failed, attempted = summarize(spec, workload, results)
        report["workloads"][workload] = {
            "end_to_end": rows, "failed": failed, "attempted": attempted}
        if args.write:
            traced = run_once(workload, args.seeds[0], args.seconds, 1)
            report["workloads"][workload]["per_layer"] = {
                "seed": args.seeds[0],
                "values": {k: v["value"] for k, v in
                           traced["metrics"].items()}}
    if args.write:
        report["per_layer_moves"] = {
            name: {"moves": moves, "workloads": where}
            for name, (_, _, moves, where) in PER_LAYER.items()}
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
