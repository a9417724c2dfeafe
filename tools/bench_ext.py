"""Time the two Ext engines on the corpus and check that they agree.

    python3 tools/bench_ext.py [--degrees 5 6 7] [--out BENCH_ext.json]

For each corpus algebra and each degree N, ``ext_by_resolution(A, N)`` (the
minimal resolution behind ``quadalg ext``) and ``bar_homology(A, N)`` (the
reduced bar complex, kept as the oracle) are timed in this process with
``time.perf_counter``.  Every call starts from an empty graded-structure
cache, so it pays for the graded components and products it needs, as one
CLI call does.  The resolution is timed as the best of ``REPEAT`` calls;
the bar complex once.

The bar complex grows by roughly its last growth ratio per degree (at least
8x).  It is timed from degree 1 up, and a degree whose predicted time
exceeds ``BAR_BUDGET_S`` seconds is skipped and recorded as null.  Wherever
both ran, the two tables must be equal; the script exits 1 otherwise.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from quadalg import graded  # noqa: E402
from quadalg.koszul import bar_homology, ext_by_resolution  # noqa: E402
from quadalg.parser import parse  # noqa: E402

BAR_BUDGET_S = 10.0
REPEAT = 3


def timed(fn, A, N: int):
    """(seconds, result) of one call on an empty graded-structure cache."""
    graded._structures.clear()
    t0 = time.perf_counter()
    table = fn(A, N)
    return time.perf_counter() - t0, table


def bench(name: str, A, degrees):
    rows = []
    bar, last, ratio = {}, None, 8.0
    for N in range(1, max(degrees) + 1):
        if last is not None and last * ratio > BAR_BUDGET_S:
            break
        seconds, table = timed(bar_homology, A, N)
        if last:
            ratio = max(8.0, seconds / last)
        last = seconds
        bar[N] = (seconds, table)
    for N in degrees:
        res_s, table = min((timed(ext_by_resolution, A, N)
                            for _ in range(REPEAT)), key=lambda r: r[0])
        bar_s, oracle = bar.get(N, (None, None))
        rows.append({
            "algebra": name, "degree": N, "field": str(A.field),
            "resolution_s": round(res_s, 6),
            "bar_s": None if bar_s is None else round(bar_s, 6),
            "speedup": None if bar_s is None else round(bar_s / res_s, 1),
            "equal": None if oracle is None else oracle == table,
            "ext_total": sum(table.entries.values()),
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degrees", type=int, nargs="+", default=[5, 6, 7])
    ap.add_argument("--out", default=str(ROOT / "BENCH_ext.json"))
    args = ap.parse_args(argv)
    rows = []
    for path in sorted((ROOT / "corpus").glob("*.qa")):
        _, A = parse(path.read_text())
        for row in bench(path.stem, A, args.degrees):
            rows.append(row)
            print(f"{row['algebra']:14} N={row['degree']}  resolution "
                  f"{row['resolution_s']:.4f} s  bar "
                  f"{'skipped' if row['bar_s'] is None else row['bar_s']}"
                  f"  equal {row['equal']}", flush=True)
    record = {
        "what": "ext_by_resolution vs bar_homology on the corpus",
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "settings": {"degrees": args.degrees, "bar_budget_s": BAR_BUDGET_S,
                     "repeat": REPEAT},
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    mismatched = [r for r in rows if r["equal"] is False]
    for r in mismatched:
        print(f"MISMATCH {r['algebra']} N={r['degree']}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
