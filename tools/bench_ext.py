"""Time the two Ext engines on the corpus and generic inputs, and check
that they agree.

    python3 tools/bench_ext.py [--degrees 5 6 7] [--generic-degrees 3 4 5]
                               [--out BENCH_ext.json]

For each corpus algebra and each degree N, and for three generic
4-generator Q presentations (``perfbench.workloads.random_relations``,
k = 4, 5, 6 relations, seeded) and each of ``--generic-degrees``,
``ext_by_resolution(A, N)`` (the engine behind ``quadalg ext``) and
``bar_homology(A, N)`` (the reduced bar complex, kept as the oracle) are
timed in this process with ``time.perf_counter``.  Every call starts from
empty caches (``graded._structures`` and ``dual``), so it pays for the
graded components and products it needs, as one CLI call does.  The
resolution is run ``REPEAT`` times and its row records the median and the
quartiles; the bar complex is timed once.  The ``certified`` column says
whether the table came from the reduction mod p (``certified_ext``) rather
than from the exact resolution over the input's field.

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
import statistics
import sys
import time
from random import Random

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench.workloads import qa_text, random_relations  # noqa: E402
from quadalg import graded  # noqa: E402
from quadalg.koszul import (bar_homology, certified_ext,  # noqa: E402
                            ext_by_resolution)
from quadalg.parser import parse  # noqa: E402
from quadalg.presentations import dual  # noqa: E402

BAR_BUDGET_S = 10.0
REPEAT = 5
GENERIC_SEED = 16


def timed(fn, A, N: int):
    """(seconds, result) of one call on empty caches."""
    graded._structures.clear()
    dual.cache_clear()
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
        runs = [timed(ext_by_resolution, A, N) for _ in range(REPEAT)]
        q1, median, q3 = statistics.quantiles([s for s, _ in runs], n=4)
        table = runs[0][1]
        bar_s, oracle = bar.get(N, (None, None))
        rows.append({
            "algebra": name, "degree": N, "field": str(A.field),
            "certified": certified_ext(A, N) is not None,
            "resolution_s": round(median, 6),
            "resolution_q1_s": round(q1, 6),
            "resolution_q3_s": round(q3, 6),
            "bar_s": None if bar_s is None else round(bar_s, 6),
            "speedup": None if bar_s is None else round(bar_s / median, 1),
            "equal": None if oracle is None else oracle == table,
            "ext_total": sum(table.entries.values()),
        })
    return rows


def inputs(generic_degrees):
    """(name, presentation, degrees) for the corpus and the generic rows."""
    for path in sorted((ROOT / "corpus").glob("*.qa")):
        yield path.stem, parse(path.read_text())[1], None
    rng = Random(GENERIC_SEED)
    for k in (4, 5, 6):
        name = f"generic4_k{k}"
        gens, rels = random_relations(rng, 4, k)
        yield name, parse(qa_text(name, "Q", gens, rels))[1], generic_degrees


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degrees", type=int, nargs="+", default=[5, 6, 7])
    ap.add_argument("--generic-degrees", type=int, nargs="+",
                    default=[3, 4, 5])
    ap.add_argument("--out", default=str(ROOT / "BENCH_ext.json"))
    args = ap.parse_args(argv)
    rows = []
    for name, A, degrees in inputs(args.generic_degrees):
        for row in bench(name, A, degrees or args.degrees):
            rows.append(row)
            print(f"{row['algebra']:14} N={row['degree']}  resolution "
                  f"{row['resolution_s']:.4f} s  bar "
                  f"{'skipped' if row['bar_s'] is None else row['bar_s']}"
                  f"  equal {row['equal']}  certified {row['certified']}",
                  flush=True)
    record = {
        "what": "ext_by_resolution vs bar_homology on the corpus and on "
                "generic 4-generator Q presentations",
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "settings": {"degrees": args.degrees,
                     "generic_degrees": args.generic_degrees,
                     "generic_seed": GENERIC_SEED,
                     "bar_budget_s": BAR_BUDGET_S, "repeat": REPEAT,
                     "resolution_s": "median of the repeats, with the "
                                     "quartiles beside it"},
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
