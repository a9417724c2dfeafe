"""Time the matrix product, the rank and the d∘d check over Q and GF(p).

    python3 tools/bench_linalg.py [--seeds 3] [--out BENCH_linalg.json]

The matrices are the differentials of the second Koszul complex
(``koszul.second_complex_slice``) in internal degrees 1..N, built once per
input and degree outside the timed region.  On them three operations are
timed in this process with ``time.perf_counter``, each as the best of
``REPEAT`` passes:

- ``matmul``: every composite ``d[t+1] @ d[t]`` (``Matrix.__matmul__``);
- ``rank``: ``matrix_rank`` of every differential;
- ``dd_check``: ``ComplexSlice`` construction, which checks d∘d = 0.

Each input runs over Q and over its GF(32003) twin, the same presentation
with its relation coefficients reduced mod p, and each row records the
Q/GF ratio of every timing; ``totals`` sums each family.  Inputs: the Q
algebras of the corpus to degree 8, and seeded random Q presentations on 3
generators with integer coefficients in -3..3 and k = 2..6 relations to
degree 5, ``--seeds`` presentations per k.  The script exits 1 if the two
fields disagree on a complex's position dimensions, since the ratio would
then compare different complexes.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from quadalg import graded  # noqa: E402
from quadalg.fields import QQ, PrimeField  # noqa: E402
from quadalg.koszul import ComplexSlice, second_complex_slice  # noqa: E402
from quadalg.linalg import Subspace, matrix_rank  # noqa: E402
from quadalg.parser import parse  # noqa: E402
from quadalg.presentations import QuadraticPresentation  # noqa: E402

REPEAT = 5
GF = PrimeField(32003)
CORPUS_DEGREE = 8
# (generators, relation counts, degree)
FAMILY = (3, (2, 3, 4, 5, 6), 5)
OPS = ("matmul", "rank", "dd_check")


def gf_twin(A):
    rows = [[GF.coerce(x) for x in row] for row in A.R.basis.data]
    return QuadraticPresentation(GF, A.labels,
                                 Subspace.span(GF, rows, A.n * A.n))


def random_presentation(rng: random.Random, n: int, k: int):
    rows = [[rng.randint(-3, 3) for _ in range(n * n)] for _ in range(k)]
    return QuadraticPresentation(QQ, "abcd"[:n],
                                 Subspace.span(QQ, rows, n * n))


def inputs(seeds: int):
    """(name, family, Q presentation, degree) for every benchmarked input."""
    for path in sorted((ROOT / "corpus").glob("*.qa")):
        _, A = parse(path.read_text())
        if A.field == QQ:
            yield path.stem, "corpus", A, CORPUS_DEGREE
    n, ks, N = FAMILY
    for k in ks:
        for seed in range(seeds):
            rng = random.Random(f"linalg:{n}:{k}:{seed}")
            yield (f"n{n}k{k}s{seed}", f"random n={n} k={k}",
                   random_presentation(rng, n, k), N)


def best(fn):
    """The least of REPEAT timings of fn()."""
    out = None
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        seconds = time.perf_counter() - t0
        out = seconds if out is None else min(out, seconds)
    return out


def time_ops(A, N: int):
    """(per-op seconds summed over degrees 1..N, position dims, stats)."""
    graded._structures.clear()
    slices = [second_complex_slice(A, m) for m in range(1, N + 1)]
    pairs = [(d, e) for sl in slices
             for d, e in zip(sl.differentials, sl.differentials[1:])]
    maps = [d for sl in slices for d in sl.differentials]
    seconds = {
        "matmul": best(lambda: [e @ d for d, e in pairs]),
        "rank": best(lambda: [matrix_rank(d) for d in maps]),
        "dd_check": best(lambda: [
            ComplexSlice(sl.position_dims, sl.differentials,
                         sl.internal_degree) for sl in slices]),
    }
    stats = {"products": len(pairs), "differentials": len(maps),
             "cells": sum(d.rows * d.cols for d in maps),
             "nnz": sum(sum(map(len, d.sparse)) for d in maps)}
    return seconds, [sl.position_dims for sl in slices], stats


def bench(name, family, A, N: int):
    q_s, q_dims, stats = time_ops(A, N)
    gf_s, gf_dims, _ = time_ops(gf_twin(A), N)
    return {
        "input": name, "family": family, "n": A.n, "k": A.R.dim,
        "degree": N, **stats,
        "q_s": {op: round(q_s[op], 6) for op in OPS},
        "gf_s": {op: round(gf_s[op], 6) for op in OPS},
        "q_over_gf": {op: round(q_s[op] / gf_s[op], 2) for op in OPS},
        "same_dims": q_dims == gf_dims,
    }


def totals(rows):
    """Per family: summed Q and GF seconds of each op and their ratio."""
    out = {}
    for family in dict.fromkeys(r["family"] for r in rows):
        mine = [r for r in rows if r["family"] == family]
        q = {op: sum(r["q_s"][op] for r in mine) for op in OPS}
        gf = {op: sum(r["gf_s"][op] for r in mine) for op in OPS}
        out[family] = {
            "q_s": {op: round(q[op], 6) for op in OPS},
            "gf_s": {op: round(gf[op], 6) for op in OPS},
            "q_over_gf": {op: round(q[op] / gf[op], 2) for op in OPS},
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--out", default=str(ROOT / "BENCH_linalg.json"))
    args = ap.parse_args(argv)
    rows = []
    for name, family, A, N in inputs(args.seeds):
        row = bench(name, family, A, N)
        rows.append(row)
        print(f"{name:12} N={N}  " + "  ".join(
            f"{op} {row['q_s'][op]:.4f}/{row['gf_s'][op]:.4f} s "
            f"({row['q_over_gf'][op]}x)" for op in OPS), flush=True)
    summary = totals(rows)
    for family, t in summary.items():
        print(f"total {family}: " + "  ".join(
            f"{op} Q/GF {t['q_over_gf'][op]}x" for op in OPS))
    record = {
        "what": "Matrix.__matmul__, matrix_rank and the d∘d check on "
                "second-complex differentials, Q against GF(32003)",
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "settings": {"seeds": args.seeds, "repeat": REPEAT, "gf_p": GF.p,
                     "corpus_degree": CORPUS_DEGREE, "family": FAMILY},
        "totals": summary,
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    mismatched = [r for r in rows if not r["same_dims"]]
    for r in mismatched:
        print(f"MISMATCH {r['input']} N={r['degree']}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
