"""Time `hilbert` over Q against the exact graded structure.

    python3 tools/bench_hilbert.py [--seeds 3] [--out BENCH_hilbert.json]

For each input and degree N, the exact dimensions (a fresh
``GradedStructure`` over Q, degrees 0..N) and ``hilbert(A, N)`` (the
modular certificate, with the exact structure as its fallback) are timed
in this process with ``time.perf_counter``, each as the best of ``REPEAT``
calls on an empty graded-structure cache.  Each row records whether the
certificate answered or ``hilbert`` fell back, and whether the two agree;
the script exits 1 if any pair of answers differs.

Inputs: the Q algebras of the corpus to degree 6, and seeded random Q
presentations with integer coefficients in -3..3: n = 3 generators with
k = 2, 3 relations to degree 7, and n = 4 with k = 4, 5, 6 to degree 5,
``--seeds`` presentations per (n, k).  Standard library only.
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
from quadalg.fields import QQ  # noqa: E402
from quadalg.linalg import Subspace  # noqa: E402
from quadalg.parser import parse  # noqa: E402
from quadalg.presentations import QuadraticPresentation  # noqa: E402

REPEAT = 3
CORPUS_DEGREE = 6
# (generators, relation counts, degree)
FAMILIES = [(3, (2, 3), 7), (4, (4, 5, 6), 5)]


def exact_dims(A, N: int):
    gs = graded.GradedStructure(A)
    return [gs.dim(m) for m in range(N + 1)]


def timed(fn, A, N: int):
    """(seconds, result): the best of REPEAT calls on an empty cache."""
    best = None
    for _ in range(REPEAT):
        graded._structures.clear()
        t0 = time.perf_counter()
        dims = fn(A, N)
        seconds = time.perf_counter() - t0
        best = seconds if best is None else min(best, seconds)
    return best, dims


def random_presentation(rng: random.Random, n: int, k: int):
    rows = [[rng.randint(-3, 3) for _ in range(n * n)] for _ in range(k)]
    return QuadraticPresentation(QQ, "abcd"[:n],
                                 Subspace.span(QQ, rows, n * n))


def inputs(seeds: int):
    """(name, family, presentation, degree) for every benchmarked input."""
    for path in sorted((ROOT / "corpus").glob("*.qa")):
        _, A = parse(path.read_text())
        if A.field == QQ:
            yield path.stem, "corpus", A, CORPUS_DEGREE
    for n, ks, N in FAMILIES:
        for k in ks:
            for seed in range(seeds):
                rng = random.Random(f"hilbert:{n}:{k}:{seed}")
                yield (f"n{n}k{k}s{seed}", f"random n={n} k={k}",
                       random_presentation(rng, n, k), N)


def bench(name, family, A, N: int):
    exact_s, exact = timed(exact_dims, A, N)
    hilbert_s, dims = timed(graded.hilbert, A, N)
    return {
        "input": name, "family": family, "n": A.n, "k": A.R.dim,
        "degree": N,
        "certified": graded.certified_hilbert(A, N) is not None,
        "exact_s": round(exact_s, 6), "hilbert_s": round(hilbert_s, 6),
        "speedup": round(exact_s / hilbert_s, 1),
        "equal": dims == exact, "dims": exact,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--out", default=str(ROOT / "BENCH_hilbert.json"))
    args = ap.parse_args(argv)
    rows = []
    for name, family, A, N in inputs(args.seeds):
        row = bench(name, family, A, N)
        rows.append(row)
        print(f"{name:12} N={N}  exact {row['exact_s']:.4f} s  hilbert "
              f"{row['hilbert_s']:.4f} s  "
              f"{'certified' if row['certified'] else 'fell back'}  "
              f"equal {row['equal']}", flush=True)
    record = {
        "what": "hilbert (certificate mod p, exact fallback) vs the exact "
                "GradedStructure over Q",
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "settings": {"seeds": args.seeds, "repeat": REPEAT,
                     "corpus_degree": CORPUS_DEGREE,
                     "families": FAMILIES, "cert_p": graded.CERT_P},
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    mismatched = [r for r in rows if not r["equal"]]
    for r in mismatched:
        print(f"MISMATCH {r['input']} N={r['degree']}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
