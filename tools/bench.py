"""Time quadalg's engines layer by layer, each against an independent oracle.

    python3 tools/bench.py {ext,hilbert,koszul,linalg,products}
                           [--seeds S] [--degrees N ...]
                           [--out BENCH_<name>.json]

- ``ext``: ``ext_by_resolution(A, N)`` (the engine behind ``quadalg ext``)
  against ``bar_homology(A, N)`` (the reduced bar complex, the oracle) on
  the whole corpus and on generic 4-generator Q presentations.  The bar
  complex grows by roughly its last growth ratio per degree (at least 8x);
  it is timed from degree 1 up and stops before a degree whose predicted
  time exceeds ``BAR_BUDGET_S``, leaving ``agree`` null there.  The
  ``certified`` column says whether the table came from the reduction
  mod p (``certified_ext``).
- ``hilbert``: ``hilbert(A, N)`` (the modular certificate, with the exact
  structure as its fallback) against a fresh exact ``GradedStructure`` over
  Q; ``certified`` says whether ``certified_reduction`` answered.
- ``koszul``: ``koszul_verdict(A, N)`` (the engine behind ``quadalg
  koszul``, which over Q reads a degree off the reduction mod p where
  ``certified_twin`` allows) against the exact ``homology_report(A, m)``
  for m = 1..N, on the whole corpus and on generic 4-generator Q
  presentations and their GF(``workloads.GF_P``) twins; ``agree`` says
  the reports are the same.
- ``linalg``: ``Matrix.__matmul__`` on every composite ``d[t+1] @ d[t]``,
  ``matrix_rank`` of every differential and ``ComplexSlice`` construction
  (the d∘d check) on the second Koszul complex in internal degrees 1..N,
  built once outside the timed region, over Q and over the input's
  GF(``workloads.GF_P``) twin; ``agree`` says the two fields gave the same
  position dimensions, without which the Q/GF ratios would compare
  different complexes.
- ``products``: ``white``, ``black`` and ``internal_hom`` (the closed-form
  RREF bases) against the same relations reduced by ``rref`` from their
  stacked spanning rows, on every ordered pair of corpus algebras over
  one field and on 3-generator pairs with the relation counts of
  ``workloads.HOM_RELATIONS``, over Q and over their GF(``GF_P``) twins.
  Its ``unparse`` column times printing each ``internal_hom`` result,
  which must parse back to it.

Inputs: the corpus (Q algebras only, except for ``ext``, ``koszul`` and
``products``) and ``--seeds`` seeded presentations per family of
``INPUTS``, drawn by ``perfbench.workloads.random_relations``; a twin over
GF(p) is parsed from the same integer relations, as
``perfbench.workloads.twins`` writes it.  ``--degrees`` replaces the
degrees of every input (``products`` has none).  Every timing is the
median and quartiles, to three significant digits, of ``REPEAT`` calls in
this process, each on empty caches, so it pays for the graded components,
products and Koszul reports it needs, as one CLI call does.  The machine
record holds ``ref_s``, the median time of a fixed integer elimination
that runs no quadalg code, so that recordings on hosts of different speed
can be compared; each row holds its own ``ref_s``, the mean of one run of
that elimination just before and one just after the row, so that a slow
phase of the host shows in the rows it slowed.  The record goes to
``--out``; the script prints ``MISMATCH`` and exits 1 if an engine and its
oracle disagree.  Standard library only.
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

from perfbench.workloads import (GF_P, HOM_RELATIONS, qa_text,  # noqa: E402
                                 random_relations)
from quadalg import clear_caches, graded  # noqa: E402
from quadalg.koszul import (ComplexSlice, bar_homology,  # noqa: E402
                            certified_ext, ext_by_resolution,
                            homology_report, koszul_verdict,
                            second_complex_slice)
from quadalg.linalg import Matrix, Subspace, matrix_rank  # noqa: E402
from quadalg.parser import parse, unparse  # noqa: E402
from quadalg.presentations import (black, dual, internal_hom,  # noqa: E402
                                   white)
from quadalg.tensorindex import (kron, push_subspace, t23,  # noqa: E402
                                 tensor_subspace)

REPEAT = 5
BAR_BUDGET_S = 10.0
# subcommand -> (corpus degrees, [(generators, relation counts, degrees)],
# default --seeds)
INPUTS = {
    "ext": ((5, 6, 7), [(4, (4, 5, 6), (3, 4, 5))], 1),
    "hilbert": ((6,), [(3, (2, 3), (7,)), (4, (4, 5, 6), (5,))], 3),
    "koszul": ((5,), [(4, (4, 5, 6), (5,))], 1),
    "linalg": ((8,), [(3, (2, 3, 4, 5, 6), (5,))], 3),
    "products": ((), [(3, tuple(HOM_RELATIONS), ())], 3),
}
OPS = ("matmul", "rank", "dd_check")


def timed(fn, *args):
    """({median_s, q1_s, q3_s}, result) of REPEAT calls on empty caches."""
    times = []
    for _ in range(REPEAT):
        clear_caches()
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    q1, median, q3 = (float(f"{s:.3g}")
                      for s in statistics.quantiles(times, n=4))
    return {"median_s": median, "q1_s": q1, "q3_s": q3}, result


def reference_loop() -> int:
    """Rank of a seeded 64x64 matrix mod 32003, eliminated in plain Python."""
    p, rng = 32003, Random(0)
    rows = [[rng.randrange(p) for _ in range(64)] for _ in range(64)]
    rank = 0
    for col in range(64):
        pivot = next((r for r in range(rank, 64) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(64):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def reference_s() -> float:
    """Seconds of one ``reference_loop`` run."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def machine() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(), "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "dont_write_bytecode": sys.flags.dont_write_bytecode,
            "optimize": sys.flags.optimize,
            "ref_s": timed(reference_loop)[0]["median_s"]}


def load(name: str, field: str, gens: str, rels):
    return parse(qa_text(name, field, gens, rels))[1]


def corpus():
    """(name, field, gens, rels) of every corpus file."""
    for path in sorted((ROOT / "corpus").glob("*.qa")):
        lines = path.read_text().splitlines()
        spec = dict(line.split(" ", 1) for line in lines
                    if line.startswith(("field ", "gens ")))
        yield (path.stem, spec["field"], spec["gens"],
               [line[4:] for line in lines if line.startswith("rel ")])


def inputs(bench: str, seeds: int, degrees):
    """(name, family, field, gens, rels, degrees) of every input."""
    if bench == "products":
        yield from product_inputs(seeds)
        return
    corpus_degrees, families, _ = INPUTS[bench]
    for name, field, gens, rels in corpus():
        if bench in ("ext", "koszul") or field == "Q":
            yield (name, "corpus", field, gens, rels,
                   degrees or corpus_degrees)
    for n, ks, family_degrees in families:
        for k in ks:
            for seed in range(seeds):
                gens, rels = random_relations(
                    Random(f"{bench}:{n}:{k}:{seed}"), n, k)
                yield (f"n{n}k{k}s{seed}", f"random n={n} k={k}", "Q", gens,
                       rels, degrees or family_degrees)


def bench_ext(name, family, field, gens, rels, degrees):
    A = load(name, field, gens, rels)
    bar, last, ratio = {}, None, 8.0
    for N in range(1, max(degrees) + 1):
        if last is not None and last * ratio > BAR_BUDGET_S:
            break
        bar[N] = timed(bar_homology, A, N)
        seconds = bar[N][0]["median_s"]
        if last:
            ratio = max(8.0, seconds / last)
        last = seconds
    for N in degrees:
        resolution, table = timed(ext_by_resolution, A, N)
        bar_t, oracle = bar.get(N, (None, None))
        yield {"input": name, "family": family, "field": field, "degree": N,
               "certified": certified_ext(A, N) is not None,
               "resolution": resolution, "bar": bar_t,
               "speedup": None if bar_t is None else round(
                   bar_t["median_s"] / resolution["median_s"], 1),
               "agree": None if bar_t is None else oracle == table,
               "ext_total": sum(table.entries.values())}


def exact_dims(A, N: int):
    gs = graded.GradedStructure(A.R)
    return [gs.dim(m) for m in range(N + 1)]


def bench_hilbert(name, family, field, gens, rels, degrees):
    A = load(name, field, gens, rels)
    for N in degrees:
        exact, oracle = timed(exact_dims, A, N)
        hilbert, dims = timed(graded.hilbert, A, N)
        yield {"input": name, "family": family, "n": A.n, "k": A.R.dim,
               "degree": N,
               "certified": graded.certified_reduction(A, N) is not None,
               "exact": exact, "hilbert": hilbert,
               "speedup": round(exact["median_s"] / hilbert["median_s"], 1),
               "agree": dims == oracle, "dims": oracle}


def exact_reports(A, N: int):
    return [homology_report(A, m) for m in range(1, N + 1)]


def bench_koszul(name, family, field, gens, rels, degrees):
    # a generic presentation runs over Q and over its GF twin
    for fld in [field] + [f"GF {GF_P}"] * (family != "corpus"):
        A = load(name, fld, gens, rels)
        for N in degrees:
            verdict, (reports, koszul) = timed(koszul_verdict, A, N)
            exact, oracle = timed(exact_reports, A, N)
            yield {"input": name, "family": family, "field": fld,
                   "degree": N,
                   "certified": graded.certified_twin(A, N) is not None,
                   "verdict": verdict, "exact": exact,
                   "speedup": round(exact["median_s"]
                                    / verdict["median_s"], 1),
                   "agree": reports == oracle, "koszul": koszul}


def time_ops(A, N: int):
    """(per-op timings over degrees 1..N, position dims, sizes)."""
    slices = [second_complex_slice(A, m) for m in range(1, N + 1)]
    pairs = [(d, e) for sl in slices
             for d, e in zip(sl.differentials, sl.differentials[1:])]
    maps = [d for sl in slices for d in sl.differentials]
    ops = {"matmul": lambda: [e @ d for d, e in pairs],
           "rank": lambda: [matrix_rank(d) for d in maps],
           "dd_check": lambda: [ComplexSlice(sl.position_dims,
                                             sl.differentials,
                                             sl.internal_degree)
                                for sl in slices]}
    sizes = {"products": len(pairs), "differentials": len(maps),
             "cells": sum(d.rows * d.cols for d in maps),
             "nnz": sum(sum(map(len, d.sparse)) for d in maps)}
    return ({op: timed(fn)[0] for op, fn in ops.items()},
            [sl.position_dims for sl in slices], sizes)


def bench_linalg(name, family, field, gens, rels, degrees):
    A = load(name, field, gens, rels)
    twin = load(name, f"GF {GF_P}", gens, rels)
    for N in degrees:
        q, q_dims, sizes = time_ops(A, N)
        gf, gf_dims, _ = time_ops(twin, N)
        yield {"input": name, "family": family, "n": A.n, "k": A.R.dim,
               "degree": N, **sizes, "q": q, "gf": gf,
               "q_over_gf": {op: round(q[op]["median_s"]
                                       / gf[op]["median_s"], 2)
                             for op in OPS},
               "agree": q_dims == gf_dims}


def q_over_gf_by_family(rows) -> dict:
    """Per family: the Q/GF ratio of each op's summed median times."""
    out = {}
    for family in dict.fromkeys(r["family"] for r in rows):
        mine = [r for r in rows if r["family"] == family]
        out[family] = {op: round(
            sum(r["q"][op]["median_s"] for r in mine)
            / sum(r["gf"][op]["median_s"] for r in mine), 2) for op in OPS}
    return out


def product_inputs(seeds: int):
    """(name, family, field, U, V) of every pair ``bench_products`` runs."""
    algebras = [(name, field, load(name, field, gens, rels))
                for name, field, gens, rels in corpus()]
    for u, field, U in algebras:
        for v, other, V in algebras:
            if other == field:
                yield f"{u},{v}", "corpus", field, U, V
    (n, counts, _), = INPUTS["products"][1]
    for seed in range(seeds):
        for pair, (ku, kv) in enumerate(counts):
            rng = Random(f"products:{n}:{pair}:{seed}")
            u, v = random_relations(rng, n, ku), random_relations(rng, n, kv)
            for field in ("Q", f"GF {GF_P}"):
                yield (f"h{pair}s{seed}", f"random n={n} k={ku},{kv}", field,
                       load("u", field, *u), load("v", field, *v))


def white_by_stacking(A, B) -> Subspace:
    """white(A, B)'s relations: the t23-shuffled spanning rows of
    V_A^2 (x) R_B and R_A (x) V_B^2, stacked and reduced by ``rref``."""
    f, na2, nb2 = A.field, A.n * A.n, B.n * B.n
    image = t23(A.n, B.n)
    rows = [{image[j]: x for j, x in row.items()}
            for half in (kron(Matrix.identity(f, na2), B.R.basis),
                         kron(A.R.basis, Matrix.identity(f, nb2)))
            for row in half.sparse]
    return Subspace(na2 * nb2, Matrix.from_rows(f, rows, na2 * nb2))


def black_by_push(A, B) -> Subspace:
    """black(A, B)'s relations: R_A (x) R_B pushed by t23 and reduced."""
    return push_subspace(t23(A.n, B.n), tensor_subspace(A.R, B.R))


def hom_by_stacking(U, V) -> Subspace:
    return white_by_stacking(V, dual(U))


# product -> (engine, stacked-rows-then-rref reference)
PRODUCTS = {"white": (white, white_by_stacking),
            "black": (black, black_by_push),
            "hom": (internal_hom, hom_by_stacking)}


def bench_products(name, family, field, U, V):
    row = {"input": name, "family": family, "field": field,
           "n": [U.n, V.n], "k": [U.R.dim, V.R.dim], "agree": True}
    for product, (engine, reference) in PRODUCTS.items():
        closed_form, got = timed(engine, U, V)
        rref, want = timed(reference, U, V)
        row[product] = {"closed_form": closed_form, "rref": rref,
                        "speedup": round(rref["median_s"]
                                         / closed_form["median_s"], 1)}
        row["agree"] = row["agree"] and got.R == want
    # printing the hom result (got, as "hom" comes last in PRODUCTS), as
    # the CLI's hom does; the text must parse back to it
    row["unparse"], text = timed(unparse, "hom", got)
    row["agree"] = row["agree"] and parse(text)[1] == got
    yield row


BENCHES = {
    "ext": ("ext_by_resolution vs bar_homology on the corpus and on generic "
            "4-generator Q presentations", bench_ext),
    "hilbert": ("hilbert (certificate mod p, exact fallback) vs the exact "
                "GradedStructure over Q", bench_hilbert),
    "koszul": ("koszul_verdict vs the exact homology_report on the corpus "
               "and on generic 4-generator Q presentations and their "
               f"GF({GF_P}) twins", bench_koszul),
    "linalg": (f"Matrix.__matmul__, matrix_rank and the d∘d check on "
               f"second-complex differentials, Q against GF({GF_P})",
               bench_linalg),
    "products": ("white, black and internal_hom (closed-form RREF bases) vs "
                 "the stacked spanning rows reduced by rref, on corpus pairs "
                 f"and 3-generator Q/GF({GF_P}) twins; unparse prints each "
                 "hom result", bench_products),
}


def medians(row: dict, prefix: str = ""):
    """(name, median seconds) of every timing in a row."""
    for key, value in row.items():
        if isinstance(value, dict) and "median_s" in value:
            yield prefix + key, value["median_s"]
        elif isinstance(value, dict):
            yield from medians(value, f"{prefix}{key}.")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", choices=BENCHES)
    ap.add_argument("--seeds", type=int)
    ap.add_argument("--degrees", type=int, nargs="+")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    what, run = BENCHES[args.bench]
    seeds = INPUTS[args.bench][2] if args.seeds is None else args.seeds
    rows = []
    # the run after one row is the run before the next
    before = reference_s()
    for spec in inputs(args.bench, seeds, args.degrees):
        for row in run(*spec):
            after = reference_s()
            row["ref_s"] = float(f"{(before + after) / 2:.3g}")
            before = after
            rows.append(row)
            print(f"{row['input']:14} {row.get('field', ''):8} "
                  f"N={row.get('degree', '-')}  " + "  ".join(
                f"{key} {s:.3g}" for key, s in medians(row))
                + f"  agree {row['agree']}  ref {row['ref_s']:.3g}",
                  flush=True)
    record = {"what": what, "machine": machine(),
              "settings": {"seeds": seeds, "degrees": args.degrees,
                           "inputs": INPUTS[args.bench], "repeat": REPEAT,
                           "bar_budget_s": BAR_BUDGET_S, "gf_p": GF_P,
                           "cert_primes": graded.CERT_PRIMES},
              "rows": rows}
    if args.bench == "linalg":
        record["q_over_gf_by_family"] = q_over_gf_by_family(rows)
        for family, ratios in record["q_over_gf_by_family"].items():
            print(f"total {family}: Q/GF {ratios}")
    out = args.out or ROOT / f"BENCH_{args.bench}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    mismatched = [r for r in rows if r["agree"] is False]
    for r in mismatched:
        print(f"MISMATCH {r['input']} {r.get('field', '')} "
              f"N={r.get('degree', '-')}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
