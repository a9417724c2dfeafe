"""Seeded inputs and job lists for the benchmark workloads.

The workloads are graded-cold and complexes.  complexes also runs light
law-suite jobs, so that the laws layer is timed.

A workload is an endless sequence of rounds.  Round ``r`` of a workload
depends only on the workload name, the seed and ``r``, so two commits run
with the same seed see byte-identical ``.qa`` files for every round both
reach.  Each round has a fixed mix of job kinds and input sizes; only the
random coefficients change between rounds and seeds.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from random import Random

GF_P = 32003  # prime below the 2^20 cutoff for the numpy row reduction

# Corpus algebras, inlined so that the inputs depend on this file alone.
CORPUS = {
    "sym2": ("Q", "x y", ["x*y - y*x"]),
    "sym3": ("Q", "x y z", ["x*y - y*x", "x*z - z*x", "y*z - z*y"]),
    "ext2": ("Q", "x y", ["x*x", "x*y + y*x", "y*y"]),
    "ext3": ("Q", "x y z", ["x*x", "x*y + y*x", "x*z + z*x", "y*y",
                            "y*z + z*y", "z*z"]),
    "free1": ("Q", "t", []),
    "free2": ("Q", "a b", []),
    "embed2": ("Q", "e1 e2", ["e1*e1", "e1*e2", "e2*e1", "e2*e2"]),
    "embed3": ("Q", "e1 e2 e3", [f"e{i}*e{j}" for i in (1, 2, 3)
                                 for j in (1, 2, 3)]),
    "gf7_seed1": ("GF 7", "a b", ["a*a + 5*a*b + 5*b*a + 5*b*b"]),
    "gf7_seed2": ("GF 7", "a b", []),
    "gf7_seed3": ("GF 7", "a b c", [
        "a*a + 2*b*a + 6*b*b + 4*b*c + c*a + c*c",
        "a*b + 6*b*a + 6*b*c + 3*c*a + 3*c*b + c*c",
        "a*c + 5*b*a + b*b + 5*b*c + 3*c*a + 6*c*b + 6*c*c"]),
    "nonkoszul_gf2": ("GF 2", "x y z", ["x*x", "x*y", "x*z + z*z"]),
}

# Koszulness of the corpus algebras (None: not asserted, only checked for
# internal consistency).
KOSZUL = {"sym2": True, "sym3": True, "ext3": True, "free2": True,
          "embed3": True, "nonkoszul_gf2": False, "gf7_seed3": None}

# (algebra, koszul --max, ext --max).  The largest cases (koszul --max 6 on
# embed3, ext --max 5 on sym3, gf7_seed3 and nonkoszul_gf2) take 2-6 s each
# and would leave too few jobs per run for a 90th percentile.
COMPLEX_JOBS = [("sym2", 6, 5), ("sym3", 6, 4), ("ext3", 6, 5),
                ("free2", 6, 5), ("embed3", 5, 5), ("gf7_seed3", 6, 4),
                ("nonkoszul_gf2", 6, 4)]
# relation counts of the 3-generator pairs (U, V) of the hom jobs
HOM_RELATIONS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 3), (3, 2)]

# Light law-suite jobs that complexes runs every round: suite -> --trials
# (hom-algebra ignores it).  These two suites stay within the object-size
# budgets of laws with the pools below; the axioms suite over the GF(7)
# pool would not, and would check only the unit (see check.in_pool).
COMPLEX_LAWS = {"duality": 16, "hom-algebra": 1}

LAWS_POOLS = {"Q": ["sym2", "ext2", "free1", "embed2"],
              "GF": ["gf7_seed1", "gf7_seed2"]}


@dataclass
class Job:
    """One CLI call.  ``check`` holds what the answer checker needs."""
    workload: str
    round: int
    kind: str            # hilbert, dual, hom, koszul, ext, laws
    field: str           # "Q" or "GF"
    argv: list
    inputs: list         # input names, keys into Round.files
    check: dict = field(default_factory=dict)
    twin: str | None = None   # key shared with the other-field twin

    def cli_args(self, paths: dict) -> list:
        return self.argv + [paths[name] for name in self.inputs]


@dataclass
class Round:
    index: int
    files: dict          # input name -> .qa text
    jobs: list


def qa_text(name: str, field_line: str, gens: str, rels) -> str:
    lines = [f"field {field_line}", f"algebra {name}", f"gens {gens}"]
    lines += [f"rel {r}" for r in rels]
    return "\n".join(lines) + "\n"


def corpus_text(name: str) -> str:
    field_line, gens, rels = CORPUS[name]
    return qa_text(name, field_line, gens, rels)


def random_relations(rng: Random, n: int, k: int):
    """k relations over n generators with integer coefficients in -3..3."""
    labels = "abcd"[:n]
    words = [f"{labels[i]}*{labels[j]}" for i in range(n) for j in range(n)]
    rels = []
    for _ in range(k):
        coeffs = [0]
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) for _ in words]
        terms = []
        for c, w in zip(coeffs, words):
            if c:
                sign = "-" if c < 0 else "+"
                terms.append((sign, f"{abs(c)}*{w}"))
        head_sign, head = terms[0]
        text = ("-" if head_sign == "-" else "") + head
        text += "".join(f" {s} {t}" for s, t in terms[1:])
        rels.append(text)
    return " ".join(labels), rels


def twins(files: dict, name: str, rng: Random, n: int, k: int):
    """Write a Q presentation and its GF(p) twin with the same integers."""
    gens, rels = random_relations(rng, n, k)
    files[name + "_Q"] = qa_text(name, "Q", gens, rels)
    files[name + "_GF"] = qa_text(name, f"GF {GF_P}", gens, rels)


def _round_rng(workload: str, seed: int, index: int) -> Random:
    return Random(f"{workload}:{seed}:{index}")


def graded_cold_round(seed: int, index: int) -> Round:
    """Fresh presentations every round, so no cache ever hits.

    Per field a round has three dual jobs (fast), six hom jobs and the
    3-generator, 3-relation hilbert job (middle), and two slower hilbert
    jobs, so the medians fall inside the middle group.
    """
    rng = _round_rng("graded-cold", seed, index)
    files, jobs = {}, []
    sizes = [(3, 2, 6), (3, 3, 6), (4, 4 + index % 3, 4)]
    for n, k, top in sizes:
        name = f"r{index}n{n}k{k}"
        twins(files, name, rng, n, k)
        for kind in ("hilbert", "dual"):
            for fld in ("Q", "GF"):
                argv = (["hilbert", "--max", str(top)] if kind == "hilbert"
                        else ["dual"])
                jobs.append(Job("graded-cold", index, kind, fld, argv,
                                [f"{name}_{fld}"], {"max": top},
                                twin=f"{kind}:{name}"))
    for pair, (ku, kv) in enumerate(HOM_RELATIONS):
        u, v = f"r{index}h{pair}u", f"r{index}h{pair}v"
        twins(files, u, rng, 3, ku)
        twins(files, v, rng, 3, kv)
        for fld in ("Q", "GF"):
            jobs.append(Job("graded-cold", index, "hom", fld, ["hom"],
                            [f"{u}_{fld}", f"{v}_{fld}"],
                            twin=f"hom:{u}:{v}"))
    return Round(index, files, jobs)


def complexes_round(seed: int, index: int) -> Round:
    """Fixed corpus jobs plus one fresh random 3-generator twin pair.

    The Q corpus algebras also run as GF(p) twins, reduced mod GF_P.
    """
    rng = _round_rng("complexes", seed, index)
    files, jobs = {}, []
    for alg, kmax, emax in COMPLEX_JOBS:
        field_line, gens, rels = CORPUS[alg]
        if field_line == "Q":
            files[alg + "_Q"] = qa_text(alg, "Q", gens, rels)
            files[alg + "_GF"] = qa_text(alg, f"GF {GF_P}", gens, rels)
            variants = [("Q", alg + "_Q", alg), ("GF", alg + "_GF", alg)]
        else:
            files[alg] = corpus_text(alg)
            variants = [("GF", alg, None)]
        for kind, top in (("koszul", kmax), ("ext", emax)):
            for fld, name, twin in variants:
                jobs.append(Job("complexes", index, kind, fld,
                                [kind, "--max", str(top)], [name],
                                {"max": top, "koszul": KOSZUL[alg]},
                                twin=twin and f"{kind}:{twin}"))
    name = f"r{index}c"
    twins(files, name, rng, 3, 4 + index % 3)
    for kind, top in (("koszul", 5), ("ext", 4)):
        for fld in ("Q", "GF"):
            jobs.append(Job("complexes", index, kind, fld,
                            [kind, "--max", str(top)], [f"{name}_{fld}"],
                            {"max": top, "koszul": None},
                            twin=f"{kind}:{name}"))
    jobs += laws_jobs(index, rng, files)
    return Round(index, files, jobs)


def laws_jobs(index, rng, files):
    """One job per COMPLEX_LAWS suite and pool, with a fresh --seed."""
    for pool in LAWS_POOLS.values():
        for alg in pool:
            files[alg] = corpus_text(alg)
    jobs = []
    for suite, trials in COMPLEX_LAWS.items():
        s = rng.randrange(1 << 30)
        for fld, pool in LAWS_POOLS.items():
            jobs.append(Job("complexes", index, "laws", fld,
                            ["laws", "--suite", suite, "--trials",
                             str(trials), "--seed", str(s)], list(pool),
                            {"pool": list(pool)}))
    return jobs


WORKLOADS = {"graded-cold": graded_cold_round,
             "complexes": complexes_round}


def rounds(workload: str, seed: int):
    make = WORKLOADS[workload]
    index = 0
    while True:
        yield make(seed, index)
        index += 1


class InputDir:
    """Writes round files under one directory and keeps their digests."""

    def __init__(self, path: str):
        self.path = path
        self.digests = {}    # relative file name -> sha256 hex

    def materialize(self, rnd: Round):
        """Write the round's files; fill each job's argv with their paths."""
        sub = os.path.join(self.path, f"round{rnd.index}")
        os.makedirs(sub, exist_ok=True)
        paths = {}
        for name, text in rnd.files.items():
            p = os.path.join(sub, name + ".qa")
            data = text.encode()
            with open(p, "wb") as fh:
                fh.write(data)
            self.digests[f"round{rnd.index}/{name}.qa"] = \
                hashlib.sha256(data).hexdigest()
            paths[name] = p
        return paths

    def digest(self) -> str:
        """One digest over every file written, in name order."""
        h = hashlib.sha256()
        for name in sorted(self.digests):
            h.update(f"{name} {self.digests[name]}\n".encode())
        return h.hexdigest()
