"""Answer checker for benchmark jobs.

Every job's printed answer is checked with engines of the library that are
independent of the one the job ran: the relation-span oracle for Hilbert
functions over GF(p), the GF(p) twin for every answer over Q, the double
dual, Manin's white-product dimension formula, and the internal
consistency of the Koszul and Ext reports.
"""

from __future__ import annotations

from dataclasses import dataclass

ORACLE_MAX_DEGREE = 4   # graded_dim_by_oracle is exponential in the degree


@dataclass
class Result:
    """What one CLI call returned."""
    status: int | None
    stdout: str
    error: str | None = None    # exception raised by the call, if any
    seconds: float = 0.0


class Checker:
    """Checks job results; ``failures`` maps job index -> list of causes."""

    def __init__(self, quadalg):
        self.q = quadalg
        self.failures = {}
        self._parsed = {}

    def fail(self, index: int, cause: str):
        self.failures.setdefault(index, []).append(cause)

    def parse(self, text: str):
        if text not in self._parsed:
            self._parsed[text] = self.q.parser.parse(text)[1]
        return self._parsed[text]

    def check_all(self, jobs, results, texts):
        """``texts[i]`` lists the input file texts of ``jobs[i]``."""
        signatures = {}
        for i, (job, res) in enumerate(zip(jobs, results)):
            if res.error is not None:
                self.fail(i, f"raised {res.error}")
                continue
            try:
                sig = getattr(self, "_" + job.kind)(i, job, res, texts[i])
            except (ValueError, IndexError, KeyError) as exc:
                self.fail(i, f"unreadable output: {exc!r}")
                continue
            if job.twin is not None:
                signatures.setdefault(job.twin, {})[job.field] = (i, sig)
        for key, pair in signatures.items():
            if len(pair) == 2 and pair["Q"][1] != pair["GF"][1]:
                self.fail(pair["Q"][0], f"Q and GF twins disagree on "
                          f"{key}: {pair['Q'][1]!r} vs {pair['GF'][1]!r}")
        return self.failures

    def _status(self, i, res, expected):
        if res.status != expected:
            self.fail(i, f"exit status {res.status}, expected {expected}")

    def _hilbert(self, i, job, res, texts):
        self._status(i, res, 0)
        top = job.check["max"]
        dims = []
        for m, line in enumerate(res.stdout.splitlines()):
            deg, dim = line.split(": ")
            if int(deg) != m:
                raise ValueError(f"line {line!r} out of order")
            dims.append(int(dim))
        if len(dims) != top + 1:
            self.fail(i, f"{len(dims)} degrees printed, expected {top + 1}")
        if job.field == "GF":
            A = self.parse(texts[0])
            oracle = self.q.graded.graded_dim_by_oracle
            for m in range(min(top, ORACLE_MAX_DEGREE) + 1):
                if dims[m] != oracle(A, m):
                    self.fail(i, f"dim A_{m} = {dims[m]}, oracle says "
                              f"{oracle(A, m)}")
        return tuple(dims)

    def _dual(self, i, job, res, texts):
        self._status(i, res, 0)
        A = self.parse(texts[0])
        D = self.parse(res.stdout)
        if D.n != A.n or D.R.dim != A.n * A.n - A.R.dim:
            self.fail(i, f"dim R! = {D.R.dim}, expected "
                      f"{A.n * A.n - A.R.dim}")
        back = self.q.presentations.dual(D)
        if back.labels != A.labels or not back.same_relations(A):
            self.fail(i, "double dual differs from the input")
        return D.R.dim

    def _hom(self, i, job, res, texts):
        self._status(i, res, 0)
        U, V = (self.parse(t) for t in texts)
        lines = res.stdout.splitlines()
        summary = lines[-1]
        head, tail = summary.split(", ")
        dim_v = int(head.split(" = ")[1])
        dim_r = int(tail.split(" = ")[1])
        # Hom(U, V) = V o U!: R = V^2 (x) R_{U!} + R_V (x) U!^2
        r_dual = U.n * U.n - U.R.dim
        expected = (V.n * V.n * r_dual + V.R.dim * U.n * U.n
                    - V.R.dim * r_dual)
        if dim_v != U.n * V.n or dim_r != expected:
            self.fail(i, f"printed dim V = {dim_v}, dim R = {dim_r}; "
                      f"expected {U.n * V.n}, {expected}")
        rels = sum(1 for ln in lines if ln.startswith("rel "))
        if rels != dim_r:
            self.fail(i, f"{rels} relations printed, summary says {dim_r}")
        return summary

    def _koszul(self, i, job, res, texts):
        top = job.check["max"]
        lines = res.stdout.splitlines()
        degrees = [ln for ln in lines if ln.startswith("degree ")]
        exact = [set(ln.split(" homology ")[1].split(",")) == {"0"}
                 for ln in degrees]
        euler = lines[-2].split(": ")[1].split(",")
        verdict = {"true": True, "false": False}[lines[-1].split(": ")[1]]
        if len(degrees) != top or len(euler) != top:
            self.fail(i, f"{len(degrees)} degrees reported, expected {top}")
        if verdict != all(exact):
            self.fail(i, "verdict disagrees with the printed homology")
        if verdict and "fail" in euler:
            self.fail(i, "Koszul verdict with a failing Euler identity")
        if job.check["koszul"] is not None and verdict != job.check["koszul"]:
            self.fail(i, f"verdict {verdict}, expected {job.check['koszul']}")
        self._status(i, res, 0 if verdict else 1)
        return res.stdout

    def _ext(self, i, job, res, texts):
        self._status(i, res, 0)
        top = job.check["max"]
        lines = res.stdout.splitlines()
        rows = [ln for ln in lines if ln.startswith("m=")]
        if len(rows) != top + 1:
            self.fail(i, f"{len(rows)} table rows, expected {top + 1}")
        if lines[-1] != "bar_diagonal_vs_complex: agree":
            self.fail(i, f"engines disagree: {lines[-1]!r}")
        diagonal = lines[-2].split(": ")[1] == "true"
        if job.check["koszul"] and not diagonal:
            self.fail(i, "Koszul algebra without diagonal Ext")
        return res.stdout

    def _laws(self, i, job, res, texts):
        self._status(i, res, 0)
        pool = pool_names(self.parse(t).labels for t in texts)
        checks = [ln for ln in res.stdout.splitlines()
                  if not ln.startswith("note: ")]
        if not checks:
            self.fail(i, "no checks reported")
        for line in checks:
            verdict, objects = line.split()[0], line.split()[-1]
            if verdict != "PASS":
                self.fail(i, f"check failed: {line}")
            stray = [o for o in objects.split(",") if not in_pool(o, pool)]
            if stray:
                self.fail(i, f"objects {stray} not from the pool: {line}")
        return None


def pool_names(label_tuples):
    return {"·".join(labels) for labels in label_tuples}


def _base_label(label: str) -> str:
    """Strip the decorations laws puts on derived objects: ``!`` marks a
    dual generator, ``'tag`` a primed copy."""
    return label.split("'")[0].rstrip("!")


def in_pool(obj: str, pool) -> bool:
    """True when a check object is a pool object or built from one.

    Derived objects are duals and primed copies of pool objects, the free
    source ``g0..g{n-1}`` of a pool object's size, and the two units.
    Anything else, such as the 1-generator unit that ``_pick_sizes``
    substitutes when no pick meets its size budget, is not from the pool.
    """
    if obj in ("I.", "Io"):
        return True
    base = "·".join(_base_label(s) for s in obj.split("·"))
    if base in pool:
        return True
    sizes = {name.count("·") + 1 for name in pool}
    return base in {"·".join(f"g{i}" for i in range(n)) for n in sizes}
