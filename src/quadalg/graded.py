"""Graded components of a quadratic algebra by per-degree linear algebra.

The degree-m component is the quotient of the word space by the degree-m
piece of the relation ideal.  The engine builds quotients inductively,
dividing A_{m-1} (x) V by K_m, the image of A_{m-2} (x) R; the rank of the
direct span sum_i V^i (x) R (x) V^j is kept as an independent oracle
(`graded_dim_by_oracle`) for cross-checks at small degrees.  A dimension is
a rank, dim A_m = n dim A_{m-1} - rank K_m, taken by forward elimination
alone, on rows built from the RREF of K_{m-1} (`GradedStructure._step`).
The projection onto A_m and its section are built from the RREF of K_m
only when something asks for them, so `hilbert` up to N builds none.

Over Q, `hilbert` reads the dimensions off the reduction that
`certified_reduction` returns, mod 32749 or else mod 32719, when its
dimensions prove those of A (the argument is in its docstring), and off the
exact structure over Q otherwise.  `certified_twin` proves the same for A
and for A^!, at the same prime, which is what the Koszul and Ext
certificates of `koszul` rest on.
`graded_dim_by_oracle` never reduces mod p.

`graded_structure` caches one `GradedStructure` per relation space in the
module-level dict ``_structures``.  A structure reads no generator labels,
and a relation space carries its field and n, so a relabelled copy of an
algebra, or one algebra's dual under another's names (ext3 is sym3^!),
shares it.  The reductions are relation spaces over a GF(p), so `hilbert`,
`koszul` and `ext` share one A' and one A'^!, and a hit on such a key is
exact.  `quadalg.clear_caches()` empties the dict.
"""

from __future__ import annotations

from math import isqrt

from . import linalg
from .fields import PrimeField
from .linalg import (Matrix, Subspace, combine, int_rows, matrix_rank,
                     quotient_data, reduced)
from .presentations import QuadraticPresentation, dual
from .tensorindex import contract, kron


class GradedStructure:
    """Cached dimensions, projections, and multiplication maps of the
    algebra with relation space R.

    Dimensions come from ranks (`dim`), which keeps the forward rows of
    K_m, a ``{pivot: row}`` dict of packed ints or of row dicts.  The step
    to degree m + 1, or the first request for ``step_proj(m)`` or
    ``step_section(m)``, finishes them with `reduced` into the RREF of
    K_m; the projection and the section are built from that RREF at once
    by `quotient_data`, and the RREF is dropped once both the quotient of
    degree m and dim(m + 1) exist.

    Nothing here reads generator labels: a structure is fixed by R (its
    field and n = sqrt(dim of the degree-2 words) included).
    """

    def __init__(self, R: Subspace):
        self.R = R
        self.field = f = R.field
        self.n = n = isqrt(R.ambient_dim)
        self._dims = {0: 1, 1: n}
        # _quotients[m]: (step_proj(m), step_section(m)), the projection
        # A_{m-1} (x) V -> A_m (right multiplication data) and its section
        self._quotients = {1: (Matrix.identity(f, n),) * 2}
        # the forward-eliminated rows of K_m, kept from dim(m) until its
        # RREF is asked for
        self._echelons = {}
        # _rrefs[m]: (basis, pivots), the RREF of K_m, kept until both
        # the quotient of degree m and dim(m + 1) are built; K_1 = 0
        self._rrefs = {1: (Matrix.zero(f, 0, n), [])}
        self._mult = {}

    def dim(self, m: int) -> int:
        """dim A_m = n dim A_{m-1} - rank K_m, with K_m the image of
        A_{m-2} (x) R in A_{m-1} (x) V: forward elimination only, on the
        rows that `_step` builds from the RREF of K_{m-1}."""
        if m < 0:
            raise ValueError("degree must be nonnegative")
        dims, n = self._dims, self.n
        while len(dims) <= m:
            k = len(dims)
            self._echelons[k] = forward = self._step(k)
            dims[k] = dims[k - 1] * n - len(forward)
            if k - 1 in self._quotients:
                del self._rrefs[k - 1]
        return dims[m]

    def _step(self, k: int) -> dict:
        """The forward-eliminated rows of K_k, built row by row.

        Row (s, r), for s a basis vector of A_{k-2} and r a relation, is
        the image of s (x) r: sum_{ab} r_ab pi(s n + a) (x) e_b, where
        pi(c) is the normal form in A_{k-1} of the word c of A_{k-2} (x) V,
        read off the RREF of K_{k-1}: e_idx(c) for a free column c, minus
        the RREF row at the free columns for a pivot column c.  `_packs`
        picks the row form from an nnz estimate (the length of each pi(c)
        times the relation terms with first letter c mod n).

        Packed, each pi(c) is an int whose slot i n holds entry i, and each
        relation r gives one small int per first letter a, sum_b r_ab at
        slot b; a row is one multiply-add per pair (r, a).  Slot (i, b) of
        a row gets at most n addends below p^2 (one per a), and
        `_eliminate_packed` adds at most cols more, so the slot bound is
        2·bitlen(p) + bitlen(cols + n) + 1 <= 64, the ``addends`` given to
        `_packs`.  Otherwise the rows are the sums of the strided pi(c)
        shifted by b that `combine` takes, whose denominator clearing
        serves Q.
        """
        f, n, rels = self.field, self.n, self.R.basis.sparse
        basis, pivots = self._rref(k - 1)
        words, cols = self._dims[k - 2] * n, self._dims[k - 1] * n
        lead = dict(zip(pivots, basis.sparse))
        free = [c for c in range(words) if c not in lead]
        idx = {c: i * n for i, c in enumerate(free)}
        first = [0] * n
        for rel in rels:
            for w in rel:
                first[w // n] += 1
        nnz = (sum(first[c % n] for c in free)
               + sum(first[c % n] * (len(row) - 1) for c, row in lead.items()))
        if linalg._packs(f, self._dims[k - 2] * len(rels), nnz, cols,
                         cols + n):
            p = f.p
            pi = {c: 1 << (i << 6) for c, i in idx.items()}
            for c, row in lead.items():
                dense = [0] * cols
                for j, x in row.items():
                    if j != c:
                        dense[idx[j]] = p - x
                pi[c] = linalg._pack(dense)
            # per relation, {a: sum_b r_ab << 64 b}: pi(s n + a) times that
            # adds r_ab pi(s n + a) (x) e_b for every b at once
            terms = []
            for rel in rels:
                t = {}
                for w, x in rel.items():
                    t[w // n] = t.get(w // n, 0) + (x << (w % n << 6))
                terms.append(t.items())
            return linalg._eliminate_packed(
                p, (sum(pi[s + a] * y for a, y in t)
                    for s in range(0, words, n) for t in terms), cols)
        one, neg = f.one, f.neg
        pi = {c: {i: one} for c, i in idx.items()}
        for c, row in lead.items():
            pi[c] = {idx[j]: neg(x) for j, x in row.items() if j != c}
        # keyed by the words c (x) b of A_{k-2} (x) V (x) V
        dens, ints = int_rows(f, pi, range(words))
        keys = range(words * n)
        sums = combine(
            f, [{s * n + w: x for w, x in rel.items()}
                for s in range(0, words, n) for rel in rels],
            None if dens is None else {w: dens[w // n] for w in keys},
            {w: ints[w // n] for w in keys}, cols, {w: w % n for w in keys})
        return linalg._echelon(f, sums)

    def step_proj(self, m: int) -> Matrix:
        return self._quotient(m)[0]

    def step_section(self, m: int) -> Matrix:
        return self._quotient(m)[1]

    def _rref(self, m: int):
        """The RREF of K_m as ``(basis, pivots)``, finished on first
        request by back-substitution from the rows ``dim(m)`` kept."""
        r = self._rrefs.get(m)
        if r is None:
            self.dim(m)
            r = self._rrefs[m] = reduced(
                self.field, self._dims[m - 1] * self.n, self._echelons.pop(m))
        return r

    def _quotient(self, m: int):
        """(step_proj(m), step_section(m)), built on first request from
        the RREF of K_m."""
        q = self._quotients.get(m)
        if q is None:
            q = self._quotients[m] = quotient_data(*self._rref(m))
            if m + 1 in self._dims:
                del self._rrefs[m]
        return q

    def full_projection(self, m: int) -> Matrix:
        """Pi_m: degree-m word space onto A_m (n^m columns; keep m modest),
        built afresh on each call as step_proj(m) @ (Pi_{m-1} (x) id_V)."""
        self.dim(m)
        f = self.field
        proj, id_v = Matrix.identity(f, 1), Matrix.identity(f, self.n)
        for k in range(1, m + 1):
            proj = self.step_proj(k) @ kron(proj, id_v)
        return proj

    def mult(self, i: int, j: int) -> Matrix:
        """The product map A_i (x) A_j -> A_{i+j} in quotient coordinates.

        By recursion on j: ``step_section(j)`` writes a basis vector of A_j
        as an element of A_{j-1} (x) V, so by associativity
        a * b = (a * b') * v for b = b' (x) v, and ``step_proj(i+j)``
        multiplies by the last generator.  The map a (x) b -> (a * b') (x) v
        is (mult(i, j-1) (x) I_V) @ (I_{A_i} (x) step_section(j)), one
        ``contract``.  No map leaves the quotients.
        """
        key = (i, j)
        if key not in self._mult:
            if j == 0:
                self._mult[key] = Matrix.identity(self.field, self.dim(i))
            else:
                self._mult[key] = self.step_proj(i + j) @ contract(
                    self.mult(i, j - 1), self.dim(i), self.step_section(j),
                    self.n)
        return self._mult[key]

    def left_mult_by_generator(self, m: int, a: int) -> Matrix:
        """Left multiplication by generator a: A_m -> A_{m+1}."""
        mult = self.mult(1, m)
        d = self.dim(m)
        lo = a * d
        rows = [{j - lo: x for j, x in row.items() if lo <= j < lo + d}
                for row in mult.sparse]
        return Matrix.from_rows(self.field, rows, d)


_structures: dict[Subspace, GradedStructure] = {}


def graded_structure(A: QuadraticPresentation) -> GradedStructure:
    """The structure of A, shared by every presentation with relation
    space A.R: a relabelled copy, or a dual under other names, hits."""
    # one lookup: a hit hashes A.R and compares it with the key once
    gs = _structures.get(A.R)
    if gs is None:
        gs = _structures[A.R] = GradedStructure(A.R)
    return gs


def graded_dim(A: QuadraticPresentation, m: int) -> int:
    return graded_structure(A).dim(m)


def hilbert(A: QuadraticPresentation, N: int):
    """Graded dimensions in degrees 0..N, from the structure of the
    reduction that `certified_reduction` returns, or else from the exact
    structure of A, which stays cached."""
    gs = graded_structure(certified_reduction(A, N) or A)
    return [gs.dim(m) for m in range(N + 1)]


# The certificate's primes, in the order tried: below 2^15, so that the
# product of two residues fits in one 30-bit CPython digit (32719 is the
# prime just below 32749).
CERT_PRIMES = (32749, 32719)
_CERT_FIELDS = {p: PrimeField(p) for p in CERT_PRIMES}


def reduce_mod_p(A: QuadraticPresentation, p: int):
    """The reduction of a Q presentation mod the certificate prime p, or
    None when p divides a denominator of the RREF basis of its relations
    (exactly when ``coerce`` into GF(p) raises ZeroDivisionError).

    Otherwise the RREF rows are a Z_(p)-basis of the saturated lattice
    R cap Z_(p)^{n^2}, their entrywise reduction is again in RREF (a pivot
    stays 1, a pivot column stays clear), and the annihilator of the
    reduction is the reduction of the annihilator lattice.
    """
    f = _CERT_FIELDS[p]
    coerce = f.coerce
    try:
        rows = [{j: y for j, x in row.items() if (y := coerce(x))}
                for row in A.R.basis.sparse]
    except ZeroDivisionError:
        return None
    n2 = A.n * A.n
    return QuadraticPresentation(
        f, A.labels, Subspace(n2, Matrix.from_rows(f, rows, n2),
                              _canonical=True))


def _meets_bound(B: QuadraticPresentation, r: int, N: int) -> bool:
    """Whether dim B_m = max(0, n dim B_{m-1} - r dim B_{m-2}) for every
    m <= N; stops at the first degree that misses."""
    gs, n = graded_structure(B), B.n
    return all(gs.dim(m) == max(0, n * gs.dim(m - 1) - r * gs.dim(m - 2))
               for m in range(2, N + 1))


def certified_reduction(A: QuadraticPresentation, N: int):
    """The reduction A' of a Q presentation mod the first prime of
    CERT_PRIMES at which it proves dim A_m = dim A'_m for every m <= N, or
    None (and None over a prime field).

    The reduction (`reduce_mod_p`) reduces a Z_(p)-spanning set of every
    ideal component, and a rank mod p is at most the rank over Q, so
    dim A'_m >= dim A_m.  A_m = (A_{m-1} (x) V)/K with K spanned by the
    images of A_{m-2} (x) R, so dim A_m >= max(0, n d_{m-1} - r d_{m-2})
    once d_{m-1} and d_{m-2} are proven, r being the number of relations.
    Where dim A'_m equals that bound, both bounds meet and d_m is proven;
    at the first degree where it does not, the prime is given up.  Generic
    algebras meet the bound (Anick 1982; Polishchuk and Positselski,
    *Quadratic Algebras*, ch. 6); where no prime proves A, its dimensions
    come from the exact structure over Q, so an unlucky prime costs time,
    never an answer.  The structure of A' enters the cache of
    `graded_structure` under its own relation space over GF(p), where
    `certified_twin` and a later GF(p) job with the same relations find
    it: it is exact there.
    """
    if isinstance(A.field, PrimeField):
        return None
    for p in CERT_PRIMES:
        reduced = reduce_mod_p(A, p)
        if reduced is not None and _meets_bound(reduced, A.R.dim, N):
            return reduced
    return None


def certified_twin(A: QuadraticPresentation, N: int):
    """The reduction A' that `certified_reduction` returns when A'^! meets
    the bound at the same prime for every m <= N as well, else None.

    Then dim A^!_m = dim A'^!_m is proven as in `certified_reduction`,
    dual(A') having n^2 - r relations.  Every A_m and A^!_m is then a free
    Z_(p)-module, so each Koszul or bar complex of A in internal degree at
    most N is the generic fibre of a complex of free modules whose special
    fibre is the one of A' (see `koszul`).
    """
    reduced = certified_reduction(A, N)
    if reduced is None or not _meets_bound(dual(reduced),
                                           A.n * A.n - A.R.dim, N):
        return None
    return reduced


def graded_dim_by_oracle(A: QuadraticPresentation, m: int) -> int:
    """dim A_m via the direct relation-span oracle: n^m minus the rank of
    the rows u r v spanning I_m, one per relation r and pair of words u, v.

    Each row holds a relation's canonical entries at distinct columns, so
    ``matrix_rank`` takes the rows as they are; it eliminates without
    back-substitution."""
    f, n = A.field, A.n
    if m < 2:
        return n ** m
    rows = []
    for i in range(m - 1):
        right = n ** (m - 2 - i)
        for rel in A.R.basis.sparse:
            for w1 in range(n ** i):
                for w2 in range(right):
                    base = w1 * n * n * right + w2
                    rows.append({base + k * right: c for k, c in rel.items()})
    return n ** m - matrix_rank(Matrix.from_rows(f, rows, n ** m))
