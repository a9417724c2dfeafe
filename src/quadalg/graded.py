"""Graded components of a quadratic algebra by per-degree linear algebra.

The degree-m component is the quotient of the word space by the degree-m
piece of the relation ideal.  The engine builds quotients inductively,
dividing A_{m-1} (x) V by K_m, the image of A_{m-2} (x) R; the rank of the
direct span sum_i V^i (x) R (x) V^j is kept as an independent oracle
(`graded_dim_by_oracle`) for cross-checks at small degrees.  A dimension is
a rank, dim A_m = n dim A_{m-1} - rank K_m, taken by forward elimination
alone; the projection onto A_m and its section are finished from the kept
forward rows only when something asks for them, so `hilbert` up to N
builds projections up to N - 1 and none in degree N.

Over Q, `hilbert` first tries `certified_hilbert`: the dimensions of the
reduction mod the prime `CERT_P` (`reduce_mod_p`, the entrywise reduction
of the RREF relation basis, or None when CERT_P divides a denominator)
are exact over Q wherever they meet the lower bound
max(0, n d_{m-1} - r d_{m-2}) that holds for every algebra with n
generators and r relations.  Generic algebras meet it (Anick 1982;
Polishchuk and Positselski, *Quadratic Algebras*, ch. 6); elsewhere
`hilbert` falls back to the exact structure over Q.  `certified_twin`
proves the same for A and for A^! (with n^2 - r relations), which is what
the Koszul and Ext certificates of `koszul` rest on.
`graded_dim_by_oracle` never reduces mod p.

`graded_structure` caches one `GradedStructure` per relation space in the
module-level dict ``_structures``.  A structure reads no generator labels,
and a relation space carries its field and n, so a relabelled copy of an
algebra, or one algebra's dual under another's names (ext3 is sym3^!),
shares it.  The reductions are relation spaces over GF(CERT_P), so
`hilbert`, `koszul` and `ext` share one A' and one A'^!, and a hit on such
a key is exact.  `quadalg.clear_caches()` empties the dict.
"""

from __future__ import annotations

from math import isqrt

from .fields import PrimeField
from .linalg import (Matrix, Subspace, echelon, matrix_rank, quotient_data,
                     reduced)
from .presentations import QuadraticPresentation, dual
from .tensorindex import contract, kron


class GradedStructure:
    """Cached dimensions, projections, and multiplication maps of the
    algebra with relation space R.

    Dimensions come from ranks (`dim`), which keeps the ``{pivot: row}``
    dict that `echelon` returns for K_m.  The first request for
    ``step_proj(m)`` or ``step_section(m)`` finishes those rows with
    `reduced`, drops them, and builds both maps at once by `quotient_data`.

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
        # the forward-eliminated rows of K_m, kept from dim(m) until
        # step_proj(m) or step_section(m) finishes them
        self._echelons = {}
        self._mult = {}

    def dim(self, m: int) -> int:
        """dim A_m = n dim A_{m-1} - rank K_m, with K_m the image of
        A_{m-2} (x) R in A_{m-1} (x) V: forward elimination only."""
        if m < 0:
            raise ValueError("degree must be nonnegative")
        dims, n = self._dims, self.n
        while len(dims) <= m:
            k = len(dims)
            # K_k is spanned by the images of s (x) r, for s a basis vector
            # of A_{k-2} and r one of R, under step_proj(k-1) (x) id_V
            push = contract(self.step_proj(k - 1), dims[k - 2],
                            self.R.basis.transpose(), n)
            self._echelons[k] = forward = echelon(push.transpose())
            dims[k] = dims[k - 1] * n - len(forward)
        return dims[m]

    def step_proj(self, m: int) -> Matrix:
        return self._quotient(m)[0]

    def step_section(self, m: int) -> Matrix:
        return self._quotient(m)[1]

    def _quotient(self, m: int):
        """(step_proj(m), step_section(m)), built on first request from
        the RREF of K_m that back-substitution finishes from the rows
        ``dim(m)`` kept."""
        q = self._quotients.get(m)
        if q is None:
            self.dim(m)
            q = self._quotients[m] = quotient_data(*reduced(
                self.field, self._dims[m - 1] * self.n, self._echelons.pop(m)))
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
    """Graded dimensions in degrees 0..N.

    Over Q the certificate answers when it can (`certified_hilbert`);
    otherwise the exact structure does, and stays cached.
    """
    if not isinstance(A.field, PrimeField):
        dims = certified_hilbert(A, N)
        if dims is not None:
            return dims
    gs = graded_structure(A)
    return [gs.dim(m) for m in range(N + 1)]


# The certificate's prime: below 2^15, so that the product of two residues
# fits in one 30-bit CPython digit.
CERT_P = 32749
_CERT_FIELD = PrimeField(CERT_P)


def reduce_mod_p(A: QuadraticPresentation):
    """The reduction of a Q presentation mod CERT_P, or None when CERT_P
    divides a denominator of the RREF basis of its relations (exactly when
    ``coerce`` into GF(CERT_P) raises ZeroDivisionError).

    Otherwise the RREF rows are a Z_(p)-basis of the saturated lattice
    R cap Z_(p)^{n^2}, their entrywise reduction is again in RREF (a pivot
    stays 1, a pivot column stays clear), and the annihilator of the
    reduction is the reduction of the annihilator lattice.
    """
    coerce = _CERT_FIELD.coerce
    try:
        rows = [{j: y for j, x in row.items() if (y := coerce(x))}
                for row in A.R.basis.sparse]
    except ZeroDivisionError:
        return None
    n2 = A.n * A.n
    return QuadraticPresentation(
        _CERT_FIELD, A.labels,
        Subspace(n2, Matrix.from_rows(_CERT_FIELD, rows, n2),
                 _canonical=True))


def _generic_dims(B: QuadraticPresentation, r: int, N: int):
    """dim B_0..B_N when each meets max(0, n d_{m-1} - r d_{m-2}), else
    None; stops at the first degree that does not."""
    gs = graded_structure(B)
    dims = [1, B.n]
    for m in range(2, N + 1):
        bound = max(0, B.n * dims[m - 1] - r * dims[m - 2])
        if gs.dim(m) != bound:
            return None
        dims.append(bound)
    return dims[:N + 1]


def certified_hilbert(A: QuadraticPresentation, N: int):
    """dim A_0..A_N of a Q presentation, proven from its reduction mod
    CERT_P, or None where the proof does not go through.

    The reduction A' (`reduce_mod_p`) reduces a Z_(p)-spanning set of
    every ideal component, and a rank mod p is at most the rank over Q, so
    dim A'_m >= dim A_m.  A_m = (A_{m-1} (x) V)/K with K spanned by the
    images of A_{m-2} (x) R, so dim A_m >= max(0, n d_{m-1} - r d_{m-2})
    once d_{m-1} and d_{m-2} are proven.  Where dim A'_m equals that
    bound, both bounds meet and d_m is proven; at the first degree where
    it does not, the attempt stops.  An unlucky prime costs time, never an
    answer.  The structure of A' enters the cache of `graded_structure`
    under its own relation space over GF(CERT_P), where `certified_twin`
    and a later GF(CERT_P) job with the same relations find it: it is
    exact there.
    """
    reduced = reduce_mod_p(A)
    return None if reduced is None else _generic_dims(reduced, A.R.dim, N)


def certified_twin(A: QuadraticPresentation, N: int):
    """The reduction A' of a Q presentation mod CERT_P when dim A'_m and
    dim A'^!_m meet the generic bound for every m <= N, else None (and
    None over a prime field).

    Then dim A_m = dim A'_m and dim A^!_m = dim A'^!_m are proven as in
    `certified_hilbert`, dual(A') having n^2 - r relations.  Every A_m and
    A^!_m is then a free Z_(p)-module, so each Koszul or bar complex of A
    in internal degree at most N is the generic fibre of a complex of free
    modules whose special fibre is the one of A' (see `koszul`).
    """
    if isinstance(A.field, PrimeField):
        return None
    reduced = reduce_mod_p(A)
    if (reduced is None or _generic_dims(reduced, A.R.dim, N) is None
            or _generic_dims(dual(reduced), A.n * A.n - A.R.dim, N) is None):
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
