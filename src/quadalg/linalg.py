"""Dense exact matrices and the canonical-subspace calculus.

Everything downstream (products, duals, complexes, diagram checks) reduces
to row reduction here.  Subspaces are kept in reduced row-echelon form, so
set equality is representation equality.

Every entry of a Matrix is a canonical scalar: ``Matrix.__init__`` coerces
it to a Fraction over Q and to an int in 0..p-1 over GF(p).  So an entry is
zero exactly when it is falsy, and the matrix code tests ``if x`` rather
than ``x == zero`` (``Fraction.__bool__`` reads only the numerator, while
``Fraction.__eq__`` goes through an isinstance chain).

One elimination kernel, ``_echelon``, serves both field families and every
caller: forward elimination on sparse ``{column: int}`` row dicts.  Over
GF(p) the entries are residues and each pivot row is scaled to a leading 1;
Python ints never overflow, so no modulus is too large.  Over Q each row is
cleared of denominators and kept primitive (fraction-free), and every
stored integer is bounded by a minor of the denominator-cleared input (see
``_echelon``).  ``sparse_rank`` and ``matrix_rank`` count its pivots;
``rref`` adds back-substitution and builds Fractions only for the final
rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import PrimeField, check_same_field


class Matrix:
    """Immutable dense matrix over an exact field.

    ``data`` is a tuple of row tuples; scalars are Fractions over Q and int
    residues over GF(p).
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, cols=None):
        data = tuple(tuple(field.coerce(x) for x in row) for row in data)
        rows = len(data)
        if rows:
            cols_found = {len(row) for row in data}
            if len(cols_found) != 1:
                raise ValueError("ragged rows")
            width = cols_found.pop()
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs explicit column count")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(field, n):
        one, zero = field.one, field.zero
        return Matrix(field, [[one if i == j else zero for j in range(n)]
                              for i in range(n)], cols=n)

    @staticmethod
    def zero(field, rows, cols):
        z = field.zero
        return Matrix(field, [[z] * cols for _ in range(rows)], cols=cols)

    def entry(self, i, j):
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.data)

    def transpose(self) -> "Matrix":
        return Matrix(self.field,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], cols=self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        f = self.field
        return Matrix(f, [[(f.add(a, b) if b else a) if a else b
                           for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)],
                      cols=self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        f = self.field
        return Matrix(f, [[f.sub(a, b) for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)],
                      cols=self.cols)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        return Matrix(f, [[f.mul(c, x) for x in row] for row in self.data],
                      cols=self.cols)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = self.field.one
        data = self.data
        return (all(row[i] == one for i, row in enumerate(data))
                and not any(any(row[:i]) or any(row[i + 1:])
                            for i, row in enumerate(data)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        f = self.field
        # accumulate the nonzero entries of the rows of `other`, scaled by
        # the nonzero coefficients of each row of `self`; over GF(p) the
        # sums stay unreduced until Matrix() coerces them
        zero, one = f.zero, f.one
        support = [[(j, y) for j, y in enumerate(orow) if y]
                   for orow in other.data]
        columns = range(other.cols)
        out = []
        for row in self.data:
            acc = {}
            for a, terms in zip(row, support):
                if not a:
                    continue
                if a != one:
                    terms = [(j, a * y) for j, y in terms]
                for j, y in terms:
                    acc[j] = acc[j] + y if j in acc else y
            out.append([acc.get(j, zero) for j in columns])
        return Matrix(f, out, cols=other.cols)

    def apply(self, vec):
        """Matrix times a coordinate vector (returned as a tuple)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        zero = f.zero
        support = [(j, x) for j, x in enumerate(vec) if x]
        out = []
        for row in self.data:
            acc = zero
            for j, x in support:
                if row[j]:
                    acc = f.add(acc, f.mul(row[j], x))
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: [{body}])"


def _sparse_rows(M: Matrix):
    return ({j: x for j, x in enumerate(row) if x} for row in M.data)


def _reduce(work, prow, j, p):
    """Clear column j of the integer row dict ``work`` with the pivot row
    ``prow``, whose leading entry is at j; return the new row.

    Over GF(p) (``p`` an int) ``prow`` has a leading 1 and ``work`` is
    updated in place.  Over Q (``p`` None) ``(pv/g) * work - (a/g) * prow``
    replaces the Fraction update ``work - (a/pv) * prow``; it is a nonzero
    multiple of it, and dividing out the content keeps the row primitive.
    """
    a = work[j]
    if p is not None:
        for k, v in prow.items():
            x = (work.get(k, 0) - a * v) % p
            if x:
                work[k] = x
            else:
                del work[k]
        return work
    pv = prow[j]
    g = gcd(pv, a)
    s, t = pv // g, a // g
    if s != 1:
        work = {k: s * v for k, v in work.items()}
    for k, v in prow.items():
        x = work.get(k, 0) - t * v
        if x:
            work[k] = x
        else:
            del work[k]
    g = gcd(*work.values())
    return {k: v // g for k, v in work.items()} if g > 1 else work


def _echelon(field, rows):
    """Forward elimination of ``{column: value}`` rows of field scalars.

    Returns ``{pivot column: row}``, one integer row dict per pivot with its
    leading entry at that column.  Each input row is reduced against the
    pivot rows found so far, leftmost entry first, until it is zero or
    leads at a new pivot column.

    Over GF(p) entries are residues and each pivot row is scaled to a
    leading 1.  Over Q each row is cleared of denominators and kept
    primitive, so it is the primitive integer multiple of the row the
    Fraction elimination would hold.  That row is the unique vector of the
    span of the input rows used so far that has coefficient 1 on the
    current input row and zeros at the pivot columns left of its lead; by
    Cramer's rule every stored integer divides a minor of the
    denominator-cleared input.
    """
    p = field.p if isinstance(field, PrimeField) else None
    pivots = {}
    for row in rows:
        if p is None:
            den = lcm(*(v.denominator for v in row.values()))
            work = {j: v.numerator * (den // v.denominator)
                    for j, v in row.items() if v}
            g = gcd(*work.values())
            if g > 1:
                work = {k: v // g for k, v in work.items()}
        else:
            work = {j: x for j, v in row.items() if (x := v % p)}
        while work:
            j = min(work)
            prow = pivots.get(j)
            if prow is None:
                a = work[j]
                if p is not None and a != 1:
                    inv = pow(a, -1, p)
                    work = {k: v * inv % p for k, v in work.items()}
                pivots[j] = work
                break
            work = _reduce(work, prow, j, p)
        # empty work: the row was dependent
    return pivots


def rref(M: Matrix):
    """Reduced row-echelon form.

    Returns ``(R, rank, pivots)`` where R keeps only the nonzero rows.
    """
    f = M.field
    p = f.p if isinstance(f, PrimeField) else None
    rows = _echelon(f, _sparse_rows(M))
    pivots = sorted(rows)
    # back-substitution from the last pivot up: the rows below are already
    # reduced, so clearing one pivot column brings in no other
    for lead in reversed(pivots):
        work = rows[lead]
        for c in [k for k in work if k != lead and k in rows]:
            work = _reduce(work, rows[c], c, p)
        rows[lead] = work
    zero = f.zero
    out = []
    for lead in pivots:
        work = rows[lead]
        pv = work[lead]
        row = [zero] * M.cols
        for k, v in work.items():
            row[k] = v if p is not None else Fraction(v, pv)
        out.append(row)
    return Matrix(f, out, cols=M.cols), len(pivots), pivots


def _free_rows(basis: Matrix, pivots):
    """The non-pivot columns of the RREF ``basis`` and, for each such
    column fc, the row e_fc minus column fc of ``basis`` at the pivots."""
    f, n = basis.field, basis.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    rows = []
    for fc in free:
        v = [f.zero] * n
        v[fc] = f.one
        for brow, pc in zip(basis.data, pivots):
            v[pc] = f.neg(brow[fc])
        rows.append(v)
    return free, Matrix(f, rows, cols=n)


def kernel(M: Matrix) -> "Subspace":
    """Right null space of M, as a canonical subspace of the column space."""
    reduced, _, pivots = rref(M)
    return Subspace(M.cols, _free_rows(reduced, pivots)[1])


class Subspace:
    """A subspace of a coordinate space, held as a canonical RREF basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, _canonical=False):
        if basis.cols != ambient_dim:
            raise ValueError("basis width != ambient dimension")
        if not _canonical:
            basis, _, pivots = rref(basis)
        else:
            pivots = _pivot_columns(basis)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *args):
        raise AttributeError("Subspace is immutable")

    @property
    def field(self):
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    @staticmethod
    def zero(field, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(field, [], cols=ambient_dim),
                        _canonical=True)

    @staticmethod
    def full(field, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(field, ambient_dim),
                        _canonical=True)

    @staticmethod
    def span(field, vectors, ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim,
                        Matrix(field, vectors, cols=ambient_dim))

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return (f"Subspace(dim {self.dim} of {self.ambient_dim} "
                f"over {self.field})")


def _pivot_columns(reduced: Matrix):
    pivots = []
    for row in reduced.data:
        for c, x in enumerate(row):
            if x:
                pivots.append(c)
                break
    return pivots


def _check_compatible(A: Subspace, B: Subspace):
    check_same_field(A.field, B.field)
    if A.ambient_dim != B.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {A.ambient_dim} vs {B.ambient_dim}")


def subspace_sum(A: Subspace, B: Subspace) -> Subspace:
    _check_compatible(A, B)
    stacked = Matrix(A.field, list(A.basis.data) + list(B.basis.data),
                     cols=A.ambient_dim)
    return Subspace(A.ambient_dim, stacked)


def intersect(A: Subspace, B: Subspace) -> Subspace:
    _check_compatible(A, B)
    result = annihilator(subspace_sum(annihilator(A), annihilator(B)))
    total = subspace_sum(A, B).dim
    if A.dim + B.dim != total + result.dim:
        raise ArithmeticError(
            f"modular law fails: dim A {A.dim} + dim B {B.dim} != "
            f"dim sum {total} + dim intersection {result.dim}")
    return result


def annihilator(S: Subspace) -> Subspace:
    """Vectors of the dual coordinate space killing S (dual-basis pairing)."""
    if S.dim == 0:
        return Subspace.full(S.field, S.ambient_dim)
    return kernel(S.basis)


def quotient_data(ambient_dim: int, S: Subspace):
    """Projection and section for the quotient by S.

    Quotient coordinates are indexed by the non-pivot columns of S; the
    section sends the class of e_f back to e_f.
    """
    f = S.field
    free, proj = _free_rows(S.basis, S.pivots)
    position = {c: i for i, c in enumerate(free)}
    section_rows = []
    for c in range(ambient_dim):
        row = [f.zero] * len(free)
        i = position.get(c)
        if i is not None:
            row[i] = f.one
        section_rows.append(row)
    section = Matrix(f, section_rows, cols=len(free))
    return proj, section


def contains(A: Subspace, B: Subspace) -> bool:
    """True iff B is a subspace of A."""
    _check_compatible(A, B)
    return reduce_against(A, B.basis.data) is None


def reduce_against(A: Subspace, vectors):
    """Reduce vectors against A's basis; return the first nonzero residual.

    Returns None when every vector lies in A.
    """
    f = A.field
    pivot_of = {pc: r for r, pc in enumerate(A.pivots)}
    for vec in vectors:
        v = list(vec)
        for c in range(A.ambient_dim):
            if f.is_zero(v[c]):
                continue
            r = pivot_of.get(c)
            if r is None:
                return tuple(v)
            coef = v[c]
            brow = A.basis.data[r]
            v = [f.sub(x, f.mul(coef, y)) for x, y in zip(v, brow)]
    return None


def member(A: Subspace, vec) -> bool:
    return reduce_against(A, [vec]) is None


def solve(M: Matrix, rhs):
    """One solution x of M x = rhs, or None if inconsistent."""
    f = M.field
    aug = Matrix(f, [list(row) + [b] for row, b in zip(M.data, rhs)],
                 cols=M.cols + 1)
    reduced, rank, pivots = rref(aug)
    if M.cols in pivots:
        return None
    x = [f.zero] * M.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.entry(r, M.cols)
    return tuple(x)


def sparse_rank(field, rows) -> int:
    """Rank of a row collection given as {column: value} dicts.

    Elimination keeps only nonzero entries, so kron-structured and
    band-like matrices stay cheap however large they are.
    """
    return len(_echelon(field, rows))


def matrix_rank(M: Matrix) -> int:
    """Exact rank, by sparse elimination of the nonzero entries."""
    return sparse_rank(M.field, _sparse_rows(M))
