"""Sparse exact matrices and the canonical-subspace calculus.

Everything downstream (products, duals, complexes, diagram checks) reduces
to row reduction here.  Subspaces are kept in reduced row-echelon form, so
set equality is representation equality.

A Matrix stores one ``{column: scalar}`` dict per row, holding only the
nonzero entries, each canonical: a Fraction over Q and an int in 1..p-1
over GF(p).  These are the rows the elimination kernel works on.
Operations that keep the invariant build their results from rows they
already hold, without coercing them again.  A canonical sum is zero exactly
when it is falsy, so the code tests ``if x`` rather than ``x == zero``
(``Fraction.__bool__`` reads only the numerator, while ``Fraction.__eq__``
goes through an isinstance chain).  Likewise a canonical entry is one
exactly when ``x.numerator == x.denominator``: a Fraction is in lowest
terms, and an int residue is its own numerator over 1.

One elimination kernel, ``_echelon``, serves both field families and every
caller: forward elimination on sparse ``{column: int}`` row dicts.  Over
GF(p) the entries are residues and each pivot row is scaled to a leading 1;
Python ints never overflow, so no modulus is too large.  Over Q each row is
cleared of denominators and kept primitive (fraction-free), and every
stored integer is bounded by a minor of the denominator-cleared input (see
``_echelon``).  ``sparse_rank`` and ``matrix_rank`` count its pivots;
``rref`` adds back-substitution and builds Fractions only for the final
rows.  Membership (``reduce_against``) and ``solve`` work on the same
sparse rows; the dense ``Matrix.data`` view exists for display only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import PrimeField, check_same_field


class Matrix:
    """Immutable sparse matrix over an exact field.

    ``sparse`` is a tuple with one ``{column: scalar}`` dict per row that
    holds only the nonzero canonical entries (see the module docstring).
    ``Matrix(field, rows, cols)`` takes dense input from outside the matrix
    layer: it coerces every entry, checks the shape and drops zeros.
    ``Matrix.from_rows(field, rows, cols)`` takes rows that already keep the
    invariant as they are; nothing may mutate them afterwards, since
    matrices share rows.  ``data`` is a dense view for display only (a
    tuple of row tuples, built on each access); computations read
    ``sparse``.
    """

    __slots__ = ("field", "rows", "cols", "sparse", "_hash")

    def __init__(self, field, data, cols=None):
        coerce = field.coerce
        sparse = []
        widths = set()
        for row in data:
            row = [coerce(x) for x in row]
            widths.add(len(row))
            sparse.append({j: x for j, x in enumerate(row) if x})
        if sparse:
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs explicit column count")
        _fill(self, field, cols, tuple(sparse))

    @staticmethod
    def from_rows(field, rows, cols) -> "Matrix":
        """A matrix on canonical sparse rows, taken as they are."""
        M = object.__new__(Matrix)
        _fill(M, field, cols, tuple(rows))
        return M

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    @property
    def data(self):
        zero, cols = self.field.zero, self.cols
        out = []
        for row in self.sparse:
            dense = [zero] * cols
            for j, x in row.items():
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    @staticmethod
    def identity(field, n):
        one = field.one
        return Matrix.from_rows(field, [{i: one} for i in range(n)], n)

    @staticmethod
    def zero(field, rows, cols):
        return Matrix.from_rows(field, [{} for _ in range(rows)], cols)

    def entry(self, i, j):
        return self.sparse[i].get(j, self.field.zero)

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, x in row.items():
                out[j][i] = x
        return Matrix.from_rows(self.field, out, self.rows)

    def _merge(self, other: "Matrix", negate: bool, what: str) -> "Matrix":
        """self + other, or self - other when ``negate``."""
        check_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in matrix {what}")
        return assemble(self.field, self.rows, self.cols,
                        ((0, 0, False, self), (0, 0, negate, other)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, False, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, True, "subtraction")

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        if not c:
            return Matrix.zero(f, self.rows, self.cols)
        return Matrix.from_rows(
            f, [{j: f.mul(c, x) for j, x in row.items()}
                for row in self.sparse], self.cols)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(len(row) == 1
                   and (x := row.get(i, 0)).numerator == x.denominator
                   for i, row in enumerate(self.sparse))

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
        # accumulate the rows of `other`, scaled by the entries of each row
        # of `self`; over GF(p) the sums stay unreduced until the one
        # coerce per output entry
        coerce = f.coerce
        orows = other.sparse
        out = []
        for row in self.sparse:
            acc = {}
            for k, a in row.items():
                terms = orows[k].items()
                if a.numerator != a.denominator:
                    terms = [(j, a * y) for j, y in terms]
                for j, y in terms:
                    acc[j] = acc[j] + y if j in acc else y
            out.append({j: x for j, v in acc.items() if (x := coerce(v))})
        return Matrix.from_rows(f, out, other.cols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.sparse == other.sparse)

    def __hash__(self):
        # computed on first use: products, duals and graded structures are
        # cached by presentation, so every cache lookup hashes the relations
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.field, self.rows, self.cols,
                 tuple(frozenset(row.items()) for row in self.sparse))))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: [{body}])"


class Record:
    """An immutable value: a subclass names its fields in ``__slots__``
    and is built positionally, compared, hashed and printed field by field.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes "
                            f"{len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__name__}({body})"


def _fill(M: Matrix, field, cols: int, sparse: tuple):
    for name, value in (("field", field), ("rows", len(sparse)),
                        ("cols", cols), ("sparse", sparse), ("_hash", None)):
        object.__setattr__(M, name, value)


def assemble(f, dst_dim: int, src_dim: int, blocks) -> Matrix:
    """The dst_dim x src_dim sum of signed blocks, on canonical rows.

    Each block ``(row offset, column offset, negate, M)`` adds M, or -M
    when ``negate``, with its top-left entry at the two offsets.  Entries
    that cancel are dropped.
    """
    rows = [{} for _ in range(dst_dim)]
    for r0, c0, negate, M in blocks:
        for out, row in zip(rows[r0:r0 + M.rows], M.sparse):
            for j, x in row.items():
                if negate:
                    x = f.neg(x)
                j += c0
                y = out.get(j)
                if y is None:
                    out[j] = x
                elif s := f.add(y, x):
                    out[j] = s
                else:
                    del out[j]
    return Matrix.from_rows(f, rows, src_dim)


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
    rows = _echelon(f, M.sparse)
    pivots = sorted(rows)
    # back-substitution from the last pivot up: the rows below are already
    # reduced, so clearing one pivot column brings in no other
    for lead in reversed(pivots):
        work = rows[lead]
        for c in [k for k in work if k != lead and k in rows]:
            work = _reduce(work, rows[c], c, p)
        rows[lead] = work
    # over GF(p) the pivot rows are canonical residue rows with a leading 1
    out = [rows[lead] for lead in pivots]
    if p is None:
        out = [{k: Fraction(v, row[lead]) for k, v in row.items()}
               for row, lead in zip(out, pivots)]
    return Matrix.from_rows(f, out, M.cols), len(pivots), pivots


def _free_rows(basis: Matrix, pivots):
    """The non-pivot columns of the RREF ``basis`` and, for each such
    column fc, the row e_fc minus column fc of ``basis`` at the pivots."""
    f, n = basis.field, basis.cols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    rows = {fc: {fc: f.one} for fc in free}
    for brow, pc in zip(basis.sparse, pivots):
        for c, x in brow.items():
            if c != pc:
                rows[c][pc] = f.neg(x)
    return free, Matrix.from_rows(f, rows.values(), n)


class Subspace:
    """A subspace of a coordinate space, held as a canonical RREF basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, _canonical=False):
        if basis.cols != ambient_dim:
            raise ValueError("basis width != ambient dimension")
        if not _canonical:
            basis, _, pivots = rref(basis)
        else:
            pivots = [min(row) for row in basis.sparse]
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
        return Subspace(ambient_dim, Matrix.zero(field, 0, ambient_dim),
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


def annihilator(S: Subspace) -> Subspace:
    """Vectors of the dual coordinate space killing S (dual-basis pairing).

    S's basis is already in RREF, so its free rows span the annihilator.
    """
    return Subspace(S.ambient_dim, _free_rows(S.basis, S.pivots)[1])


def null_basis(M: Matrix) -> Matrix:
    """A basis of the right null space of M, one row per non-pivot column
    of M's RREF, with a 1 there and 0 at the other non-pivot columns."""
    R, _, pivots = rref(M)
    return _free_rows(R, pivots)[1]


def kernel(M: Matrix) -> Subspace:
    """Right null space of M, as a canonical subspace of the column space."""
    return Subspace(M.cols, null_basis(M))


def quotient_data(ambient_dim: int, S: Subspace):
    """Projection and section for the quotient by S.

    Quotient coordinates are indexed by the non-pivot columns of S; the
    section sends the class of e_f back to e_f.
    """
    f = S.field
    free, proj = _free_rows(S.basis, S.pivots)
    section_rows = [{} for _ in range(ambient_dim)]
    for i, c in enumerate(free):
        section_rows[c][i] = f.one
    return proj, Matrix.from_rows(f, section_rows, len(free))


def reduce_against(A: Subspace, rows):
    """Reduce ``{column: scalar}`` rows against A's basis; return the first
    nonzero residual as a dense tuple.

    Returns None when every row lies in A.  Each step clears the leftmost
    entry c with the basis row that leads at c and stops when c is no
    pivot; A's basis is in RREF, so that row touches no column left of c.
    """
    f = A.field
    basis = dict(zip(A.pivots, A.basis.sparse))
    for row in rows:
        v = dict(row)
        while v:
            c = min(v)
            brow = basis.get(c)
            if brow is None:
                out = [f.zero] * A.ambient_dim
                for j, x in v.items():
                    out[j] = x
                return tuple(out)
            coef = v[c]
            for j, y in brow.items():
                if x := f.sub(v.get(j, f.zero), f.mul(coef, y)):
                    v[j] = x
                else:
                    del v[j]
    return None


def solve(M: Matrix, rhs):
    """One solution x of M x = rhs (a tuple), or None if inconsistent."""
    f, n = M.field, M.cols
    if len(rhs) != M.rows:
        raise ValueError("right-hand side length != row count")
    aug = []
    for row, b in zip(M.sparse, rhs):
        b = f.coerce(b)
        aug.append({**row, n: b} if b else row)
    reduced, _, pivots = rref(Matrix.from_rows(f, aug, n + 1))
    if n in pivots:
        return None
    x = [f.zero] * n
    for row, pc in zip(reduced.sparse, pivots):
        x[pc] = row.get(n, f.zero)
    return tuple(x)


def sparse_rank(field, rows) -> int:
    """Rank of a row collection given as {column: value} dicts.

    Elimination keeps only nonzero entries, so kron-structured and
    band-like matrices stay cheap however large they are.
    """
    return len(_echelon(field, rows))


def matrix_rank(M: Matrix) -> int:
    """Exact rank, by sparse elimination of the nonzero entries."""
    return sparse_rank(M.field, M.sparse)
