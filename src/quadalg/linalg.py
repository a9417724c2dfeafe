"""Dense exact matrices and the canonical-subspace calculus.

Everything downstream (products, duals, complexes, diagram checks) reduces
to row reduction here.  Subspaces are kept in reduced row-echelon form, so
set equality is representation equality.  Pivoting is fixed: leftmost
nonzero column, lowest row index.

RREF has two kernels.  GF(p) with p below NUMPY_MODULUS_LIMIT
eliminates on int64 numpy arrays, where every product of two residues fits.
Q and the larger primes share one pure-Python integer Gauss-Jordan loop:
over Q each row is cleared of denominators and kept primitive
(fraction-free), over GF(p) it is reduced mod p; Fractions are only built
for the final reduced rows.  Matrix products use the same numpy limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .fields import PrimeField, check_same_field

# Moduli below this keep every product of two residues, and the blocked
# sums in ``__matmul__``, inside int64; larger ones take the Python paths.
NUMPY_MODULUS_LIMIT = 1 << 20


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
        f = self.field
        return all(f.is_zero(x) for row in self.data for x in row)

    def transpose(self) -> "Matrix":
        return Matrix(self.field,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], cols=self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        check_same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        f = self.field
        zero = f.zero
        return Matrix(f, [[b if a == zero else (a if b == zero
                                                else f.add(a, b))
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
        f = self.field
        return all(x == (f.one if i == j else f.zero)
                   for i, row in enumerate(self.data)
                   for j, x in enumerate(row))

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
        if isinstance(f, PrimeField) and f.p < NUMPY_MODULUS_LIMIT:
            a = np.array(self.data, dtype=np.int64).reshape(self.rows, self.cols)
            b = np.array(other.data, dtype=np.int64).reshape(other.rows, other.cols)
            # block the contraction so intermediate sums stay below 2^63
            c = np.zeros((self.rows, other.cols), dtype=np.int64)
            step = max(1, (1 << 62) // max(1, f.p * f.p * other.cols))
            for k0 in range(0, self.cols, step):
                c = (c + a[:, k0:k0 + step] @ b[k0:k0 + step, :]) % f.p
            return Matrix(f, c.tolist(), cols=other.cols)
        # accumulate rows of `other`, skipping zero coefficients
        zero, one = f.zero, f.one
        odata = other.data
        out = []
        for row in self.data:
            acc = [zero] * other.cols
            for k, a in enumerate(row):
                if a == zero:
                    continue
                orow = odata[k]
                if a == one:
                    acc = [x + y if y != zero else x
                           for x, y in zip(acc, orow)]
                else:
                    acc = [x + a * y if y != zero else x
                           for x, y in zip(acc, orow)]
            out.append(acc)
        return Matrix(f, out, cols=other.cols)

    def apply(self, vec):
        """Matrix times a coordinate vector (returned as a tuple)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        zero = f.zero
        support = [(j, x) for j, x in enumerate(vec) if x != zero]
        out = []
        for row in self.data:
            acc = zero
            for j, x in support:
                if row[j] != zero:
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


def _rref_primefield(M: Matrix):
    p = M.field.p
    a = np.array(M.data, dtype=np.int64).reshape(M.rows, M.cols) % p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col_all = a[:, c].copy()
        col_all[r] = 0
        mask = col_all != 0
        if mask.any():
            a[mask] = (a[mask] - np.outer(col_all[mask], a[r])) % p
        pivots.append(c)
        r += 1
    rank = r
    reduced = Matrix(M.field, a[:rank].tolist() if rank else [],
                     cols=ncols)
    return reduced, rank, pivots


def _rref_integer(M: Matrix):
    """Gauss-Jordan on Python ints: fraction-free over Q, mod p over GF(p).

    Over Q, ``(pv/g) * row - (a/g) * prow`` is a nonzero multiple of the
    Fraction update ``row - (a/pv) * prow``, so after its content is divided
    out each stored row is the primitive integer multiple of the unique
    Gauss-Jordan intermediate row.  The Bareiss row is an integer multiple
    of that same row, so stored entries divide the Bareiss ones and are
    bounded by minors of the denominator-cleared input.
    """
    f = M.field
    p = f.p if isinstance(f, PrimeField) else None
    if p is None:
        rows = []
        for row in M.data:
            den = lcm(*(x.denominator for x in row))
            ints = [x.numerator * (den // x.denominator) for x in row]
            g = gcd(*ints)
            rows.append([x // g for x in ints] if g > 1 else ints)
    else:
        rows = [list(row) for row in M.data]
    nrows, ncols = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        pv = prow[c]
        if p is not None and pv != 1:
            inv = pow(pv, -1, p)
            prow = rows[r] = [x * inv % p for x in prow]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            a = row[c]
            if not a:
                continue
            if p is not None:
                rows[i] = [(x - a * y) % p for x, y in zip(row, prow)]
                continue
            g = gcd(pv, a)
            s, t = pv // g, a // g
            new = [s * x - t * y for x, y in zip(row, prow)]
            g = gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    rank = r
    if p is None:
        zero = f.zero
        out = []
        for row, c in zip(rows, pivots):
            pv = row[c]
            out.append([Fraction(x, pv) if x else zero for x in row])
    else:
        out = rows[:rank]
    return Matrix(f, out, cols=ncols), rank, pivots


def rref(M: Matrix):
    """Reduced row-echelon form.

    Returns ``(R, rank, pivots)`` where R keeps only the nonzero rows.
    """
    if (isinstance(M.field, PrimeField) and M.rows
            and M.field.p < NUMPY_MODULUS_LIMIT):
        return _rref_primefield(M)
    return _rref_integer(M)


def kernel(M: Matrix) -> "Subspace":
    """Right null space of M, as a canonical subspace of the column space."""
    f = M.field
    reduced, rank, pivots = rref(M)
    n = M.cols
    free = [c for c in range(n) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [f.zero] * n
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(reduced.entry(r, fc))
        basis.append(v)
    return Subspace(n, Matrix(f, basis, cols=n), _canonical=False)


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
    f = reduced.field
    pivots = []
    for row in reduced.data:
        for c, x in enumerate(row):
            if not f.is_zero(x):
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
    pivot_set = set(S.pivots)
    free = [c for c in range(ambient_dim) if c not in pivot_set]
    proj_rows = []
    for fc in free:
        row = [f.zero] * ambient_dim
        row[fc] = f.one
        for r, pc in enumerate(S.pivots):
            row[pc] = f.neg(S.basis.entry(r, fc))
        proj_rows.append(row)
    proj = Matrix(f, proj_rows, cols=ambient_dim)
    section_rows = []
    for c in range(ambient_dim):
        row = [f.zero] * len(free)
        if c in free:
            row[free.index(c)] = f.one
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
    band-like matrices reduce far faster than the dense routine.
    """
    pivots = {}  # pivot column -> normalized row dict
    rank = 0
    for row in rows:
        work = {j: v for j, v in row.items() if not field.is_zero(v)}
        while work:
            j = min(work)
            if j not in pivots:
                inv = field.inv(work[j])
                pivots[j] = {k: field.mul(inv, v) for k, v in work.items()}
                rank += 1
                break
            c = work[j]
            for k, v in pivots[j].items():
                new = field.sub(work.get(k, field.zero), field.mul(c, v))
                if field.is_zero(new):
                    work.pop(k, None)
                else:
                    work[k] = new
        # empty work: row was dependent
    return rank


def matrix_rank(M: Matrix) -> int:
    """Exact rank; over Q large matrices go through sparse elimination."""
    if M.rows == 0 or M.cols == 0:
        return 0
    if isinstance(M.field, PrimeField) or M.rows * M.cols <= 4096:
        return rref(M)[1]
    f = M.field
    rows = ({j: v for j, v in enumerate(row) if not f.is_zero(v)}
            for row in M.data)
    return sparse_rank(f, rows)
