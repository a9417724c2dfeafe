"""Sparse exact matrices and the canonical-subspace calculus.

Duals, complexes and diagram checks reduce to row reduction here; Manin's
products do not, since they write their RREF bases down from those of
their factors (see ``presentations``).  Subspaces are kept in reduced
row-echelon form, so set equality is representation equality; a basis
built in that form is passed with ``_canonical=True``, which checks only
that its rows lead at increasing columns.

A Matrix stores one ``{column: scalar}`` dict per row, holding only the
nonzero entries, each canonical (see ``fields``): over Q an int when
integral and otherwise a Fraction with denominator above 1, over GF(p) an
int in 1..p-1.  These are the rows the elimination kernel works on.
Operations that keep the invariant build their results from rows they
already hold, without coercing them again.  A canonical sum is zero exactly
when it is falsy, so the code tests ``if x`` rather than ``x == zero``, and
a canonical entry is one exactly when it is the int 1.

Rows are eliminated in one of two forms, chosen by ``_packs``.
``_echelon`` works on sparse ``{column: int}`` row dicts, over Q and for
sparse GF(p) matrices or large p: over GF(p) on residues, each pivot row
scaled to a leading 1; over Q fraction-free, each row cleared of
denominators and kept primitive, so every stored integer is bounded by a
minor of the input (see ``_echelon``).  ``_echelon_packed`` holds a dense
GF(p) row as one int with a 64-bit slot per column, so that a row
operation is one multiply-add.  ``matrix_rank`` is forward elimination
alone (``echelon``); ``rref`` adds back-substitution (``reduced``), which
builds Fractions only where its integer rows do not divide exactly.
``echelon`` returns ``{pivot column: row}``, a packed row an int and a
sparse one a dict, so ``reduced`` reads the row form off the rows and no
flag leaves this module; a caller that needs the rank first keeps that
dict and finishes the RREF later, and ``quotient_data`` takes the
``(basis, pivots)`` that ``reduced`` returns.  Products accumulate ints as well, in one core (``combine``)
that serves ``Matrix.__matmul__`` and ``tensorindex.contract``: over Q
each factor's rows are cleared to one denominator first.  An output row is
summed into a list of ``width`` slots (one finish per slot) when the rows
fill their width, and into a dict (one finish per entry) otherwise; one
rule, ``_fills``, picks the accumulator once per call from the row lengths
(4 x the expected terms per row >= width), as ``_packs`` picks the row form
once per elimination.  Membership (``reduce_against``) works on the same
sparse rows; a linear system is solved by ``rref`` of its augmented
matrix.  The dense ``Matrix.data`` view exists for display only.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import gcd, lcm

from .fields import PrimeField, Record, check_same_field


class Matrix(Record):
    """Immutable sparse matrix over an exact field, a ``Record`` that
    caches its hash.

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
        super().__init__(field, len(sparse), cols, tuple(sparse), None)

    @staticmethod
    def from_rows(field, rows, cols) -> "Matrix":
        """A matrix on canonical sparse rows, taken as they are."""
        M = object.__new__(Matrix)
        rows = tuple(rows)
        Record.__init__(M, field, len(rows), cols, rows, None)
        return M

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

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(len(row) == 1 and row.get(i) == 1
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
        dens, ints = int_rows(f, other.sparse, set().union(*self.sparse))
        return Matrix.from_rows(
            f, combine(f, self.sparse, dens, ints, other.cols), other.cols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.sparse == other.sparse)

    def __hash__(self):
        # computed on first use: products and duals are cached by
        # presentation, graded structures and Koszul reports by relation
        # space, so every cache lookup hashes the relations
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.field, self.rows, self.cols,
                 tuple(frozenset(row.items()) for row in self.sparse))))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: [{body}])"


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


def int_rows(f, rows, keys):
    """``(dens, ints)`` with rows[k] = ints[k] / dens[k] for each k in
    ``keys``, ints[k] an int row.  Over GF(p) the rows are residue rows
    already, and ``(None, rows)`` is returned."""
    if isinstance(f, PrimeField):
        return None, rows
    dens, ints = {}, {}
    for k in keys:
        row = rows[k]
        d = dens[k] = lcm(*(y.denominator for y in row.values()))
        ints[k] = row if d == 1 else {
            j: y.numerator * (d // y.denominator) for j, y in row.items()}
    return dens, ints


def _fills(combos, ints, width: int) -> bool:
    """The one rule that puts a product on the dense accumulator.

    An output row sums about t = (mean length of a combination) x (mean
    length of a row of ``ints``) terms.  A list of ``width`` slots takes
    each term faster than a dict, but is allocated and read back whole, so
    it wins once 4·t >= width.  The rule is judged once per call, from the
    row lengths alone: judged per row, it made a 3000 x 3000 product with
    2 entries per row (which stays on the dict) about a quarter slower.
    """
    rows = ints.values() if isinstance(ints, dict) else ints
    terms = sum(map(len, combos)) * sum(map(len, rows))
    return 0 < terms and 4 * terms >= width * len(combos) * len(rows)


def combine(f, combos, dens, ints, width: int, shifts=None) -> list:
    """The canonical rows sum_k a_k * ints[k] / dens[k], one per
    ``{k: a_k}`` in ``combos``: the accumulation core of every product.

    ``dens`` and ``ints`` come from ``int_rows``; with ``shifts``, the
    columns of ints[k] are moved right by shifts[k]; every output column
    is below ``width``.  Over Q each combination is cleared to one
    denominator first, so the sums run on ints; over GF(p) they are
    unreduced residues.  The sums go into a list of ``width`` slots or a
    dict, as ``_fills`` decides for the whole call.  Either way each
    output entry gets one finish: ``% p``, or a division by the common
    denominator that gives an int wherever it is exact.
    """
    p = f.p if isinstance(f, PrimeField) else None
    dense = _fills(combos, ints, width)
    out = []
    for row in combos:
        den = 1
        if p is None:
            den = lcm(*(a.denominator * dens[k] for k, a in row.items()))
            if den != 1:
                row = {k: a.numerator * (den // (a.denominator * dens[k]))
                       for k, a in row.items()}
        if dense:
            acc = [0] * width
            for k, a in row.items():
                if shifts is not None and (s := shifts[k]):
                    for j, y in ints[k].items():
                        acc[j + s] += a * y
                elif a != 1:
                    for j, y in ints[k].items():
                        acc[j] += a * y
                else:
                    for j, y in ints[k].items():
                        acc[j] += y
            sums = enumerate(acc)
        else:
            acc = {}
            for k, a in row.items():
                terms = ints[k].items()
                if shifts is not None and (s := shifts[k]):
                    terms = [(j + s, a * y) for j, y in terms]
                elif a != 1:
                    terms = [(j, a * y) for j, y in terms]
                for j, y in terms:
                    acc[j] = acc[j] + y if j in acc else y
            sums = acc.items()
        if p is not None:
            out.append({j: x for j, v in sums if (x := v % p)})
        elif den == 1:
            out.append({j: v for j, v in sums if v})
        else:
            out.append({j: _ratio(v, den) for j, v in sums if v})
    return out


def _ratio(n: int, d: int):
    """n / d as a canonical Q scalar: an int when d divides n."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


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
    """Forward elimination of canonical ``Matrix`` rows, taken as they are.

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
            work = (dict(row) if den == 1 else
                    {j: v.numerator * (den // v.denominator)
                     for j, v in row.items()})
            g = gcd(*work.values())
            if g > 1:
                work = {k: v // g for k, v in work.items()}
        else:
            work = dict(row)
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


def _packs(field, rows, cols) -> bool:
    """The one rule that puts a GF(p) matrix on packed rows.

    A packed row is one int with a 64-bit slot per column.  A slot starts
    below p and gains at most ``cols`` addends, each below p^2, so while
    2·bitlen(p) + bitlen(cols) + 1 <= 64 it stays below 2^63 and never
    carries.  Each pivot costs a Python pass over all the columns, and each
    row operation saves one over a pivot row's nonzeros; with k = nnz /
    cols, packed rows won on the graded, Koszul and resolution matrices
    where k >= 6 and k·density >= 2 (k <= rows, so 6 rows at least).
    """
    if (len(rows) < 6 or not isinstance(field, PrimeField)
            or 2 * field.p.bit_length() + cols.bit_length() + 1 > 64):
        return False
    nnz = sum(map(len, rows))
    return 0 < 6 * cols <= nnz and nnz * nnz >= 2 * len(rows) * cols * cols


def _pack(values) -> int:
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _unpack(row: int, n: int) -> tuple:
    return struct.unpack(f"<{n}Q", row.to_bytes(8 * n, "little"))


_SLOT = (1 << 64) - 1


def _echelon_packed(p, rows, cols):
    """``_echelon`` over GF(p) on packed rows: ``{pivot column: tail}``,
    tail being the pivot row scaled to a leading 1, from its pivot column
    on, with that 1 removed.  A work row is shifted so that its lowest
    nonzero slot, v, is slot 0.  Adding (p - v % p)·tail, one multiply-add,
    leaves slot 0 divisible by p, and it is dropped."""
    tails = {}
    for row in rows:
        dense = [0] * cols
        for j, x in row.items():
            dense[j] = x
        work, off = _pack(dense), 0
        while work:
            if not (v := work & _SLOT):
                r = (work & -work).bit_length() - 1 >> 6
                work >>= r << 6
                off += r
                continue
            a = v % p
            if a and (tail := tails.get(off)) is None:
                inv = pow(a, -1, p)
                tails[off] = _pack(
                    [x * inv % p for x in _unpack(work, cols - off)]) - 1
                break
            if a:
                work += (p - a) * tail
            work >>= 64
            off += 1
    return tails


def _back_packed(p, tails, cols):
    """``{pivot column: RREF row}`` over GF(p) from the tails of
    ``_echelon_packed``.

    Back-substitution runs from the last pivot up.  A finished row is zero
    at every other pivot column, so a forward row's coefficients there are
    read once; then one multiply-add per coefficient (within the slot
    bound of ``_packs``) and one reduction mod p finish it.
    """
    done, out = {}, {}
    for lead in sorted(tails, reverse=True):
        n = cols - lead
        acc = tails[lead] + 1
        coeffs = _unpack(acc, n)
        for k, row in done.items():
            if c := coeffs[k - lead]:
                acc += (p - c) * row << (k - lead << 6)
        values = [x % p for x in _unpack(acc, n)]
        out[lead] = {j: x for j, x in enumerate(values, lead) if x}
        done[lead] = _pack(values)
    return out


def echelon(M: Matrix) -> dict:
    """Forward elimination of M, the part of ``rref`` that gives the rank.

    Returns ``{pivot column: row}`` with one row per pivot: the int tails
    of ``_echelon_packed`` where ``_packs`` chooses packed rows, else the
    integer row dicts of ``_echelon``.  ``reduced`` finishes them into the
    RREF basis.
    """
    f = M.field
    if _packs(f, M.sparse, M.cols):
        return _echelon_packed(f.p, M.sparse, M.cols)
    return _echelon(f, M.sparse)


def reduced(f, cols: int, rows: dict):
    """``(R, pivots)``: the RREF basis, nonzero rows only, that
    back-substitution makes of the rows of ``echelon`` (which it
    consumes), and its pivot columns.  The rows are packed tails when they
    are ints and row dicts otherwise."""
    p = f.p if isinstance(f, PrimeField) else None
    pivots = sorted(rows)
    if pivots and type(rows[pivots[0]]) is int:
        rows = _back_packed(p, rows, cols)
    else:
        # from the last pivot up: the rows below are already reduced, so
        # clearing one pivot column brings in no other
        for lead in reversed(pivots):
            work = rows[lead]
            for c in [k for k in work if k != lead and k in rows]:
                work = _reduce(work, rows[c], c, p)
            rows[lead] = work
    # over GF(p) the pivot rows are canonical residue rows with a leading
    # 1; over Q the primitive int rows are divided by their leading entry
    out = [rows[lead] for lead in pivots]
    if p is None:
        out = [row if (d := row[lead]) == 1 else
               {k: _ratio(v, d) for k, v in row.items()}
               for row, lead in zip(out, pivots)]
    return Matrix.from_rows(f, out, cols), pivots


def rref(M: Matrix):
    """Reduced row-echelon form.

    Returns ``(R, rank, pivots)`` where R keeps only the nonzero rows.
    """
    R, pivots = reduced(M.field, M.cols, echelon(M))
    return R, len(pivots), pivots


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


class Subspace(Record):
    """A subspace of a coordinate space, held as a canonical RREF basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, _canonical=False):
        if basis.cols != ambient_dim:
            raise ValueError("basis width != ambient dimension")
        if not _canonical:
            basis, _, pivots = rref(basis)
        else:
            pivots = [min(row) for row in basis.sparse]
            if any(p >= q for p, q in zip(pivots, pivots[1:])):
                raise ValueError("canonical rows must lead at strictly "
                                 "increasing columns")
        super().__init__(ambient_dim, basis, tuple(pivots))

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

    def __repr__(self):
        return (f"Subspace(dim {self.dim} of {self.ambient_dim} "
                f"over {self.field})")


def annihilator(S: Subspace) -> Subspace:
    """Vectors of the dual coordinate space killing S (dual-basis pairing).

    S's basis is already in RREF, so its free rows span the annihilator.
    """
    return Subspace(S.ambient_dim, _free_rows(S.basis, S.pivots)[1])


def null_basis(M: Matrix):
    """``(free, K)``: the non-pivot columns of M's RREF and a basis of
    M's right null space, K[t] 1 at free[t] and 0 at the other ones."""
    R, _, pivots = rref(M)
    return _free_rows(R, pivots)


def quotient_data(basis: Matrix, pivots):
    """Projection and section for the quotient by the span of the RREF
    ``basis`` with pivot columns ``pivots``, as ``reduced`` returns them.

    Quotient coordinates are indexed by the non-pivot columns; the section
    sends the class of e_f back to e_f.
    """
    f = basis.field
    free, proj = _free_rows(basis, pivots)
    section_rows = [{} for _ in range(basis.cols)]
    for i, c in enumerate(free):
        section_rows[c][i] = f.one
    return proj, Matrix.from_rows(f, section_rows, len(free))


def reduce_against(A: Subspace, rows):
    """Reduce ``{column: scalar}`` rows against A's basis; return the first
    nonzero residual as a dense tuple.

    Returns None when every row lies in A.  The residual is canonical, the
    one vector of row + A that is zero at A's pivots: each pivot entry is
    cleared once, as A's RREF basis row there is zero at the other pivots.
    """
    f = A.field
    basis = dict(zip(A.pivots, A.basis.sparse))
    for row in rows:
        v = dict(row)
        for c in [c for c in v if c in basis]:
            coef = f.neg(v[c])
            for j, y in basis[c].items():
                if x := f.add(v.get(j, f.zero), f.mul(coef, y)):
                    v[j] = x
                else:
                    del v[j]
        if v:
            return tuple(v.get(j, f.zero) for j in range(A.ambient_dim))
    return None


def matrix_rank(M: Matrix) -> int:
    """Exact rank: the forward elimination of ``rref`` alone."""
    return len(echelon(M))
