"""Quadratic presentations, Manin products, duality, and morphisms.

A presentation is a generator count n with a canonical relation subspace
R inside the n^2-dimensional degree-2 word space.  The black product takes
the shuffled tensor of relation spaces, the white product the shuffled sum
with the full complements, the dual the annihilator.

Neither product eliminates: each writes the RREF basis of its relations
down from the RREF bases of R_A and R_B.  In Kronecker coordinates of
V_A^2 (x) V_B^2 (the word w of V_A^2, then u of V_B^2) let a_s lead at
p_s and b_r at q_r.  The black rows are the a_s (x) b_r.  The white sum
V_A^2 (x) R_B + R_A (x) V_B^2 is V_A^2 (x) R_B + R_A (x) F_B, F_B spanned
by the e_u at the non-pivot columns u of R_B, and its RREF has three kinds
of rows:

- (i) e_w (x) b_r for each w that is no pivot of R_A, leading at (w, q_r);
- (ii) e_{p_s} (x) e_{q_r} - (a_s - e_{p_s}) (x) (b_r - e_{q_r}), which is
  a_s (x) e_{q_r} + e_{p_s} (x) b_r - a_s (x) b_r, leading at (p_s, q_r);
- (iii) a_s (x) e_u for each u that is no pivot of R_B, leading at (p_s, u).

A row (ii) is built from the tails a_s - e_{p_s} and b_r - e_{q_r}, each
cleared to integers over one denominator d_s or d_r once per pivot row, so
each of its products is an int product with one finish: ``% p`` over GF(p),
and over Q the division by d_s * d_r, an int where it is exact and else a
Fraction.  Over Q about half the products of one call repeat, so each
finished scalar is kept for the call, by denominator and product.

Each row lies in the sum and no two lead at the same word, so these
n_A^2 c_B + c_A n_B^2 - c_A c_B rows, the dimension of the sum, are a basis
of it.  In both products a row's lead is the least word (w, u) of its
support in the order that compares w, then u (every other entry (w', u')
has w' >= w and u' >= u), and each pivot column is zero in every other
row.  t23 sends (w, u) = (a, a', b, b') to (a, b, a', b'), which is least
as well when w' >= w and u' >= u, so the t23 image of a row leads at the
image of its lead.  Sorted by those leads, the moved rows are the
canonical basis as they stand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .fields import PrimeField, Record, check_same_field
from .linalg import (Matrix, Subspace, annihilator, int_rows,
                     reduce_against)
from .tensorindex import kron, t23, tensor_subspace


class QuadraticPresentation(Record):
    """Generators plus a canonical quadratic relation subspace."""

    __slots__ = ("field", "n", "labels", "R")

    def __init__(self, field, labels, R: Subspace):
        labels = tuple(labels)
        if not labels:
            raise ValueError("empty generator list")
        if len(set(labels)) != len(labels) or any(not s for s in labels):
            raise ValueError("generator labels must be distinct and nonempty")
        n = len(labels)
        if R.ambient_dim != n * n:
            raise ValueError("relation space must live in degree-2 words")
        check_same_field(field, R.field)
        super().__init__(field, n, labels, R)

    def same_relations(self, other: "QuadraticPresentation") -> bool:
        """Equality ignoring generator labels (R fixes the field and n)."""
        return self.R == other.R


def free_presentation(field, labels) -> QuadraticPresentation:
    n = len(tuple(labels))
    return QuadraticPresentation(field, labels,
                                 Subspace.zero(field, n * n))


def full_relations_presentation(field, labels) -> QuadraticPresentation:
    n = len(tuple(labels))
    return QuadraticPresentation(field, labels,
                                 Subspace.full(field, n * n))


def unit_white(field) -> QuadraticPresentation:
    """Free algebra on one generator: the neutral object of the white product."""
    return free_presentation(field, ("t",))


def unit_black(field) -> QuadraticPresentation:
    """One generator with full relations: the neutral object of the black product.

    The unit law A.black(I) = A forces the full 1-dim relation space; it also
    makes dual(unit_black) equal unit_white on the nose.
    """
    return full_relations_presentation(field, ("e",))


def _product_labels(A, B):
    return tuple(f"{a}⊗{b}" for a in A.labels for b in B.labels)


@lru_cache(maxsize=4096)
def dual(A: QuadraticPresentation) -> QuadraticPresentation:
    labels = tuple(dual_label(s) for s in A.labels)
    return QuadraticPresentation(A.field, labels, annihilator(A.R))


def dual_label(label: str) -> str:
    """The dual generator's label: x <-> x!.  It is an involution on the
    labels the parser accepts (none ends in "!!" or is "!" alone)."""
    return label[:-1] if label.endswith("!") else label + "!"


@lru_cache(maxsize=4096)
def black(A: QuadraticPresentation, B: QuadraticPresentation):
    """Manin's bullet product: relations t23(R_A tensor R_B).

    The rows a_s (x) b_r of ``tensor_subspace`` moved by t23 and sorted by
    their leads are the canonical basis (see the module docstring).
    """
    check_same_field(A.field, B.field)
    S = tensor_subspace(A.R, B.R)
    image = t23(A.n, B.n)
    R = _sorted_by_lead(A.field, len(image), {
        image[lead]: {image[j]: x for j, x in row.items()}
        for lead, row in zip(S.pivots, S.basis.sparse)})
    return QuadraticPresentation(A.field, _product_labels(A, B), R)


@lru_cache(maxsize=4096)
def white(A: QuadraticPresentation, B: QuadraticPresentation):
    """Manin's circle product: relations t23(V_A^2 ⊗ R_B + R_A ⊗ V_B^2).

    One row per word (w, u) with w a pivot of R_A or u one of R_B, written
    down by the three rules of the module docstring (no elimination, and
    no annihilator, so ``laws.check_dual_antimultiplicative`` stays an
    independent check of it) and moved by t23 as it is built.
    """
    check_same_field(A.field, B.field)
    f, nb2 = A.field, B.n * B.n
    p = f.p if isinstance(f, PrimeField) else None
    a_at = dict(zip(A.R.pivots, A.R.basis.sparse))
    b_at = dict(zip(B.R.pivots, B.R.basis.sparse))
    # for the rows (ii): each pivot row as ints over one denominator (None
    # over GF(p)), and from it the entries of -(a_s - e_{p_s}) at their row
    # offsets i * n_B^2 and those of b_r - e_{q_r}
    a_dens, a_ints = int_rows(f, a_at, a_at)
    b_dens, b_ints = int_rows(f, b_at, b_at)
    a_tails = {s: [(i * nb2, -x) for i, x in a_ints[s].items() if i != s]
               for s in a_at}
    b_tails = {r: [(j, y) for j, y in b_ints[r].items() if j != r]
               for r in b_at}
    image = t23(A.n, B.n)
    # over Q, the finished scalars of rows (ii) by denominator and product
    finished = {}
    rows = {}
    for w in range(A.n * A.n):
        a, base = a_at.get(w), w * nb2
        for u in range(nb2):
            b = b_at.get(u)
            if a is None:
                if b is None:
                    continue
                row = {image[base + j]: y for j, y in b.items()}  # (i)
            elif b is None:
                row = {image[i * nb2 + u]: x for i, x in a.items()}  # (iii)
            else:
                # (ii): int products of the tails, each given one finish:
                # the residue mod p over GF(p); over Q, with den = d_s * d_r,
                # the quotient where it is exact and else a Fraction
                row = {image[base + u]: f.one}
                if p is not None:
                    for offset, x in a_tails[w]:
                        for j, y in b_tails[u]:
                            row[image[offset + j]] = x * y % p
                else:
                    den = a_dens[w] * b_dens[u]
                    done = finished.setdefault(den, {})
                    for offset, x in a_tails[w]:
                        for j, y in b_tails[u]:
                            if (q := done.get(v := x * y)) is None:
                                q = done[v] = (v // den if v % den == 0
                                               else Fraction(v, den))
                            row[image[offset + j]] = q
            rows[image[base + u]] = row
    return QuadraticPresentation(A.field, _product_labels(A, B),
                                 _sorted_by_lead(f, len(image), rows))


def _sorted_by_lead(f, size: int, rows: dict) -> Subspace:
    """The subspace on canonical rows given by their leads, in lead order."""
    return Subspace(size, Matrix.from_rows(
        f, [rows[lead] for lead in sorted(rows)], size), _canonical=True)


def internal_hom(U: QuadraticPresentation, V: QuadraticPresentation):
    """The object representing morphisms out of a black product with U."""
    return white(V, dual(U))


class AlgebraMorphism(Record):
    """A degree-1 matrix whose tensor square maps relations into relations."""

    __slots__ = ("src", "dst", "M")

    def __init__(self, src, dst, M: Matrix):
        ok, residual = is_morphism(src, dst, M)
        if not ok:
            raise ValueError(
                "matrix does not define a morphism; residual "
                + residual_text(residual))
        super().__init__(src, dst, M)

    @staticmethod
    def identity(A: QuadraticPresentation) -> "AlgebraMorphism":
        return AlgebraMorphism(A, A, Matrix.identity(A.field, A.n))

    def __repr__(self):
        return f"AlgebraMorphism({self.src.labels} -> {self.dst.labels})"


def is_morphism(src: QuadraticPresentation, dst: QuadraticPresentation,
                M: Matrix):
    """(True, None) when (M tensor M)(R_src) lies in R_dst, else (False,
    residual) with the residual ``reduce_against`` leaves of the image."""
    if M.rows != dst.n or M.cols != src.n:
        raise ValueError(
            f"matrix must be {dst.n}x{src.n}, got {M.rows}x{M.cols}")
    check_same_field(src.field, M.field)
    check_same_field(dst.field, M.field)
    if src.R.dim == 0 or dst.R.dim == dst.n * dst.n:
        return True, None
    image = src.R.basis @ kron(M, M).transpose()
    residual = reduce_against(dst.R, image.sparse)
    return residual is None, residual


def residual_text(residual) -> str:
    """A residual of ``is_morphism`` as the user reads it: (0, -1/3, 0)."""
    return f"({', '.join(map(str, residual))})"


def evaluation_matrix(A: QuadraticPresentation) -> Matrix:
    """The duality pairing as a row vector on dual(A) bullet A generators.

    Word (i*, j) pairs to 1 when i = j, else 0.
    """
    n = A.n
    return Matrix.from_rows(A.field, [{i * n + i: A.field.one
                                       for i in range(n)}], n * n)


def canonical_column(A: QuadraticPresentation) -> Matrix:
    """c'_A as an (n^2 x 1) matrix out of the black unit's generator: the
    identity tensor sum_i u_i (x) u^i in degree 1 of A white dual(A), the
    transpose of the evaluation row."""
    return evaluation_matrix(A).transpose()
