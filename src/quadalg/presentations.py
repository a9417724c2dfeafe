"""Quadratic presentations, Manin products, duality, and morphisms.

A presentation is a generator count n with a canonical relation subspace
R inside the n^2-dimensional degree-2 word space.  The black product takes
the shuffled tensor of relation spaces, the white product the shuffled sum
with the full complements, the dual the annihilator.
"""

from __future__ import annotations

from functools import lru_cache

from .fields import check_same_field
from .linalg import Matrix, Record, Subspace, annihilator, reduce_against
from .tensorindex import kron, push_subspace, t23, tensor_subspace


class QuadraticPresentation:
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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "R", R)

    def __setattr__(self, *args):
        raise AttributeError("QuadraticPresentation is immutable")

    def __eq__(self, other):
        return (isinstance(other, QuadraticPresentation)
                and self.field == other.field and self.labels == other.labels
                and self.R == other.R)

    def __hash__(self):
        return hash((self.field, self.labels, self.R))

    def same_relations(self, other: "QuadraticPresentation") -> bool:
        """Equality ignoring generator labels."""
        return (self.field == other.field and self.n == other.n
                and self.R == other.R)

    def __repr__(self):
        return (f"QuadraticPresentation({self.field}, gens={self.labels}, "
                f"dim R={self.R.dim})")


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
    """Manin's bullet product: relations t23(R_A tensor R_B)."""
    check_same_field(A.field, B.field)
    R = push_subspace(t23(A.n, B.n), tensor_subspace(A.R, B.R))
    return QuadraticPresentation(A.field, _product_labels(A, B), R)


@lru_cache(maxsize=4096)
def white(A: QuadraticPresentation, B: QuadraticPresentation):
    """Manin's circle product: relations t23(V_A^2 ⊗ R_B + R_A ⊗ V_B^2)."""
    check_same_field(A.field, B.field)
    f, na2, nb2 = A.field, A.n * A.n, B.n * B.n
    # the spanning rows of both summands, shuffled by t23 and reduced once:
    # the RREF of a span is unique, whatever rows it is reduced from
    image = t23(A.n, B.n).image
    rows = [{image[j]: x for j, x in row.items()}
            for half in (kron(Matrix.identity(f, na2), B.R.basis),
                         kron(A.R.basis, Matrix.identity(f, nb2)))
            for row in half.sparse]
    R = Subspace(na2 * nb2, Matrix.from_rows(f, rows, na2 * nb2))
    return QuadraticPresentation(A.field, _product_labels(A, B), R)


def internal_hom(U: QuadraticPresentation, V: QuadraticPresentation):
    """The object representing morphisms out of a black product with U."""
    return white(V, dual(U))


class MorphismCertificate(Record):
    __slots__ = ("ok", "residual")

    def __init__(self, ok: bool, residual: tuple | None = None):
        super().__init__(ok, residual)


class AlgebraMorphism:
    """A degree-1 matrix whose tensor square maps relations into relations."""

    __slots__ = ("src", "dst", "M")

    def __init__(self, src, dst, M: Matrix):
        ok, cert = is_morphism(src, dst, M)
        if not ok:
            raise ValueError(
                f"matrix does not define a morphism; residual {cert.residual}")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "M", M)

    def __setattr__(self, *args):
        raise AttributeError("AlgebraMorphism is immutable")

    @staticmethod
    def identity(A: QuadraticPresentation) -> "AlgebraMorphism":
        return AlgebraMorphism(A, A, Matrix.identity(A.field, A.n))

    def __eq__(self, other):
        return (isinstance(other, AlgebraMorphism) and self.src == other.src
                and self.dst == other.dst and self.M == other.M)

    def __repr__(self):
        return f"AlgebraMorphism({self.src.labels} -> {self.dst.labels})"


def is_morphism(src: QuadraticPresentation, dst: QuadraticPresentation,
                M: Matrix):
    """Check (M tensor M)(R_src) inside R_dst; failure carries a witness."""
    if M.rows != dst.n or M.cols != src.n:
        raise ValueError(
            f"matrix must be {dst.n}x{src.n}, got {M.rows}x{M.cols}")
    check_same_field(src.field, M.field)
    check_same_field(dst.field, M.field)
    if src.R.dim == 0 or dst.R.dim == dst.n * dst.n:
        return True, MorphismCertificate(True)
    image = src.R.basis @ kron(M, M).transpose()
    residual = reduce_against(dst.R, image.sparse)
    if residual is None:
        return True, MorphismCertificate(True)
    return False, MorphismCertificate(False, residual)


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
