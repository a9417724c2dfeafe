"""Quadratic presentations, Manin products, duality, and morphisms.

A presentation is a generator count n with a canonical relation subspace
R inside the n^2-dimensional degree-2 word space.  The black product takes
the shuffled tensor of relation spaces, the white product the shuffled sum
with the full complements, the dual the annihilator.
"""

from __future__ import annotations

from functools import lru_cache
from dataclasses import dataclass

from .fields import check_same_field
from .linalg import Matrix, Subspace, reduce_against, subspace_sum
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
    from .linalg import annihilator
    labels = tuple(_star(s) for s in A.labels)
    return QuadraticPresentation(A.field, labels, annihilator(A.R))


def _star(label: str) -> str:
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
    full_a = Subspace.full(A.field, A.n * A.n)
    full_b = Subspace.full(B.field, B.n * B.n)
    mixed = subspace_sum(tensor_subspace(full_a, B.R),
                         tensor_subspace(A.R, full_b))
    R = push_subspace(t23(A.n, B.n), mixed)
    return QuadraticPresentation(A.field, _product_labels(A, B), R)


def internal_hom(U: QuadraticPresentation, V: QuadraticPresentation):
    """The object representing morphisms out of a black product with U."""
    return white(V, dual(U))


@dataclass(frozen=True)
class GradedElement:
    algebra: QuadraticPresentation
    degree: int
    coords: tuple


@dataclass(frozen=True)
class MorphismCertificate:
    ok: bool
    residual: tuple | None = None


class AlgebraMorphism:
    """A degree-1 matrix whose tensor square maps relations into relations."""

    __slots__ = ("src", "dst", "M", "certificate")

    def __init__(self, src, dst, M: Matrix):
        ok, cert = is_morphism(src, dst, M)
        if not ok:
            raise ValueError(
                f"matrix does not define a morphism; residual {cert.residual}")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "certificate", cert)

    def __setattr__(self, *args):
        raise AttributeError("AlgebraMorphism is immutable")

    def compose(self, other: "AlgebraMorphism") -> "AlgebraMorphism":
        """self after other."""
        if other.dst is not self.src and not other.dst.same_relations(self.src):
            raise ValueError("composition target/source mismatch")
        return AlgebraMorphism(other.src, self.dst, self.M @ other.M)

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
    residual = reduce_against(dst.R, image.data)
    if residual is None:
        return True, MorphismCertificate(True)
    return False, MorphismCertificate(False, residual)


def dual_morphism(h: AlgebraMorphism) -> AlgebraMorphism:
    """The transpose matrix, from dual(dst) to dual(src)."""
    return AlgebraMorphism(dual(h.dst), dual(h.src), h.M.transpose())


def canonical_element(A: QuadraticPresentation) -> GradedElement:
    """The identity tensor sum_i u_i (x) u^i in degree 1 of A white dual(A)."""
    f = A.field
    n = A.n
    coords = [f.zero] * (n * n)
    for i in range(n):
        coords[i * n + i] = f.one
    return GradedElement(white(A, dual(A)), 1, tuple(coords))


def canonical_column(A: QuadraticPresentation) -> Matrix:
    """c'_A as an (n^2 x 1) matrix out of the black unit's generator."""
    elt = canonical_element(A)
    return Matrix(A.field, [[x] for x in elt.coords], cols=1)


def evaluation_matrix(A: QuadraticPresentation) -> Matrix:
    """The duality pairing as a row vector on dual(A) bullet A generators.

    Word (i*, j) pairs to 1 when i = j, else 0.
    """
    f = A.field
    n = A.n
    row = [f.zero] * (n * n)
    for i in range(n):
        row[i * n + i] = f.one
    return Matrix(f, [row], cols=n * n)
