"""Quadratic presentations: duality, Manin products, units, morphisms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadalg import linalg
from quadalg.fields import QQ, PrimeField
from quadalg.graded import graded_structure
from quadalg.linalg import Matrix, Subspace, reduce_against
from quadalg.parser import parse, unparse
from quadalg.tensorindex import kron, push_subspace, t23, tensor_subspace
from quadalg.presentations import (
    AlgebraMorphism,
    QuadraticPresentation,
    black,
    canonical_column,
    dual,
    evaluation_matrix,
    free_presentation,
    full_relations_presentation,
    internal_hom,
    is_morphism,
    unit_black,
    unit_white,
    white,
)

from conftest import assert_canonical, load, subspace_sum
from test_parser import dense_unparse

F5 = PrimeField(5)


def _random_presentation(field, n, rng):
    k = rng.randrange(n * n + 1)
    rows = [[field.coerce(rng.randrange(5)) for _ in range(n * n)] for _ in range(k)]
    labels = tuple(f"g{i}" for i in range(n))
    return QuadraticPresentation(field, labels, Subspace.span(field, rows, n * n))


def test_dual_of_corpus_examples():
    sym2 = load("sym2")
    ext2 = load("ext2")
    # Relations of the dual annihilate the original relations, and the
    # dimensions are complementary in n^2.
    assert dual(sym2).R.dim == 3
    assert dual(ext2).R.dim == 1
    assert dual(sym2).R == ext2.R
    assert dual(ext2).R == sym2.R


def test_dual_is_an_involution_on_corpus():
    for name in ("free2", "sym2", "ext2", "sym3", "embed2", "unit_black"):
        A = load(name)
        assert dual(dual(A)).R == A.R
        assert dual(dual(A)).n == A.n


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_dual_involution_random_gf5(n, seed):
    rng = random.Random(seed)
    A = _random_presentation(F5, n, rng)
    B = dual(A)
    assert A.R.dim + B.R.dim == n * n
    assert dual(B).R == A.R


def test_dual_labels_use_marker():
    A = free_presentation(QQ, ("x", "y"))
    assert dual(A).labels == ("x!", "y!")
    assert dual(dual(A)).labels == ("x", "y")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_manin_dimension_formulas(n1, n2, seed):
    rng = random.Random(seed)
    A = _random_presentation(F5, n1, rng)
    B = _random_presentation(F5, n2, rng)
    c1, c2 = A.R.dim, B.R.dim
    assert black(A, B).R.dim == c1 * c2
    assert white(A, B).R.dim == n1 * n1 * c2 + c1 * n2 * n2 - c1 * c2


def white_by_sum(A, B):
    """t23(V_A^2 (x) R_B + R_A (x) V_B^2) as the RREF of the sum, pushed
    through t23 and reduced again (the reference for ``white``)."""
    full_a = Subspace.full(A.field, A.n * A.n)
    full_b = Subspace.full(B.field, B.n * B.n)
    mixed = subspace_sum(tensor_subspace(full_a, B.R),
                         tensor_subspace(A.R, full_b))
    return push_subspace(t23(A.n, B.n), mixed)


def black_by_push(A, B):
    """t23(R_A (x) R_B) as the Kronecker basis pushed through t23 and
    reduced again (the reference for ``black``)."""
    return push_subspace(t23(A.n, B.n), tensor_subspace(A.R, B.R))


def _with_relations(field, n, k, rng):
    """n generators and a random k-dimensional relation space, drawn as an
    RREF with random pivots and entries, Fractions among them over Q."""
    n2, top = n * n, 4 if field == QQ else 2
    pivots = sorted(rng.sample(range(n2), k))
    rows = []
    for p in pivots:
        row = [0] * n2
        row[p] = 1
        for c in range(p + 1, n2):
            if c not in pivots and rng.random() < 0.6:
                row[c] = field.coerce(Fraction(rng.randrange(-4, 5),
                                               rng.randrange(1, top)))
        rows.append(row)
    return QuadraticPresentation(field, tuple(f"g{i}" for i in range(n)),
                                 Subspace.span(field, rows, n2))


PRODUCT_FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
@pytest.mark.parametrize("n1, n2", [(n1, n2) for n1 in (1, 2, 3)
                                    for n2 in (1, 2, 3)])
def test_products_match_the_eliminated_references(field, n1, n2):
    # every relation count 0..n^2 on each side, full relations included
    rng = random.Random(f"{field}:{n1}:{n2}")
    for k1 in range(n1 * n1 + 1):
        for k2 in range(n2 * n2 + 1):
            A = _with_relations(field, n1, k1, rng)
            B = _with_relations(field, n2, k2, rng)
            assert A.R.dim == k1 and B.R.dim == k2
            for product, reference in ((black, black_by_push),
                                       (white, white_by_sum)):
                R = product.__wrapped__(A, B).R
                assert R == reference(A, B)
                assert_canonical(R.basis)
                assert all(p < q for p, q in zip(R.pivots, R.pivots[1:]))


def test_products_run_no_elimination(monkeypatch):
    A = load("sym3")
    B = _with_relations(QQ, 3, 4, random.Random(0))
    want = {product: product.__wrapped__(A, B) for product in (black, white)}

    def refuse(M):
        raise AssertionError("rref called")
    monkeypatch.setattr(linalg, "rref", refuse)
    for product in (black, white):
        assert product.__wrapped__(A, B) == want[product]
        assert product.__wrapped__(B, A).R.dim > 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QQ, F5]), st.integers(1, 3), st.integers(1, 2),
       st.integers(0, 2**32 - 1))
def test_white_matches_sum_then_push_reference(field, n1, step, seed):
    rng = random.Random(seed)
    n2 = (n1 + step - 1) % 3 + 1  # 1..3 and never n1
    presentations = []
    for n in (n1, n2):
        k = rng.randrange(n * n + 1)
        rows = [[field.coerce(rng.randrange(-3, 4)) for _ in range(n * n)]
                for _ in range(k)]
        labels = tuple(f"g{i}" for i in range(n))
        presentations.append(QuadraticPresentation(
            field, labels, Subspace.span(field, rows, n * n)))
    A, B = presentations
    assert white(A, B).R == white_by_sum(A, B)
    assert white(B, A).R == white_by_sum(B, A)


GF_TWIN = PrimeField(32003)


def _twin_texts(rng, name, k):
    """A 3-generator presentation with k relations whose integer
    coefficients lie in -3..3, as Q text and as its GF(32003) twin."""
    words = [f"{a}*{b}" for a in "xyz" for b in "xyz"]
    rels = []
    for _ in range(k):
        coeffs = [0]
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) for _ in words]
        terms = [f"{c}*{w}" for c, w in zip(coeffs, words) if c]
        rels.append("rel " + " ".join(
            [terms[0]] + [f"- {t[1:]}" if t[0] == "-" else f"+ {t}"
                          for t in terms[1:]]))
    body = f"algebra {name}\ngens x y z\n" + "\n".join(rels) + "\n"
    return f"field Q\n{body}", f"field GF {GF_TWIN.p}\n{body}"


def _reduced(A):
    """The RREF rows of a Q presentation reduced mod 32003, or None when a
    denominator vanishes there."""
    try:
        return tuple({j: y for j, x in row.items() if (y := GF_TWIN.coerce(x))}
                     for row in A.R.basis.sparse)
    except ZeroDivisionError:
        return None


def test_hom_on_workload_shaped_twins():
    # the hom jobs of the graded-cold benchmark: 3 generators, 2-3
    # relations, drawn over Q and as GF(32003) twins
    rng = random.Random(29)
    compared = 0
    for draw in range(30):
        (u_q, u_gf), (v_q, v_gf) = (_twin_texts(rng, name, rng.choice((2, 3)))
                                    for name in ("u", "v"))
        homs = {}
        for texts in ((u_q, v_q), (u_gf, v_gf)):
            U, V = (parse(t)[1] for t in texts)
            H = internal_hom(U, V)
            text = unparse("h", H)
            assert text == dense_unparse("h", H)
            assert parse(text)[1] == H
            assert_canonical(H.R.basis)
            assert H.R == white_by_sum(V, dual(U))
            homs[U.field] = U, V, H
        (U, V, H), (U_gf, V_gf, H_gf) = homs[QQ], homs[GF_TWIN]
        if (_reduced(U) == U_gf.R.basis.sparse
                and _reduced(V) == V_gf.R.basis.sparse):
            assert _reduced(H) == H_gf.R.basis.sparse
            compared += 1
    # small integer coefficients almost never meet 32003
    assert compared >= 25


def test_unit_objects():
    Ib = unit_black(QQ)
    Io = unit_white(QQ)
    assert Ib.n == 1 and Ib.R.dim == 1
    assert Io.n == 1 and Io.R.dim == 0
    assert dual(Ib).R.dim == 0
    assert dual(Io).R.dim == 1


def test_units_are_units_up_to_relation_equality():
    A = load("sym2")
    assert black(A, unit_black(QQ)).R == A.R
    assert white(A, unit_white(QQ)).R == A.R


def test_black_white_on_sym2_ext2():
    sym2 = load("sym2")
    ext2 = load("ext2")
    assert black(sym2, ext2).R.dim == 1 * 3
    assert white(sym2, ext2).R.dim == 4 * 3 + 1 * 4 - 1 * 3


def test_internal_hom_dimension():
    sym2 = load("sym2")
    H = internal_hom(sym2, sym2)
    c_u, c_v, n = 1, 1, 2
    assert H.n == 4
    assert H.R.dim == n * n * (n * n - c_u) + c_v * n * n - c_v * (n * n - c_u)


def test_is_morphism_accepts_and_gives_witness():
    sym2 = load("sym2")
    ext2 = load("ext2")
    swap = Matrix(QQ, [[0, 1], [1, 0]], cols=2)
    assert is_morphism(sym2, sym2, swap) == (True, None)
    # Identity is not a morphism sym2 -> ext2: x(x)y - y(x)x maps to itself,
    # which is not in the exterior relations; the verdict carries the
    # residual that reduce_against leaves of the image rows.
    ident = Matrix.identity(QQ, 2)
    ok, residual = is_morphism(sym2, ext2, ident)
    assert not ok
    image = sym2.R.basis @ kron(ident, ident).transpose()
    assert residual == reduce_against(ext2.R, image.sparse) == (0, 0, -2, 0)
    assert repr(residual) == repr(tuple(map(QQ.coerce, (0, 0, -2, 0))))
    with pytest.raises(ValueError, match=r"residual \(0, 0, -2, 0\)$"):
        AlgebraMorphism(sym2, ext2, ident)
    # (x/2)(x)(y/3) - (y/3)(x)(x/2) leaves -1/3 at y(x)x
    scaled = Matrix(QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]], cols=2)
    with pytest.raises(ValueError,
                       match=r"residual \(0, 0, -1/3, 0\)$"):
        AlgebraMorphism(sym2, ext2, scaled)


def test_free_source_and_full_target_are_always_morphisms():
    free2 = load("free2")
    embed2 = load("embed2")
    M = Matrix(QQ, [[7, -3], [2, 5]], cols=2)
    assert is_morphism(free2, load("sym2"), M) == (True, None)
    assert is_morphism(load("sym2"), embed2, M) == (True, None)


def test_dual_morphism_reverses_and_transposes():
    sym2 = load("sym2")
    M = Matrix(QQ, [[1, 2], [0, 1]], cols=2)
    ok, _ = is_morphism(sym2, sym2, M)
    assert ok
    # the transpose is a morphism between the duals, in reverse direction
    assert is_morphism(dual(sym2), dual(sym2), M.transpose())[0]
    ext2 = load("ext2")
    N = Matrix(QQ, [[1, 0], [0, 0]], cols=2)
    assert is_morphism(sym2, ext2, N)[0]
    assert is_morphism(dual(ext2), dual(sym2), N.transpose())[0]


def test_canonical_element_and_evaluation():
    A = load("sym2")
    col = canonical_column(A)
    assert tuple(row[0] for row in col.data) == (1, 0, 0, 1)
    # The canonical element is a relation-respecting degree-1 element of
    # A white dual(A): pairing it against the evaluation gives dim V.
    ev = evaluation_matrix(A)
    assert (ev @ col).data[0][0] == A.n


def reference_evaluation_matrix(A):
    """The dense row loop: word (i*, j) pairs to 1 when i = j."""
    f, n = A.field, A.n
    row = [f.zero] * (n * n)
    for i in range(n):
        row[i * n + i] = f.one
    return Matrix(f, [row], cols=n * n)


def reference_canonical_column(A):
    """The dense column loop: sum_i u_i (x) u^i as an n^2 x 1 column."""
    f, n = A.field, A.n
    col = [[f.zero] for _ in range(n * n)]
    for i in range(n):
        col[i * n + i] = [f.one]
    return Matrix(f, col, cols=1)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "GF5"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pairing_matrices_match_the_dense_loops(field, n):
    A = free_presentation(field, tuple(f"g{i}" for i in range(n)))
    assert evaluation_matrix(A) == reference_evaluation_matrix(A)
    assert canonical_column(A) == reference_canonical_column(A)
    assert canonical_column(A) == evaluation_matrix(A).transpose()


def test_full_relations_presentation():
    A = full_relations_presentation(F5, ("a", "b", "c"))
    assert A.R.dim == 9
    assert dual(A).R.dim == 0


def _swap(name):
    return AlgebraMorphism(load(name), load(name),
                           Matrix(QQ, [[0, 1], [1, 0]], cols=2))


# per value class: two builds from separately made, equal inputs, and a
# build of a different value
VALUES = {
    "Subspace": (lambda: Subspace.span(QQ, [[1, 1], [0, 1]], 2),
                 lambda: Subspace.span(QQ, [[1, 1]], 2)),
    "QuadraticPresentation": (lambda: load("sym3"), lambda: load("ext3")),
    "AlgebraMorphism": (lambda: _swap("sym2"), lambda: _swap("ext2")),
}


@pytest.mark.parametrize("build, other", VALUES.values(), ids=VALUES.keys())
def test_value_classes_are_immutable_and_compared_by_value(build, other):
    a, b, c = build(), build(), other()
    assert type(a).__name__ == type(c).__name__
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c
    for name in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(c, name))
    # a value built apart from the key finds the key's entry
    assert {a: "found"}[b] == "found"


def test_separately_parsed_presentations_share_cached_structures():
    A1, A2 = load("sym3"), load("sym3")
    assert A1 is not A2 and A1.R.basis is not A2.R.basis
    assert dual(A1) is dual(A2)
    assert graded_structure(A1) is graded_structure(A2)
