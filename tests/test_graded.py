"""Graded components: dimensions, multiplication maps, and the rank oracle."""

import math
import pathlib
import sys
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadalg import clear_caches, graded, linalg
from quadalg.fields import QQ, PrimeField
from quadalg.linalg import Matrix, Subspace, matrix_rank, quotient_data
from quadalg.graded import (
    CERT_PRIMES,
    GradedStructure,
    certified_reduction,
    graded_dim,
    graded_dim_by_oracle,
    graded_structure,
    hilbert,
    reduce_mod_p,
)
from quadalg.parser import parse
from quadalg.presentations import (QuadraticPresentation, dual, unit_black,
                                   unit_white, white)
from quadalg.sampling import random_presentation
from quadalg.tensorindex import contract, kron

from conftest import CORPUS_NAMES, load
from golden_manifest import N4K4X

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "perfbench"))
from workloads import qa_text, random_relations  # noqa: E402

# the certificate's two primes, and a coefficient that both divide
CERT_P, SECOND_P = CERT_PRIMES
BOTH_P = CERT_P * SECOND_P


def section_words(G, m):
    """A right inverse of ``G.full_projection(m)``, landing in the word
    space: lift A_m to A_{m-1} (x) V step by step."""
    f, n = G.field, G.n
    S = Matrix.identity(f, 1)
    for k in range(1, m + 1):
        S = kron(S, Matrix.identity(f, n)) @ G.step_section(k)
    return S


def mult_through_words(G, i, j):
    """The product map A_i (x) A_j -> A_{i+j} through the n^(i+j) word
    space: the independent oracle for the recursion of ``G.mult``."""
    return G.full_projection(i + j) @ kron(section_words(G, i),
                                           section_words(G, j))


def _over(field, A):
    """The corpus relations, their integer or rational entries read over
    ``field``."""
    rows = [[field.coerce(x) for x in row] for row in A.R.basis.data]
    return QuadraticPresentation(field, A.labels,
                                 Subspace.span(field, rows, A.n * A.n))


def test_hilbert_closed_forms():
    # Polynomial ring on 2 variables: dim in degree m is m + 1.
    assert hilbert(load("sym2"), 6) == [1, 2, 3, 4, 5, 6, 7]
    # Exterior algebra on 2 variables: 1, 2, 1, 0, ...
    assert hilbert(load("ext2"), 5) == [1, 2, 1, 0, 0, 0]
    # Free algebra: n^m.
    assert hilbert(load("free2"), 5) == [1, 2, 4, 8, 16, 32]
    # Polynomial ring on 3 variables: binomial(m + 2, 2).
    assert hilbert(load("sym3"), 5) == [math.comb(m + 2, 2) for m in range(6)]
    # Exterior algebra on 3 variables: binomial(3, m).
    assert hilbert(load("ext3"), 4) == [1, 3, 3, 1, 0]
    # Full relations: everything above degree 1 dies.
    assert hilbert(load("embed3"), 4) == [1, 3, 0, 0, 0]


def test_unit_hilbert_series():
    assert hilbert(unit_black(QQ), 4) == [1, 1, 0, 0, 0]
    assert hilbert(unit_white(QQ), 4) == [1, 1, 1, 1, 1]


def test_graded_dim_matches_independent_oracle():
    # graded_dim comes from iterated quotient projections; the oracle
    # recounts as n^m minus the rank of the degree-m relation span.
    for name in ("sym2", "ext2", "free2", "gf7_seed1", "nonkoszul_gf2"):
        A = load(name)
        for m in range(5):
            assert graded_dim(A, m) == graded_dim_by_oracle(A, m), (name, m)


def test_mult_map_shapes_and_surjectivity():
    A = load("sym2")
    G = graded_structure(A)
    for i, j in ((1, 1), (2, 1), (1, 2), (2, 2)):
        M = G.mult(i, j)
        assert M.rows == G.dim(i + j)
        assert M.cols == G.dim(i) * G.dim(j)
        # Multiplication out of spanning degrees is onto in a quadratic algebra.
        assert matrix_rank(M) == G.dim(i + j)


def test_mult_associativity_on_basis():
    A = load("sym2")
    G = graded_structure(A)
    # (a*b)*c == a*(b*c) as maps A_1 x A_1 x A_1 -> A_3.
    left = G.mult(2, 1) @ kron(G.mult(1, 1), Matrix.identity(QQ, G.dim(1)))
    right = G.mult(1, 2) @ kron(Matrix.identity(QQ, G.dim(1)), G.mult(1, 1))
    assert left == right


def test_projection_section_identity():
    A = load("ext2")
    G = graded_structure(A)
    for m in range(1, 4):
        proj = G.full_projection(m)
        sec = section_words(G, m)
        if G.dim(m):
            assert proj @ sec == Matrix.identity(QQ, G.dim(m))


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(32003)],
                         ids=str)
def test_mult_recursion_matches_word_space(field):
    for name in CORPUS_NAMES:
        A = _over(field, load(name))
        for B in (A, dual(A)):
            G = GradedStructure(B.R)
            for i in range(7):
                for j in range(7 - i):
                    assert G.mult(i, j) == mult_through_words(G, i, j), \
                        (name, B.labels, i, j)


def test_dual_hilbert_of_sym_is_ext():
    assert hilbert(dual(load("sym3")), 5) == hilbert(load("ext3"), 5)


# the nine Koszul Q algebras of the corpus
KOSZUL_Q = ("embed2", "embed3", "ext2", "ext3", "free1", "free2", "sym2",
            "sym3", "unit_black")


def test_white_product_hilbert_series_is_the_segre_product():
    # the Segre product of Koszul algebras is quadratic (and Koszul), so
    # their white product has (A o B)_m = A_m (x) B_m (Polishchuk and
    # Positselski, *Quadratic Algebras*, ch. 3)
    for a in KOSZUL_Q:
        A = load(a)
        for b in KOSZUL_Q:
            B = load(b)
            assert hilbert(white(A, B), 4) == [
                x * y for x, y in zip(hilbert(A, 4), hilbert(B, 4))], (a, b)


def _exact_dims(A, N):
    G = GradedStructure(A.R)
    return [G.dim(m) for m in range(N + 1)]


def _q(*rels, gens="x y"):
    text = "field Q\nalgebra t\ngens " + gens + "\n"
    return parse(text + "".join(f"rel {r}\n" for r in rels))[1]


# the Q corpus algebras whose dimensions exceed the generic lower bound
NON_GENERIC = {"sym3", "ext3"}


@pytest.mark.parametrize("name", [n for n in CORPUS_NAMES
                                  if load(n).field == QQ])
def test_certificate_on_the_q_corpus(name):
    A = load(name)
    exact = _exact_dims(A, 6)
    reduced = certified_reduction(A, 6)
    if name in NON_GENERIC:
        assert reduced is None
    else:
        assert _exact_dims(reduced, 6) == exact
    assert hilbert(A, 6) == exact


@pytest.mark.parametrize("rels, dims", [
    # generic over Q, but both primes sit in the denominators of the RREF
    # basis, so neither reduction exists
    ((f"{BOTH_P}*x*x + y*x + y*y", f"{BOTH_P}*x*y + 2*y*x + 3*y*y"),
     [1, 2, 2, 0, 0, 0]),
    # not generic (the bound is 0 from degree 3 on), so no prime certifies
    # it; CERT_P also sits in the denominators of the RREF basis
    ((f"{CERT_P}*x*x + y*x", f"{CERT_P}*x*y + y*x"), [1, 2, 2, 1, 1, 1]),
    # not generic; reducing only the numerators would give xx + yx,
    # xy - yx + yy, which meets the bound in degree 3
    (("x*x + y*x", "x*y - y*x + 1/2*y*y"), [1, 2, 2, 1, 0, 0]),
])
def test_certificate_falls_back_to_the_q_dimensions(rels, dims):
    A = _q(*rels)
    assert _exact_dims(A, 5) == dims
    assert certified_reduction(A, 5) is None
    assert hilbert(A, 5) == dims


def test_the_second_prime_certifies_where_the_first_misses_the_bound():
    # n4k4x: the reduction mod CERT_P has dimension 33 in degree 3, above
    # the bound 4 * 12 - 4 * 4 = 32; exact Q is compared only up to degree
    # 3, since its normal forms swell from degree 4 on
    A = parse(pathlib.Path(N4K4X).read_text())[1]
    assert _exact_dims(reduce_mod_p(A, CERT_P), 3) == [1, 4, 12, 33]
    reduced = certified_reduction(A, 6)
    assert reduced == reduce_mod_p(A, SECOND_P)
    assert reduced.field == PrimeField(SECOND_P)
    dims = hilbert(A, 6)
    assert dims == [1, 4, 12, 32, 80, 192, 448]
    assert _exact_dims(A, 3) == dims[:4]


def test_certificate_caches_the_reduction_and_not_the_q_presentation():
    # the reduced structure is cached under its GF(CERT_P) relation space,
    # where the Koszul and Ext certificates and later GF(CERT_P) jobs share
    # it
    A = _q("u*v - 3*v*u", gens="u v")
    reduced = reduce_mod_p(A, CERT_P)
    assert reduced.field == PrimeField(CERT_P)
    assert reduced.R.basis == Matrix(reduced.field, [[0, 1, CERT_P - 3, 0]],
                                     cols=4)
    clear_caches()
    assert hilbert(A, 6) == [1, 2, 3, 4, 5, 6, 7]
    assert A.R not in graded._structures
    cached = graded._structures[reduced.R]
    assert graded_structure(reduced) is cached
    assert [cached.dim(m) for m in range(7)] == [1, 2, 3, 4, 5, 6, 7]


COEFFS = st.sampled_from([0] * 8 + [1, -1, 2, -3, Fraction(1, 2),
                                    Fraction(-2, 3), Fraction(5, 4), CERT_P,
                                    Fraction(1, CERT_P), SECOND_P, BOTH_P,
                                    Fraction(1, SECOND_P)])


@st.composite
def q_presentations(draw):
    """2 to 4 generators, sparse relations with integer and a/b entries."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n * n - 1))
    rows = draw(st.lists(st.lists(COEFFS, min_size=n * n, max_size=n * n),
                         min_size=k, max_size=k))
    return QuadraticPresentation(QQ, "xyzw"[:n],
                                 Subspace.span(QQ, rows, n * n))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(q_presentations())
def test_hilbert_over_q_matches_the_exact_structure_and_the_oracle(A):
    N = 8 - A.n
    dims = hilbert(A, N)
    # where hilbert fell back, this reads the structure it built
    assert dims == [graded_dim(A, m) for m in range(N + 1)]
    # the oracle over Q takes seconds on 4 generators in degree 4
    for m in range(5 if A.n < 4 else 4):
        assert dims[m] == graded_dim_by_oracle(A, m), m


def eager_step(G, m):
    """step_proj(m) and step_section(m) as a full RREF of K_m and its
    quotient data build them, with no forward rows kept in between: the
    reference for the rank-first degree step."""
    n = G.n
    ambient = G.dim(m - 1) * n
    push = contract(G.step_proj(m - 1), G.dim(m - 2), G.R.basis.transpose(),
                    n)
    K = Subspace(ambient, push.transpose())
    return quotient_data(K.basis, K.pivots)


def _sampled():
    """``random_presentation`` inputs on 2 and 3 generators, over Q and
    two primes."""
    return [(f"{f}-n{n}-s{seed}", random_presentation(f, n, Random(seed)))
            for f in (QQ, PrimeField(7), PrimeField(32003))
            for n in (2, 3) for seed in range(6)]


DIFFERENTIAL = [(name, load(name)) for name in CORPUS_NAMES] + _sampled()


@pytest.mark.parametrize("A", [A for _, A in DIFFERENTIAL],
                         ids=[name for name, _ in DIFFERENTIAL])
def test_rank_first_step_matches_the_oracle_and_the_eager_step(A):
    G = GradedStructure(A.R)
    assert [G.dim(m) for m in range(6)] == [
        graded_dim_by_oracle(A, m) for m in range(6)]
    # dim(5) took ranks only: degree 5 waits as forward rows
    assert set(G._dims) == set(range(6)) and 5 in G._echelons
    f = A.field
    assert G.step_proj(1) == G.step_section(1) == Matrix.identity(f, A.n)
    for m in range(2, 6):
        proj, section = eager_step(G, m)
        assert G.step_proj(m) == proj and G.step_section(m) == section
        assert proj.rows == G.dim(m)
        # the projection exists, so the forward rows of K_m are gone
        assert m not in G._echelons


@pytest.mark.parametrize("A", [A for _, A in DIFFERENTIAL],
                         ids=[name for name, _ in DIFFERENTIAL])
def test_projection_asked_after_the_dimension_is_the_fresh_one(A):
    for N in (2, 4):
        late = GradedStructure(A.R)
        late.dim(N)
        fresh = GradedStructure(A.R)
        # the section first on one side, the projection on the other
        section = fresh.step_section(N)
        assert late.step_proj(N) == fresh.step_proj(N)
        assert late.step_section(N) == section
        assert late._dims == fresh._dims


def _dense_gf(n, k, seed, p=32003):
    """A dense GF(p) presentation: ``random_relations`` of the benchmark
    workloads, with every integer coefficient read mod p."""
    gens, rels = random_relations(Random(seed), n, k)
    return parse(qa_text(f"n{n}k{k}s{seed}", f"GF {p}", gens, rels))[1]


DENSE_GF = [(f"gf32003-n4k{k}", _dense_gf(4, k, 2)) for k in (4, 5, 6)]


@contextmanager
def row_form(rule):
    """Every packed-row decision, of `echelon` and of the degree step, made
    by ``rule`` in place of `linalg._packs`."""
    packs = linalg._packs
    linalg._packs = rule
    try:
        yield
    finally:
        linalg._packs = packs


def slots_fit(field, rows, nnz, cols, addends):
    """Packed rows wherever the slot bound allows them, whatever the fill."""
    return (isinstance(field, PrimeField)
            and 2 * field.p.bit_length() + addends.bit_length() + 1 <= 64)


def row_forms(G, N):
    """Build G up to degree N; return, per degree step, the types of the
    forward rows it kept: ``{int}`` for packed rows, ``{dict}`` for row
    dicts (empty where K_k is zero)."""
    forms = {}
    for k in range(2, N + 1):
        G.dim(k)
        forms[k] = {type(row) for row in G._echelons[k].values()}
    return forms


def structure_numbers(G, N):
    """Everything the two row forms must agree on, up to degree N."""
    return ([G.dim(m) for m in range(N + 1)],
            [(G.step_proj(m), G.step_section(m)) for m in range(1, N + 1)],
            [G.mult(1, m) for m in range(N)])


@pytest.mark.parametrize("A", [A for _, A in DIFFERENTIAL + DENSE_GF],
                         ids=[name for name, _ in DIFFERENTIAL + DENSE_GF])
def test_packed_and_dict_degree_steps_agree(A):
    N = 5
    G = GradedStructure(A.R)
    forms = row_forms(G, N)
    expected = structure_numbers(G, N)
    assert expected[0] == [graded_dim_by_oracle(A, m) for m in range(N + 1)]
    for rule in (lambda *args: False, slots_fit):
        with row_form(rule):
            forced = GradedStructure(A.R)
            forced_forms = row_forms(forced, N)
            assert structure_numbers(forced, N) == expected
        packed = rule is slots_fit and A.field != QQ
        assert set().union(*forced_forms.values()) <= (
            {int} if packed else {dict})
    # the rule itself: never packed over Q, and the dense GF(32003)
    # inputs are packed from degree 4 on, so both forms were compared
    if A.field == QQ:
        assert set().union(*forms.values()) <= {dict}
    if any(A is B for _, B in DENSE_GF):
        assert all(forms[k] == {int} for k in range(4, N + 1))


# the largest primes below 2^28 and 2^29
P28, P29 = 268435399, 536870909


def test_degree_step_slot_bound_at_its_edge():
    """The step to degree k has cols = n dim A_{k-1} columns and gives a
    slot at most cols + n addends below p^2, so it packs only while
    2·bitlen(p) + bitlen(cols + n) + 1 <= 64.

    On 3 generators with 2 dense relations (dims 1, 3, 7, 15, 31), the
    step to degree 5 over GF(P28) meets it exactly: 2·28 + bitlen(96) + 1
    = 64, packed.  On 4 generators with 9 dense relations (dims 1, 4, 7,
    0), the step to degree 3 over GF(P29) misses it by one: 2·29 +
    bitlen(32) + 1 = 65, dict rows, although bitlen(cols) = bitlen(28)
    alone would give 64 and the same step over GF(P28) is packed."""
    def bound(p, G, k):
        cols = G.dim(k - 1) * G.n
        return 2 * p.bit_length() + (cols + G.n).bit_length() + 1

    cases = [(3, 2, 2, P28, 5, 64, {int}), (4, 9, 0, P29, 3, 65, {dict}),
             (4, 9, 0, P28, 3, 63, {int})]
    for n, k, seed, p, step, edge, form in cases:
        A = _dense_gf(n, k, seed, p)
        G = GradedStructure(A.R)
        assert row_forms(G, step)[step] == form
        assert bound(p, G, step) == edge
        top = 5 if n == 3 else 4
        assert [G.dim(m) for m in range(top + 1)] == [
            graded_dim_by_oracle(A, m) for m in range(top + 1)]
        with row_form(lambda *args: False):
            assert structure_numbers(GradedStructure(A.R), top) == \
                structure_numbers(G, top)


@pytest.mark.parametrize("A", [A for _, A in DENSE_GF[:2]] + [
    load("sym3"), load("gf7_seed3"), _over(QQ, load("gf7_seed3"))],
    ids=["dense-gf-0", "dense-gf-1", "sym3", "gf7_seed3", "gf7_seed3-over-q"])
def test_rref_dropped_after_the_quotient_and_the_next_step(A):
    # the projection first, the next dimension second
    first = GradedStructure(A.R)
    proj = first.step_proj(4)
    assert 4 in first._rrefs
    first.dim(5)
    assert 4 not in first._rrefs
    # the other way round: the next step keeps the RREF until the
    # quotient is built from it
    second = GradedStructure(A.R)
    second.dim(5)
    assert 4 in second._rrefs
    assert second.step_proj(4) == proj
    assert 4 not in second._rrefs
    for G in (first, second):
        assert not set(G._rrefs) & set(G._quotients)
    assert first._dims == second._dims
    assert structure_numbers(first, 5) == structure_numbers(second, 5)
    # every mult that reads the dropped degree still succeeds
    assert first.mult(2, 2) == second.mult(2, 2)
    assert first.mult(1, 4).rows == first.dim(5)
