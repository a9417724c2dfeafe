"""Koszul differentials, complexes, homology, and the bar-side cross-check."""

import contextlib
import io
import pathlib
import random

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadalg import clear_caches, graded, koszul
from quadalg.cli import main
from quadalg.fields import QQ, PrimeField
from quadalg.graded import (CERT_PRIMES, certified_reduction,
                            certified_twin, graded_dim, graded_structure,
                            hilbert, reduce_mod_p)
from quadalg.koszul import (
    BidegreeTable,
    ComplexSlice,
    HomologyReport,
    _bar_spaces,
    bar_complex_in_degree,
    bar_homology,
    certified_ext,
    dh_square_is_zero,
    euler_hilbert_test,
    ext_by_resolution,
    ext_diagonal_check,
    first_complex_slice,
    homology_report,
    koszul_verdict,
    search_non_koszul,
    second_complex_slice,
)
from quadalg.linalg import Matrix, Subspace, null_basis, quotient_data
from quadalg.parser import parse
from quadalg.presentations import QuadraticPresentation, dual
from quadalg.sampling import random_presentation, sample_endomorphisms
from quadalg.tensorindex import kron

from conftest import CORPUS, CORPUS_NAMES, assert_canonical, load
from golden_manifest import N4K4X, SKEWD, run

F2 = PrimeField(2)


@pytest.fixture(autouse=True)
def empty_caches():
    """Each test starts from empty library caches, so no test reads a
    degree or a structure that an earlier one computed."""
    clear_caches()


def test_second_complex_slice_sym2_degree2():
    # Internal degree 2 for the polynomial algebra on two variables:
    # positions i = 2, 1, 0 have dims (1*1, 2*2, 3*1) = (1, 4, 3)
    # and the two differentials have ranks (1, 3), so the slice is exact.
    sl = second_complex_slice(load("sym2"), 2)
    assert sl.position_dims == (1, 4, 3)
    assert sl.ranks() == (1, 3)
    assert sl.homology_dims() == (0, 0, 0)


def test_negative_homology_raises(monkeypatch):
    sl = second_complex_slice(load("sym2"), 2)
    monkeypatch.setattr(ComplexSlice, "ranks", lambda self: (2, 3))
    with pytest.raises(ArithmeticError, match="negative homology"):
        sl.homology_dims()


def test_first_complex_free1():
    # Free algebra on one generator: the dual has dims (1, 1, 0, ...), so
    # the weight-0 cochain run is k -> A_1 (x) (A^!)_1 -> 0.
    sl = first_complex_slice(load("free1"), 2)
    assert sl.position_dims == (1, 1, 0)


def test_dh_square_on_sampled_endomorphisms():
    rng = random.Random(7)
    for name in ("sym2", "ext2", "free2", "gf7_seed1"):
        A = load(name)
        for h in sample_endomorphisms(A, 10, rng):
            assert dh_square_is_zero(A, h) is True, name


def test_dh_square_is_false_when_the_square_survives(monkeypatch):
    # With the dual's degree-2 projection replaced by the identity on
    # V (x) V, the image of alpha_I^2 for sym2 is step_proj(2) itself.
    A = load("sym2")
    I = Matrix.identity(QQ, 2)
    assert dh_square_is_zero(A, I) is True

    class WordsOnly:
        def step_proj(self, m):
            return Matrix.identity(QQ, 2 ** m)

    dual_R = dual(A).R
    real = koszul.graded_structure
    monkeypatch.setattr(koszul, "graded_structure",
                        lambda B: WordsOnly() if B.R == dual_R else real(B))
    assert dh_square_is_zero(A, I) is False


def test_dh_square_rejects_a_non_endomorphism():
    # x*x = 0 but y*y != 0, so swapping x and y breaks the relations
    A = QuadraticPresentation(QQ, ("x", "y"),
                              Subspace.span(QQ, [[1, 0, 0, 0]], 4))
    swap = Matrix(QQ, [[0, 1], [1, 0]], cols=2)
    with pytest.raises(ValueError, match="does not define a morphism"):
        dh_square_is_zero(A, swap)


def test_bar_homology_diagonal_sym2():
    # H_{p,m} for sym2 should be the exterior dual on the diagonal:
    # (p, p) entries 1, 2, 1, 0 for p = 0..3, and zero off the diagonal.
    table = bar_homology(load("sym2"), 3)
    assert [table.entry(p, p) for p in range(4)] == [1, 2, 1, 0]
    for m in range(4):
        for p in range(m):
            assert table.entry(p, m) == 0, (p, m)


def test_bar_homology_diagonal_sym3_degree5():
    # Degree 5 differentials are over the dense limit, so their ranks come
    # from the sparse Q elimination: exterior dual 1, 3, 3, 1 on the diagonal.
    table = bar_homology(load("sym3"), 5)
    assert [table.entry(p, p) for p in range(6)] == [1, 3, 3, 1, 0, 0]
    for m in range(6):
        for p in range(m):
            assert table.entry(p, m) == 0, (p, m)


def test_bar_complex_free2_dims():
    # Reduced bar positions in degree 3 for the free 2-generator algebra:
    # p = 3, 2, 1, 0 have dims 8, 8+8, 8, 0 before homology.
    sl = bar_complex_in_degree(load("free2"), 3)
    assert sl.position_dims == (8, 16, 8, 0)
    # A free algebra has diagonal homology only at p <= 1.
    h = sl.homology_dims()
    assert h == (0, 0, 0, 0)


def test_euler_hilbert_on_koszul_examples():
    for name in ("sym2", "ext2", "sym3", "ext3", "free2", "embed2", "unit_black"):
        A = load(name)
        assert all(euler_hilbert_test(A, 6)), name


def test_koszul_verdict_positive_and_negative():
    reports, ok = koszul_verdict(load("ext2"), 5)
    assert ok and all(r.exact for r in reports)
    reports, ok = koszul_verdict(load("nonkoszul_gf2"), 6)
    assert not ok
    # Euler already breaks by degree 6 for this presentation.
    assert not all(euler_hilbert_test(load("nonkoszul_gf2"), 6))


def test_search_non_koszul_returns_none_when_the_scan_runs_out(monkeypatch):
    # n = 1 has a single degree-2 word, so no triple of vectors at all
    assert search_non_koszul(F2, 1, max_degree=4, limit=5) is None
    # n = 2 stops after its first 5 of 120 candidates
    tested = []
    real = koszul.euler_hilbert_test
    monkeypatch.setattr(koszul, "euler_hilbert_test",
                        lambda A, N: tested.append(A) or real(A, N))
    assert search_non_koszul(F2, 2, max_degree=4, limit=5) is None
    assert 0 < len(tested) <= 5


def test_homology_report_degrees():
    rep = homology_report(load("sym3"), 3)
    assert rep.exact
    assert rep.internal_degree == 3


def test_search_non_koszul_finds_candidate():
    A = search_non_koszul(F2, 3, max_degree=6, limit=40)
    assert A is not None
    # The witness matches the curated corpus entry {xx, xy, xz+zz}.
    assert A.R == load("nonkoszul_gf2").R
    _, ok = koszul_verdict(A, 6)
    assert not ok
    assert not ext_diagonal_check(A, 4)


def test_ext_diagonal_matches_dual_dims():
    for name in ("sym2", "ext2", "free2"):
        A = load(name)
        assert ext_diagonal_check(A, 4), name
        table = bar_homology(A, 4)
        gd_dims = [graded_dim(dual(A), p) for p in range(5)]
        assert [table.entry(p, p) for p in range(5)] == gd_dims


def test_complex_slice_validates_shapes():
    from quadalg.koszul import ComplexSlice
    from quadalg.linalg import Matrix

    with pytest.raises(ValueError):
        ComplexSlice((2, 2), (), 1)
    with pytest.raises(ValueError):
        ComplexSlice((2, 3), (Matrix.zero(QQ, 2, 2),), 1)


def reference_bar_complex(A, m):
    """The bar differentials column by column: decode each source column
    into letters, merge letters i and i+1 through the rows of
    ``gs.mult``, and encode the merged word (a reference for the
    Kronecker-block assembly)."""
    f = A.field
    gs = graded_structure(A)
    layout = {p: _bar_spaces(gs, m, p) for p in range(m + 1)}
    maps = []
    for p in range(m, 0, -1):
        src_comps, src_dim = layout[p]
        dst_comps, dst_dim = layout[p - 1]
        dst_offset = {comp: off for comp, _, off in dst_comps}
        rows = [{} for _ in range(dst_dim)]
        for comp, letter_dims, off in src_comps:
            strides = [1] * p
            for k in range(p - 2, -1, -1):
                strides[k] = strides[k + 1] * letter_dims[k + 1]
            size = strides[0] * letter_dims[0]
            for i in range(p - 1):
                merged = comp[:i] + (comp[i] + comp[i + 1],) + comp[i + 2:]
                toff = dst_offset[merged]
                mult = gs.mult(comp[i], comp[i + 1])
                m_dims = tuple(gs.dim(d) for d in merged)
                m_strides = [1] * (p - 1)
                for k in range(p - 3, -1, -1):
                    m_strides[k] = m_strides[k + 1] * m_dims[k + 1]
                for col in range(size):
                    rem = col
                    letters = []
                    for k in range(p):
                        letters.append(rem // strides[k])
                        rem %= strides[k]
                    pair_col = letters[i] * letter_dims[i + 1] + letters[i + 1]
                    merged_letters = letters[:i] + [None] + letters[i + 2:]
                    for r, mrow in enumerate(mult.sparse):
                        c = mrow.get(pair_col)
                        if c is None:
                            continue
                        merged_letters[i] = r
                        ridx = toff + sum(lt * st for lt, st
                                          in zip(merged_letters, m_strides))
                        row, key = rows[ridx], off + col
                        x = f.neg(c) if i % 2 == 0 else c
                        if key in row:
                            x = f.add(row[key], x)
                        if x:
                            row[key] = x
                        else:
                            del row[key]
        maps.append(Matrix.from_rows(f, rows, src_dim))
    return tuple(maps)


def right_mult_by_generator(gs, m, a):
    """Right multiplication by generator a, A_m -> A_{m+1}, read off the
    degree step's projection A_m (x) V -> A_{m+1}."""
    n = gs.n
    rows = [{j // n: x for j, x in row.items() if j % n == a}
            for row in gs.step_proj(m + 1).sparse]
    return Matrix.from_rows(gs.field, rows, gs.dim(m))


def reference_second_complex(A, m):
    """The Koszul differentials as Matrix.zero plus one ``+ kron`` term per
    generator (a reference for the Kronecker-block assembly)."""
    f, n = A.field, A.n
    gs = graded_structure(A)
    gd = graded_structure(dual(A))
    dims = [gs.dim(m - i) * gd.dim(i) for i in range(m, -1, -1)]
    maps = []
    for t, i in enumerate(range(m, 0, -1)):
        total = Matrix.zero(f, dims[t + 1], dims[t])
        if dims[t] and dims[t + 1]:
            for j in range(n):
                total = total + kron(
                    right_mult_by_generator(gs, m - i, j),
                    gd.left_mult_by_generator(i - 1, j).transpose())
        maps.append(total)
    return tuple(maps)


def reference_first_complex(A, i_max, weight):
    f, n = A.field, A.n
    gs = graded_structure(A)
    gd = graded_structure(dual(A))
    dims = [gs.dim(weight + i) * gd.dim(i) for i in range(i_max + 1)]
    maps = []
    for i in range(i_max):
        total = Matrix.zero(f, dims[i + 1], dims[i])
        if dims[i] and dims[i + 1]:
            for j in range(n):
                total = total + kron(
                    gs.left_mult_by_generator(weight + i, j),
                    gd.left_mult_by_generator(i, j))
        maps.append(total)
    return tuple(maps)


def assert_same_differentials(A, m):
    for got, want in ((bar_complex_in_degree(A, m).differentials,
                       reference_bar_complex(A, m)),
                      (second_complex_slice(A, m).differentials,
                       reference_second_complex(A, m)),
                      (first_complex_slice(A, m).differentials,
                       reference_first_complex(A, m, 0)),
                      (first_complex_slice(A, m, 1).differentials,
                       reference_first_complex(A, m, 1))):
        assert got == want
        for d in got:
            assert_canonical(d)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_assembled_differentials_match_references_on_corpus(name):
    A = load(name)
    for m in range(6):
        assert_same_differentials(A, m)


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(32003)],
                         ids=["Q", "GF5", "GF32003"])
def test_assembled_differentials_match_references_on_random(field):
    rng = random.Random(11)
    for _ in range(6):
        A = random_presentation(field, rng.randint(1, 3), rng)
        for m in range(5):
            assert_same_differentials(A, m)


def test_koszul_blocks_cancel_to_canonical_rows():
    # in gf7_seed3 the kron terms of different generators meet at entries
    # of the degree-3 and degree-4 differentials where they sum to zero;
    # the assembled rows must not store those zeros
    A = load("gf7_seed3")
    gs = graded_structure(A)
    gd = graded_structure(dual(A))
    for m, t in ((3, 1), (4, 2)):
        i = m - t
        support = set()
        for j in range(A.n):
            term = kron(right_mult_by_generator(gs, m - i, j),
                        gd.left_mult_by_generator(i - 1, j).transpose())
            support.update((r, c) for r, row in enumerate(term.sparse)
                           for c in row)
        d = second_complex_slice(A, m).differentials[t]
        assert sum(len(row) for row in d.sparse) < len(support)
        assert_canonical(d)


def corpus_and_twin(name):
    """A corpus algebra and the same relations read over the other field:
    GF(32003) for a Q algebra, Q for a GF(p) one."""
    text = (CORPUS / f"{name}.qa").read_text()
    field, rest = text.split("\n", 1)
    twin_field = "field GF 32003" if field == "field Q" else "field Q"
    return load(name), parse(f"{twin_field}\n{rest}")[1]


# The Kronecker-factor products that `contract` replaced, kept as
# references: each is (X (x) I) @ (I (x) Y) built from both factors.

def kron_second_differential(gs, gd, m, i):
    f = gs.field
    return (kron(gs.step_proj(m - i + 1), Matrix.identity(f, gd.dim(i - 1)))
            @ kron(Matrix.identity(f, gs.dim(m - i)),
                   gd.mult(1, i - 1).transpose()))


def kron_mult(gs, i, j):
    f = gs.field
    return (gs.step_proj(i + j)
            @ kron(gs.mult(i, j - 1), Matrix.identity(f, gs.n))
            @ kron(Matrix.identity(f, gs.dim(i)), gs.step_section(j)))


def kron_step_proj(gs, k):
    f, n = gs.field, gs.n
    relations = kron(Matrix.identity(f, gs.dim(k - 2)), gs.R.basis)
    push = kron(gs.step_proj(k - 1), Matrix.identity(f, n))
    K = Subspace(gs.dim(k - 1) * n, relations @ push.transpose())
    return quotient_data(K.basis, K.pivots)[0]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_contracted_products_match_the_kron_products(name):
    for A in corpus_and_twin(name):
        gs = graded_structure(A)
        gd = graded_structure(dual(A))
        for k in range(2, 6):
            assert gs.step_proj(k) == kron_step_proj(gs, k)
        for i in range(1, 5):
            for j in range(1, 6 - i):
                assert gs.mult(i, j) == kron_mult(gs, i, j)
                assert_canonical(gs.mult(i, j))
        for m in range(1, 6):
            sl = second_complex_slice(A, m)
            for t, i in enumerate(range(m, 0, -1)):
                d = sl.differentials[t]
                if sl.position_dims[t] and sl.position_dims[t + 1]:
                    assert d == kron_second_differential(gs, gd, m, i)
                else:
                    assert d.is_zero()
                assert_canonical(d)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_resolution_matches_bar_homology_on_corpus(name):
    # the bar complex of gf7_seed3 takes about a second to degree 5 and
    # half a minute to degree 6
    top = 5 if name == "gf7_seed3" else 6
    A = load(name)
    assert ext_by_resolution(A, top) == bar_homology(A, top)


def _q(*rels, gens="x y"):
    text = "field Q\nalgebra t\ngens " + gens + "\n"
    return parse(text + "".join(f"rel {r}\n" for r in rels))[1]


# Random inputs seldom give a batch of new generators whose degree already
# holds a nonzero image of older ones (P_3 in degree 4 here), so each field
# with such an input runs it too, through _resolve itself: over Q
# ext_by_resolution would answer from a reduction mod p.  Over Q
# the relations of nonkoszul_gf2 are not Koszul either.
@pytest.mark.parametrize("field, complement_input", [
    (QQ, _q("x*x", "x*y", "x*z + z*z", gens="x y z")),
    (PrimeField(2), load("nonkoszul_gf2")),
    (PrimeField(5), None), (PrimeField(32003), None)],
    ids=["Q", "GF2", "GF5", "GF32003"])
def test_resolution_matches_bar_homology_on_random(field, complement_input,
                                                   monkeypatch):
    rng = random.Random(5)
    off_diagonal = 0
    for _ in range(10):
        n = rng.randint(1, 3)
        A = random_presentation(field, n, rng)
        top = 5 if n < 3 else 4
        table = ext_by_resolution(A, top)
        assert table == bar_homology(A, top)
        off_diagonal += any(x for (p, m), x in table.entries.items()
                            if p != m)
    # the comparison reaches tables that are not concentrated on p = m
    assert off_diagonal
    if complement_input is not None:
        A = complement_input
        batches = _count_calls(monkeypatch, "_new_generators")
        assert koszul._resolve(A, 5) == bar_homology(A, 5)
        assert any(not d_old.is_zero() for d_old, *_ in batches)


def test_resolution_table_shape():
    assert ext_by_resolution(load("sym2"), 0) == BidegreeTable(0, {(0, 0): 1})
    table = ext_by_resolution(load("nonkoszul_gf2"), 4)
    assert set(table.entries) == {(p, m) for m in range(5)
                                  for p in range(m + 1)}
    # Ext^{3,4} = 1 lies off the diagonal: not Koszul
    assert [table.entry(p, 4) for p in range(5)] == [0, 0, 0, 1, 2]
    assert not table.on_diagonal(load("nonkoszul_gf2"))
    with pytest.raises(ValueError):
        ext_by_resolution(load("sym2"), -1)


def test_ext_cli_on_sym3_to_degree_7():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["ext", "--max", "7",
                     str(CORPUS / "sym3.qa")]) == 0
    lines = out.getvalue().splitlines()
    diagonal = [1, 3, 3, 1, 0, 0, 0, 0]
    for m in range(8):
        row = [diagonal[m] if p == m else 0 for p in range(8)]
        assert lines[m] == f"m={m}: " + ",".join(map(str, row))
    assert lines[8:] == ["ext_diagonal_up_to_7: true",
                         "bar_diagonal_vs_complex: agree"]


def _kernel_replaced(monkeypatch, shape, replace):
    """Make koszul.null_basis return the true free columns with
    replace(M, true basis) on a matrix of the given shape, and the true
    answer elsewhere."""
    def fake(M):
        free, K = null_basis(M)
        return free, replace(M, K) if (M.rows, M.cols) == shape else K
    monkeypatch.setattr(koszul, "null_basis", fake)


def test_resolution_checks_the_kernel_dimension(monkeypatch):
    # sym2, degree 2: ker d_1 is spanned by x (x) y - y (x) x
    _kernel_replaced(monkeypatch, (3, 4),
                     lambda M, K: Matrix.zero(M.field, 0, M.cols))
    with pytest.raises(ArithmeticError, match="exactness gives 1"):
        ext_by_resolution(load("sym2"), 2)


def test_resolution_checks_that_new_generators_are_cycles(monkeypatch):
    # replace that kernel by x (x) x, which d_1 sends to x^2
    _kernel_replaced(monkeypatch, (3, 4), lambda M, K: Matrix.from_rows(
        M.field, [{0: M.field.one}], M.cols))
    with pytest.raises(ArithmeticError, match="nonzero on a new generator"):
        ext_by_resolution(load("sym2"), 2)


def test_resolution_checks_minimality(monkeypatch):
    # nonkoszul_gf2, degree 4: d_3 has 7 columns, the last of them the
    # degree-4 generator of P_3; give each kernel vector a component there
    def shifted(M, K):
        f, last = M.field, M.cols - 1
        rows = []
        for row in K.sparse:
            row = dict(row)
            row[last] = f.add(row.get(last, f.zero), f.one)
            rows.append({j: x for j, x in row.items() if x})
        return Matrix.from_rows(f, rows, M.cols)
    _kernel_replaced(monkeypatch, (18, 7), shifted)
    with pytest.raises(ArithmeticError, match="not minimal"):
        ext_by_resolution(load("nonkoszul_gf2"), 4)


def test_resolution_checks_the_complement(monkeypatch):
    # nonkoszul_gf2, degree 4, p = 3: ker d_2 has dim 5 and one new
    # generator; an elimination that ignores the old image keeps all five
    monkeypatch.setattr(koszul, "echelon", lambda M: {})
    with pytest.raises(ArithmeticError, match="complement has dim 5"):
        ext_by_resolution(load("nonkoszul_gf2"), 4)


def test_value_classes_are_immutable_records():
    table = ext_by_resolution(load("sym2"), 1)
    with pytest.raises(AttributeError):
        table.m_max = 2
    rep = homology_report(load("sym2"), 2)
    assert rep == HomologyReport(2, (1, 4, 3), (0, 0, 0), True)
    assert repr(rep) == ("HomologyReport(internal_degree=2, "
                         "position_dims=(1, 4, 3), homology_dims=(0, 0, 0), "
                         "exact=True)")
    with pytest.raises(AttributeError):
        rep.exact = False
    sl = second_complex_slice(load("sym2"), 2)
    with pytest.raises(AttributeError):
        sl.internal_degree = 3
    with pytest.raises(TypeError):
        HomologyReport(2, (1,), (0,))


# The certificate over Q: Koszul homology and Ext read off the reduction
# mod CERT_P or SECOND_P where the proof goes through, the exact engine
# elsewhere.  BOTH_P is a coefficient that both primes divide.
CERT_P, SECOND_P = CERT_PRIMES
BOTH_P = CERT_P * SECOND_P

def _assert_exact_answers(A, N):
    """koszul_verdict and ext_by_resolution over Q equal the exact Q slices,
    the exact resolution and the bar complex, which never reduce mod p."""
    reports = [homology_report(A, m) for m in range(1, N + 1)]
    assert koszul_verdict(A, N) == (reports, all(r.exact for r in reports))
    table = ext_by_resolution(A, N)
    assert table == koszul._resolve(A, N) == bar_homology(A, N)


# A is generic over both fields, but A^! has dims 1, 3, 5, 3, 0, 0 over Q
# against 1, 3, 5, 3, 1, 1 mod CERT_P
DUAL_MISMATCH = _q(
    f"-1*a*a + {CERT_P}*b*b + {2 * CERT_P}*c*b + {CERT_P}*c*c",
    f"a*a + a*b + {CERT_P}*b*a + b*b + {2 * CERT_P}*b*c + {CERT_P}*c*a"
    " + c*b",
    f"{2 * CERT_P}*a*a + a*b - b*a - b*b - b*c",
    f"-1*a*a + {2 * CERT_P}*a*b - a*c - b*a + b*b + {2 * CERT_P}*b*c"
    " - c*b + c*c",
    "-1*a*a + a*b + b*a + b*b + c*a + c*b + c*c",
    gens="a b c")


def test_certificate_falls_back_when_the_dual_differs_mod_p():
    A = DUAL_MISMATCH
    reduced = reduce_mod_p(A, CERT_P)
    assert certified_reduction(A, 5) == reduced
    assert hilbert(reduced, 5) == [1, 3, 4, 0, 0, 0]
    assert hilbert(dual(A), 5) == [1, 3, 5, 3, 0, 0]
    assert hilbert(dual(reduced), 5) == [1, 3, 5, 3, 1, 1]
    assert certified_twin(A, 5) is None
    assert certified_ext(A, 5) is None
    # the mod-p table has one off-diagonal cell per degree, and it is wrong
    # over Q: only the A^! check keeps it out
    wrong = koszul._resolve(reduced, 5)
    assert wrong.entry(3, 4) == 12 and wrong.entry(4, 4) == 1
    assert ext_by_resolution(A, 5).entry(3, 4) == 11
    _assert_exact_answers(A, 5)


def test_certificate_falls_back_on_an_unlucky_prime():
    # both primes sit in the denominators of the RREF basis
    A = _q(f"{BOTH_P}*x*x + y*x + y*y", f"{BOTH_P}*x*y + 2*y*x + 3*y*y")
    assert [reduce_mod_p(A, p) for p in CERT_PRIMES] == [None, None]
    assert certified_twin(A, 5) is None
    _assert_exact_answers(A, 5)


def test_certificate_falls_back_when_a_differs_mod_p():
    # generic over Q (dims m + 1); mod either prime the relation is x*x,
    # whose dims are Fibonacci numbers
    A = _q(f"x*x - {BOTH_P}*y*y")
    for p in CERT_PRIMES:
        reduced = reduce_mod_p(A, p)
        assert hilbert(reduced, 4) == [1, 2, 3, 5, 8]
    assert hilbert(A, 4) == [1, 2, 3, 4, 5]
    assert certified_twin(A, 4) is None
    _assert_exact_answers(A, 4)


@pytest.mark.parametrize("rels, N", [
    # CERT_P sits in the denominators of the RREF basis
    ((f"{CERT_P}*x*x + y*x + y*y", f"{CERT_P}*x*y + 2*y*x + 3*y*y"), 5),
    # mod CERT_P the relation is x*x, whose dims are Fibonacci numbers
    ((f"x*x - {CERT_P}*y*y",), 4),
])
def test_certificate_takes_the_second_prime_where_the_first_is_unlucky(
        rels, N):
    A = _q(*rels)
    twin = certified_twin(A, N)
    assert twin.field == PrimeField(SECOND_P)
    assert certified_reduction(A, N) == twin == reduce_mod_p(A, SECOND_P)
    assert hilbert(A, N) == [graded_dim(A, m) for m in range(N + 1)]
    _assert_exact_answers(A, N)


def test_certified_answers_build_no_q_structure():
    A = _q("x*y - 3*y*x + z*z", "x*z + 2*z*y", "y*y - x*x + 5*z*x",
           gens="x y z")
    # n4k4x is certified by the second prime; its exact engines are
    # compared only up to degree 3 (the bar complex takes seconds at 4)
    B = parse(pathlib.Path(N4K4X).read_text())[1]
    for C in (A, B):
        assert certified_twin(C, 4) is not None
        table = ext_by_resolution(C, 4)
        assert certified_ext(C, 4) == table
        table.on_diagonal(C)
        koszul_verdict(C, 4)
        euler_hilbert_test(C, 4)
        assert not {C.R, dual(C).R} & set(graded._structures)
    assert certified_twin(B, 4).field == PrimeField(SECOND_P)
    _assert_exact_answers(A, 4)
    _assert_exact_answers(B, 3)


def test_certificate_rules_on_a_non_koszul_input():
    # not Koszul, with dims 1, 2, 2, 0, 0, 0 for A and A^!: the mod-p
    # Koszul homology of degree 4 sits at one position, and the mod-p Ext
    # table has one off-diagonal cell in degrees 4 and 5, so both rules
    # answer from the reduction and build no Q structure
    A = _q("-3*a*a + 2*a*b", "-2*a*a - 3*a*b - 3*b*a - 3*b*b", gens="a b")
    twin = certified_twin(A, 5)
    assert twin is not None
    assert homology_report(twin, 4).homology_dims == (0, 0, 4, 0, 0)
    reports, ok = koszul_verdict(A, 5)
    assert not ok and [r.exact for r in reports] == [True] * 3 + [False, True]
    table = certified_ext(A, 5)
    assert table is not None
    assert {(p, m): x for (p, m), x in table.entries.items()
            if x and p < m} == {(3, 4): 4, (4, 5): 8}
    assert not {A.R, dual(A).R} & set(graded._structures)
    _assert_exact_answers(A, 5)


def test_koszul_certificate_needs_one_position(monkeypatch):
    # a mod-p report with homology at two positions bounds nothing: the
    # degree is computed over Q, where sym2 is exact
    real = koszul.homology_report
    spread_at = []

    def spread(A, m):
        r = real(A, m)
        if A.field == QQ or m != 2:
            return r
        spread_at.append(m)
        return HomologyReport(m, r.position_dims, (0, 1, 1), False)
    monkeypatch.setattr(koszul, "homology_report", spread)
    A = load("sym2")
    assert certified_twin(A, 3) is not None
    reports, ok = koszul_verdict(A, 3)
    assert spread_at == [2]
    assert ok and reports[1] == real(A, 2)


def _count_calls(monkeypatch, name):
    """Wrap koszul.<name>; the returned list collects each call's args."""
    real, calls = getattr(koszul, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(koszul, name, counted)
    return calls


def test_koszul_verdict_reads_known_degrees_from_the_memo(monkeypatch):
    A = load("sym3")
    reports, ok = koszul_verdict(A, 5)
    homology = _count_calls(monkeypatch, "homology_report")
    twin = _count_calls(monkeypatch, "certified_twin")
    assert koszul_verdict(A, 3) == (reports[:3], ok)
    assert homology == [] and twin == []


def test_koszul_verdict_computes_only_new_degrees(monkeypatch):
    A = load("embed3")
    koszul_verdict(A, 5)
    homology = _count_calls(monkeypatch, "homology_report")
    twin = _count_calls(monkeypatch, "certified_twin")
    reports, _ = koszul_verdict(A, 7)
    # embed3 is certified: each new degree is read off its reduction
    assert twin == [(A, 7)]
    assert [m for _, m in homology] == [6, 7]
    assert reports == [homology_report(A, m) for m in range(1, 8)]
    assert set(koszul._reports) == {(A.R, m) for m in range(1, 8)}


def test_koszul_memo_keeps_a_q_file_apart_from_its_gf_twin():
    # the same integers: x*x - 32003*y*y over Q has dims m + 1, but over
    # GF(32003) it is x*x, whose dims are Fibonacci numbers
    body = "algebra t\ngens x y\nrel x*x - 32003*y*y\n"
    A_gf = parse("field GF 32003\n" + body)[1]
    A_q = parse("field Q\n" + body)[1]
    gf_reports, _ = koszul_verdict(A_gf, 4)
    q_reports, _ = koszul_verdict(A_q, 4)
    assert q_reports == [homology_report(A_q, m) for m in range(1, 5)]
    assert gf_reports == [homology_report(A_gf, m) for m in range(1, 5)]
    assert q_reports[2] != gf_reports[2]
    assert len(koszul._reports) == 8


# sym2 with x y renamed u v: the same relation space, so the same object of
# the quadratic category
RELABELLED_SYM2 = "field Q\nalgebra sym2\ngens u v\nrel u*v - v*u\n"


def test_a_relabelled_copy_shares_structures_and_reports():
    A, B = load("sym2"), parse(RELABELLED_SYM2)[1]
    assert A != B and A.same_relations(B)
    reports = koszul_verdict(A, 4)
    assert koszul_verdict(B, 4) == reports
    # sym2 is certified: its reports rest on the structures of A' and A'^!
    assert len(koszul._reports) == 4
    assert len(graded._structures) == 2
    # ext3 is sym3^! under other names
    assert graded_structure(load("ext3")) is graded_structure(
        dual(load("sym3")))


def test_cli_on_a_relabelled_copy_matches_a_cold_run(tmp_path):
    path = tmp_path / "sym2_uv.qa"
    path.write_text(RELABELLED_SYM2)
    calls = [[cmd, "--max", "6", str(path)] for cmd in ("koszul", "hilbert")]
    cold = []
    for argv in calls:
        clear_caches()
        cold.append(run(argv))
    clear_caches()
    for argv in calls:
        run(argv[:-1] + [str(CORPUS / "sym2.qa")])
    reports = dict(koszul._reports)
    assert [run(argv) for argv in calls] == cold
    assert koszul._reports == reports


# skewd (tests/inputs/skewd.qa) is this sparse skew algebra after a dense
# change of generators g in GL(V), which takes R to (g (x) g)R: an
# isomorphic algebra, so every invariant agrees
SKEW = ("field Q\nalgebra skew\ngens a b c d\n"
        "rel a*b - 2*b*a\nrel b*c - 3*c*b\nrel a*c - 5*c*a\n")


def test_a_change_of_generators_keeps_every_invariant():
    A = parse(SKEW)[1]
    B = parse(pathlib.Path(SKEWD).read_text())[1]
    assert A.R.dim == B.R.dim == 3 and not A.same_relations(B)
    # neither is generic, so both run the exact engines over Q
    assert certified_reduction(A, 6) is certified_reduction(B, 6) is None
    dims = hilbert(A, 6)
    assert dims == [1, 4, 13, 41, 129, 406, 1278] == hilbert(B, 6)
    reports, koszul_ok = koszul_verdict(A, 4)
    assert koszul_ok and koszul_verdict(B, 4) == (reports, True)
    table = ext_by_resolution(A, 4)
    assert table == ext_by_resolution(B, 4) and table.on_diagonal(A)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_koszul_verdict_of_the_dual_agrees_degree_by_degree(name):
    # A is Koszul exactly when A^! is (Polishchuk and Positselski,
    # *Quadratic Algebras*, ch. 2); on the corpus the exactness of each
    # degree agrees as well.  That finer form is not a theorem: past the
    # first inexact degree it can fail (see the counterexamples below).
    A = load(name)
    reports, _ = koszul_verdict(A, 6)
    dual_reports, _ = koszul_verdict(dual(A), 6)
    assert ([r.exact for r in reports]
            == [r.exact for r in dual_reports])


T, F = True, False


@pytest.mark.parametrize("field, rows, flags, dual_flags", [
    # k<a,b,c>/(aa + bb, ab, ca, cb): exact in degree 5 where its dual is not
    (QQ, [[1, 0, 0, 0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1, 0]],
     [T, T, T, F, T], [T, T, T, F, F]),
    (PrimeField(7), [[1, 0, 0, 0, 6, 2, 0, 0, 0], [0, 1, 0, 0, 0, 3, 0, 0, 0],
                     [0, 0, 1, 0, 3, 3, 0, 0, 0], [0, 0, 0, 1, 0, 5, 0, 0, 0]],
     [T, T, T, F, F], [T, T, T, F, T]),
    (PrimeField(7), [[1, 0, 0, 0, 0, 3, 0, 0, 0], [0, 1, 0, 0, 0, 4, 0, 0, 0],
                     [0, 0, 1, 6, 0, 2, 0, 0, 0], [0, 0, 0, 0, 1, 5, 0, 0, 0]],
     [T, T, T, F, F], [T, T, T, F, T]),
], ids=["Q", "GF7-a", "GF7-b"])
def test_koszul_verdict_of_the_dual_can_differ_past_the_first_inexact_degree(
        field, rows, flags, dual_flags):
    # the first inexact degree agrees; a later one need not
    A = QuadraticPresentation(field, ("a", "b", "c"),
                              Subspace.span(field, rows, 9))
    reports, _ = koszul_verdict(A, 5)
    dual_reports, _ = koszul_verdict(dual(A), 5)
    assert [r.exact for r in reports] == flags
    assert [r.exact for r in dual_reports] == dual_flags


def test_ext_certificate_needs_one_off_diagonal_cell(monkeypatch):
    real = koszul._resolve

    def spread(A, m_max):
        table = real(A, m_max)
        if A.field == QQ:
            return table
        return BidegreeTable(m_max, {**table.entries, (1, 3): 1, (2, 3): 1})
    monkeypatch.setattr(koszul, "_resolve", spread)
    A = load("sym2")
    assert certified_twin(A, 3) is not None
    assert certified_ext(A, 3) is None
    assert ext_by_resolution(A, 3) == real(A, 3)


CERT_COEFFS = st.sampled_from([0] * 8 + [1, -1, 2, -3, Fraction(1, 2),
                                         CERT_P, -CERT_P, 2 * CERT_P,
                                         Fraction(1, CERT_P), SECOND_P,
                                         BOTH_P, Fraction(1, SECOND_P)])


@st.composite
def q_presentations(draw):
    """2 or 3 generators, sparse relations whose entries include CERT_P,
    SECOND_P, their product and their inverses, so that every fallback is
    reached."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, n * n - 1))
    rows = draw(st.lists(st.lists(CERT_COEFFS, min_size=n * n,
                                  max_size=n * n), min_size=k, max_size=k))
    return QuadraticPresentation(QQ, "xyz"[:n], Subspace.span(QQ, rows, n * n))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(q_presentations())
def test_certified_answers_match_the_exact_engines(A):
    _assert_exact_answers(A, 5 if A.n == 2 else 4)
