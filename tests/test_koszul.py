"""Koszul differentials, complexes, homology, and the bar-side cross-check."""

import contextlib
import importlib.util
import io
import json
import random

import pytest

from quadalg import koszul
from quadalg.cli import main
from quadalg.fields import QQ, PrimeField
from quadalg.graded import graded_dim, graded_structure
from quadalg.koszul import (
    BidegreeTable,
    ComplexSlice,
    HomologyReport,
    _bar_spaces,
    bar_complex_in_degree,
    bar_homology,
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
from quadalg.linalg import Matrix, null_basis
from quadalg.presentations import dual
from quadalg.sampling import random_presentation, sample_endomorphisms
from quadalg.tensorindex import kron

from conftest import CORPUS, CORPUS_NAMES, load

F2 = PrimeField(2)


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
            assert dh_square_is_zero(A, h), name


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
                    gs.right_mult_by_generator(m - i, j),
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


def assert_canonical(M):
    """Every stored entry is a nonzero canonical scalar of M's field."""
    f = M.field
    for row in M.sparse:
        for x in row.values():
            assert x and type(f.coerce(x)) is type(x) and f.coerce(x) == x


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
            term = kron(gs.right_mult_by_generator(m - i, j),
                        gd.left_mult_by_generator(i - 1, j).transpose())
            support.update((r, c) for r, row in enumerate(term.sparse)
                           for c in row)
        d = second_complex_slice(A, m).differentials[t]
        assert sum(len(row) for row in d.sparse) < len(support)
        assert_canonical(d)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_resolution_matches_bar_homology_on_corpus(name):
    # the bar complex of gf7_seed3 takes about a second to degree 5 and
    # half a minute to degree 6
    top = 5 if name == "gf7_seed3" else 6
    A = load(name)
    assert ext_by_resolution(A, top) == bar_homology(A, top)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5),
                                   PrimeField(32003)],
                         ids=["Q", "GF2", "GF5", "GF32003"])
def test_resolution_matches_bar_homology_on_random(field):
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
    """Make koszul.null_basis return replace(M, true basis) on a matrix of
    the given shape, and the true basis elsewhere."""
    def fake(M):
        K = null_basis(M)
        return replace(M, K) if (M.rows, M.cols) == shape else K
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
    # generator; a quotient that ignores the old image keeps all five
    monkeypatch.setattr(koszul, "quotient_data", lambda n, S: (
        Matrix.identity(S.field, n), None))
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


def test_bench_ext_tool_compares_the_engines(tmp_path):
    path = CORPUS.parent / "tools" / "bench_ext.py"
    spec = importlib.util.spec_from_file_location("bench_ext", path)
    bench_ext = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ext)
    out = tmp_path / "BENCH_ext.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert bench_ext.main(["--degrees", "2", "3",
                               "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2 * len(CORPUS_NAMES)
    assert all(row["equal"] is True for row in rows)
