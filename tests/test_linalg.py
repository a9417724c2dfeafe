from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadalg import linalg
from quadalg.fields import QQ, PrimeField
from quadalg.linalg import (Matrix, Subspace, _free_rows, annihilator,
                            matrix_rank, null_basis, quotient_data,
                            reduce_against, rref)
from quadalg.tensorindex import kron

from conftest import assert_canonical, subspace_sum

F5 = PrimeField(5)
F32003 = PrimeField(32003)
# p^2 > 2^63: products of two residues overflow int64
P_BIG = 4294967311
FBIG = PrimeField(P_BIG)


def mat(field, rows):
    return Matrix(field, [[field.coerce(x) for x in r] for r in rows],
                  cols=len(rows[0]) if rows else 0)


def gf5_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(0, 4), min_size=m, max_size=m),
                min_size=n, max_size=n).map(lambda rows: mat(F5, rows))))


def reference_rref(M):
    """Textbook Gauss-Jordan through the field operations (the oracle)."""
    f = M.field
    rows = [list(r) for r in M.data]
    nrows, ncols = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if f.coerce(rows[i][c]) != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = f.coerce(Fraction(1, rows[r][c]))
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][c]
            if f.coerce(factor) == 0:
                continue
            rows[i] = [f.add(x, f.neg(f.mul(factor, y)))
                       for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(f, rows[:r], cols=ncols), r, pivots


def reference_sparse_rank(field, rows):
    """Sparse forward elimination through the field operations (the oracle)."""
    pivots = {}
    for row in rows:
        work = {j: v for j, v in row.items() if field.coerce(v) != 0}
        while work:
            j = min(work)
            if j not in pivots:
                inv = field.coerce(Fraction(1, work[j]))
                pivots[j] = {k: field.mul(inv, v) for k, v in work.items()}
                break
            c = work[j]
            for k, v in pivots[j].items():
                new = field.add(work.get(k, field.zero),
                                field.neg(field.mul(c, v)))
                if field.coerce(new) == 0:
                    work.pop(k, None)
                else:
                    work[k] = new
    return len(pivots)


def reference_reduce_against(A, vectors):
    """Dense column-by-column reduction against A's RREF basis (the oracle):
    the first nonzero residual as a tuple, or None.  Every pivot column is
    cleared, past non-pivot entries too, so the residual is the canonical
    one, zero at A's pivots."""
    f = A.field
    basis = A.basis.data
    pivot_of = {pc: r for r, pc in enumerate(A.pivots)}
    for vec in vectors:
        v = list(vec)
        for c in range(A.ambient_dim):
            r = pivot_of.get(c)
            if r is None or f.coerce(v[c]) == 0:
                continue
            coef = v[c]
            v = [f.add(x, f.neg(f.mul(coef, y))) for x, y in zip(v, basis[r])]
        if any(v):
            return tuple(v)
    return None


def column(field, vec):
    return Matrix(field, [[x] for x in vec], cols=1)


def row_dicts(M):
    return [{j: x for j, x in enumerate(row) if x} for row in M.data]


int_scalars = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-10 ** 6, 10 ** 6),
)
q_scalars = st.one_of(
    int_scalars,
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
              st.integers(1, 10 ** 4)),
)


@st.composite
def q_matrices(draw, field=QQ, scalars=q_scalars):
    """1-6 x 1-8 matrices with zero rows and dependent rows mixed in."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(["free", "zero", "combo"]
                                    if i else ["free", "zero"]))
        if kind == "free":
            rows.append(draw(st.lists(scalars, min_size=m, max_size=m)))
        elif kind == "zero":
            rows.append([0] * m)
        else:
            a, b = draw(scalars), draw(scalars)
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows.append([a * x + b * y for x, y in zip(rows[j], rows[k])])
    return mat(field, draw(st.permutations(rows)))


def field_matrices(fields=(QQ, F5, F32003)):
    """q_matrices over one of ``fields``."""
    return st.sampled_from(fields).flatmap(
        lambda f: q_matrices(f, q_scalars if f == QQ else int_scalars))


@st.composite
def partners(draw, M):
    """A matrix of M's shape whose entries cancel M's, vanish or are drawn."""
    scalars = q_scalars if M.field == QQ else int_scalars
    kinds = st.sampled_from(["cancel", "zero", "any"])
    rows = []
    for row in M.data:
        out = []
        for x in row:
            kind = draw(kinds)
            out.append(-x if kind == "cancel" else
                       0 if kind == "zero" else draw(scalars))
        rows.append(out)
    return mat(M.field, rows)


def dense_product(A, B):
    f = A.field
    out = []
    for row in A.data:
        acc = [f.zero] * B.cols
        for a, brow in zip(row, B.data):
            acc = [f.add(x, f.mul(a, y)) for x, y in zip(acc, brow)]
        out.append(acc)
    return Matrix(f, out, cols=B.cols)


def test_rref_known_example():
    M = mat(QQ, [[0, 2, 4], [1, 1, 1]])
    R, rank, pivots = rref(M)
    assert rank == 2 and pivots == [0, 1]
    assert R == mat(QQ, [[1, 0, -1], [0, 1, 2]])


def test_rref_gf_scales_pivots_to_one():
    R, rank, pivots = rref(mat(F5, [[2, 4, 1], [0, 0, 3]]))
    assert (rank, pivots) == (2, [0, 2])
    assert R == mat(F5, [[1, 2, 0], [0, 0, 1]])


def test_rref_q_back_substitution_fills_in():
    # forward elimination leaves row 0 zero in column 2; clearing its
    # entry at pivot column 1 brings in -1/6 there
    M = mat(QQ, [[2, 1, 0], [0, 3, 1], [4, 5, 1]])
    R, rank, pivots = rref(M)
    assert (rank, pivots) == (2, [0, 1])
    assert R == mat(QQ, [[1, 0, Fraction(-1, 6)], [0, 1, Fraction(1, 3)]])
    assert (R, rank, pivots) == reference_rref(M)


def test_rref_idempotent_and_canonical():
    M = mat(F5, [[2, 1, 0], [4, 2, 0], [0, 0, 3]])
    R1, rank, _ = rref(M)
    R2, rank2, _ = rref(R1)
    assert R1 == R2 and rank == rank2 == 2


@settings(max_examples=60)
@given(gf5_matrices())
def test_rref_rank_bounds(M):
    _, rank, pivots = rref(M)
    assert 0 <= rank <= min(M.rows, M.cols)
    assert pivots == sorted(pivots)


@settings(max_examples=150, deadline=None)
@given(q_matrices())
def test_rref_q_matches_reference(M):
    assert rref(M) == reference_rref(M)


@settings(max_examples=60, deadline=None)
@given(q_matrices(FBIG))
def test_rref_large_prime_matches_reference(M):
    assert rref(M) == reference_rref(M)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F5, F32003]).flatmap(
    lambda f: q_matrices(f, int_scalars)))
def test_rref_gf_matches_reference(M):
    assert rref(M) == reference_rref(M)


@settings(max_examples=100, deadline=None)
@given(q_matrices())
def test_rref_q_idempotent(M):
    R, rank, pivots = rref(M)
    assert rref(R) == (R, rank, pivots)


def _has_denominator_divisible_by(M, p):
    return any(x.denominator % p == 0 for row in M.data for x in row)


@settings(max_examples=100, deadline=None)
@given(q_matrices())
def test_rref_q_reduces_mod_p(M):
    # If p divides no denominator of M or of R = rref(M), then M = F R with
    # F integral at p, so R mod p spans the row space of M mod p; with
    # equal ranks, R mod p is that space's RREF.
    p = F32003.p
    R, rank, pivots = rref(M)
    assume(not _has_denominator_divisible_by(M, p))
    assume(not _has_denominator_divisible_by(R, p))
    Rp, rank_p, pivots_p = rref(Matrix(F32003, M.data, cols=M.cols))
    assume(rank_p == rank)
    assert Rp == Matrix(F32003, R.data, cols=M.cols)
    assert pivots_p == pivots


@settings(max_examples=60)
@given(gf5_matrices())
def test_kernel_rank_nullity(M):
    K = Subspace(M.cols, null_basis(M)[1])
    _, rank, _ = rref(M)
    assert K.dim == M.cols - rank
    assert (M @ K.basis.transpose()).is_zero()


@settings(max_examples=60)
@given(field_matrices())
def test_null_basis_has_a_unit_at_each_free_column(M):
    free, K = null_basis(M)
    _, rank, pivots = rref(M)
    assert free == [c for c in range(M.cols) if c not in pivots]
    assert K.rows == len(free) == M.cols - rank
    assert (M @ K.transpose()).is_zero()
    f = M.field
    for i, row in enumerate(K.sparse):
        assert {c: row.get(c, f.zero) for c in free} == {
            c: f.one if c == free[i] else f.zero for c in free}


@settings(max_examples=60)
@given(gf5_matrices())
def test_row_space_invariant_under_scaling(M):
    S1 = Subspace(M.cols, M)
    scaled = Matrix(F5, [[F5.mul(3, x) for x in row] for row in M.data],
                    cols=M.cols)
    assert Subspace(M.cols, scaled) == S1


def test_subspace_set_equality_is_representation_equality():
    a = Subspace.span(QQ, [[1, 1], [0, 1]], 2)
    b = Subspace.span(QQ, [[1, 0], [1, 1]], 2)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("rows", [[{1: 1}, {0: 1}], [{0: 1}, {0: 1, 1: 1}],
                                  [{2: 1}, {0: 1, 1: 2}, {1: 1}]],
                         ids=["swapped", "repeated", "unsorted"])
def test_canonical_rows_must_lead_at_increasing_columns(rows):
    # the guard is a raise, not an assert, so it holds under python -O
    M = Matrix.from_rows(QQ, rows, 3)
    with pytest.raises(ValueError, match="strictly increasing"):
        Subspace(3, M, _canonical=True)
    if len(set(map(min, rows))) == len(rows):
        ordered = Matrix.from_rows(QQ, sorted(rows, key=min), 3)
        assert Subspace(3, ordered, _canonical=True).pivots == tuple(
            sorted(map(min, rows)))


def test_annihilator_example():
    S = Subspace.span(QQ, [[1, 0, 1]], 3)
    A = annihilator(S)
    assert A.dim == 2
    for v in A.basis.data:
        assert sum(v[i] * [1, 0, 1][i] for i in range(3)) == 0


@settings(max_examples=40)
@given(gf5_matrices())
def test_annihilator_involution(M):
    S = Subspace(M.cols, M)
    assert annihilator(annihilator(S)) == S


def reference_annihilator(S):
    """The annihilator as the kernel of S's basis, row-reduced a second
    time, and the full space when S is zero."""
    if S.dim == 0:
        return Subspace.full(S.field, S.ambient_dim)
    reduced, _, pivots = rref(S.basis)
    return Subspace(S.ambient_dim, _free_rows(reduced, pivots)[1])


@settings(max_examples=80, deadline=None)
@given(st.one_of(gf5_matrices(), field_matrices()))
def test_annihilator_matches_the_two_rref_reference(M):
    S = Subspace(M.cols, M)
    assert (annihilator(S) == reference_annihilator(S)
            == Subspace(M.cols, null_basis(M)[1]))


def test_annihilator_of_zero_is_the_full_space():
    for f in (QQ, F5):
        S = Subspace.zero(f, 3)
        assert annihilator(S) == reference_annihilator(S) == \
            Subspace.full(f, 3)


@settings(max_examples=30)
@given(gf5_matrices(3), gf5_matrices(3))
def test_sum_intersection_dimension_formula(Ma, Mb):
    n = 3
    if Ma.cols != n or Mb.cols != n:
        pad = lambda r: list(r[:n]) + [0] * (n - len(r[:n]))
        Ma = mat(F5, [pad(r) for r in Ma.data])
        Mb = mat(F5, [pad(r) for r in Mb.data])
    A = Subspace(n, Ma)
    B = Subspace(n, Mb)
    total = subspace_sum(A, B)
    meet = annihilator(subspace_sum(annihilator(A), annihilator(B)))
    assert total.dim + meet.dim == A.dim + B.dim
    # X contains Y exactly when adding Y leaves X unchanged
    assert subspace_sum(A, meet) == A and subspace_sum(B, meet) == B
    assert subspace_sum(total, A) == total == subspace_sum(total, B)
    assert reduce_against(A, meet.basis.sparse) is None
    assert reduce_against(B, meet.basis.sparse) is None


def test_quotient_data_projection_section():
    S = Subspace.span(QQ, [[1, -1, 0]], 3)
    proj, section = quotient_data(S.basis, S.pivots)
    assert proj.rows == 2
    # proj kills S, and proj . section = identity on the quotient
    assert (proj @ column(QQ, [1, -1, 0])).is_zero()
    assert proj @ section == Matrix.identity(QQ, 2)


def test_reduce_against_and_member():
    S = Subspace.span(QQ, [[1, 0, 0], [0, 1, 0]], 3)
    assert reduce_against(S, [{0: QQ.coerce(2), 1: QQ.coerce(3)}]) is None
    assert reduce_against(S, [{}]) is None
    assert reduce_against(S, [{2: QQ.one}]) == (0, 0, 1)
    # the first row lies in S, so the residual is the second row's
    residual = reduce_against(S, [{1: QQ.one}, {0: QQ.one, 1: QQ.one,
                                                2: QQ.one}])
    assert residual == (0, 0, 1)
    # the residual is the canonical one, zero at the pivots, even where
    # the row leads at a free column
    line = Subspace.span(QQ, [[0, 1]], 2)
    assert reduce_against(line, [{0: QQ.one, 1: QQ.one}]) == (1, 0)


@st.composite
def reduction_cases(draw):
    """A subspace A and vectors inside it, outside it, or zero."""
    M = draw(field_matrices())
    A = Subspace(M.cols, M)
    f = M.field
    scalars = q_scalars if f == QQ else int_scalars
    free = [c for c in range(M.cols) if c not in A.pivots]
    vectors = []
    for kind in draw(st.lists(st.sampled_from(["in", "out", "zero"]),
                              min_size=1, max_size=4)):
        vec = [0] * M.cols
        if kind != "zero":
            for row in M.data:
                a = draw(scalars)
                vec = [x + a * y for x, y in zip(vec, row)]
        if kind == "out" and free:
            s = draw(scalars)
            vec[draw(st.sampled_from(free))] += s if f.coerce(s) else 1
        elif kind == "out":
            kind = "in"
        vectors.append((kind, mat(f, [vec])))
    return A, vectors


@settings(max_examples=200, deadline=None)
@given(reduction_cases())
def test_reduce_against_matches_dense_reference(case):
    A, vectors = case
    rows = [V.sparse[0] for _, V in vectors]
    dense = [V.data[0] for _, V in vectors]
    residual = reduce_against(A, rows)
    expected = reference_reduce_against(A, dense)
    assert residual == expected and repr(residual) == repr(expected)
    for (kind, V), row, vec in zip(vectors, rows, dense):
        residual = reduce_against(A, [row])
        assert residual == reference_reduce_against(A, [vec])
        assert (residual is None) == (kind != "out")
        if residual is not None:
            assert not any(residual[c] for c in A.pivots)
            # the residual differs from the vector by an element of A
            diff = mat(A.field, [residual]) - V
            assert reduce_against(A, diff.sparse) is None


def test_matrix_rank_agrees_with_rref():
    M = mat(QQ, [[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    reference = reference_sparse_rank(QQ, row_dicts(M))
    assert matrix_rank(M) == rref(M)[1] == reference == 2


@settings(max_examples=40)
@given(gf5_matrices())
def test_matrix_rank_dispatch(M):
    assert matrix_rank(M) == rref(M)[1]


@settings(max_examples=150, deadline=None)
@given(q_matrices())
def test_matrix_rank_q_matches_rref_and_reference(M):
    rank = rref(M)[1]
    assert matrix_rank(M) == rank
    assert reference_sparse_rank(QQ, row_dicts(M)) == rank


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F5, F32003, FBIG]),
       st.lists(st.dictionaries(st.integers(0, 7), int_scalars, max_size=8),
                max_size=6))
def test_matrix_rank_gf_matches_reference(field, rows):
    # raw integer values: negative, zero mod p and above p are all allowed;
    # Matrix coerces them, the reference reads them as they are
    M = Matrix(field, [[row.get(j, 0) for j in range(8)] for row in rows],
               cols=8)
    assert matrix_rank(M) == reference_sparse_rank(field, rows)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([QQ, F5, F32003]).flatmap(
    lambda f: q_matrices(f, q_scalars if f == QQ else int_scalars)))
def test_matrix_rank_equals_rref_rank_across_sizes(M):
    # kron(M, I_k) is block diagonal: `_packs` would put it on packed rows
    # only if M had 2k rows, so it stays on dict rows in every field,
    # whichever rows M itself is eliminated on
    k = 10
    big = kron(M, Matrix.identity(M.field, k))
    assert not packs(big.field, big)
    assert matrix_rank(M) == rref(M)[1]
    assert matrix_rank(big) == rref(big)[1] == k * rref(M)[1]


@settings(max_examples=20, deadline=None)
@given(q_matrices())
def test_matrix_rank_q_sparse_path(M):
    # a Q matrix is never packed, so matrix_rank eliminates kron(M, I_k)
    # on dict rows; its rank is k * rank(M)
    k = 10
    big = kron(M, Matrix.identity(QQ, k))
    assert not packs(QQ, big)
    rank = rref(M)[1]
    assert matrix_rank(big) == k * rank
    assert reference_sparse_rank(QQ, row_dicts(big)) == k * rank


def test_matrix_rank_q_sparse_path_dense_block():
    # a dense 65 x 65 block with Fraction entries, a zero row and a
    # dependent row, eliminated on dict rows as every Q matrix is
    n = 65
    rows = [[Fraction((i * j) % 7 - 3, 1 + (i + j) % 5) if (i + 2 * j) % 3
             else 0 for j in range(n)] for i in range(n - 2)]
    rows.append([0] * n)
    rows.append([x - 2 * y for x, y in zip(rows[0], rows[1])])
    M = mat(QQ, rows)
    assert not packs(QQ, M)
    rank = rref(M)[1]
    assert matrix_rank(M) == rank == reference_sparse_rank(QQ, row_dicts(M))
    assert rank <= n - 2


@pytest.mark.parametrize("field", [F5, F32003, FBIG])
def test_matrix_rank_gf_dense_block(field):
    # 70 x 70 dense residues with a zero row and a dependent row
    n = 70
    rows = [[(i * j * 31 + 7 * i + j) % 23 - 11 if (i + 2 * j) % 4 else 0
             for j in range(n)] for i in range(n - 2)]
    rows.append([0] * n)
    rows.append([x - 3 * y for x, y in zip(rows[0], rows[1])])
    M = mat(field, rows)
    R, rank, _ = rref(M)
    assert matrix_rank(M) == rank == reference_sparse_rank(field, row_dicts(M))
    assert rank <= n - 2
    assert R == reference_rref(M)[0]


@contextmanager
def dict_rows():
    """Every GF(p) matrix eliminated on dict rows: the sparse loop is the
    reference that the packed rows must match."""
    packs = linalg._packs
    linalg._packs = lambda field, rows, nnz, cols, addends: False
    try:
        yield
    finally:
        linalg._packs = packs


def packs(field, M):
    """The packed-row rule as ``echelon`` applies it to M over ``field``."""
    return linalg._packs(field, M.rows, sum(map(len, M.sparse)), M.cols,
                         M.cols)


def slots_fit(p, cols):
    return 2 * p.bit_length() + cols.bit_length() + 1 <= 64


def rref_packed(p, M):
    """``{pivot column: RREF row}`` from the packed kernels alone."""
    return linalg._back_packed(
        p, linalg._echelon_packed(p, M.sparse, M.cols), M.cols)


PACKED_PRIMES = [2, 7, 32003, 32749, P_BIG]


@st.composite
def dense_gf_matrices(draw):
    """Up to 40 x 80 over one of PACKED_PRIMES, at fill rates on both sides
    of the packed-row rule, with zero, repeated and combined rows."""
    f = PrimeField(draw(st.sampled_from(PACKED_PRIMES)))
    dense = draw(st.booleans())
    n = draw(st.sampled_from([12, 24, 40] if dense else [1, 2, 5, 12, 40]))
    m = draw(st.sampled_from([1, 3, 9, 16, 33, 64, 80]))
    # nonzero in about fill / 8 of the cells
    fill = draw(st.sampled_from([4, 6, 8] if dense else [0, 1, 2, 8]))
    rng = draw(st.randoms(use_true_random=False))
    rows = []
    for i in range(n):
        kind = rng.choice(["free"] * 3 + (["zero", "combo"] if i else []))
        if kind == "free":
            rows.append([rng.randrange(f.p) if rng.randrange(8) < fill
                         else 0 for _ in range(m)])
        elif kind == "zero":
            rows.append([0] * m)
        else:
            a, b = rng.randrange(f.p), rng.randrange(f.p)
            j, k = rng.randrange(i), rng.randrange(i)
            rows.append([a * x + b * y for x, y in zip(rows[j], rows[k])])
    return mat(f, rows)


@settings(max_examples=80, deadline=None)
@given(dense_gf_matrices())
def test_packed_and_dict_rows_agree(M):
    R, rank, pivots = rref(M)
    free, K = null_basis(M)
    with dict_rows():
        assert rref(M) == (R, rank, pivots)
        assert null_basis(M) == (free, K)
        assert matrix_rank(M) == rank
    assert matrix_rank(M) == rank
    assert (M @ K.transpose()).is_zero()
    assert_canonical(R)
    p = M.field.p
    if slots_fit(p, M.cols):
        # whatever the rule picks, the packed kernel itself must agree
        out = rref_packed(p, M)
        assert sorted(out) == pivots
        assert [out[c] for c in pivots] == list(R.sparse)
        assert len(linalg._echelon_packed(p, M.sparse, M.cols)) == rank


def test_packed_rule_is_crossed_by_the_drawn_matrices():
    full = mat(F32003, [[1] * 80 for _ in range(40)])
    diagonal = mat(F32003, [[int(i == j) for j in range(80)]
                            for i in range(40)])
    assert packs(F32003, full)
    assert not packs(F32003, diagonal)
    assert not packs(FBIG, full)
    assert not packs(QQ, full)


@pytest.mark.parametrize("p", PACKED_PRIMES)
@pytest.mark.parametrize("rows", [
    [[0] * 80 for _ in range(40)],
    [[3]] * 40,
    [[0]] * 7 + [[5]],
    [[j % 5 for j in range(30)]] * 12 + [[0] * 30],
], ids=["all zero", "one column", "one column, zero rows", "rank one"])
def test_packed_edge_shapes(p, rows):
    M = mat(PrimeField(p), rows)
    R, rank, pivots = rref(M)
    assert (R, rank, pivots) == reference_rref(M)
    assert matrix_rank(M) == rank
    if slots_fit(p, M.cols):
        out = rref_packed(p, M)
        assert [out[c] for c in sorted(out)] == list(R.sparse)


# the largest prime below 2^28: 2·28 + bitlen(64) + 1 = 64, so 64 columns
# meet the slot bound of linalg._packs exactly
P28 = 268435399


@pytest.mark.parametrize("p", [32749, P28])
@pytest.mark.parametrize("case", ["independent", "dependent", "all p - 1"])
def test_packed_slots_do_not_carry(p, case):
    """Every addend at its largest.  Rows 0..n-2 are e_j - e_{j+1} - ... -
    e_{n-1}, every entry right of the diagonal p - 1.  The last row has
    c_j = 1 - j, so at step j its slot j holds c_j + j·(p - 1)^2, which is
    1 mod p: the multiplier is p - 1 and every later slot gains (p - 1)^2.
    The last slot reaches (n - 1)(p - 1)^2 + c_{n-1}, 62 bits for P28; in
    the dependent case c_{n-1} = -(n - 1) makes it a nonzero multiple of
    p, which is dropped."""
    n = 64
    f = PrimeField(p)
    if case == "all p - 1":
        rows = [[p - 1] * n for _ in range(n)]
    else:
        rows = [[0] * j + [1] + [p - 1] * (n - 1 - j) for j in range(n - 1)]
        last = [1 - j for j in range(n)]
        if case == "dependent":
            last[-1] = 1 - n
        rows.append(last)
    M = mat(f, rows)
    assert packs(f, M)
    R, rank, pivots = rref(M)
    with dict_rows():
        assert rref(M) == (R, rank, pivots)
    assert matrix_rank(M) == rank
    assert rank == {"independent": n, "dependent": n - 1, "all p - 1": 1}[case]
    if case == "independent":
        assert R == Matrix.identity(f, n)


@pytest.mark.parametrize("p, cols", [(P_BIG, 16), (P28, 128)])
def test_wide_slots_take_the_dict_rows(p, cols):
    # 2·bitlen(p) + bitlen(cols) + 1 > 64, so a slot could carry: these
    # dense matrices must be eliminated on dict rows, and still be right
    f, rng = PrimeField(p), Random(p)
    M = mat(f, [[rng.randrange(p) for _ in range(cols)] for _ in range(24)])
    assert not slots_fit(p, cols)
    assert not packs(f, M)
    R, rank, pivots = rref(M)
    assert (R, rank, pivots) == reference_rref(M)
    assert matrix_rank(M) == rank == min(24, cols)


raw_q =st.one_of(st.integers(-3, 3),
                  st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
raw_gf7 = st.one_of(st.integers(-15, 15), st.sampled_from([7, -7, 14, 8, -6]))


@st.composite
def raw_square(draw, scalars, field):
    """A raw n x n array near the identity, near zero, or arbitrary."""
    n = draw(st.integers(1, 4))
    base = draw(st.sampled_from(["identity", "zero", "any"]))
    if base == "any":
        rows = [[draw(scalars) for _ in range(n)] for _ in range(n)]
    else:
        rows = [[int(base == "identity" and i == j) for j in range(n)]
                for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(scalars)
    return field, rows


@settings(max_examples=150)
@given(st.one_of(raw_square(raw_q, QQ), raw_square(raw_gf7, PrimeField(7))))
def test_zero_and_identity_tests_match_field_is_zero(case):
    f, rows = case
    M = Matrix(f, rows)
    assert M.is_zero() == all(f.coerce(x) == 0 for row in rows for x in row)
    assert M.is_identity() == all(
        f.coerce(x - (1 if i == j else 0)) == 0
        for i, row in enumerate(rows) for j, x in enumerate(row))


def test_zero_and_identity_tests_on_noncanonical_input():
    F7 = PrimeField(7)
    assert Matrix(F7, [[7, -7]]).is_zero()
    assert not Matrix(F7, [[7, -1]]).is_zero()
    assert Matrix(F7, [[8, 14], [-7, 15]]).is_identity()
    assert Matrix(QQ, [[Fraction(3, 3) - 1]]).is_zero()
    assert Matrix(QQ, [[Fraction(3, 3), Fraction(3, 3) - 1],
                       [0, Fraction(-2, -2)]]).is_identity()
    assert not Matrix(QQ, [[1, Fraction(1, 3)], [0, 1]]).is_identity()


def test_fraction_entries_stay_exact():
    M = mat(QQ, [[Fraction(1, 3), Fraction(1, 6)], [1, 1]])
    R, rank, _ = rref(M)
    assert rank == 2
    assert R == Matrix.identity(QQ, 2)


def test_matmul_above_numpy_limit_does_not_overflow():
    p = P_BIG
    A = mat(FBIG, [[p - 1, p - 2], [3, p - 4]])
    B = mat(FBIG, [[p - 5, 6], [7, p - 8]])
    assert (A @ B) == mat(FBIG, [[4294967302, 10], [4294967268, 50]])


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        mat(QQ, [[1, 2], [3]])
    with pytest.raises(ValueError):
        mat(QQ, [[1, 2]]) @ mat(QQ, [[1, 2]])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_operations_keep_sparse_rows_canonical(data):
    A = data.draw(field_matrices())
    B = data.draw(partners(A))
    C = data.draw(partners(A.transpose()))
    f = A.field
    results = {
        "+": A + B, "-": A - B, "A - A": A - A, "@": A @ C, "@ left": C @ A,
        "transpose": A.transpose(),
        "kron": kron(A, B), "rref": rref(A)[0],
        "identity": Matrix.identity(f, A.rows),
        "zero": Matrix.zero(f, A.rows, A.cols),
    }
    S = Subspace(A.cols, A)
    results["proj"], results["section"] = quotient_data(S.basis, S.pivots)
    for M in results.values():
        assert_canonical(M)
    assert (A - A).is_zero()
    assert (A + B).data == tuple(tuple(f.add(x, y) for x, y in zip(r, s))
                                 for r, s in zip(A.data, B.data))
    assert (A - B).data == tuple(
        tuple(f.add(x, f.neg(y)) for x, y in zip(r, s))
        for r, s in zip(A.data, B.data))
    assert A @ C == dense_product(A, C) and C @ A == dense_product(C, A)


# denominators that share factors (2, 4, 6, 9) and that do not (5, 7)
product_fractions = st.builds(Fraction, st.integers(-9, 9),
                              st.sampled_from([2, 3, 4, 6, 9, 5, 7]))


@st.composite
def q_product_pairs(draw):
    """(A, B) over Q with integral, fractional and zero rows, where some
    entries of A @ B are forced to cancel to an integer, zero included."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))

    def row(width):
        kind = draw(st.sampled_from(["int", "frac", "zero"]))
        scalars = st.integers(-4, 4) if kind == "int" else st.one_of(
            st.integers(-4, 4), product_fractions)
        return [0 if kind == "zero" else draw(scalars) for _ in range(width)]

    A = [row(k) for _ in range(n)]
    B = [row(m) for _ in range(k)]
    for _ in range(draw(st.integers(0, 3))):
        # solve for the last entry of column j of B so that entry (i, j)
        # of the product is the integer t
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        t, a = draw(st.integers(-2, 2)), A[i]
        if a[-1]:
            B[-1][j] = (t - sum(Fraction(a[l]) * B[l][j]
                                for l in range(k - 1))) / Fraction(a[-1])
    return mat(QQ, A), mat(QQ, B)


@settings(max_examples=300, deadline=None)
@given(q_product_pairs())
def test_q_product_matches_the_fraction_reference(pair):
    A, B = pair
    C = A @ B
    assert_canonical(C)
    assert C == dense_product(A, B)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dense_round_trip_and_hash_ignore_dict_order(data):
    A = data.draw(field_matrices())
    B = data.draw(partners(A))
    # from_rows takes A's rows as given, in reversed column order
    flipped = Matrix.from_rows(
        A.field, [dict(reversed(row.items())) for row in A.sparse], A.cols)
    for M in (A, flipped, A + B, B - A, A.transpose(), rref(A)[0],
              kron(A, B)):
        again = Matrix(M.field, M.data, cols=M.cols)
        # the hash is kept after its first use; both orders must agree
        assert again == M and hash(again) == hash(M) == hash(M)
    assert A + B == B + A and hash(A + B) == hash(B + A)


def test_hash_ignores_dict_order():
    # A + B lists column 1 first in its row, B + A column 0
    A, B = mat(QQ, [[0, 1]]), mat(QQ, [[1, 0]])
    assert list((A + B).sparse[0]) != list((B + A).sparse[0])
    assert A + B == B + A and hash(A + B) == hash(B + A)


@contextmanager
def accumulator(dense):
    """Every product summed on the list accumulator (``dense``) or on the
    dict one, whatever ``linalg._fills`` would choose."""
    fills = linalg._fills
    linalg._fills = lambda combos, ints, width: dense
    try:
        yield
    finally:
        linalg._fills = fills


@st.composite
def combine_cases(draw):
    """A combine call over Q (Fraction entries) or GF(p): up to 6 sparse
    combinations of up to 6 rows, each row shifted right or not."""
    f = draw(st.sampled_from([QQ, F5, F32003, FBIG]))
    scalars = q_scalars if f == QQ else int_scalars
    fill = draw(st.sampled_from([0.2, 0.6, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    nk, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))

    def entry():
        return f.coerce(draw(scalars)) if rng.random() < fill else 0

    combos = [{k: x for k in range(nk) if (x := entry())}
              for _ in range(draw(st.integers(0, 6)))]
    rows = [{j: x for j in range(cols) if (x := entry())}
            for _ in range(nk)]
    shifts = draw(st.one_of(st.none(), st.lists(
        st.integers(0, 5), min_size=nk, max_size=nk)))
    return f, combos, rows, cols + 5, shifts


def reference_combine(f, combos, rows, shifts):
    """The sums entry by entry through the field operations."""
    out = []
    for combo in combos:
        acc = {}
        for k, a in combo.items():
            s = shifts[k] if shifts else 0
            for j, y in rows[k].items():
                acc[j + s] = f.add(acc.get(j + s, f.zero), f.mul(a, y))
        out.append({j: x for j, x in acc.items() if x})
    return out


@settings(max_examples=200, deadline=None)
@given(combine_cases())
def test_both_accumulators_give_the_same_canonical_rows(case):
    f, combos, rows, width, shifts = case
    dens, ints = linalg.int_rows(f, rows, range(len(rows)))
    expected = reference_combine(f, combos, rows, shifts)
    for dense in (True, False):
        with accumulator(dense):
            out = linalg.combine(f, combos, dens, ints, width, shifts)
        assert out == expected
        assert_canonical(Matrix.from_rows(f, out, width))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_agree_on_both_accumulators(data):
    A = data.draw(field_matrices())
    C = data.draw(partners(A.transpose()))
    with accumulator(True):
        dense = A @ C, C @ A
    with accumulator(False):
        assert (A @ C, C @ A) == dense
    assert dense[0] == dense_product(A, C)


def test_fill_rule_keeps_a_wide_sparse_product_on_the_dict():
    # 3000 x 3000 with 2 entries per row: a list of 3000 slots per output
    # row would cost far more than the 4 terms it sums
    n = 3000
    M = Matrix.from_rows(F32003, [{i: 1, (7 * i + 1) % n: 2}
                                  for i in range(n)], n)
    dens, ints = linalg.int_rows(F32003, M.sparse, range(n))
    assert not linalg._fills(M.sparse, ints, n)
    # and a product whose rows fill their width takes the list
    full = mat(F32003, [[1] * 8 for _ in range(8)])
    assert linalg._fills(full.sparse, full.sparse, 8)
    assert not linalg._fills([], full.sparse, 8)
    assert not linalg._fills([{}] * 8, full.sparse, 8)
