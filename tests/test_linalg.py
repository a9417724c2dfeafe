from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadalg.fields import QQ, PrimeField
from quadalg.linalg import (Matrix, Subspace, _free_rows, annihilator,
                            kernel, matrix_rank, null_basis, quotient_data,
                            reduce_against, rref, solve, sparse_rank)
from quadalg.tensorindex import kron

from conftest import subspace_sum

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
            if not f.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            factor = rows[i][c]
            if f.is_zero(factor):
                continue
            rows[i] = [f.sub(x, f.mul(factor, y))
                       for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(f, rows[:r], cols=ncols), r, pivots


def reference_sparse_rank(field, rows):
    """Sparse forward elimination through the field operations (the oracle)."""
    pivots = {}
    for row in rows:
        work = {j: v for j, v in row.items() if not field.is_zero(v)}
        while work:
            j = min(work)
            if j not in pivots:
                inv = field.inv(work[j])
                pivots[j] = {k: field.mul(inv, v) for k, v in work.items()}
                break
            c = work[j]
            for k, v in pivots[j].items():
                new = field.sub(work.get(k, field.zero), field.mul(c, v))
                if field.is_zero(new):
                    work.pop(k, None)
                else:
                    work[k] = new
    return len(pivots)


def reference_reduce_against(A, vectors):
    """Dense column-by-column reduction against A's RREF basis (the oracle):
    the first nonzero residual as a tuple, or None."""
    f = A.field
    basis = A.basis.data
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
            v = [f.sub(x, f.mul(coef, y)) for x, y in zip(v, basis[r])]
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


def assert_canonical(M):
    """M.sparse has one dict per row holding only nonzero canonical
    entries: Fractions over Q, ints in 1..p-1 over GF(p)."""
    assert isinstance(M.sparse, tuple) and len(M.sparse) == M.rows
    for row in M.sparse:
        for j, x in row.items():
            assert 0 <= j < M.cols
            if M.field == QQ:
                assert type(x) is Fraction and x
            else:
                assert type(x) is int and 0 < x < M.field.p


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
    K = kernel(M)
    _, rank, _ = rref(M)
    assert K.dim == M.cols - rank
    assert (M @ K.basis.transpose()).is_zero()


@settings(max_examples=60)
@given(field_matrices())
def test_null_basis_has_a_unit_at_each_free_column(M):
    K = null_basis(M)
    _, rank, pivots = rref(M)
    free = [c for c in range(M.cols) if c not in pivots]
    assert K.rows == len(free) == M.cols - rank
    assert (M @ K.transpose()).is_zero()
    f = M.field
    for i, row in enumerate(K.sparse):
        assert {c: row.get(c, f.zero) for c in free} == {
            c: f.one if c == free[i] else f.zero for c in free}
    assert Subspace(M.cols, K) == kernel(M)


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
    assert annihilator(S) == reference_annihilator(S) == kernel(M)


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
    proj, section = quotient_data(3, S)
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
            # the residual differs from the vector by an element of A
            diff = mat(A.field, [residual]) - V
            assert reduce_against(A, diff.sparse) is None


def test_solve_consistent_and_inconsistent():
    M = mat(QQ, [[1, 1], [0, 1]])
    x = solve(M, [QQ.coerce(3), QQ.coerce(1)])
    assert M @ column(QQ, x) == column(QQ, [3, 1])
    M2 = mat(QQ, [[1, 0], [1, 0]])
    assert solve(M2, [QQ.one, QQ.zero]) is None
    with pytest.raises(ValueError):
        solve(M2, [QQ.one])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_matches_consistency(data):
    M = data.draw(field_matrices())
    f = M.field
    scalars = q_scalars if f == QQ else int_scalars
    x0 = [data.draw(scalars) for _ in range(M.cols)]
    rhs = list((M @ column(f, x0)).transpose().data[0])
    if data.draw(st.booleans()):
        rhs[data.draw(st.integers(0, M.rows - 1))] += f.coerce(
            data.draw(scalars))
        rhs = [f.coerce(b) for b in rhs]
    aug = mat(f, [list(row) + [b] for row, b in zip(M.data, rhs)])
    consistent = matrix_rank(aug) == matrix_rank(M)
    x = solve(M, rhs)
    assert (x is not None) == consistent
    if x is not None:
        assert M @ column(f, x) == column(f, rhs)


def test_sparse_rank_agrees_with_rref():
    rows = [[0, 2, 4], [1, 1, 1], [1, 3, 5]]
    M = mat(QQ, rows)
    sparse = sparse_rank(QQ, [{j: QQ.coerce(x) for j, x in enumerate(r)
                               if x} for r in rows])
    assert sparse == rref(M)[1] == matrix_rank(M) == 2


@settings(max_examples=40)
@given(gf5_matrices())
def test_matrix_rank_dispatch(M):
    assert matrix_rank(M) == rref(M)[1]


@settings(max_examples=150, deadline=None)
@given(q_matrices())
def test_sparse_rank_q_matches_rref_and_reference(M):
    rank = rref(M)[1]
    assert sparse_rank(QQ, row_dicts(M)) == rank
    assert reference_sparse_rank(QQ, row_dicts(M)) == rank


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([F5, F32003, FBIG]),
       st.lists(st.dictionaries(st.integers(0, 7), int_scalars, max_size=8),
                max_size=6))
def test_sparse_rank_gf_matches_reference(field, rows):
    # raw integer values: negative, zero mod p and above p are all allowed
    assert sparse_rank(field, rows) == reference_sparse_rank(field, rows)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([QQ, F5, F32003]).flatmap(
    lambda f: q_matrices(f, q_scalars if f == QQ else int_scalars)))
def test_matrix_rank_equals_rref_rank_across_sizes(M):
    # M itself is far below 4096 cells, kron(M, I_k) above
    k = 1 + isqrt(4096 // (M.rows * M.cols))
    big = kron(M, Matrix.identity(M.field, k))
    assert M.rows * M.cols < 4096 < big.rows * big.cols
    assert matrix_rank(M) == rref(M)[1]
    assert matrix_rank(big) == rref(big)[1] == k * rref(M)[1]


@settings(max_examples=20, deadline=None)
@given(q_matrices())
def test_matrix_rank_q_sparse_path(M):
    # kron(M, I_k) has k^2 * M.rows * M.cols > 4096 cells, so matrix_rank
    # eliminates sparsely; its rank is k * rank(M)
    k = 1 + isqrt(4096 // (M.rows * M.cols))
    big = kron(M, Matrix.identity(QQ, k))
    assert big.rows * big.cols > 4096
    rank = rref(M)[1]
    assert matrix_rank(big) == k * rank
    assert reference_sparse_rank(QQ, row_dicts(big)) == k * rank


def test_matrix_rank_q_sparse_path_dense_block():
    # 65 x 65 = 4225 cells: over the dense limit, with Fraction entries,
    # a zero row and a dependent row
    n = 65
    rows = [[Fraction((i * j) % 7 - 3, 1 + (i + j) % 5) if (i + 2 * j) % 3
             else 0 for j in range(n)] for i in range(n - 2)]
    rows.append([0] * n)
    rows.append([x - 2 * y for x, y in zip(rows[0], rows[1])])
    M = mat(QQ, rows)
    assert M.rows * M.cols > 4096
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


raw_q = st.one_of(st.integers(-3, 3),
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
    assert M.is_zero() == all(f.is_zero(x) for row in rows for x in row)
    assert M.is_identity() == all(
        f.is_zero(x - (1 if i == j else 0))
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
    c = data.draw(q_scalars if f == QQ else int_scalars)
    results = {
        "+": A + B, "-": A - B, "A - A": A - A, "@": A @ C, "@ left": C @ A,
        "scale": A.scale(c), "scale 0": A.scale(0), "transpose": A.transpose(),
        "kron": kron(A, B), "rref": rref(A)[0],
        "identity": Matrix.identity(f, A.rows),
        "zero": Matrix.zero(f, A.rows, A.cols),
    }
    results["proj"], results["section"] = quotient_data(
        A.cols, Subspace(A.cols, A))
    for M in results.values():
        assert_canonical(M)
    assert (A - A).is_zero()
    assert (A + B).data == tuple(tuple(f.add(x, y) for x, y in zip(r, s))
                                 for r, s in zip(A.data, B.data))
    assert (A - B).data == tuple(tuple(f.sub(x, y) for x, y in zip(r, s))
                                 for r, s in zip(A.data, B.data))
    assert A @ C == dense_product(A, C) and C @ A == dense_product(C, A)
    assert A.scale(c).data == tuple(tuple(f.mul(f.coerce(c), x) for x in r)
                                    for r in A.data)


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
