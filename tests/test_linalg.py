from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadalg import linalg
from quadalg.fields import QQ, PrimeField
from quadalg.linalg import (Matrix, Subspace, annihilator, contains,
                            intersect, kernel, matrix_rank, member,
                            quotient_data, reduce_against, rref, solve,
                            sparse_rank, subspace_sum)
from quadalg.tensorindex import kron

F5 = PrimeField(5)
F32003 = PrimeField(32003)
# above the numpy modulus limit, and p^2 > 2^63
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


def row_dicts(M):
    return [{j: x for j, x in enumerate(row) if x} for row in M.data]


q_scalars = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
              st.integers(1, 10 ** 4)),
)


@st.composite
def q_matrices(draw, field=QQ):
    """1-6 x 1-8 matrices with zero rows and dependent rows mixed in."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    rows = []
    for i in range(n):
        kind = draw(st.sampled_from(["free", "zero", "combo"]
                                    if i else ["free", "zero"]))
        if kind == "free":
            rows.append(draw(st.lists(q_scalars, min_size=m, max_size=m)))
        elif kind == "zero":
            rows.append([0] * m)
        else:
            a, b = draw(q_scalars), draw(q_scalars)
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows.append([a * x + b * y for x, y in zip(rows[j], rows[k])])
    return mat(field, draw(st.permutations(rows)))


def test_rref_known_example():
    M = mat(QQ, [[0, 2, 4], [1, 1, 1]])
    R, rank, pivots = rref(M)
    assert rank == 2 and pivots == [0, 1]
    assert R == mat(QQ, [[1, 0, -1], [0, 1, 2]])


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
    for row in K.basis.data:
        assert all(x == 0 for x in M.apply(row))


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
    meet = intersect(A, B)
    assert total.dim + meet.dim == A.dim + B.dim
    assert contains(A, meet) and contains(B, meet)
    assert contains(total, A) and contains(total, B)


def test_quotient_data_projection_section():
    S = Subspace.span(QQ, [[1, -1, 0]], 3)
    proj, section = quotient_data(3, S)
    assert proj.rows == 2
    # proj kills S, and proj . section = identity on the quotient
    assert all(x == 0 for x in proj.apply([1, -1, 0]))
    assert proj @ section == Matrix.identity(QQ, 2)


def test_reduce_against_and_member():
    S = Subspace.span(QQ, [[1, 0, 0], [0, 1, 0]], 3)
    assert member(S, [2, 3, 0])
    assert not member(S, [0, 0, 1])
    residual = reduce_against(S, [[1, 1, 1]])
    assert residual is not None and residual[2] == 1


def test_solve_consistent_and_inconsistent():
    M = mat(QQ, [[1, 1], [0, 1]])
    x = solve(M, [QQ.coerce(3), QQ.coerce(1)])
    assert list(M.apply(x)) == [3, 1]
    M2 = mat(QQ, [[1, 0], [1, 0]])
    assert solve(M2, [QQ.one, QQ.zero]) is None


@settings(max_examples=40)
@given(gf5_matrices())
def test_matmul_matches_apply(M):
    v = [F5.coerce(i + 1) for i in range(M.cols)]
    col = Matrix(F5, [[x] for x in v], cols=1)
    assert list((M @ col).transpose().data[0]) == list(M.apply(v))


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


def test_intersect_modular_law_guard(monkeypatch):
    full = Subspace.full(QQ, 2)
    monkeypatch.setattr(linalg, "annihilator",
                        lambda S: Subspace.zero(QQ, S.ambient_dim))
    with pytest.raises(ArithmeticError, match="modular law"):
        intersect(full, full)


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        mat(QQ, [[1, 2], [3]])
    with pytest.raises(ValueError):
        mat(QQ, [[1, 2]]) @ mat(QQ, [[1, 2]])
