"""Categorical law checks: diagrams, adjunction, braiding, rigidity, traces."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadalg import laws
from quadalg.fields import QQ, PrimeField
from quadalg.linalg import Matrix, Subspace, matrix_rank, rref
from quadalg.presentations import (
    AlgebraMorphism,
    QuadraticPresentation,
    black,
    dual,
    evaluation_matrix,
    free_presentation,
    full_relations_presentation,
    is_morphism,
    unit_black,
    unit_white,
    white,
)
from quadalg.laws import (
    adjunction_roundtrip,
    adjunction_roundtrip_rev,
    check_axiom_diagrams,
    check_braiding,
    check_bullet_to_circle,
    check_dual_antimultiplicative,
    check_hom_algebra,
    composition_map,
    contragredient_check,
    contragredient_invertibility,
    counit_map,
    double_dual_check,
    in_rigid_subcategory,
    rank_of,
    run_suite,
    solve_contragredient,
    solve_linear_inverse,
    structure_map_f,
    structure_map_h,
    trace,
    triangle_left,
    triangle_right,
    unit_duality_checks,
    unit_map,
)

from quadalg.sampling import random_matrix
from quadalg.tensorindex import kron, permutation_matrix

from conftest import CORPUS_NAMES, load
from test_linalg import F5, F32003, int_scalars, mat, q_scalars

F3 = PrimeField(3)


def _trio():
    return load("free2"), load("sym2"), load("ext2")


def test_axiom_diagrams_across_triples():
    # All triples from a pool with one tiny object keep degree-2 spaces small;
    # one homogeneous n = 2 triple exercises the large case.
    pool = (load("free1"), load("sym2"), load("ext2"))
    triples = [t for t in itertools.product(pool, repeat=3)
               if t[0].n * t[1].n * t[2].n <= 4]
    triples.append((load("sym2"), load("ext2"), load("free2")))
    for U1, U2, U3 in triples:
        ids = [AlgebraMorphism.identity(U) for U in (U1, U2, U3)]
        for check in check_axiom_diagrams(U1, U2, U3, U1, *ids):
            assert check.passed, (check.name, check.objects)
            assert check.residual.is_zero()


def test_triangles_on_each_corpus_algebra():
    for name in ("free1", "free2", "sym2", "ext2", "embed2"):
        U = load(name)
        assert triangle_left(U).passed, name
        assert triangle_right(U).passed, name


def reference_triangle_left(U):
    """(2.3) as three hand-built steps: c_U . Id, then f, then Id o d_U."""
    f, n, Ud = U.field, U.n, dual(U)
    step1 = AlgebraMorphism(black(unit_black(f), U), black(white(U, Ud), U),
                            kron(unit_map(U).M, Matrix.identity(f, n)))
    step2 = structure_map_f(U, Ud, U)
    step3 = AlgebraMorphism(white(U, black(Ud, U)), white(U, unit_white(f)),
                            kron(Matrix.identity(f, n), evaluation_matrix(U)))
    path = step3.M @ step2.M @ step1.M
    return path, path == Matrix.identity(f, n)


def reference_triangle_right(U):
    """(2.4) as three hand-built steps: Id . c_U, then h, then d_U o Id."""
    f, n, Ud = U.field, U.n, dual(U)
    step1 = AlgebraMorphism(black(Ud, unit_black(f)), black(Ud, white(U, Ud)),
                            kron(Matrix.identity(f, n), unit_map(U).M))
    step2 = structure_map_h(Ud, U, Ud)
    step3 = AlgebraMorphism(white(black(Ud, U), Ud), white(unit_white(f), Ud),
                            kron(evaluation_matrix(U), Matrix.identity(f, n)))
    path = step3.M @ step2.M @ step1.M
    return path, path == Matrix.identity(f, n)


def _corpus_over_q_and_gf5():
    """Every corpus object, and each Q one read mod 5 where it can be."""
    for name in CORPUS_NAMES:
        A = load(name)
        yield pytest.param(A, id=name)
        rows = A.R.basis.data
        if A.field == QQ and all(x.denominator % 5 for r in rows for x in r):
            R = Subspace(A.n * A.n, Matrix(F5, rows, cols=A.n * A.n))
            yield pytest.param(QuadraticPresentation(F5, A.labels, R),
                               id=f"{name}-mod5")


@pytest.mark.parametrize("U", _corpus_over_q_and_gf5())
def test_triangles_match_the_hand_built_composites(U):
    # the zig-zags as transposes of c_U and d_U give the same paths and
    # verdicts as the three explicit steps of diagrams (2.3) and (2.4)
    for new, reference in ((triangle_left(U), reference_triangle_left(U)),
                           (triangle_right(U), reference_triangle_right(U))):
        assert (new.left_path, new.passed) == reference
        assert new.passed


def test_unit_and_counit_are_morphisms():
    U = load("sym2")
    c = unit_map(U)
    d = counit_map(U)
    assert c.src.n == 1 and c.dst.R == white(U, dual(U)).R
    assert d.dst.n == 1 and d.src.R == black(dual(U), U).R


def test_adjunction_roundtrip_with_counit():
    # u = d_L : dual(L) . L -> I_o is a fixed point of the double transpose.
    L = load("sym2")
    d = counit_map(L)
    check = adjunction_roundtrip(d, dual(L), L, d.dst)
    assert check.passed


def test_adjunction_roundtrip_rev_with_unit():
    # v = c_L : I_bullet -> L o dual(L) is fixed by the reverse round-trip.
    L = load("ext2")
    c = unit_map(L)
    check = adjunction_roundtrip_rev(c, unit_black(QQ), L, L)
    assert check.passed


def test_dual_antimultiplicative_examples():
    for U, V in itertools.product(_trio(), repeat=2):
        assert check_dual_antimultiplicative(U, V).passed


def test_braiding_hexagon():
    U1, U2, U3 = _trio()
    assert check_braiding(U1, U2, U3).passed
    assert check_braiding(U3, U1, U2).passed


def test_bullet_to_circle():
    for U, V in itertools.product(_trio(), repeat=2):
        assert check_bullet_to_circle(U, V).passed


def test_hom_algebra_associativity_and_unit():
    for name in ("free1", "sym2", "ext2"):
        for check in check_hom_algebra(load(name)):
            assert check.passed, (name, check.name)


def test_rigid_membership():
    assert in_rigid_subcategory(load("embed2"))
    assert in_rigid_subcategory(load("embed3"))
    assert not in_rigid_subcategory(load("sym2"))


def test_trace_is_matrix_trace_on_examples():
    U = full_relations_presentation(QQ, ("a", "b"))
    h = Matrix(QQ, [[1, 5], [0, 2]], cols=2)
    assert trace(U, h) == 3
    assert rank_of(U) == 2
    assert rank_of(full_relations_presentation(QQ, ("a", "b", "c"))) == 3


def test_trace_rejects_non_rigid_objects():
    with pytest.raises(ValueError):
        trace(load("sym2"), Matrix.identity(QQ, 2))


@pytest.mark.parametrize("h", [Matrix.identity(QQ, 3),
                               Matrix(QQ, [[1, 0, 2], [0, 1, 0]], cols=3),
                               Matrix.identity(F3, 2)],
                         ids=["3x3", "2x3", "GF3"])
def test_trace_rejects_a_matrix_of_the_wrong_shape_or_field(h):
    # a full-relations object takes any endomorphism, so only the matrix
    # algebra of the trace itself can reject h
    with pytest.raises(ValueError):
        trace(full_relations_presentation(QQ, ("a", "b")), h)


def test_contragredient_of_permutation(monkeypatch):
    U = full_relations_presentation(F3, ("a", "b", "c"))
    P = Matrix(F3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], cols=3)
    h = AlgebraMorphism(U, U, P)
    hp = solve_contragredient(h)
    assert hp is not None
    for check in contragredient_check(h, hp):
        assert check.passed

    # the passed equations already give the inverse, (M_h')^T: nothing is
    # inverted again
    def no_inverse(M):
        raise AssertionError("contragredient_invertibility inverted M_h")

    monkeypatch.setattr(laws, "solve_linear_inverse", no_inverse)
    ok, inv = contragredient_invertibility(h, hp)
    assert ok
    assert inv.M == hp.M.transpose()
    assert inv.M @ P == Matrix.identity(F3, 3)


def test_contragredient_invertibility_reports_a_readable_residual():
    # diag(2, 3) is a morphism free2 -> sym2, and diag(1/2, 1/3) solves the
    # contragredient equations, but the inverse sends x(x)y - y(x)x to
    # (x(x)y - y(x)x)/6, which the zero relations of free2 do not hold
    U = free_presentation(QQ, ("a", "b"))
    V = QuadraticPresentation(QQ, ("a", "b"),
                              Subspace.span(QQ, [[0, 1, -1, 0]], 4))
    h = AlgebraMorphism(U, V, Matrix(QQ, [[2, 0], [0, 3]], cols=2))
    hp = AlgebraMorphism(dual(V), dual(U), Matrix(
        QQ, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]], cols=2))
    assert all(check.passed for check in contragredient_check(h, hp))
    assert contragredient_invertibility(h, hp) == (
        False, "inverse is not a morphism; residual (0, 1/6, -1/6, 0)")


def test_contragredient_inconsistent_for_singular_map():
    U = full_relations_presentation(QQ, ("a", "b"))
    M = Matrix(QQ, [[1, 0], [0, 0]], cols=2)
    h = AlgebraMorphism(U, U, M)
    assert solve_contragredient(h) is None


def reference_solve_contragredient(h):
    """M_h' from the loop-built system M_h Y = I, Y M_h = I in the unknown
    Y = (M_h')^T, or None when it is inconsistent or Y^T is no morphism."""
    U, V = h.src, h.dst
    f = U.field
    nu, nv = U.n, V.n
    rows = []
    rhs = []
    for a, mrow in enumerate(h.M.sparse):
        for b in range(nv):
            rows.append({k * nv + b: x for k, x in mrow.items()})
            rhs.append(f.one if a == b else f.zero)
    cols = h.M.transpose().sparse
    for i in range(nu):
        for j, mcol in enumerate(cols):
            rows.append({i * nv + k: x for k, x in mcol.items()})
            rhs.append(f.one if i == j else f.zero)
    # solve on rref of the augmented matrix [rows | rhs]: inconsistent when
    # the last column holds a pivot, else the free unknowns are set to 0
    k = nu * nv
    aug = [{**row, k: b} if b else row for row, b in zip(rows, rhs)]
    reduced, _, pivots = rref(Matrix.from_rows(f, aug, k + 1))
    if k in pivots:
        return None
    sol = [f.zero] * k
    for row, pc in zip(reduced.sparse, pivots):
        sol[pc] = row.get(k, f.zero)
    Mp = Matrix.from_rows(f, [{i: x for i in range(nu)
                               if (x := sol[i * nv + j])}
                              for j in range(nv)], nu)
    return Mp if is_morphism(dual(U), dual(V), Mp)[0] else None


def _contragredient_cases():
    """Maps between full-relations objects: on the rigid corpus objects the
    cyclic shift, a rank-1 map and random ones; between fresh objects over
    Q and GF(5), random square and non-square maps."""
    rng = random.Random(29)
    for name in CORPUS_NAMES:
        U = load(name)
        if not in_rigid_subcategory(U):
            continue
        f, n = U.field, U.n
        shift = permutation_matrix(f, [(j - 1) % n for j in range(n)])
        rank1 = Matrix.from_rows(f, [{0: f.one}] + [{} for _ in range(n - 1)],
                                  n)
        for M in (shift, rank1, random_matrix(f, n, n, rng)):
            yield U, U, M
    for f in (QQ, F5):
        for nu, nv in ((1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 2)):
            U = full_relations_presentation(f, [f"u{i}" for i in range(nu)])
            V = full_relations_presentation(f, [f"v{i}" for i in range(nv)])
            for _ in range(4):
                yield U, V, random_matrix(f, nv, nu, rng)


def test_solve_contragredient_matches_the_loop_built_system():
    outcomes = set()
    for U, V, M in _contragredient_cases():
        h = AlgebraMorphism(U, V, M)
        hp, ref = solve_contragredient(h), reference_solve_contragredient(h)
        assert (hp is None) == (ref is None), (U.labels, V.labels, M)
        if hp is not None:
            assert hp.M == ref
        outcomes.add(hp is None)
    assert outcomes == {True, False}  # both branches were reached


@pytest.mark.parametrize("f", [QQ, F5], ids=["Q", "GF5"])
def test_solve_contragredient_on_non_rigid_pairs(f):
    # off the rigid subcategory not every matrix is a morphism, so an
    # inverse transpose can fail to be one of the duals
    free2 = free_presentation(f, ("a", "b"))
    sym2 = QuadraticPresentation(f, ("a", "b"),
                                 Subspace.span(f, [[0, 1, -1, 0]], 4))
    # diag(2, 3) is invertible, but diag(1/2, 1/3) would have to send the
    # full relations of free2^! into the three-dimensional ones of sym2^!
    diag = AlgebraMorphism(free2, sym2, mat(f, [[2, 0], [0, 3]]))
    # the swap of a and b keeps ab - ba up to sign, and is its own inverse
    # transpose
    swap = AlgebraMorphism(sym2, sym2, mat(f, [[0, 1], [1, 0]]))
    assert solve_linear_inverse(diag.M) is not None
    assert solve_contragredient(diag) is None
    assert reference_solve_contragredient(diag) is None
    hp = solve_contragredient(swap)
    assert hp is not None and hp.M == swap.M
    assert hp.M == reference_solve_contragredient(swap)
    assert all(check.passed for check in contragredient_check(swap, hp))


def test_solve_linear_inverse():
    M = Matrix(QQ, [[2, 1], [1, 1]], cols=2)
    inv = solve_linear_inverse(M)
    assert inv @ M == Matrix.identity(QQ, 2)
    assert solve_linear_inverse(Matrix(QQ, [[1, 1], [1, 1]], cols=2)) is None


@st.composite
def square_matrices(draw):
    """n x n over Q, GF(5) or GF(32003), singular or not."""
    f = draw(st.sampled_from([QQ, F5, F32003]))
    scalars = q_scalars if f == QQ else int_scalars
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(scalars, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        a = draw(scalars)
        rows[-1] = [x + a * y for x, y in zip(rows[0], rows[1])]
    return mat(f, rows)


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_solve_linear_inverse_inverts_exactly_the_regular_matrices(M):
    inv = solve_linear_inverse(M)
    identity = Matrix.identity(M.field, M.rows)
    assert (inv is not None) == (matrix_rank(M) == M.rows)
    if inv is not None:
        assert M @ inv == identity == inv @ M
    assert solve_linear_inverse(mat(M.field, [[1] * (M.rows + 1)])) is None


def test_automorphism_check_examples():
    # an invertible M with (M x M)(R) inside R maps R onto R, since the
    # dimensions agree: an automorphism
    def automorphism(U, M):
        return (solve_linear_inverse(M) is not None
                and is_morphism(U, U, M)[0])

    sym2 = load("sym2")
    swap = Matrix(QQ, [[0, 1], [1, 0]], cols=2)
    shear = Matrix(QQ, [[1, 1], [0, 1]], cols=2)
    assert automorphism(sym2, swap)
    assert automorphism(sym2, shear)
    assert not automorphism(sym2, Matrix(QQ, [[1, 1], [1, 1]], cols=2))
    # R = span{x(x)x}: the map x -> x + y moves x(x)x off the line, and the
    # swap does too, but scaling x alone preserves it.
    A = QuadraticPresentation(QQ, ("x", "y"),
                              Subspace.span(QQ, [[1, 0, 0, 0]], 4))
    lower_shear = Matrix(QQ, [[1, 0], [1, 1]], cols=2)
    assert not automorphism(A, lower_shear)
    assert not automorphism(A, swap)
    scale = Matrix(QQ, [[3, 0], [0, 1]], cols=2)
    assert automorphism(A, scale)


def test_double_dual_and_unit_duality():
    for name in ("sym2", "ext2", "free2", "embed2"):
        assert double_dual_check(load(name)).passed
    for check in unit_duality_checks(QQ):
        assert check.passed


def test_run_suite_smoke():
    pool = list(_trio())
    for suite in ("axioms", "duality", "braiding", "hom-algebra"):
        checks, _ = run_suite(suite, pool, trials=2, seed=1)
        assert checks
        assert all(c.passed for c in checks), suite
    checks, reports = run_suite(
        "rigid", [load("embed2"), load("embed3")], trials=2, seed=1)
    assert all(c.passed for c in checks)
    assert any("Trace" in r or "trace" in r for r in reports)


def reference_composition_map(U):
    """l_U as the triple loop: the generator (a, i) (x) (i, j) of the black
    square of Hom(U, U) goes to (a, j)."""
    f, n = U.field, U.n
    nh = n * n
    rows = [{} for _ in range(nh)]
    for a in range(n):
        for i in range(n):
            for j in range(n):
                rows[a * n + j][(a * n + i) * nh + i * n + j] = f.one
    return Matrix.from_rows(f, rows, nh * nh)


@pytest.mark.parametrize("name", [n for n in CORPUS_NAMES if load(n).n <= 3])
def test_composition_map_matches_the_triple_loop(name):
    U = load(name)
    assert composition_map(U).M == reference_composition_map(U)


@pytest.mark.parametrize("suite,pool,note", [
    ("rigid", ["sym2"], "rigid: no full-relations object in the pool"),
    ("hom-algebra", ["sym3"],
     "hom-algebra: no object with at most 2 generators in the pool"),
], ids=["rigid", "hom-algebra"])
def test_suite_with_nothing_to_check_says_why(suite, pool, note):
    # no substitute object is checked in place of the user's
    checks, reports = run_suite(suite, [load(n) for n in pool], trials=3)
    assert (checks, reports) == ([], [note])


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nonsense", _trio(), trials=1, seed=0)


def test_suite_output_is_deterministic():
    pool = list(_trio())
    a = run_suite("axioms", pool, trials=3, seed=42)
    b = run_suite("axioms", pool, trials=3, seed=42)
    assert [(c.name, c.objects, c.passed) for c in a[0]] == \
           [(c.name, c.objects, c.passed) for c in b[0]]
    assert a[1] == b[1]
