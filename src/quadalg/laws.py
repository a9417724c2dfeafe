"""Mechanical verification of the quadratic-category structure.

Each check composes verified degree-1 matrices along the two legs of a
diagram and compares them exactly.  Every arrow used in a path is first
validated as an algebra morphism; a containment failure there is an engine
bug and raises instead of reporting a FAIL.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .fields import QQ, check_same_field
from .linalg import Matrix, rref, solve
from .presentations import (AlgebraMorphism, black, canonical_column, dual,
                            evaluation_matrix, free_presentation,
                            full_relations_presentation, internal_hom,
                            is_morphism, unit_black, unit_white, white)
from .tensorindex import flip, kron, push_subspace


def _name(U) -> str:
    return "\u00b7".join(U.labels)


@dataclass(frozen=True)
class DiagramCheck:
    name: str
    objects: tuple
    left_path: Matrix
    right_path: Matrix
    passed: bool
    residual: Matrix

    @staticmethod
    def compare(name, objects, left: Matrix, right: Matrix) -> "DiagramCheck":
        residual = left - right
        return DiagramCheck(name, tuple(objects), left, right,
                            residual.is_zero(), residual)


def _morphism(src, dst, M, what: str) -> AlgebraMorphism:
    try:
        return AlgebraMorphism(src, dst, M)
    except ValueError as exc:
        raise AssertionError(
            f"structure map {what} failed morphism validation: {exc}") from exc


def structure_map_f(U1, U2, U3) -> AlgebraMorphism:
    """(U1 o U2) . U3  ->  U1 o (U2 . U3): the identity reshape."""
    src = black(white(U1, U2), U3)
    dst = white(U1, black(U2, U3))
    I = Matrix.identity(U1.field, U1.n * U2.n * U3.n)
    return _morphism(src, dst, I, "f")


def structure_map_h(U1, U2, U3) -> AlgebraMorphism:
    """U1 . (U2 o U3)  ->  (U1 . U2) o U3: the identity reshape."""
    src = black(U1, white(U2, U3))
    dst = white(black(U1, U2), U3)
    I = Matrix.identity(U1.field, U1.n * U2.n * U3.n)
    return _morphism(src, dst, I, "h")


def unit_map(U) -> AlgebraMorphism:
    """c_U: black unit -> U o dual(U), the canonical-element column."""
    return _morphism(unit_black(U.field), white(U, dual(U)),
                     canonical_column(U), "c_U")


def counit_map(U) -> AlgebraMorphism:
    """d_U: dual(U) . U -> white unit, the evaluation row."""
    return _morphism(black(dual(U), U), unit_white(U.field),
                     evaluation_matrix(U), "d_U")


def tensor_morphisms(kind: str, u: AlgebraMorphism, v: AlgebraMorphism):
    op = black if kind == "black" else white
    return _morphism(op(u.src, v.src), op(u.dst, v.dst), kron(u.M, v.M),
                     f"{kind} tensor of morphisms")


def check_axiom_diagrams(U1, U2, U3, U4=None, u1=None, u2=None, u3=None):
    """The six coherence diagrams, evaluated at the degree-1 matrix level.

    U4 defaults to U1; u1..u3 default to identities.
    """
    if U4 is None:
        U4 = U1
    u1 = u1 if u1 is not None else AlgebraMorphism.identity(U1)
    u2 = u2 if u2 is not None else AlgebraMorphism.identity(U2)
    u3 = u3 if u3 is not None else AlgebraMorphism.identity(U3)
    f = U1.field
    names = tuple(_name(U) for U in (U1, U2, U3, U4))
    checks = []

    # (2.1): two routes (U1.(U2 o U3)).U4 -> (U1.U2) o (U3.U4)
    h123 = structure_map_h(U1, U2, U3)
    top1 = tensor_morphisms("black", AlgebraMorphism.identity(U1),
                            structure_map_f(U2, U3, U4))
    h1_234 = structure_map_h(U1, U2, black(U3, U4))
    left = h1_234.M @ top1.M  # associator c_bullet is the identity reshape
    bot1 = tensor_morphisms("black", h123, AlgebraMorphism.identity(U4))
    f12_34 = structure_map_f(black(U1, U2), U3, U4)
    right = f12_34.M @ bot1.M
    checks.append(DiagramCheck.compare("2.1", names, left, right))

    # (2.2): two routes (U1 o U2).(U3 o U4) -> U1 o ((U2.U3) o U4)
    f1 = structure_map_f(U1, U2, white(U3, U4))
    top2 = tensor_morphisms("white", AlgebraMorphism.identity(U1),
                            structure_map_h(U2, U3, U4))
    left2 = top2.M @ f1.M
    h2 = structure_map_h(white(U1, U2), U3, U4)
    bot2 = tensor_morphisms("white", structure_map_f(U1, U2, U3),
                            AlgebraMorphism.identity(U4))
    right2 = bot2.M @ h2.M  # c_o identity reshape closes the square
    checks.append(DiagramCheck.compare("2.2", names, left2, right2))

    # (2.3): zig-zag on U1 equals the identity
    checks.append(triangle_left(U1))
    # (2.4): zig-zag on dual(U1) equals the identity
    checks.append(triangle_right(U1))

    # (2.5): naturality of h in all three arguments
    lhs_map = tensor_morphisms("black", u1,
                               tensor_morphisms("white", u2, u3))
    h_src = structure_map_h(u1.src, u2.src, u3.src)
    h_dst = structure_map_h(u1.dst, u2.dst, u3.dst)
    rhs_map = tensor_morphisms("white", tensor_morphisms("black", u1, u2), u3)
    checks.append(DiagramCheck.compare(
        "2.5", names, h_dst.M @ lhs_map.M, rhs_map.M @ h_src.M))

    # (2.6): naturality of f
    lhs6 = tensor_morphisms("black", tensor_morphisms("white", u1, u2), u3)
    f_src = structure_map_f(u1.src, u2.src, u3.src)
    f_dst = structure_map_f(u1.dst, u2.dst, u3.dst)
    rhs6 = tensor_morphisms("white", u1, tensor_morphisms("black", u2, u3))
    checks.append(DiagramCheck.compare(
        "2.6", names, f_dst.M @ lhs6.M, rhs6.M @ f_src.M))
    return checks


def triangle_left(U) -> DiagramCheck:
    """I_bullet . U -> U o I_o collapses to the identity of U (diagram 2.3)."""
    f = U.field
    n = U.n
    c = unit_map(U)
    Ud = dual(U)
    step1 = _morphism(black(unit_black(f), U), black(white(U, Ud), U),
                      kron(c.M, Matrix.identity(f, n)), "c_U . Id")
    step2 = structure_map_f(U, Ud, U)
    step3 = _morphism(white(U, black(Ud, U)), white(U, unit_white(f)),
                      kron(Matrix.identity(f, n), evaluation_matrix(U)),
                      "Id o d_U")
    path = step3.M @ step2.M @ step1.M
    return DiagramCheck.compare("2.3", (_name(U),), path,
                                Matrix.identity(f, n))


def triangle_right(U) -> DiagramCheck:
    """dual(U) . I_bullet -> I_o o dual(U) collapses to the identity (2.4)."""
    f = U.field
    n = U.n
    c = unit_map(U)
    Ud = dual(U)
    step1 = _morphism(black(Ud, unit_black(f)), black(Ud, white(U, Ud)),
                      kron(Matrix.identity(f, n), c.M), "Id . c_U")
    step2 = structure_map_h(Ud, U, Ud)
    step3 = _morphism(white(black(Ud, U), Ud), white(unit_white(f), Ud),
                      kron(evaluation_matrix(U), Matrix.identity(f, n)),
                      "d_U o Id")
    path = step3.M @ step2.M @ step1.M
    return DiagramCheck.compare("2.4", (_name(Ud),), path,
                                Matrix.identity(f, n))


def hom_transpose(u: AlgebraMorphism, U, L, N) -> AlgebraMorphism:
    """Send u: U.L -> N to u': U -> N o dual(L) (the adjunction composite)."""
    f = U.field
    step1 = _morphism(black(U, unit_black(f)),
                      black(U, white(L, dual(L))),
                      kron(Matrix.identity(f, U.n), unit_map(L).M),
                      "Id_U . c_L")
    step2 = structure_map_h(U, L, dual(L))
    step3 = tensor_morphisms("white", u, AlgebraMorphism.identity(dual(L)))
    M = step3.M @ step2.M @ step1.M
    return _morphism(U, white(N, dual(L)), M, "u'")


def hom_untranspose(v: AlgebraMorphism, U, L, N) -> AlgebraMorphism:
    """Send v: U -> N o dual(L) to v'': U.L -> N (the inverse composite)."""
    f = U.field
    step1 = tensor_morphisms("black", v, AlgebraMorphism.identity(L))
    step2 = structure_map_f(N, dual(L), L)
    step3 = _morphism(white(N, black(dual(L), L)), white(N, unit_white(f)),
                      kron(Matrix.identity(f, N.n), evaluation_matrix(L)),
                      "Id_N o d_L")
    M = step3.M @ step2.M @ step1.M
    return _morphism(black(U, L), N, M, "v''")


def adjunction_roundtrip(u: AlgebraMorphism, U, L, N) -> DiagramCheck:
    """(u')'' must equal u for u: U . L -> N."""
    up = hom_transpose(u, U, L, N)
    upp = hom_untranspose(up, U, L, N)
    return DiagramCheck.compare(
        "thm2.2 u->(u')''", (_name(U), _name(L), _name(N)),
        upp.M, u.M)


def adjunction_roundtrip_rev(v: AlgebraMorphism, U, L, N) -> DiagramCheck:
    """(v'')' must equal v for v: U -> N o dual(L)."""
    vpp = hom_untranspose(v, U, L, N)
    vp = hom_transpose(vpp, U, L, N)
    return DiagramCheck.compare(
        "thm2.2 v->(v'')'", (_name(U), _name(L), _name(N)),
        vp.M, v.M)


def flag_check(name, objects, passed: bool, field) -> DiagramCheck:
    """A DiagramCheck wrapping a boolean subspace-equality verdict."""
    one = Matrix.identity(field, 1)
    right = one if passed else Matrix.zero(field, 1, 1)
    return DiagramCheck(name, tuple(objects), one, right, passed, one - right)


def check_dual_antimultiplicative(U, V) -> DiagramCheck:
    """dual(U . V) agrees with dual(V) o dual(U) under the flip-transpose."""
    lhs = dual(black(U, V))
    rhs = white(dual(V), dual(U))
    P = flip(U.n, V.n).matrix(U.field)
    transported = push_subspace(kron(P, P), lhs.R)
    return flag_check("dual-antimult", (_name(U), _name(V)),
                      transported == rhs.R, U.field)


def composition_map(U) -> AlgebraMorphism:
    """l_U: Hom(U,U) . Hom(U,U) -> Hom(U,U), contracting the middle pair.

    Built directly as the middle-pair evaluation; this is the degree-1
    matrix of the composite through f, h, and d_U.
    """
    f = U.field
    n = U.n
    H = internal_hom(U, U)
    nh = n * n
    rows = [[f.zero] * (nh * nh) for _ in range(nh)]
    for a in range(n):
        for i in range(n):
            for b in range(n):
                for j in range(n):
                    src = (a * n + i) * nh + (b * n + j)
                    if i == b:
                        rows[a * n + j][src] = f.one
    M = Matrix(f, rows, cols=nh * nh)
    return _morphism(black(H, H), H, M, "l_U")


def check_hom_algebra(U):
    """Associativity and unit squares for (Hom(U,U), l_U)."""
    f = U.field
    H = internal_hom(U, U)
    nh = H.n
    l = composition_map(U)
    I = Matrix.identity(f, nh)
    assoc_left = l.M @ kron(l.M, I)
    assoc_right = l.M @ kron(I, l.M)
    checks = [DiagramCheck.compare("hom-algebra-assoc", (_name(U),),
                                   assoc_left, assoc_right)]
    unit_path = l.M @ kron(I, unit_map(U).M)
    checks.append(DiagramCheck.compare("hom-algebra-unit", (_name(U),),
                                       unit_path, I))
    return checks


def check_braiding(U1, U2, U3) -> DiagramCheck:
    """The mixed hexagon relating the two flips with f and h."""
    f = U1.field
    n1, n2, n3 = U1.n, U2.n, U3.n
    names = (_name(U1), _name(U2), _name(U3))
    # leg A: flip out U1, flip U2/U3, then f
    w23 = white(U2, U3)
    a1 = _morphism(black(U1, w23), black(w23, U1),
                   flip(n1, n2 * n3).matrix(f), "c'_bullet")
    a2 = tensor_morphisms("black",
                          _morphism(w23, white(U3, U2),
                                    flip(n2, n3).matrix(f), "c'_o"),
                          AlgebraMorphism.identity(U1))
    a3 = structure_map_f(U3, U2, U1)
    left = a3.M @ a2.M @ a1.M
    # leg B: h, flip out U3, flip U1/U2
    b1 = structure_map_h(U1, U2, U3)
    b12 = black(U1, U2)
    b2 = _morphism(white(b12, U3), white(U3, b12),
                   flip(n1 * n2, n3).matrix(f), "c'_o")
    b3 = tensor_morphisms("white", AlgebraMorphism.identity(U3),
                          _morphism(b12, black(U2, U1),
                                    flip(n1, n2).matrix(f), "c'_bullet"))
    right = b3.M @ b2.M @ b1.M
    return DiagramCheck.compare("braiding-hexagon", names, left, right)


def check_bullet_to_circle(U, V) -> DiagramCheck:
    """The canonical comparison U . V -> U o V through flips and f."""
    f = U.field
    nu, nv = U.n, V.n
    Io = unit_white(f)
    Ib = unit_black(f)
    # U.V = U.(V o I_o) --flip--> (V o I_o).U --f--> V o (I_o.U)
    s1 = _morphism(black(U, white(V, Io)), black(white(V, Io), U),
                   flip(nu, nv).matrix(f), "c'_bullet")
    s2 = structure_map_f(V, Io, U)
    # c_{I_o}: I_o -> I_bullet is the 1x1 identity at degree 1
    c_io = _morphism(Io, Ib, Matrix.identity(f, 1), "c_{I_o}")
    s3 = tensor_morphisms("white", AlgebraMorphism.identity(V),
                          tensor_morphisms("black", c_io,
                                           AlgebraMorphism.identity(U)))
    s4 = _morphism(white(V, black(Ib, U)), white(U, V),
                   flip(nv, nu).matrix(f), "c'_o")
    total = s4.M @ s3.M @ s2.M @ s1.M
    # the composite itself must be a morphism black(U,V) -> white(U,V)
    comparison = _morphism(black(U, V), white(U, V), total,
                           "bullet-to-circle")
    return DiagramCheck.compare(
        "bullet-to-circle", (_name(U), _name(V)),
        comparison.M, Matrix.identity(f, nu * nv))


def in_rigid_subcategory(U) -> bool:
    """Objects of C': full relation space (vector spaces with zero product)."""
    return U.R.dim == U.n * U.n


def trace(U, h: Matrix):
    """The categorical trace of an endomorphism of a rigid object."""
    if not in_rigid_subcategory(U):
        raise ValueError("trace requires a rigid object (full relations)")
    ok, cert = is_morphism(U, U, h)
    if not ok:
        raise ValueError(f"not an endomorphism; residual {cert.residual}")
    f, n = U.field, U.n
    # c'_U = c'_o composed with c_U: the flipped canonical column
    cprime = flip(n, n).matrix(f) @ canonical_column(U)
    composite = evaluation_matrix(U) @ kron(Matrix.identity(f, n), h) @ cprime
    return composite.entry(0, 0)


def rank_of(U):
    """rank(U) = trace of the identity, as a field scalar."""
    return trace(U, Matrix.identity(U.field, U.n))


def contragredient_check(h: AlgebraMorphism, hp: AlgebraMorphism):
    """The two zig-zag equations for a contragredient pair, as DiagramChecks."""
    U, V = h.src, h.dst
    f = U.field
    lhs1 = kron(h.M, hp.M) @ canonical_column(U)
    rhs1 = canonical_column(V)
    eq1 = DiagramCheck.compare("contragredient-c",
                               (_name(U), _name(V)), lhs1, rhs1)
    lhs2 = evaluation_matrix(V) @ kron(hp.M, h.M)
    rhs2 = evaluation_matrix(U)
    eq2 = DiagramCheck.compare("contragredient-d",
                               (_name(U), _name(V)), lhs2, rhs2)
    return [eq1, eq2]


def solve_contragredient(h: AlgebraMorphism):
    """Solve the two contragredient equations for h'; None if inconsistent."""
    U, V = h.src, h.dst
    f = U.field
    nu, nv = U.n, V.n
    # unknown Y = (M_h')^T, an nu x nv matrix; equations M_h Y = I, Y M_h = I
    rows = []
    rhs = []
    Mh = h.M
    for a in range(nv):
        for b in range(nv):
            row = [f.zero] * (nu * nv)
            for k in range(nu):
                row[k * nv + b] = Mh.entry(a, k)
            rows.append(row)
            rhs.append(f.one if a == b else f.zero)
    for i in range(nu):
        for j in range(nu):
            row = [f.zero] * (nu * nv)
            for k in range(nv):
                row[i * nv + k] = Mh.entry(k, j)
            rows.append(row)
            rhs.append(f.one if i == j else f.zero)
    sol = solve(Matrix(f, rows, cols=nu * nv), rhs)
    if sol is None:
        return None
    Y = Matrix(f, [[sol[i * nv + j] for j in range(nv)] for i in range(nu)],
               cols=nv)
    Mp = Y.transpose()
    ok, _ = is_morphism(dual(U), dual(V), Mp)
    if not ok:
        return None
    return AlgebraMorphism(dual(U), dual(V), Mp)


def contragredient_invertibility(h: AlgebraMorphism, hp: AlgebraMorphism):
    """If the contragredient equations hold, h must be invertible.

    Returns (True, inverse morphism) or (False, witness string).
    """
    checks = contragredient_check(h, hp)
    if not all(c.passed for c in checks):
        return False, "contragredient equations do not hold"
    Mh = h.M
    if Mh.rows != Mh.cols:
        return False, "non-square degree-1 matrix"
    inv_t = solve_linear_inverse(Mh)
    if inv_t is None:
        return False, "degree-1 matrix is singular"
    ok, cert = is_morphism(h.dst, h.src, inv_t)
    if not ok:
        return False, f"inverse is not a morphism; residual {cert.residual}"
    return True, AlgebraMorphism(h.dst, h.src, inv_t)


def solve_linear_inverse(M: Matrix):
    if M.rows != M.cols:
        return None
    f = M.field
    n = M.rows
    aug = Matrix(f, [list(M.data[i]) + [f.one if j == i else f.zero
                                        for j in range(n)]
                     for i in range(n)], cols=2 * n)
    reduced, rank, pivots = rref(aug)
    if rank < n or pivots[:n] != list(range(n)):
        return None
    return Matrix(f, [[reduced.entry(i, n + j) for j in range(n)]
                      for i in range(n)], cols=n)


def automorphism_check(U, M: Matrix) -> bool:
    """Invertible degree-1 map with (M x M)(R) equal to R exactly."""
    if M.rows != U.n or M.cols != U.n:
        raise ValueError("matrix must be square of size n")
    if solve_linear_inverse(M) is None:
        return False
    return push_subspace(kron(M, M), U.R) == U.R


def double_dual_check(U) -> DiagramCheck:
    """dual(dual(U)) must reproduce U with the identical canonical basis."""
    return flag_check("double-dual", (_name(U),),
                      dual(dual(U)) == U, U.field)


def unit_duality_checks(field):
    """dual of each unit object is the other unit."""
    Ib, Io = unit_black(field), unit_white(field)
    return [
        flag_check("dual-unit-black", ("I.",),
                   dual(Ib).same_relations(Io), field),
        flag_check("dual-unit-white", ("Io",),
                   dual(Io).same_relations(Ib), field),
    ]


def _sorted_checks(checks):
    return sorted(checks, key=lambda c: (c.name, c.objects))


def _pick_sizes(pool, rng, k: int, max_total: int):
    """k pool objects whose generator counts multiply to at most max_total."""
    for _ in range(200):
        chosen = [pool[rng.randrange(len(pool))] for _ in range(k)]
        total = 1
        for U in chosen:
            total *= U.n
        if total <= max_total:
            return chosen
    field = pool[0].field
    return [unit_black(field)] * k


def _primed(U, tag: str):
    """A full-relations object of the same size with fresh labels."""
    return full_relations_presentation(
        U.field, tuple(f"{s}'{tag}" for s in U.labels))


def suite_axioms(pool, trials: int, seed: int):
    from .sampling import random_matrix
    rng = Random(seed)
    field = pool[0].field
    max_total = 6 if field == QQ else 8
    checks = []
    for t in range(trials):
        U1, U2, U3, U4 = _pick_sizes(pool, rng, 4, max_total)
        us = []
        for k, U in enumerate((U1, U2, U3)):
            Up = _primed(U, str(k))
            us.append(AlgebraMorphism(U, Up, random_matrix(field, U.n, U.n,
                                                           rng)))
        checks.extend(check_axiom_diagrams(U1, U2, U3, U4, *us))
        # adjunction, forward: arbitrary u into a full-relations N
        U, L, N0 = _pick_sizes(pool, rng, 3, max_total)
        N = _primed(N0, "n")
        u = AlgebraMorphism(black(U, L), N,
                            random_matrix(field, N.n, U.n * L.n, rng))
        checks.append(adjunction_roundtrip(u, U, L, N))
        # adjunction, reverse: arbitrary v out of a free source
        Ufree = free_presentation(field, tuple(f"g{i}" for i in range(U.n)))
        v = AlgebraMorphism(Ufree, white(N, dual(L)),
                            random_matrix(field, N.n * L.n, Ufree.n, rng))
        checks.append(adjunction_roundtrip_rev(v, Ufree, L, N))
        checks.append(check_dual_antimultiplicative(U1, U2))
        checks.append(check_bullet_to_circle(U1, U2))
        small = min((U1, U2, U3), key=lambda A: A.n)
        checks.extend(check_hom_algebra(small))
    return _sorted_checks(checks)


def suite_duality(pool, trials: int, seed: int):
    rng = Random(seed)
    field = pool[0].field
    checks = [double_dual_check(U) for U in pool]
    checks.extend(unit_duality_checks(field))
    for _ in range(trials):
        U, V = _pick_sizes(pool, rng, 2, 9)
        checks.append(check_dual_antimultiplicative(U, V))
    return _sorted_checks(checks)


def suite_braiding(pool, trials: int, seed: int):
    rng = Random(seed)
    field = pool[0].field
    max_total = 8 if field == QQ else 27
    checks = []
    for _ in range(trials):
        U1, U2, U3 = _pick_sizes(pool, rng, 3, max_total)
        checks.append(check_braiding(U1, U2, U3))
    return _sorted_checks(checks)


def suite_hom_algebra(pool, trials: int, seed: int):
    checks = []
    for U in pool:
        if U.n <= 2:  # full morphism validation of l_U stays cheap
            checks.extend(check_hom_algebra(U))
    return _sorted_checks(checks)


def suite_rigid(pool, trials: int, seed: int):
    """Trace/rank and contragredient checks on the full-relations objects."""
    from .sampling import random_matrix, sample_endomorphisms
    rng = Random(seed)
    field = pool[0].field
    checks = []
    reports = []
    rigid = [U for U in pool if in_rigid_subcategory(U)]
    if not rigid:
        rigid = [full_relations_presentation(field, ("e1", "e2"))]
    for U in rigid:
        n = U.n
        matrix_rank = rank_of(U)
        checks.append(flag_check("rank", (_name(U),),
                                 matrix_rank == field.coerce(n), field))
        agree = True
        for h in sample_endomorphisms(U, max(8, trials // len(rigid)), rng):
            expect = field.zero
            for i in range(n):
                expect = field.add(expect, h.entry(i, i))
            if trace(U, h) != expect:
                agree = False
        checks.append(flag_check("trace-matches-matrix-trace",
                                 (_name(U),), agree, field))
        # contragredient pair: an invertible h with inverse-transpose partner
        hmat = Matrix(field, [[field.one if j == (i + 1) % n else field.zero
                               for j in range(n)] for i in range(n)], cols=n)
        h = AlgebraMorphism(U, U, hmat)
        hp = AlgebraMorphism(dual(U), dual(U),
                             solve_linear_inverse(hmat).transpose())
        checks.extend(contragredient_check(h, hp))
        okinv, _ = contragredient_invertibility(h, hp)
        checks.append(flag_check("contragredient-invertible",
                                 (_name(U),), okinv, field))
        if n >= 2:
            sing = Matrix(field, [[field.one if i == j == 0 else field.zero
                                   for j in range(n)] for i in range(n)],
                          cols=n)
            hs = AlgebraMorphism(U, U, sing)
            checks.append(flag_check("contragredient-nonexistence",
                                     (_name(U),),
                                     solve_contragredient(hs) is None, field))
        reports.append(trace_multiplicativity_report(U, rng))
    return _sorted_checks(checks), reports


def trace_multiplicativity_report(U, rng) -> str:
    """Measure Trace(h h') against Trace(h)Trace(h'); report, never assert."""
    from .sampling import sample_endomorphisms
    field = U.field
    hs = sample_endomorphisms(U, 6, rng)
    for h in hs:
        for hp in hs:
            lhs = trace(U, h @ hp)
            rhs = field.mul(trace(U, h), trace(U, hp))
            if lhs != rhs:
                return (f"trace-multiplicativity on {_name(U)}: fails; "
                        f"Trace(hh')={lhs} vs Trace(h)Trace(h')={rhs} "
                        f"for h={h.data} h'={hp.data}")
    return (f"trace-multiplicativity on {_name(U)}: no counterexample "
            f"in sample")


SUITES = ("axioms", "duality", "braiding", "hom-algebra", "rigid")


def run_suite(name: str, pool, trials: int = 100, seed: int = 0):
    """Dispatch a named suite; returns (checks, report lines)."""
    if not pool:
        raise ValueError("empty object pool")
    f0 = pool[0].field
    for U in pool:
        check_same_field(f0, U.field)
    if name == "axioms":
        return suite_axioms(pool, trials, seed), []
    if name == "duality":
        return suite_duality(pool, trials, seed), []
    if name == "braiding":
        return suite_braiding(pool, trials, seed), []
    if name == "hom-algebra":
        return suite_hom_algebra(pool, trials, seed), []
    if name == "rigid":
        return suite_rigid(pool, trials, seed)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES} or 'all'")
