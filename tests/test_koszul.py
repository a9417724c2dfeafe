"""Koszul differentials, complexes, homology, and the bar-side cross-check."""

import random

import pytest

from quadalg.fields import QQ, PrimeField
from quadalg.graded import graded_dim
from quadalg.koszul import (
    ComplexSlice,
    bar_complex_in_degree,
    bar_homology,
    dh_square_is_zero,
    euler_hilbert_test,
    ext_diagonal_check,
    first_complex_slice,
    homology_report,
    koszul_verdict,
    search_non_koszul,
    second_complex_slice,
)
from quadalg.presentations import dual
from quadalg.sampling import sample_endomorphisms

from conftest import load

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
