import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadalg.fields import (QQ, FieldMismatchError, PrimeField,
                            check_same_field)
from quadalg.linalg import Matrix
from quadalg.parser import parse


def test_field_records_compare_hash_and_print_by_value():
    # fields are Records: equal fields are interchangeable as cache keys,
    # and cli and the tracer tell Q from GF(p) by hasattr(field, "p")
    from quadalg.fields import Rationals
    assert Rationals() == QQ and hash(Rationals()) == hash(QQ)
    assert PrimeField(7) == PrimeField(7)
    assert hash(PrimeField(7)) == hash(PrimeField(7))
    assert PrimeField(5) != PrimeField(7) and QQ != PrimeField(7)
    assert PrimeField(7) != QQ
    for field, name in ((QQ, "Rationals"), (PrimeField(7), "PrimeField")):
        with pytest.raises(AttributeError, match=f"{name} is immutable"):
            field.p = 3
    assert (repr(QQ), repr(PrimeField(7))) == ("Q", "GF(7)")
    assert not hasattr(QQ, "p") and PrimeField(7).p == 7


def test_field_objects_are_immutable():
    # fields are hashed into every Matrix, presentation and cache key
    _, A = parse("field GF 5\ngens x y\nrel x*y\n")
    with pytest.raises(AttributeError):
        A.field.p = 7
    with pytest.raises(AttributeError):
        QQ.zero = 5
    with pytest.raises(AttributeError):
        PrimeField(3).one = 2
    assert A.field == PrimeField(5) and QQ.zero == 0
    assert (PrimeField(2).zero, PrimeField(2).one) == (0, 1)


def test_rational_arithmetic_is_exact():
    third = QQ.coerce(Fraction(1, 3))
    assert QQ.add(third, third) == Fraction(2, 3)
    assert QQ.mul(third, QQ.coerce(Fraction(1, third))) == 1


def test_nonprime_modulus_rejected():
    for p in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            PrimeField(p)


def test_large_prime_accepted_quickly():
    start = time.perf_counter()
    f = PrimeField(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    assert f.mul(2, f.coerce(Fraction(1, 2))) == 1


@pytest.mark.parametrize("n", [561, 2047, 3215031751,
                               3825123056546413051])
def test_pseudoprimes_rejected(n):
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2,
    # 3215031751 one to the prime bases up to 7, 3825123056546413051
    # one to those up to 23
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(n)


def test_is_prime_matches_trial_division():
    from quadalg.fields import _is_prime
    sieve = [True] * 5000
    sieve[0] = sieve[1] = False
    for i in range(2, 71):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(5000) if _is_prime(n)] == \
        [n for n in range(5000) if sieve[n]]


def test_modulus_beyond_exact_primality_bound_rejected():
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2 ** 89 - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97])
def test_primefield_inverses(p):
    f = PrimeField(p)
    for a in range(1, p):
        assert f.mul(a, f.coerce(Fraction(1, a))) == f.one


def test_primefield_coerces_fractions():
    f = PrimeField(5)
    assert f.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f.coerce(-1) == 4


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
@pytest.mark.parametrize("x", [2.7, 0.1, 2.0, Decimal("2"), "2", None])
def test_coerce_rejects_non_exact_scalars(field, x):
    # a float would truncate mod p (2.7 -> 2) or expand over Q
    # (0.1 -> 3602879701896397/2^55); a string or Decimal is not a scalar
    with pytest.raises(TypeError):
        field.coerce(x)
    with pytest.raises(TypeError):
        Matrix(field, [[x, 1], [1, 1]])


def test_coerce_keeps_exact_scalars():
    F7 = PrimeField(7)
    assert QQ.coerce(3) == 3 and type(QQ.coerce(3)) is int
    assert QQ.coerce(Fraction(6, 2)) == 3
    assert type(QQ.coerce(Fraction(6, 2))) is int
    assert QQ.coerce(Fraction(1, 10)) == Fraction(1, 10)
    assert type(QQ.coerce(True)) is int
    assert F7.coerce(-1) == 6 and F7.coerce(Fraction(1, 2)) == 4
    assert QQ.coerce(True) == 1 and F7.coerce(True) == 1


def test_q_arithmetic_returns_ints_when_integral():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [(QQ.zero, 0), (QQ.one, 1), (QQ.add(half, half), 1),
             (QQ.mul(Fraction(2, 3), 3), 2),
             (QQ.coerce(Fraction(1, Fraction(-1, 4))), -4),
             (QQ.neg(QQ.coerce(5)), -5)]
    for x, want in cases:
        assert type(x) is int and x == want
    for x, want in [(QQ.add(half, third), Fraction(5, 6)),
                    (QQ.coerce(Fraction(1, 3)), third),
                    (QQ.mul(half, 3), Fraction(3, 2)),
                    (QQ.coerce(Fraction(1, -2)), -half)]:
        assert type(x) is Fraction and x == want


def test_inverse_of_zero():
    # GF(p) coerce inverts a Fraction's denominator itself, and one
    # divisible by p has no inverse
    for x in (Fraction(1, 5), Fraction(2, 15)):
        with pytest.raises(ZeroDivisionError):
            PrimeField(5).coerce(x)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        check_same_field(QQ, PrimeField(5))
    with pytest.raises(FieldMismatchError):
        check_same_field(PrimeField(5), PrimeField(7))
    check_same_field(PrimeField(5), PrimeField(5))


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_gf5_matches_integer_arithmetic(a, b):
    f = PrimeField(5)
    assert f.add(f.coerce(a), f.coerce(b)) == (a + b) % 5
    assert f.mul(f.coerce(a), f.coerce(b)) == (a * b) % 5
