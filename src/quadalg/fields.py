"""Exact scalar arithmetic over Q and GF(p).

Scalars are plain Python values.  Over the rationals a scalar is an
``int`` when it is integral and otherwise a ``fractions.Fraction`` whose
denominator exceeds 1, so integral arithmetic never builds a Fraction;
over a prime field it is an ``int`` residue in ``0..p-1``.  A field object
carries ``coerce``, ``add``, ``mul``, ``neg``, ``zero`` and ``one``, and
returns these canonical forms; values never float: ``coerce`` accepts only
an int or a Fraction and raises TypeError on anything else, and over GF(p)
it raises ZeroDivisionError on a denominator divisible by p.
``Fraction(2, 1) == 2`` and both hash alike, so the two forms of an
integral rational compare and hash as one value.

``Record``, the base of every immutable value class of the library, lives
here, in the module that every other one imports, so that the field
objects are Records too: GF(p) equals GF(q) exactly when p = q, and every
``Rationals()`` equals ``QQ`` and hashes alike.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter


# Miller-Rabin with the first 13 prime bases decides primality exactly
# below this bound (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality; ValueError where no exact verdict exists."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    if p >= _MR_EXACT_BELOW:
        raise ValueError(
            f"modulus {p} is too large for an exact primality test "
            f"(limit {_MR_EXACT_BELOW})")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldMismatchError(ValueError):
    """Raised when operands over different ground fields are combined."""


def _canonical(x):
    """The canonical Q form of an int or Fraction: an int when integral."""
    return x.numerator if x.denominator == 1 else x


# one global lookup per field set: every Matrix is built through Record
_setattr = object.__setattr__


class Record:
    """The one base for immutable values: a subclass names its fields in
    ``__slots__`` and is built positionally, compared, hashed and printed
    field by field.  A subclass that validates its input overrides only
    ``__init__`` and ends it with ``super().__init__(...)``.

    ``Matrix`` caches its hash in a ``_hash`` slot, so it compares and
    hashes without that slot by its own ``__eq__`` and ``__hash__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every field read in one C call, not a generator: presentations
        # are cache keys, so __eq__ and __hash__ run on every cache lookup
        cls._fields = (attrgetter(*cls.__slots__) if cls.__slots__
                       else staticmethod(lambda value: ()))

    def __init__(self, *values):
        slots = self.__slots__
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes "
                            f"{len(slots)} fields")
        for name, value in zip(slots, values):
            _setattr(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return (type(other) is type(self)
                and self._fields(other) == self._fields(self))

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__name__}({body})"


class Rationals(Record):
    """The field Q; scalars are ints when integral, else Fractions in
    lowest terms.  Immutable."""

    __slots__ = ()
    zero = 0
    one = 1

    @staticmethod
    def coerce(x):
        if type(x) is int:
            return x
        if type(x) is Fraction:
            return _canonical(x)
        if isinstance(x, (int, Fraction)):
            return _canonical(Fraction(x))
        raise TypeError(f"not an exact scalar over Q: {x!r}")

    @staticmethod
    def add(a, b):
        return _canonical(a + b)

    @staticmethod
    def mul(a, b):
        return _canonical(a * b)

    @staticmethod
    def neg(a):
        return -a

    def __repr__(self):
        return "Q"


class PrimeField(Record):
    """GF(p) for a prime p; scalars are ints reduced mod p.  Immutable."""

    __slots__ = ("p",)
    zero = 0
    one = 1  # p >= 2

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        super().__init__(p)

    def coerce(self, x) -> int:
        if type(x) is int:
            return x if 0 <= x < self.p else x % self.p
        if isinstance(x, Fraction):
            num = x.numerator % self.p
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("inverse of zero")
            return num if den == 1 else num * pow(den, -1, self.p) % self.p
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"not an exact scalar over {self}: {x!r}")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def check_same_field(f1, f2):
    if f1 is not f2 and f1 != f2:
        raise FieldMismatchError(f"field mismatch: {f1} vs {f2}")
