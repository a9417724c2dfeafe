"""Line-oriented presentation file format.

    field Q            (or: field GF 5)
    algebra Sym2
    gens x y
    rel x*y - y*x
    rel 2*x*x + 1/3*y*y

Blank lines and lines starting with ``#`` are ignored.  A term is an
optional coefficient (integer or ``a/b``, b nonzero in the field) followed
by exactly two generators, all joined by ``*``; a generator name holds no
``*`` and is not a coefficient itself, and the same holds for its dual
label (``x`` <-> ``x!``), which must lead back to it: ``!``, ``1!`` and
``x!!`` are rejected.

``parse`` reads each relation into a sparse ``{column: scalar}`` row
without zeros, and the rows go to ``Matrix.from_rows`` as they are.  Lines
are split on whitespace and terms on ``*`` with no column bookkeeping: the
column of a token, or of a piece inside a term, is worked out only for the
error that reports it.  ``unparse`` emits the canonical relation basis, so
``parse(unparse(A))`` reproduces A exactly; it reads the nonzero entries
of each sparse basis row in ascending column order, never the zeros of the
n^2 word columns, and takes each scalar's text once: only a Q scalar has a
sign, the "-" that starts its text, and a unit coefficient is the text
"1" or "-1".
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import QQ, PrimeField
from .linalg import Matrix, Subspace
from .presentations import QuadraticPresentation, dual_label


class ParseError(ValueError):
    """``message`` at ``line``, ``column``; line 0 has no position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}"
                         if line else message)
        self.message, self.line, self.column = message, line, column


def _error(message: str, raw: str, line: int, k: int, offset: int = 0):
    """A ParseError at ``offset`` characters into the k-th token of the
    line ``raw``; the columns of its tokens are found only here."""
    starts = [m.start() for m in re.finditer(r"\S+", raw)]
    return ParseError(message, line, starts[k] + offset + 1)


class _TermError(Exception):
    """A bad term: the message and the offset of the bad piece in it."""


def parse(text: str):
    """Parse to (algebra name, QuadraticPresentation)."""
    field = None
    name = None
    labels = None
    index = None
    rel_rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        keyword = parts[0]
        if keyword == "field":
            if field is not None:
                raise ParseError("duplicate field line", lineno)
            field = _parse_field(parts, raw, lineno)
        elif keyword == "algebra":
            if name is not None:
                raise ParseError("duplicate algebra line", lineno)
            if len(parts) != 2:
                raise ParseError("expected: algebra <name>", lineno)
            name = parts[1]
        elif keyword == "gens":
            if labels is not None:
                raise ParseError("duplicate gens line", lineno)
            if len(parts) == 1:
                raise ParseError("empty generator list", lineno)
            labels = tuple(parts[1:])
            if len(set(labels)) != len(labels):
                raise ParseError("repeated generator name", lineno)
            for k, g in enumerate(labels, start=1):
                # a name unparse could write as a coefficient or a product
                if not _writable(g):
                    raise _error(f"bad generator name {g!r}", raw, lineno, k)
                # dual() relabels x <-> x!: the label must be writable too,
                # and name no other generator ("x" and "x!!" both give "x!")
                star = dual_label(g)
                if not _writable(star) or dual_label(star) != g:
                    raise _error(f"bad generator name {g!r}: its dual "
                                 f"label would be {star!r}", raw, lineno, k)
            index = {g: i for i, g in enumerate(labels)}
        elif keyword == "rel":
            if field is None or labels is None:
                raise ParseError("rel before field/gens", lineno)
            rel_rows.append(_parse_relation(parts, raw, field, index,
                                            lineno))
        else:
            raise _error(f"unknown keyword {keyword!r}", raw, lineno, 0)
    if field is None:
        raise ParseError("missing field line", 1)
    if labels is None:
        raise ParseError("missing gens line", 1)
    n = len(labels)
    R = Subspace(n * n, Matrix.from_rows(field, rel_rows, n * n))
    return name or "unnamed", QuadraticPresentation(field, labels, R)


def _parse_field(parts, raw, lineno):
    if parts[1:] == ["Q"]:
        return QQ
    if len(parts) == 3 and parts[1] == "GF":
        try:
            p = int(parts[2])
        except ValueError:
            raise _error(f"bad modulus {parts[2]!r}", raw, lineno,
                         2) from None
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise _error(str(exc), raw, lineno, 2) from None
    raise ParseError("expected: field Q | field GF <p>", lineno)


def _parse_relation(parts, raw, field, index, lineno):
    """The relation on the line as a sparse ``{a*n + b: scalar}`` row
    without zeros; ``parts`` are the line's tokens, "rel" first."""
    n = len(index)
    row = {}
    negative, expect_term = False, True
    for k, tok in enumerate(parts[1:], start=1):
        if tok == "+" or tok == "-":
            if expect_term:
                raise _error("two signs in a row", raw, lineno, k)
            negative, expect_term = tok == "-", True
            continue
        if not expect_term:
            raise _error("missing + or - between terms", raw, lineno, k)
        try:
            coeff, a, b = _parse_term(tok, field, index)
        except _TermError as exc:
            message, offset = exc.args
            raise _error(message, raw, lineno, k, offset) from None
        if negative:
            coeff = field.neg(coeff)
        pos = a * n + b
        if pos in row:
            coeff = field.add(row.pop(pos), coeff)
        if coeff:
            row[pos] = coeff
        expect_term = False
    if expect_term:
        raise ParseError("empty or dangling relation", lineno)
    return row


def _parse_term(tok, field, index):
    """(coefficient, first generator, second generator) of one term.  A
    bad term raises _TermError with the offset of its bad piece, which is
    worked out only then."""
    pieces = tok.split("*")
    coeff = field.one
    if _is_coefficient(pieces[0]):
        coeff = _as_scalar(pieces[0], field)
        del pieces[0]
    if len(pieces) != 2:
        raise _TermError(f"term {tok!r} is not a quadratic word", 0)
    # b ends the term, and a ends one '*' before b starts
    a, b = pieces
    if a not in index:
        raise _TermError(f"unknown generator {a!r}",
                         len(tok) - len(b) - 1 - len(a))
    if b not in index:
        raise _TermError(f"unknown generator {b!r}", len(tok) - len(b))
    return coeff, index[a], index[b]


def _writable(name: str) -> bool:
    # structured output joins names with "," and laws joins them with "·"
    return (bool(name) and not any(ch in name for ch in "*,·")
            and not _is_coefficient(name))


def _is_coefficient(piece: str) -> bool:
    """An optional "-" and then a nonempty run of digits and "/"."""
    head = piece[1:] if piece[:1] == "-" else piece
    return head.replace("/", "0").isdigit()


def _as_scalar(piece, field):
    """The coefficient as a field scalar; a denominator that vanishes in
    the field (1/0, or 1/5 over GF(5)) is a bad coefficient, raised as a
    _TermError at the start of the term.  A piece without ``/`` is read by
    ``int``, which accepts and rejects the same digit strings as
    ``Fraction`` at a fraction of its cost."""
    try:
        return field.coerce(Fraction(piece) if "/" in piece else int(piece))
    except ValueError:
        why = "bad coefficient"
    except ZeroDivisionError:
        why = f"zero denominator over {field} in coefficient"
    raise _TermError(f"{why} {piece!r}", 0)


def unparse(name: str, A: QuadraticPresentation) -> str:
    """Canonical text form; parses back to an equal presentation."""
    lines = []
    if A.field == QQ:
        lines.append("field Q")
    else:
        lines.append(f"field GF {A.field.p}")
    lines.append(f"algebra {name}")
    lines.append("gens " + " ".join(A.labels))
    words = [f"{a}*{b}" for a in A.labels for b in A.labels]
    for row in A.R.basis.sparse:
        parts = []
        for pos in sorted(row):
            # only a Q scalar prints a sign, and its magnitude is the rest
            s, word = str(row[pos]), words[pos]
            if not parts:
                # a leading negative rides along as a signed coefficient
                parts.append(word if s == "1" else f"{s}*{word}")
            elif s[0] == "-":
                parts.append("- " + word if s == "-1" else f"- {s[1:]}*{word}")
            else:
                parts.append("+ " + word if s == "1" else f"+ {s}*{word}")
        lines.append("rel " + " ".join(parts))
    return "\n".join(lines) + "\n"
