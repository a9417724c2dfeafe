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
``x!!`` are rejected.  ``unparse`` emits the
canonical relation basis, so ``parse(unparse(A))`` reproduces A exactly;
it reads the nonzero entries of each sparse basis row in ascending column
order, never the zeros of the n^2 word columns.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .fields import QQ, PrimeField
from .linalg import Subspace
from .presentations import QuadraticPresentation, dual_label


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse(text: str):
    """Parse to (algebra name, QuadraticPresentation)."""
    field = None
    name = None
    labels = None
    rel_rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # each token with its 1-based column in the raw line
        tokens = [(m.group(), m.start() + 1)
                  for m in re.finditer(r"\S+", raw)]
        if not tokens or tokens[0][0].startswith("#"):
            continue
        parts = [tok for tok, _ in tokens]
        keyword, column = tokens[0]
        if keyword == "field":
            if field is not None:
                raise ParseError("duplicate field line", lineno)
            field = _parse_field(tokens[1:], lineno)
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
            for g, col in tokens[1:]:
                # a name unparse could write as a coefficient or a product
                if not _writable(g):
                    raise ParseError(f"bad generator name {g!r}", lineno, col)
                # dual() relabels x <-> x!: the label must be writable too,
                # and name no other generator ("x" and "x!!" both give "x!")
                star = dual_label(g)
                if not _writable(star) or dual_label(star) != g:
                    raise ParseError(f"bad generator name {g!r}: its dual "
                                     f"label would be {star!r}", lineno, col)
        elif keyword == "rel":
            if field is None or labels is None:
                raise ParseError("rel before field/gens", lineno)
            rel_rows.append(_parse_relation(tokens[1:], field, labels,
                                            lineno))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, column)
    if field is None:
        raise ParseError("missing field line", 1)
    if labels is None:
        raise ParseError("missing gens line", 1)
    n = len(labels)
    R = Subspace.span(field, rel_rows, n * n)
    return name or "unnamed", QuadraticPresentation(field, labels, R)


def _parse_field(tokens, lineno):
    parts = [tok for tok, _ in tokens]
    if parts == ["Q"]:
        return QQ
    if len(parts) == 2 and parts[0] == "GF":
        modulus, column = tokens[1]
        try:
            p = int(modulus)
        except ValueError:
            raise ParseError(f"bad modulus {modulus!r}", lineno,
                             column) from None
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, column) from None
    raise ParseError("expected: field Q | field GF <p>", lineno)


def _parse_relation(tokens, field, labels, lineno):
    n = len(labels)
    index = {s: i for i, s in enumerate(labels)}
    row = [field.zero] * (n * n)
    sign = 1
    expect_term = True
    for tok, column in tokens:
        if tok in ("+", "-"):
            if expect_term:
                raise ParseError("two signs in a row", lineno, column)
            sign = 1 if tok == "+" else -1
            expect_term = True
            continue
        if not expect_term:
            raise ParseError("missing + or - between terms", lineno, column)
        coeff, a, b = _parse_term(tok, column, field, index, lineno)
        if sign < 0:
            coeff = field.neg(coeff)
        pos = a * n + b
        row[pos] = field.add(row[pos], coeff)
        expect_term = False
    if expect_term:
        raise ParseError("empty or dangling relation", lineno)
    return row


def _parse_term(tok, column, field, index, lineno):
    # each piece with its column: a piece starts one past the previous '*'
    pieces, col = [], column
    for piece in tok.split("*"):
        pieces.append((piece, col))
        col += len(piece) + 1
    coeff = field.one
    if _is_coefficient(pieces[0][0]):
        coeff = _as_scalar(*pieces[0], field, lineno)
        pieces = pieces[1:]
    if len(pieces) != 2:
        raise ParseError(f"term {tok!r} is not a quadratic word", lineno,
                         column)
    for g, col in pieces:
        if g not in index:
            raise ParseError(f"unknown generator {g!r}", lineno, col)
    return coeff, index[pieces[0][0]], index[pieces[1][0]]


def _writable(name: str) -> bool:
    # structured output joins names with "," and laws joins them with "·"
    return (bool(name) and not any(ch in name for ch in "*,·")
            and not _is_coefficient(name))


def _is_coefficient(piece: str) -> bool:
    head = piece[1:] if piece[:1] == "-" else piece
    return bool(head) and all(ch.isdigit() or ch == "/" for ch in head)


def _as_scalar(piece, column, field, lineno):
    """The coefficient as a field scalar; a denominator that vanishes in
    the field (1/0, or 1/5 over GF(5)) is a parse error.  A piece without
    ``/`` is read by ``int``, which accepts and rejects the same digit
    strings as ``Fraction`` at a fraction of its cost."""
    try:
        return field.coerce(Fraction(piece) if "/" in piece else int(piece))
    except ValueError:
        why = "bad coefficient"
    except ZeroDivisionError:
        why = f"zero denominator over {field} in coefficient"
    raise ParseError(f"{why} {piece!r}", lineno, column)


def unparse(name: str, A: QuadraticPresentation) -> str:
    """Canonical text form; parses back to an equal presentation."""
    lines = []
    if A.field == QQ:
        lines.append("field Q")
    else:
        lines.append(f"field GF {A.field.p}")
    lines.append(f"algebra {name}")
    lines.append("gens " + " ".join(A.labels))
    n, signed = A.n, not isinstance(A.field, PrimeField)
    for row in A.R.basis.sparse:
        parts = []
        for pos in sorted(row):
            c = row[pos]
            word = f"{A.labels[pos // n]}*{A.labels[pos % n]}"
            negative = signed and c < 0
            mag = -c if negative else c
            body = word if mag == 1 else f"{mag}*{word}"
            if not parts:
                # a leading negative rides along as a signed coefficient
                parts.append(f"{c}*{word}" if negative else body)
            else:
                parts.append("- " + body if negative else "+ " + body)
        lines.append("rel " + " ".join(parts))
    return "\n".join(lines) + "\n"
