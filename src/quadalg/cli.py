"""Command-line interface.

Text output is stable and golden-file friendly; ``--output structured``
switches to line-delimited ``key=value`` records (keys documented in the
README).  Every result is stated once for both modes, through ``_emit``,
and printed as soon as the command has it: an exception raised
mid-command leaves the results already produced on stdout.  Inputs load,
and a ``ParseError`` is raised, before any result, so a run that exits 2
prints only its error.  Exit status is 0 only when parsing succeeded and
every check passed; 1 on any FAIL, or when ``laws`` made no check; 2 on
usage or parse errors.

``main(argv)`` may be called repeatedly in one process: the argparse
parser is built once, on the first call (not at import), and reused.
Structured ``relation`` records print the rows of ``A.R.basis.data``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import koszul, laws
from .graded import hilbert
from .parser import ParseError, parse, unparse
from .presentations import black, dual, internal_hom, white


def _read(path: str) -> str:
    if path == "-":
        # decoded here, strictly, whatever the locale makes of stdin
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(path: str):
    try:
        return parse(_read(path))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", 0)
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text", 0)


def _load_all(*paths):
    """(name, presentation) per path; inputs over different fields are a
    usage error, reported like an unreadable file."""
    loaded = [_load(path) for path in paths]
    for path, (_, A) in zip(paths, loaded):
        if A.field != loaded[0][1].field:
            raise ParseError(f"{path} is over {A.field}, but {paths[0]} is "
                             f"over {loaded[0][1].field}", 0)
    return loaded


def _emit(args, record, line, /, **fields):
    """Print one result: ``line`` in text mode (nothing when it is None),
    else ``record=<record>`` and the fields as ``key=value``, booleans as
    true/false and every space in a value written as ``_``."""
    if args.structured:
        parts = [f"record={record}"]
        for key, value in fields.items():
            text = str(value)
            text = text.lower() if isinstance(value, bool) else text
            parts.append(f"{key}={text.replace(' ', '_')}")
        print(*parts)
    elif line is not None:
        print(line)


def _emit_presentation(args, name, A, summary: bool = False):
    if not args.structured:
        text = unparse(name, A).rstrip("\n")
        print(f"{text}\n# dim V = {A.n}, dim R = {A.R.dim}" if summary
              else text)
        return
    field = "Q" if not hasattr(A.field, "p") else f"GF{A.field.p}"
    _emit(args, "presentation", None, name=name, field=field,
          gens=",".join(A.labels), dim_V=A.n, dim_R=A.R.dim)
    for r, row in enumerate(A.R.basis.data):
        _emit(args, "relation", None, index=r, coords=",".join(map(str, row)))


def _cmd_dual(args):
    name, A = _load(args.file)
    _emit_presentation(args, f"{name}.dual", dual(A))
    return 0


def _cmd_product(args):
    (na, A), (nb, B) = _load_all(args.a, args.b)
    op = black if args.kind == "black" else white
    _emit_presentation(args, f"{na}.{args.kind}.{nb}", op(A, B), summary=True)
    return 0


def _cmd_hom(args):
    (nu, U), (nv, V) = _load_all(args.u, args.v)
    _emit_presentation(args, f"hom.{nu}.{nv}", internal_hom(U, V),
                       summary=True)
    return 0


def _cmd_hilbert(args):
    name, A = _load(args.file)
    for m, dim in enumerate(hilbert(A, args.max)):
        _emit(args, "hilbert", f"{m}: {dim}", name=name, degree=m, dim=dim)
    return 0


def _cmd_koszul(args):
    name, A = _load(args.file)
    reports, verdict = koszul.koszul_verdict(A, args.max)
    for r in reports:
        pos = ",".join(map(str, r.position_dims))
        hom = ",".join(map(str, r.homology_dims))
        _emit(args, "koszul-degree",
              f"degree {r.internal_degree} positions {pos} homology {hom}",
              name=name, degree=r.internal_degree, positions=pos,
              homology=hom, exact=r.exact)
    euler = ",".join("pass" if ok else "fail"
                     for ok in koszul.euler_hilbert_test(A, args.max))
    _emit(args, "euler", f"euler 1..{args.max}: {euler}", name=name,
          degrees=f"1..{args.max}", results=euler)
    _emit(args, "verdict", f"koszul_up_to_{args.max}: {str(verdict).lower()}",
          name=name, max=args.max, koszul=verdict)
    return 0 if verdict else 1


def _cmd_ext(args):
    name, A = _load(args.file)
    table = koszul.ext_by_resolution(A, args.max)
    diag = table.on_diagonal(A)
    _, verdict = koszul.koszul_verdict(A, args.max)
    for m in range(args.max + 1):
        row = ",".join(str(table.entry(p, m)) for p in range(args.max + 1))
        _emit(args, "ext-row", f"m={m}: {row}", name=name, m=m, dims=row)
    agree = diag == verdict
    # the second label predates the resolution engine; scripts read it as is
    _emit(args, "ext-verdict",
          f"ext_diagonal_up_to_{args.max}: {str(diag).lower()}\n"
          f"bar_diagonal_vs_complex: {'agree' if agree else 'DISAGREE'}",
          name=name, max=args.max, diagonal=diag, complex_verdict=verdict,
          agree=agree)
    return 0 if agree else 1


def _emit_checks(args, suite, checks) -> bool:
    """One PASS/FAIL line (or check record) per check; True if any failed."""
    for c in checks:
        objs = ",".join(c.objects)
        verdict = "PASS" if c.passed else "FAIL"
        _emit(args, "check", f"{verdict} {c.name} {objs}", suite=suite,
              name=c.name, objects=objs, passed=c.passed)
    return not all(c.passed for c in checks)


def _cmd_laws(args):
    pool = [A for _, A in _load_all(*args.files)]
    suites = list(laws.SUITES) if args.suite == "all" else [args.suite]
    failed, checked = False, False
    for suite in suites:
        checks, reports = laws.run_suite(suite, pool, trials=args.trials,
                                         seed=args.seed)
        failed |= _emit_checks(args, suite, checks)
        checked |= bool(checks)
        for line in reports:
            _emit(args, "note", f"note: {line}", text=line)
    # a run that checked nothing passed nothing
    return 1 if failed or not checked else 0


def _cmd_selfdual(args):
    loaded = _load_all(*(p for p in (args.file, args.partner) if p))
    A, partner = loaded[0][1], loaded[-1][1]
    checks = [laws.double_dual_check(A)]
    checks.extend(laws.unit_duality_checks(A.field))
    checks.append(laws.check_dual_antimultiplicative(A, partner))
    return 1 if _emit_checks(args, "selfdual", checks) else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call.

    Parsing keeps no state in the parser: each ``parse_args`` fills a new
    namespace, so ``main`` may run any number of times in one process.
    """
    ap = argparse.ArgumentParser(
        prog="quadalg",
        description="exact computations with finitely presented "
                    "quadratic algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="print the quadratic dual")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("product", help="black or white tensor product")
    p.add_argument("--kind", choices=("black", "white"), required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("hom", help="internal Hom object")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser("hilbert", help="graded dimensions")
    p.add_argument("--max", type=int, default=6)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("koszul", help="per-degree exactness verdict")
    p.add_argument("--max", type=int, default=6)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_koszul)

    p = sub.add_parser("ext", help="Ext bidegree table from a minimal "
                       "resolution, against the Koszul verdict")
    p.add_argument("--max", type=int, default=4)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_ext)

    p = sub.add_parser("laws", help="categorical-law check suites")
    p.add_argument("--suite", choices=laws.SUITES + ("all",),
                   default="all")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_laws)

    p = sub.add_parser("selfdual-check",
                       help="double dual, unit duality, anti-multiplicativity")
    p.add_argument("file")
    p.add_argument("partner", nargs="?", default=None)
    p.set_defaults(fn=_cmd_selfdual)

    for p in sub.choices.values():
        p.add_argument("--output", choices=("text", "structured"),
                       default="text", help="output mode (default: text)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    args.structured = args.output == "structured"
    if getattr(args, "max", 1) < 1:
        ap.error("--max must be at least 1")
    if getattr(args, "trials", 1) < 1:
        ap.error("--trials must be at least 1")
    try:
        return args.fn(args)
    except ParseError as exc:
        _emit(args, "error", None, line=exc.line, column=exc.column,
              message=exc.message)
        if not args.structured:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
