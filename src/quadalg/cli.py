"""Command-line interface.

Text output is stable and golden-file friendly; ``--output structured``
switches to line-delimited ``key=value`` records (keys documented in the
README).  Exit status is 0 only when parsing succeeded and every check
passed; 1 on any FAIL, or when ``laws`` made no check; 2 on usage or parse
errors.

``main(argv)`` may be called repeatedly in one process: the argparse
parser is built once, on the first call (not at import), and reused.
Presentations are emitted from the sparse rows of their relation basis.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import koszul, laws
from .graded import graded_structure
from .parser import ParseError, parse, unparse
from .presentations import black, dual, internal_hom, white


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(path: str):
    try:
        return parse(_read(path))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", 0)


def _load_all(*paths):
    """(name, presentation) per path; inputs over different fields are a
    usage error, reported like an unreadable file."""
    loaded = [_load(path) for path in paths]
    for path, (_, A) in zip(paths, loaded):
        if A.field != loaded[0][1].field:
            raise ParseError(f"{path} is over {A.field}, but {paths[0]} is "
                             f"over {loaded[0][1].field}", 0)
    return loaded


def _emit_presentation(out, name, A, structured: bool, summary: bool = False):
    if structured:
        field = "Q" if not hasattr(A.field, "p") else f"GF{A.field.p}"
        out.append(f"record=presentation name={name} field={field} "
                   f"gens={','.join(A.labels)} dim_V={A.n} dim_R={A.R.dim}")
        zero = str(A.field.zero)
        for r, row in enumerate(A.R.basis.sparse):
            coords = [zero] * (A.n * A.n)
            for j in row:
                coords[j] = str(row[j])
            out.append(f"record=relation index={r} "
                       f"coords={','.join(coords)}")
        return
    out.append(unparse(name, A).rstrip("\n"))
    if summary:
        out.append(f"# dim V = {A.n}, dim R = {A.R.dim}")


def _cmd_dual(args, out):
    name, A = _load(args.file)
    _emit_presentation(out, f"{name}.dual", dual(A), args.structured)
    return 0


def _cmd_product(args, out):
    (na, A), (nb, B) = _load_all(args.a, args.b)
    op = black if args.kind == "black" else white
    P = op(A, B)
    _emit_presentation(out, f"{na}.{args.kind}.{nb}", P, args.structured,
                       summary=True)
    return 0


def _cmd_hom(args, out):
    (nu, U), (nv, V) = _load_all(args.u, args.v)
    H = internal_hom(U, V)
    _emit_presentation(out, f"hom.{nu}.{nv}", H, args.structured,
                       summary=True)
    return 0


def _cmd_hilbert(args, out):
    name, A = _load(args.file)
    gs = graded_structure(A)
    for m in range(args.max + 1):
        if args.structured:
            out.append(f"record=hilbert name={name} degree={m} "
                       f"dim={gs.dim(m)}")
        else:
            out.append(f"{m}: {gs.dim(m)}")
    return 0


def _cmd_koszul(args, out):
    name, A = _load(args.file)
    reports, verdict = koszul.koszul_verdict(A, args.max)
    euler = koszul.euler_hilbert_test(A, args.max)
    for r in reports:
        pos = ",".join(str(d) for d in r.position_dims)
        hom = ",".join(str(d) for d in r.homology_dims)
        if args.structured:
            out.append(f"record=koszul-degree name={name} "
                       f"degree={r.internal_degree} positions={pos} "
                       f"homology={hom} exact={str(r.exact).lower()}")
        else:
            out.append(f"degree {r.internal_degree} positions {pos} "
                       f"homology {hom}")
    euler_txt = ",".join("pass" if ok else "fail" for ok in euler)
    if args.structured:
        out.append(f"record=euler name={name} degrees=1..{args.max} "
                   f"results={euler_txt}")
        out.append(f"record=verdict name={name} max={args.max} "
                   f"koszul={str(verdict).lower()}")
    else:
        out.append(f"euler 1..{args.max}: {euler_txt}")
        out.append(f"koszul_up_to_{args.max}: {str(verdict).lower()}")
    return 0 if verdict else 1


def _cmd_ext(args, out):
    name, A = _load(args.file)
    table = koszul.ext_by_resolution(A, args.max)
    diag = table.on_diagonal(A)
    _, verdict = koszul.koszul_verdict(A, args.max)
    for m in range(args.max + 1):
        row = ",".join(str(table.entry(p, m)) for p in range(args.max + 1))
        if args.structured:
            out.append(f"record=ext-row name={name} m={m} dims={row}")
        else:
            out.append(f"m={m}: {row}")
    agree = diag == verdict
    if args.structured:
        out.append(f"record=ext-verdict name={name} max={args.max} "
                   f"diagonal={str(diag).lower()} "
                   f"complex_verdict={str(verdict).lower()} "
                   f"agree={str(agree).lower()}")
    else:
        out.append(f"ext_diagonal_up_to_{args.max}: {str(diag).lower()}")
        # the label predates the resolution engine; scripts read it as is
        out.append(f"bar_diagonal_vs_complex: "
                   f"{'agree' if agree else 'DISAGREE'}")
    return 0 if agree else 1


def _emit_checks(out, suite, checks, structured: bool) -> bool:
    """One PASS/FAIL line (or check record) per check; True if any failed."""
    failed = False
    for c in checks:
        objs = ",".join(c.objects)
        if structured:
            out.append(f"record=check suite={suite} name={c.name} "
                       f"objects={objs} passed={str(c.passed).lower()}")
        else:
            out.append(f"{'PASS' if c.passed else 'FAIL'} {c.name} {objs}")
        failed = failed or not c.passed
    return failed


def _cmd_laws(args, out):
    pool = [A for _, A in _load_all(*args.files)]
    suites = list(laws.SUITES) if args.suite == "all" else [args.suite]
    failed, checked = False, False
    for suite in suites:
        checks, reports = laws.run_suite(suite, pool, trials=args.trials,
                                         seed=args.seed)
        failed |= _emit_checks(out, suite, checks, args.structured)
        checked |= bool(checks)
        for line in reports:
            if args.structured:
                out.append("record=note text=" + line.replace(" ", "_"))
            else:
                out.append(f"note: {line}")
    # a run that checked nothing passed nothing
    return 1 if failed or not checked else 0


def _cmd_selfdual(args, out):
    loaded = _load_all(*(p for p in (args.file, args.partner) if p))
    A, partner = loaded[0][1], loaded[-1][1]
    checks = [laws.double_dual_check(A)]
    checks.extend(laws.unit_duality_checks(A.field))
    checks.append(laws.check_dual_antimultiplicative(A, partner))
    return 1 if _emit_checks(out, "selfdual", checks, args.structured) else 0


class _OutputMode(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values == "structured")


def _add_output_flag(p):
    p.add_argument("--output", dest="structured", action=_OutputMode,
                   choices=("text", "structured"), default=False,
                   help="output mode (default: text)")


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
        _add_output_flag(p)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "max", 1) < 1:
        ap.error("--max must be at least 1")
    if getattr(args, "trials", 1) < 1:
        ap.error("--trials must be at least 1")
    out: list[str] = []
    try:
        status = args.fn(args, out)
    except ParseError as exc:
        if args.structured:
            print(f"record=error line={exc.line} column={exc.column} "
                  f"message={str(exc).replace(' ', '_')}")
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out))
    return status


if __name__ == "__main__":
    sys.exit(main())
