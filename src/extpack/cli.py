"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 infeasible or malformed input, a failed
certificate, or a file that cannot be read or written, 3 exhausted
resource caps, 4 internal error (a failed library invariant, any other
RuntimeError, or an arithmetic or lookup failure inside the library,
reported without a traceback).  Complex files are read from a path, from
the shipped catalog by name (X7, X12, ...), or from stdin when the
argument is omitted or '-'; results go to stdout unless -o is given, so
commands compose in pipelines.  Each command imports the library modules it runs
inside its handler, so a cold run loads only those.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CoverError, EnumerationCapError, UnknownCatalogEntryError

USAGE_EXIT = 1
DOMAIN_EXIT = 2
RESOURCE_EXIT = 3
INTERNAL_EXIT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _read_complex(spec: str | None):
    from . import complexes

    if spec is None or spec == "-":
        return complexes.parse(sys.stdin.read())
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return complexes.parse(fh.read())
    except FileNotFoundError:
        name = spec[:-6] if spec.endswith(".cmplx") else spec
        from . import catalog

        if name in catalog.EXPECTED:
            return catalog.load_entry(name).complex
        raise


def _write(text, out: str | None) -> None:
    """Write text, a string or an iterable of strings, to the file out, or
    to stdout when out is None or '-'."""
    texts = [text] if isinstance(text, str) else text
    if out is None or out == "-":
        sys.stdout.writelines(texts)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(texts)


def _emit_json(payload: dict, out: str | None) -> None:
    import itertools
    import json

    # written in batches of 1024 encoder chunks: joining a large payload's
    # chunks at once, as json.dumps does, holds all of them in memory
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    chunks = itertools.chain(encoder.iterencode(payload), "\n")
    _write(iter(lambda: "".join(itertools.islice(chunks, 1024)), ""), out)


def build_parser() -> argparse.ArgumentParser:
    return _parser(None)


def _parser(only: str | None) -> argparse.ArgumentParser:
    """build_parser's parser, holding the subcommand only alone unless only
    is None: a command's run needs no other subcommand's parser."""
    top = _Parser(prog="extpack", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    unbuilt = argparse.Namespace(add_argument=lambda *args, **kwargs: None)

    def add(name, help_text):
        if only not in (None, name):
            return unbuilt
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        return p

    p = add("bound", "extremal radius bound for (k, g)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("feasible", "does a k-extremal genus-g surface exist?")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("primitive", "the primitive pair (k_N, g_N) of a cell size")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("line", "the parameter line of cell size N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--jmax", type=int, default=5)
    p.add_argument("--json", action="store_true")

    p = add("dual", "pairs {k1, k2} realizable on one genus-g surface")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("unique", "can a (k, g) surface carry several extremal packings?")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("build", "build the primitive complex of cell size N by grafting")
    p.add_argument("--N", type=int, required=True)

    p = add("realize", "build a certified complex for any feasible (k, g)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)

    p = add("verify", "certify a complex file; exit 0 iff extremal")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--json", action="store_true")

    p = add("graft", "apply one edge-grafting variant")
    p.add_argument("file", nargs="?", default=None)
    # the values of grafting.GraftVariant, spelt out so that building the
    # parser does not import grafting
    p.add_argument("--variant", required=True, choices=("EG1", "EG2", "EG3", "EG4"))
    p.add_argument("--site", type=int, default=None, help="site index (default: first workable)")

    p = add("double-cover", "orientation double cover of a non-orientable complex")
    p.add_argument("file", nargs="?", default=None)

    p = add("cyclic-cover", "degree-n cyclic cover (voltages found if omitted)")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--voltages", type=int, nargs="*", default=None,
        help="one residue per edge label, in label order",
    )

    p = add("enumerate", "low-index subgroup search in an extended triangle group")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--torsion-free", action="store_true")
    p.add_argument("--proper", action="store_true")
    p.add_argument("--max-count", type=int, default=None)

    p = add("to-group", "flag action of a certified complex, as a subgroup record")
    p.add_argument("file", nargs="?", default=None)

    p = add("from-group", "rebuild the quotient complex of a subgroup record")
    p.add_argument("record", help="subgroup record JSON file")

    p = add("render", "draw a certified complex in the unit disk as SVG")
    p.add_argument("file", nargs="?", default=None)

    p = add("catalog", "list the shipped catalog")
    p.add_argument("--json", action="store_true")

    return top


def _cmd_bound(args) -> int:
    from . import feasibility

    params = feasibility.packing_radius_bound(args.k, args.g)
    if args.json:
        _emit_json(
            {
                "format_version": 1,
                "k": params.k,
                "g": params.g,
                "coshR": params.cosh_r,
                "R": params.radius,
                "N": (
                    params.sides
                    if params.integral
                    else [params.cell_size.numerator, params.cell_size.denominator]
                ),
                "integral": params.integral,
                "index": params.index,
            },
            args.output,
        )
    else:
        lines = [
            "cosh R = %.12f" % params.cosh_r,
            "R      = %.12f" % params.radius,
            "N      = %s%s" % (params.cell_size, "" if params.integral else " (not an integer: infeasible)"),
        ]
        if params.index is not None:
            lines.append("index  = %d" % params.index)
        _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_feasible(args) -> int:
    from . import feasibility

    ok = feasibility.is_feasible(args.k, args.g)
    if args.json:
        _emit_json(
            {"format_version": 1, "k": args.k, "g": args.g, "feasible": ok},
            args.output,
        )
    elif ok:
        _write("feasible: %d divides 6(g-2) = %d\n" % (args.k, 6 * (args.g - 2)), args.output)
    else:
        _write(
            "infeasible: %d does not divide 6(g-2) = %d\n" % (args.k, 6 * (args.g - 2)),
            args.output,
        )
    return 0 if ok else DOMAIN_EXIT


def _cmd_primitive(args) -> int:
    from . import feasibility

    k, g = feasibility.primitive_pair(args.N)
    if args.json:
        _emit_json({"format_version": 1, "N": args.N, "k": k, "g": g}, args.output)
    else:
        _write("(k_%d, g_%d) = (%d, %d)\n" % (args.N, args.N, k, g), args.output)
    return 0


def _cmd_line(args) -> int:
    from . import feasibility

    line = feasibility.line_ln(args.N, args.jmax)
    if args.json:
        _emit_json(
            {
                "format_version": 1,
                "N": args.N,
                "entries": [[k, g] for k, g in line.entries],
            },
            args.output,
        )
    else:
        _write(
            "L_%d: %s\n" % (args.N, " ".join("(%d,%d)" % e for e in line.entries)),
            args.output,
        )
    return 0


def _cmd_dual(args) -> int:
    from . import feasibility

    pairs = sorted(sorted(p) for p in feasibility.dual_extremal_pairs(args.g))
    if args.json:
        _emit_json({"format_version": 1, "g": args.g, "pairs": pairs}, args.output)
    else:
        body = " ".join("{%d,%d}" % tuple(p) for p in pairs) or "(none)"
        _write("dual-extremal pairs for g=%d: %s\n" % (args.g, body), args.output)
    return 0


def _cmd_unique(args) -> int:
    from . import feasibility

    u = feasibility.uniqueness_class(args.k, args.g)
    if args.json:
        _emit_json(
            {"format_version": 1, "k": args.k, "g": args.g, "uniqueness": u.value},
            args.output,
        )
    else:
        _write("%s\n" % u.value, args.output)
    return 0


def _cmd_build(args) -> int:
    from . import complexes, grafting

    _write(complexes.serialize(grafting.build_primitive(args.N)), args.output)
    return 0


def _cmd_realize(args) -> int:
    from . import complexes, covers

    _write(complexes.serialize(covers.realize_spec(args.k, args.g)), args.output)
    return 0


def _cmd_verify(args) -> int:
    from . import complexes

    rep = complexes.verify_extremal(_read_complex(args.file))
    if args.json:
        _emit_json(rep.to_json_dict(), args.output)
    elif rep.ok:
        _write("ok: (k, g, N) = (%d, %d, %d)\n" % (rep.k, rep.g, rep.n), args.output)
    else:
        _write("not extremal: %s\n" % "; ".join(rep.failures), args.output)
    return 0 if rep.ok else DOMAIN_EXIT


def _cmd_graft(args) -> int:
    from . import complexes, grafting

    c = _read_complex(args.file)
    variant = grafting.GraftVariant(args.variant)
    if args.site is None:
        out = grafting.graft_first_site(c, variant)
    else:
        out = grafting.graft_nth_site(c, variant, args.site)
    _write(complexes.serialize(out), args.output)
    return 0


def _cmd_double_cover(args) -> int:
    from . import complexes, covers

    _write(
        complexes.serialize(covers.orientation_double_cover(_read_complex(args.file))),
        args.output,
    )
    return 0


def _cmd_cyclic_cover(args) -> int:
    from . import complexes, covers

    c = _read_complex(args.file)
    if args.voltages is None:
        out = covers.find_nonorientable_cyclic_cover(c, args.n)
    else:
        labels = sorted({lab for lab, _ in complexes.flag_sides(c)})
        if len(args.voltages) != len(labels):
            raise CoverError(
                "need %d voltages (one per label), got %d" % (len(labels), len(args.voltages))
            )
        assignment = covers.VoltageAssignment.from_dict(
            args.n, dict(zip(labels, args.voltages))
        )
        out = covers.cyclic_cover(c, assignment)
    _write(complexes.serialize(out), args.output)
    return 0


def _cmd_enumerate(args) -> int:
    from . import trigroup

    recs = trigroup.low_index_subgroups(
        args.p, args.q, args.r, args.index,
        torsion_free=args.torsion_free,
        proper=args.proper or None,
        max_count=args.max_count,
    )
    _emit_json(
        {"format_version": 1, "count": len(recs), "records": [r.to_json_dict() for r in recs]},
        args.output,
    )
    return 0


def _cmd_to_group(args) -> int:
    from . import trigroup

    rec = trigroup.complex_to_subgroup(_read_complex(args.file))
    _emit_json(rec.to_json_dict(), args.output)
    return 0


def _cmd_from_group(args) -> int:
    from . import complexes, trigroup

    with open(args.record, "r", encoding="utf-8") as fh:
        rec = trigroup.record_from_json(fh.read())
    _write(complexes.serialize(trigroup.subgroup_to_complex(rec)), args.output)
    return 0


def _cmd_render(args) -> int:
    from . import geometry

    layout = geometry.realize(_read_complex(args.file))
    _write(geometry.render_svg(layout), args.output)
    return 0


def _cmd_catalog(args) -> int:
    from . import catalog

    entries = catalog.load_all()
    if args.json:
        _emit_json(
            {
                "format_version": 1,
                "entries": {
                    e.name: {"k": e.k, "g": e.g, "N": e.n, "provenance": e.provenance}
                    for e in entries.values()
                },
            },
            args.output,
        )
    else:
        lines = [
            "%-4s k=%-3d g=%-3d N=%-3d  %s" % (e.name, e.k, e.g, e.n, e.provenance)
            for e in entries.values()
        ]
        _write("\n".join(lines) + "\n", args.output)
    return 0


_HANDLERS = {
    "bound": _cmd_bound,
    "feasible": _cmd_feasible,
    "primitive": _cmd_primitive,
    "line": _cmd_line,
    "dual": _cmd_dual,
    "unique": _cmd_unique,
    "build": _cmd_build,
    "realize": _cmd_realize,
    "verify": _cmd_verify,
    "graft": _cmd_graft,
    "double-cover": _cmd_double_cover,
    "cyclic-cover": _cmd_cyclic_cover,
    "enumerate": _cmd_enumerate,
    "to-group": _cmd_to_group,
    "from-group": _cmd_from_group,
    "render": _cmd_render,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the named command's parser alone; what it leaves over, the full parser
    # reports with its own usage line, message and exit code
    args, extra = _parser(argv[0] if argv and argv[0] in _HANDLERS else None).parse_known_args(argv)
    if extra:
        args = build_parser().parse_args(argv)
    # exit codes by error family: the library's domain errors are ValueErrors
    # but for UnknownCatalogEntryError, a KeyError caught before KeyError;
    # EnumerationCapError, InvariantError and RewriteSearchError are
    # RuntimeErrors, the first caught before the rest
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, UnknownCatalogEntryError) as err:
        print("error: %s" % err, file=sys.stderr)
        return DOMAIN_EXIT
    except EnumerationCapError as err:
        print("resource limit: %s" % err, file=sys.stderr)
        return RESOURCE_EXIT
    except (RuntimeError, ArithmeticError, KeyError) as err:
        print("internal error: %s" % err, file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
