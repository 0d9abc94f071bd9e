"""The command set of the extpack command line: a handler for each
command, the table _COMMANDS that declares each command once, and the
exit codes that the handlers return and cli.main maps errors to.

Each handler imports the library modules it runs inside its body, so a
cold run loads only those, and calls them through their modules
(complexes.X, trigroup.X, ...), where the benchmark tracer wraps them.
This module imports sys and errors alone and never cli, whose parsers
and main read the table.  A new command is one handler and one entry
here.
"""

from __future__ import annotations

import sys

from .errors import CoverError

USAGE_EXIT = 1
DOMAIN_EXIT = 2
RESOURCE_EXIT = 3
INTERNAL_EXIT = 4


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


def _bound(args):
    from . import feasibility

    params = feasibility.packing_radius_bound(args.k, args.g)
    cell = params.cell_size
    lines = [
        "cosh R = %.12f" % params.cosh_r,
        "R      = %.12f" % params.radius,
        "N      = %s%s" % (cell, "" if params.integral else " (not an integer: infeasible)"),
    ]
    if params.index is not None:
        lines.append("index  = %d" % params.index)
    return 0, {
        "format_version": 1,
        "k": params.k,
        "g": params.g,
        "coshR": params.cosh_r,
        "R": params.radius,
        "N": params.sides if params.integral else [cell.numerator, cell.denominator],
        "integral": params.integral,
        "index": params.index,
    }, "\n".join(lines) + "\n"


def _feasible(args):
    from . import feasibility

    ok = feasibility.is_feasible(args.k, args.g)
    verdict = "feasible: %d divides" if ok else "infeasible: %d does not divide"
    return (
        0 if ok else DOMAIN_EXIT,
        {"format_version": 1, "k": args.k, "g": args.g, "feasible": ok},
        (verdict + " 6(g-2) = %d\n") % (args.k, 6 * (args.g - 2)),
    )


def _primitive(args):
    from . import feasibility

    k, g = feasibility.primitive_pair(args.N)
    text = "(k_%d, g_%d) = (%d, %d)\n" % (args.N, args.N, k, g)
    return 0, {"format_version": 1, "N": args.N, "k": k, "g": g}, text


def _line(args):
    from . import feasibility

    entries = feasibility.line_ln(args.N, args.jmax).entries
    text = "L_%d: %s\n" % (args.N, " ".join("(%d,%d)" % e for e in entries))
    return 0, {"format_version": 1, "N": args.N, "entries": [[k, g] for k, g in entries]}, text


def _dual(args):
    from . import feasibility

    pairs = sorted(sorted(p) for p in feasibility.dual_extremal_pairs(args.g))
    body = " ".join("{%d,%d}" % tuple(p) for p in pairs) or "(none)"
    text = "dual-extremal pairs for g=%d: %s\n" % (args.g, body)
    return 0, {"format_version": 1, "g": args.g, "pairs": pairs}, text


def _unique(args):
    from . import feasibility

    u = feasibility.uniqueness_class(args.k, args.g).value
    return 0, {"format_version": 1, "k": args.k, "g": args.g, "uniqueness": u}, "%s\n" % u


def _build(args):
    from . import complexes, grafting

    return 0, None, complexes.serialize(grafting.build_primitive(args.N))


def _realize(args):
    from . import complexes, covers

    return 0, None, complexes.serialize(covers.realize_spec(args.k, args.g))


def _verify(args):
    from . import complexes

    rep = complexes.verify_extremal(_read_complex(args.file))
    text = ("ok: (k, g, N) = (%d, %d, %d)\n" % (rep.k, rep.g, rep.n) if rep.ok
            else "not extremal: %s\n" % "; ".join(rep.failures))
    return 0 if rep.ok else DOMAIN_EXIT, rep, text


def _graft(args):
    from . import complexes, grafting

    out = grafting.graft(_read_complex(args.file), grafting.GraftVariant(args.variant), args.site)
    return 0, None, complexes.serialize(out)


def _double_cover(args):
    from . import complexes, covers

    return 0, None, complexes.serialize(covers.orientation_double_cover(_read_complex(args.file)))


def _cyclic_cover(args):
    from . import complexes, covers

    c = _read_complex(args.file)
    if args.voltages is None:
        out = covers.find_nonorientable_cyclic_cover(c, args.n)
    else:
        labels = sorted({abs(v) for word in c.polygons for v in word})
        if len(args.voltages) != len(labels):
            raise CoverError(
                "need %d voltages (one per label), got %d" % (len(labels), len(args.voltages))
            )
        assignment = covers.VoltageAssignment.from_dict(args.n, dict(zip(labels, args.voltages)))
        out = covers.cyclic_cover(c, assignment)
    return 0, None, complexes.serialize(out)


def _enumerate(args):
    from . import trigroup

    recs = trigroup.low_index_subgroups(
        args.p, args.q, args.r, args.index,
        torsion_free=args.torsion_free,
        proper=args.proper or None,
        max_count=args.max_count,
    )
    return 0, {"format_version": 1, "count": len(recs), "records": recs}, None


def _to_group(args):
    from . import trigroup

    return 0, trigroup.complex_to_subgroup(_read_complex(args.file)), None


def _from_group(args):
    from . import complexes, trigroup

    with open(args.record, "r", encoding="utf-8") as fh:
        rec = trigroup.record_from_json(fh.read())
    return 0, None, complexes.serialize(trigroup.subgroup_to_complex(rec))


def _render(args):
    from . import geometry

    return 0, None, geometry.render_svg(geometry.realize(_read_complex(args.file)))


def _catalog(args):
    from . import catalog

    entries = catalog.load_all().values()
    lines = ["%-4s k=%-3d g=%-3d N=%-3d  %s" % (e.name, e.k, e.g, e.n, e.provenance)
             for e in entries]
    return 0, {
        "format_version": 1,
        "entries": {
            e.name: {"k": e.k, "g": e.g, "N": e.n, "provenance": e.provenance}
            for e in entries
        },
    }, "\n".join(lines) + "\n"


_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true"}
_FILE = ("file", {"nargs": "?"})
_JSON = ("--json", _FLAG)

#: every command, in the order of the usage line: its help text, its
#: handler and its arguments after -o, each a name and add_argument's
#: keywords.  A handler takes the parsed arguments and returns (exit code,
#: JSON payload, text); cli.main writes the payload under --json or when the
#: text is None, the text otherwise
_COMMANDS = {
    "bound": ("extremal radius bound for (k, g)", _bound, [("--k", _INT), ("--g", _INT), _JSON]),
    "feasible": ("does a k-extremal genus-g surface exist?", _feasible,
                 [("--k", _INT), ("--g", _INT), _JSON]),
    "primitive": ("the primitive pair (k_N, g_N) of a cell size", _primitive,
                  [("--N", _INT), _JSON]),
    "line": ("the parameter line of cell size N", _line,
             [("--N", _INT), ("--jmax", {"type": int, "default": 5}), _JSON]),
    "dual": ("pairs {k1, k2} realizable on one genus-g surface", _dual, [("--g", _INT), _JSON]),
    "unique": ("can a (k, g) surface carry several extremal packings?", _unique,
               [("--k", _INT), ("--g", _INT), _JSON]),
    "build": ("build the primitive complex of cell size N by grafting", _build, [("--N", _INT)]),
    "realize": ("build a certified complex for any feasible (k, g)", _realize,
                [("--k", _INT), ("--g", _INT)]),
    "verify": ("certify a complex file; exit 0 iff extremal", _verify, [_FILE, _JSON]),
    # the values of grafting.GraftVariant, spelt out so that building the
    # parser does not import grafting
    "graft": ("apply one edge-grafting variant", _graft, [
        _FILE,
        ("--variant", {"required": True, "choices": ("EG1", "EG2", "EG3", "EG4")}),
        ("--site", {"type": int, "help": "site index (default: first workable)"}),
    ]),
    "double-cover": ("orientation double cover of a non-orientable complex", _double_cover,
                     [_FILE]),
    "cyclic-cover": ("degree-n cyclic cover (voltages found if omitted)", _cyclic_cover, [
        _FILE,
        ("--n", _INT),
        ("--voltages", {"type": int, "nargs": "*",
                        "help": "one residue per edge label, in label order"}),
    ]),
    "enumerate": ("low-index subgroup search in an extended triangle group", _enumerate, [
        ("--p", _INT), ("--q", _INT), ("--r", _INT), ("--index", _INT),
        ("--torsion-free", _FLAG), ("--proper", _FLAG), ("--max-count", {"type": int}),
    ]),
    "to-group": ("flag action of a certified complex, as a subgroup record", _to_group, [_FILE]),
    "from-group": ("rebuild the quotient complex of a subgroup record", _from_group,
                   [("record", {"help": "subgroup record JSON file"})]),
    "render": ("draw a certified complex in the unit disk as SVG", _render, [_FILE]),
    "catalog": ("list the shipped catalog", _catalog, [_JSON]),
}
