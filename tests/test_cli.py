import hashlib
import importlib
import json
import logging

import pytest

from extpack import catalog, cli, grafting
from extpack import complexes as cx
from extpack import trigroup as tg
from extpack.errors import InvariantError, RewriteSearchError, UnknownCatalogEntryError


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "--k", "1", "--g", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["coshR"] - 1.9318516526) < 1e-9
    assert data["N"] == 12 and data["index"] == 24


def test_bound_infeasible_still_reports(capsys):
    code, out, _ = run(capsys, "bound", "--k", "4", "--g", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["integral"] is False and data["N"] == [15, 2]


def test_bound_out_of_float_range_is_a_domain_error(capsys):
    huge = "1" + "0" * 320
    code, out, err = run(capsys, "bound", "--k", "1", "--g", huge)
    assert code == 2 and out == ""
    assert err.startswith("error: the radius bound for k=1, g=%s is out of" % huge)


def test_feasible_exit_codes(capsys):
    code, out, _ = run(capsys, "feasible", "--k", "4", "--g", "4")
    assert code == 0 and "feasible" in out
    code, out, _ = run(capsys, "feasible", "--k", "4", "--g", "3")
    assert code == 2 and "does not divide" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--k", "1"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_variant_choices_are_the_graft_variants():
    # the parser spells the choices out so that it need not import grafting
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a.choices, dict)]
    (variant,) = [a for a in commands.choices["graft"]._actions if a.dest == "variant"]
    assert list(variant.choices) == [v.value for v in grafting.GraftVariant]


def test_unknown_variant_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["graft", "X8", "--variant", "EG9"])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "usage: extpack graft [-h] [-o OUTPUT] --variant {EG1,EG2,EG3,EG4}\n"
        "                     [--site SITE]\n"
        "                     [file]\n"
        "extpack graft: error: argument --variant: invalid choice: 'EG9'"
        " (choose from 'EG1', 'EG2', 'EG3', 'EG4')\n"
    )


def test_arith_commands(capsys):
    code, out, _ = run(capsys, "primitive", "--N", "10", "--json")
    assert code == 0 and json.loads(out) == {"format_version": 1, "N": 10, "k": 3, "g": 4}
    code, out, _ = run(capsys, "line", "--N", "12", "--jmax", "3", "--json")
    assert json.loads(out)["entries"] == [[1, 3], [2, 4], [3, 5]]
    code, out, _ = run(capsys, "dual", "--g", "6", "--json")
    assert json.loads(out)["pairs"] == [[2, 8], [3, 24]]
    code, out, _ = run(capsys, "unique", "--k", "1", "--g", "7", "--json")
    assert json.loads(out)["uniqueness"] == "unique"
    code, out, _ = run(capsys, "unique", "--k", "6", "--g", "3")
    assert out.strip() == "possibly-multiple"


def test_verify_catalog_name(capsys):
    code, out, _ = run(capsys, "verify", "X7.cmplx")
    assert code == 0 and "(6, 3, 7)" in out
    code, out, _ = run(capsys, "verify", "X12", "--json")
    data = json.loads(out)
    assert data["ok"] and data["N"] == 12


def test_verify_failure_exit(tmp_path, capsys):
    path = tmp_path / "torus.cmplx"
    path.write_text("polygon 1 2 1 2\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2 and "NotTrivalent" in out


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "verify", "nonexistent.cmplx")
    assert code == 2 and "error" in err


def test_build_realize_graft_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--N", "9")
    assert code == 0
    base = tmp_path / "x9.cmplx"
    base.write_text(out)
    code, out, _ = run(capsys, "cyclic-cover", str(base), "--n", "2")
    assert code == 0
    cover = tmp_path / "cover.cmplx"
    cover.write_text(out)
    code, out, _ = run(capsys, "verify", str(cover))
    assert code == 0 and "(4, 4, 9)" in out


def test_realize_infeasible(capsys):
    code, _, err = run(capsys, "realize", "--k", "4", "--g", "3")
    assert code == 2 and "does not divide" in err


def test_graft_command(tmp_path, capsys):
    code, out, _ = run(capsys, "graft", "X8", "--variant", "EG1")
    assert code == 0
    path = tmp_path / "g.cmplx"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "(3, 4, 10)" in out


@pytest.mark.parametrize("name, variant, digest", [
    ("X8", "EG1", "6c6c477e58bb0bd6ab1bee3d0fd24d321094c61beb1637630e2d25a316df8812"),
    ("X9", "EG3", "fd4c52ad586a2b6d6f207a24fd37826d16e5dcce07b3ddeb98475115d5e85da6"),
])
def test_graft_output_is_pinned(capsys, name, variant, digest):
    # the sha256 of the stdout the exhaustive candidate search wrote
    code, out, err = run(capsys, "graft", name, "--variant", variant)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, sizes", [("X7", [9, 9, 9, 7, 7, 7]), ("X11", [13, 13, 13, 11, 11, 11])])
def test_graft_forms_agree_on_k6(capsys, name, sizes):
    # without --site the graft is the one at the first site that grafts,
    # under the same room: the free half of a pair, at most 9 (13) sides
    code, out, err = run(capsys, "graft", name, "--variant", "EG3")
    assert (code, err) == (0, "")
    assert sorted(cx.parse(out).sizes, reverse=True) == sizes
    sites = grafting.eligible_sites(catalog.load_entry(name).complex, grafting.GraftVariant.EG3)
    for site in range(len(sites)):
        code, site_out, _ = run(capsys, "graft", name, "--variant", "EG3", "--site", str(site))
        if code == 0:
            break
        assert code == 2
    assert (code, site_out) == (0, out)


def test_graft_at_a_site_that_cannot_take_one_is_a_domain_error(capsys):
    # X8 grows by two sides per polygon; a site on two polygons cannot
    c = catalog.load_entry("X8").complex
    sites = grafting.eligible_sites(c, grafting.GraftVariant.EG1)
    index = next(i for i, s in enumerate(sites) if len({p for p, _ in s.corners}) < 3)
    code, out, err = run(capsys, "graft", "X8", "--variant", "EG1", "--site", str(index))
    assert code == 2 and out == ""
    assert err == (
        "error: cycle %s cannot take a graft: no wiring row fits the room (2, 2, 2) "
        "of sizes (8, 8, 8)\n" % (sites[index].corners,)
    )


@pytest.mark.parametrize("site", [[], ["--site", "0"]])
def test_graft_without_a_site_of_the_variant_is_a_domain_error(capsys, site):
    code, out, err = run(capsys, "graft", "X12", "--variant", "EG3", *site)
    assert code == 2 and out == ""
    assert err == "error: the complex has no EG3 site\n"


@pytest.mark.parametrize("site, exit_code", [([], 0), (["--site", "0"], 2)])
def test_graft_walks_the_vertex_cycles_once(monkeypatch, capsys, site, exit_code):
    # without --site the graft reads X8's EG1 sites only up to the first that
    # grafts, building a VertexCycle per site read; with --site every cycle
    # is built once, in order, to index the sites
    c = catalog.load_entry("X8").complex
    cycles = [cycle.corners for cycle in cx.vertex_cycles(c)]
    sites = grafting.eligible_sites(c, grafting.GraftVariant.EG1)
    read = next(i for i in range(len(sites)) if run(capsys, "graft", "X8", "--variant", "EG1",
                                                  "--site", str(i))[0] == 0) + 1
    built = []
    init = cx.VertexCycle.__init__
    monkeypatch.setattr(cx.VertexCycle, "__init__", lambda self, *args: built.append(args[0]) or init(self, *args))
    assert run(capsys, "graft", "X8", "--variant", "EG1", *site)[0] == exit_code
    if site:
        assert built == cycles
    else:
        assert 0 < len(built) <= read < len(cycles)
        assert built == cycles[:len(built)]


#: per command: a valid argv, one missing a required option and one with a
#: malformed int (None where the command has no such option)
PARSE_TABLE = {
    "bound": (["--k", "1", "--g", "3", "--json"], ["--k", "1"], ["--k", "1", "--g", "x"]),
    "feasible": (["--k", "4", "--g", "3"], ["--g", "3"], ["--k", "4.0", "--g", "3"]),
    "primitive": (["--N", "7", "--json"], ["--json"], ["--N", "7.5"]),
    "line": (["--N", "7", "--jmax", "2"], ["--jmax", "2"], ["--N", "7", "--jmax", "two"]),
    "dual": (["--g", "4", "-o", "-"], [], ["--g", "four"]),
    "unique": (["--k", "2", "--g", "5"], ["--k", "2"], ["--k", "", "--g", "5"]),
    "build": (["--N", "13", "-o", "x.cmplx"], ["-o", "x.cmplx"], ["--N", "1e3"]),
    "realize": (["--k", "6", "--g", "3"], ["--k", "6"], ["--k", "6", "--g", "0x3"]),
    "verify": (["X7", "--json"], None, None),
    "graft": (["X8", "--variant", "EG1", "--site", "2"], ["X8", "--site", "2"],
              ["X8", "--variant", "EG1", "--site", "x"]),
    "double-cover": (["X9"], None, None),
    "cyclic-cover": (["X12", "--n", "2", "--voltages", "1", "0"], ["X12"],
                     ["X12", "--n", "2", "--voltages", "1", "z"]),
    "enumerate": (["--p", "2", "--q", "3", "--r", "7", "--index", "28", "--torsion-free", "--max-count", "3"],
                  ["--p", "2", "--q", "3", "--r", "7"], ["--p", "2", "--q", "3", "--r", "7", "--index", "2 8"]),
    "to-group": (["X9", "-o", "-"], None, None),
    "from-group": (["rec.json"], [], None),
    "render": (["-", "--output", "x.svg"], None, None),
    "catalog": (["--json"], None, None),
}

PARSE_CASES = [[], ["-h"], ["--help"], ["nope"], ["--json"], ["bound", "nope"]] + [
    [command, *argv]
    for command, (valid, missing, bad_int) in PARSE_TABLE.items()
    for argv in (valid, ["-h"], missing, bad_int, valid + ["extra"], valid + ["--no-such-option"])
    if argv is not None
]


def test_the_parse_table_covers_every_command():
    assert list(PARSE_TABLE) == list(cli._HANDLERS)


@pytest.mark.parametrize("argv", PARSE_CASES, ids=[" ".join(argv) or "(none)" for argv in PARSE_CASES])
def test_main_parses_like_the_full_parser(monkeypatch, capsys, argv):
    # a command's own parser gives the namespace of build_parser, and every
    # usage line, help text, message and exit code through it
    def outcome(parse):
        try:
            got = parse(argv)
        except SystemExit as stop:
            got = stop.code
        out = capsys.readouterr()
        return got, out.out, out.err

    want = outcome(lambda argv: vars(cli.build_parser().parse_args(argv)))
    parsed, built = [], []
    for command in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, command, lambda args: parsed.append(vars(args)) or 0)
    parser = cli._parser
    monkeypatch.setattr(cli, "_parser", lambda only: built.append(only) or parser(only))
    got = outcome(lambda argv: cli.main(argv) == 0 and parsed.pop())
    assert got == want
    # a named command's parser holds that command alone, and the full parser
    # is built again only for arguments left over, which it reports
    named = bool(argv) and argv[0] in PARSE_TABLE
    assert built[0] == (argv[0] if named else None)
    assert built[1:] == ([None] if "error: unrecognized arguments: " in want[2] else [])


def test_double_cover_command(tmp_path, capsys):
    code, out, _ = run(capsys, "double-cover", "X9")
    assert code == 0
    c = cx.parse(out)
    inv = cx.surface_invariants(c)
    assert inv.orientable and inv.genus == 2


def test_enumerate_command(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--p", "2", "--q", "3", "--r", "12",
        "--index", "24", "--torsion-free", "--proper", "--max-count", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    rec = data["records"][0]
    assert rec["genus"] == 3 and rec["proper"] and rec["torsion_free"]
    assert rec["index"] == 24 and rec["triangle"] == [2, 3, 12]


def test_group_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "to-group", "X12")
    assert code == 0
    rec = tmp_path / "x12.json"
    rec.write_text(out)
    code, out, _ = run(capsys, "from-group", str(rec))
    assert code == 0
    c = cx.parse(out)
    rep = cx.verify_extremal(c)
    assert (rep.k, rep.g, rep.n) == (1, 3, 12)


def _x12_record():
    return tg.complex_to_subgroup(catalog.load_entry("X12").complex).to_json_dict()


def _generators(edit):
    return lambda d: dict(d, generators=edit(d["generators"]))


@pytest.mark.parametrize(
    "change,message",
    [
        (_generators(lambda g: [[24] + g[0][1:]] + g[1:]),
         "generator 0 sends point 0 to 24, outside 0..23"),
        (_generators(lambda g: [g[0], [0] * 24, g[2]]), "generator 1 is not a permutation"),
        (_generators(lambda g: [g[0], g[1], [(x + 1) % 24 for x in range(24)]]),
         "generator 2 is not an involution"),
        (_generators(lambda g: g[:2]), "expected three generators (r0, r1, r2), got 2"),
        (lambda d: {k: v for k, v in d.items() if k != "triangle"},
         "subgroup record has no 'triangle' field"),
        (_generators(lambda g: [p + [x + 24 for x in p] for p in g]),
         "the action is not transitive"),
        (lambda d: "generators: [[0]]", "subgroup record is not JSON"),
        (lambda d: dict(d, triangle=[2, 3, 7]),
         "rotation r2 r0 has a cycle of length 12, which does not divide 7"),
    ],
    ids=["out-of-range", "non-permutation", "non-involution", "two-generators",
         "missing-key", "disconnected", "non-json", "wrong-triangle"],
)
def test_malformed_record_is_a_domain_error(tmp_path, capsys, change, message):
    doc = change(_x12_record())
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, "from-group", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [["verify", "{dir}"], ["from-group", "{dir}"], ["build", "--N", "7", "-o", "{dir}"]],
    ids=["verify-input", "from-group-input", "build-output"],
)
def test_directory_path_is_a_domain_error(tmp_path, capsys, argv):
    code, out, err = run(capsys, *[a.format(dir=tmp_path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Is a directory" in err


@pytest.mark.parametrize(
    "argv",
    [["X7", "--n", "0"], ["X7", "--n", "-2"], ["X12", "--n", "0", "--voltages"] + ["0"] * 6],
    ids=["search-0", "search-negative", "explicit-0"],
)
def test_cyclic_cover_degree_below_one(capsys, argv):
    code, out, err = run(capsys, "cyclic-cover", *argv)
    assert code == 2 and out == ""
    assert err == "error: cover degree must be >= 1\n"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_enumerate_max_count_below_one(capsys, count):
    code, out, err = run(
        capsys, "enumerate", "--p", "2", "--q", "3", "--r", "7", "--index", "28",
        "--max-count", count,
    )
    assert code == 2 and out == ""
    assert err == "error: need max_count >= 1, got %s\n" % count


def test_render_command(tmp_path, capsys):
    out_path = tmp_path / "x12.svg"
    code, _, _ = run(capsys, "render", "X12", "-o", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count('class="edge"') == 12


def test_realize_render_pipeline(tmp_path, capsys):
    # a 9-sheet cover whose layout a label-sweep spanning tree drew too deep
    code, out, _ = run(capsys, "realize", "--k", "16", "--g", "10")
    assert code == 0
    path = tmp_path / "k16g10.cmplx"
    path.write_text(out)
    code, out, _ = run(capsys, "render", str(path))
    assert code == 0
    assert out.count('class="edge"') == 16 * 9


#: the sha256 of `render` on each catalog entry and on the construct specs;
#: the exact layouts draw the bytes that the float layouts drew before them
RENDER_DIGESTS = {
    "X7": "15591605535fdd5543d616a470b030a52a45282b30f537728e303a679c2f4255",
    "X8": "bc78091c3572ac3c4879fb2c7c8f76b831b72a85ca61dcdf73e09f767a99da5b",
    "X9": "e752a7c89d78c796256fcbf4a1e07982cfb1266455c6f3e59335c67e38d9c5dc",
    "X10": "a8773d7a8e846de2ee54f6c612881e460c22128dabda9a71befee3dafbf9dca9",
    "X11": "81e6cc55f902bffc73ea916b154c07eed427f7c1014c53231f404152503c6d79",
    "X12": "96900f1c34091a57e4637825aabe3a999ae808a6354d9365df392257a7d95596",
    "X15": "978e9176f673042834369416e4fcc5612f236ba5bdbe47645da334ddb5dbede8",
    "D18": "cb763d65865ccd422ff31bc67d0b23131d0d5e5b9e108d81d35205030644c5a5",
    "D14": "51dc24704412ff6450c2d02f984b01486d9bca6bed7c65c5b3a9c55755aef841",
    "24,10": "1c7b6fbdfe5026f62be39ea8eb2908d5eecc20666cc3d3f4ff597ad3e14f90af",
    "9,20": "7dacfa3b6f2f1ed9287e349bbc7a10c397376a8c240dcbe2ca87d487250dfae6",
    "10,22": "0ea92679245ca04d6740f9861045f7069386a4c695b31b81492647983cb0e638",
}


@pytest.mark.parametrize("spec, digest", RENDER_DIGESTS.items(), ids=list(RENDER_DIGESTS))
def test_render_output_is_pinned(tmp_path, capsys, spec, digest):
    if "," in spec:
        k, g = spec.split(",")
        spec = str(tmp_path / "spec.cmplx")
        assert run(capsys, "realize", "--k", k, "--g", g, "-o", spec)[0] == 0
    code, out, err = run(capsys, "render", spec)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: the sha256 of `enumerate` on the groups benchmark's menu; torsion-free
#: searches run with --proper
ENUMERATE_DIGESTS = {
    (2, 3, 7, 84, True): "41d2ec4121394792cb7e06963923848c66456bd37763b58f7d64902b12678054",
    (2, 3, 8, 48, True): "8b84bf67c75c1bfc457ee7e1ea6b2d963d30e5643a9a8e35b126178202df5c23",
    (2, 3, 9, 36, True): "cc39559906af99fb3ea577ac685d56b20012ca4d60f9e527a1f0aed9e8531669",
    (2, 3, 12, 24, True): "3f3280fbfbb6071695a600a2c5406897312facc58a09f3a2b75256c07314b236",
    (3, 3, 9, 18, True): "a0cf25c1d943283c5900fe51625684a51a682eb71e9a30bc07e4d030e91289e3",
    (2, 3, 12, 24, False): "35ee7435dafc35abac27a0412488951619c57e9c4e0eb56e63f89e4d8ccb678d",
    (2, 3, 7, 28, False): "00e4571ba40320cf21755033c6fb47547113f7090cc9cef1b0b12bff1165c5e3",
}


@pytest.mark.parametrize(
    "search, digest",
    ENUMERATE_DIGESTS.items(),
    ids=["%d,%d,%d@%d%s" % (p, q, r, index, "-tf" if tf else "") for p, q, r, index, tf in ENUMERATE_DIGESTS],
)
def test_enumerate_output_is_pinned(capsys, search, digest):
    p, q, r, index, tf = search
    argv = ["enumerate", "--p", str(p), "--q", str(q), "--r", str(r), "--index", str(index)]
    code, out, err = run(capsys, *argv, *(["--torsion-free", "--proper"] if tf else []))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_2_3_12_at_48_is_pinned(capsys, caplog):
    # off the benchmark's menu: 283 classes, each met about 2 times by the
    # pruned search (32 by the unpruned one, whose output the digest is)
    argv = ["enumerate", "--p", "2", "--q", "3", "--r", "12", "--index", "48", "--torsion-free", "--proper"]
    with caplog.at_level(logging.DEBUG, logger="extpack.trigroup"):
        code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == "bbdc3e8e575316ab4ba4e3886d92e3f8cdcddb73c247d5ad7419c1869ef7c3b0"
    (line,) = [rec.getMessage() for rec in caplog.records if rec.name == "extpack.trigroup"]
    assert line.endswith(": 18951 nodes, 919 canonicity prunes, 619 complete tables, 283 records")


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data["entries"]) == {"X7", "X8", "X9", "X10", "X11", "X12", "X15", "D18", "D14"}


def test_cyclic_cover_voltage_count_error(capsys):
    code, _, err = run(capsys, "cyclic-cover", "X12", "--n", "2", "--voltages", "1", "0")
    assert code == 2 and "voltages" in err


@pytest.mark.parametrize(
    "module,name,argv,error",
    [
        ("geometry", "realize", ["render", "X12"], ArithmeticError("residual (layout bug)")),
        ("grafting", "build_primitive", ["build", "--N", "9"], RewriteSearchError("no rewrite")),
        ("trigroup", "complex_to_subgroup", ["to-group", "X12"], InvariantError("not proper")),
        ("catalog", "load_all", ["catalog"], KeyError(12)),
        # a bare RuntimeError, as catalog.derive raises, and one of its kind
        ("covers", "realize_spec", ["realize", "--k", "6", "--g", "3"],
         RuntimeError("no schedule-compatible seed at index 84")),
        ("geometry", "realize", ["render", "X12"], RecursionError("maximum recursion depth")),
    ],
)
def test_internal_errors_exit_4(monkeypatch, capsys, module, name, argv, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(importlib.import_module("extpack." + module), name, fail)
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err == "internal error: %s\n" % error


def test_unknown_catalog_entry_is_a_domain_error(monkeypatch, capsys):
    with pytest.raises(KeyError):
        catalog.load_entry("X99")
    with pytest.raises(UnknownCatalogEntryError, match="no seed with cell size 5"):
        catalog.seed_complex(5)

    def load_all():
        return {"X99": catalog.load_entry("X99")}

    monkeypatch.setattr(catalog, "load_all", load_all)
    code, out, err = run(capsys, "catalog")
    assert code == 2 and out == ""
    assert err == "error: unknown catalog entry 'X99'\n"
