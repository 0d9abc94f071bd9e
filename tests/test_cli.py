import hashlib
import importlib
import json
import logging
import os
import random
import subprocess
import sys

import pytest

from extpack import _commands, catalog, cli, grafting
from extpack import complexes as cx
from extpack import trigroup as tg
from extpack.errors import (
    EnumerationCapError,
    InvariantError,
    RewriteSearchError,
    UnknownCatalogEntryError,
)


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
    # grafts, building a VertexCycle per site its room leaves (1 of the 4
    # read); with --site every cycle is built once, in order, to index the sites
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
        room = grafting.graft_room(c)
        kept = [cycle for cycle in cycles[:read]
                if not grafting._misses_room({p for p, _ in cycle}, room)]
        assert read < len(cycles) and built == kept != []


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
    assert list(PARSE_TABLE) == list(cli._COMMANDS)


def _subcommands(parser):
    (commands,) = [a for a in parser._actions if isinstance(a.choices, dict)]
    return list(commands.choices)


def test_each_command_is_declared_once():
    # the parser lists the commands in the order of the table
    assert _subcommands(cli.build_parser()) == list(cli._COMMANDS)


def _stub_handlers(monkeypatch):
    """Lists that fill as main runs: vars() of the namespace each handler
    gets, and the -o value of each write."""
    parsed, written = [], []
    stub = lambda args: parsed.append(vars(args)) or (0, None, "")
    for command, (help_text, _, arguments) in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, command, (help_text, stub, arguments))
    monkeypatch.setattr(cli, "_write", lambda texts, out: written.append(out))
    return parsed, written


@pytest.mark.parametrize("argv", PARSE_CASES, ids=[" ".join(argv) or "(none)" for argv in PARSE_CASES])
def test_main_parses_like_the_full_parser(monkeypatch, capsys, argv):
    # main gives the namespace of build_parser, and every usage line, help
    # text, message and exit code through it
    def outcome(parse):
        try:
            got = parse(argv)
        except SystemExit as stop:
            got = stop.code
        out = capsys.readouterr()
        return got, out.out, out.err

    want = outcome(lambda argv: vars(cli.build_parser().parse_args(argv)))
    parsed, written = _stub_handlers(monkeypatch)
    built, parser = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or parser())
    got = outcome(lambda argv: cli.main(argv) == 0 and parsed.pop())
    assert got == want
    # main writes once, to -o or stdout, for each run that parses
    assert written == ([want[0]["output"]] if isinstance(want[0], dict) else [])
    # a canonical argv builds no parser, and any other builds it once
    assert built == ([] if cli._fast(argv) is not None else [1])


HUGE = "1" + "0" * 320

#: the pinned runs besides PARSE_CASES: a valid run of every command, with
#: and without --json where it has it, and the error paths
RUN_CASES = [
    ["bound", "--k", "1", "--g", "3"],
    ["bound", "--k", "4", "--g", "3"],
    ["bound", "--k", "4", "--g", "3", "--json"],
    ["bound", "--k", "1", "--g", HUGE],
    ["feasible", "--k", "4", "--g", "4"],
    ["feasible", "--k", "4", "--g", "4", "--json"],
    ["feasible", "--k", "4", "--g", "3", "--json"],
    ["primitive", "--N", "7"],
    ["line", "--N", "7", "--json"],
    ["dual", "--g", "4", "--json"],
    ["dual", "--g", "3"],
    ["unique", "--k", "2", "--g", "5", "--json"],
    ["build", "--N", "13"],
    ["realize", "--k", "6", "--g", "3", "-o", "out.cmplx"],
    ["realize", "--k", "4", "--g", "3"],
    ["verify", "X7"],
    ["verify", "torus.cmplx"],
    ["verify", "torus.cmplx", "--json"],
    ["verify", "nope.cmplx"],
    ["graft", "X8", "--variant", "EG1"],
    ["graft", "X8", "--variant", "EG1", "--site", "99"],
    ["graft", "X12", "--variant", "EG3"],
    ["double-cover", "X9", "--output", "-"],
    ["cyclic-cover", "X12", "--n", "2"],
    ["cyclic-cover", "X12", "--n", "2", "--voltages", "1", "0", "1", "0", "1", "0"],
    ["enumerate", "--p", "2", "--q", "3", "--r", "7", "--index", "28", "--max-count", "0"],
    ["to-group", "X12", "-o", "x12-out.json"],
    ["from-group", "x12.json"],
    ["render", "X7"],
    ["catalog"],
]

PIN_CASES = PARSE_CASES + RUN_CASES


#: per PIN_CASES argv, joined by spaces: the exit code, the sha256 of what
#: main wrote (_pinned_outcome) and the exact stderr
CLI_PINS = {
    "": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: the following arguments are required: command\n"),
    "-h": (0, "41483ed7d73de89ef16cd3c022c8ef15679218559e038e3941de00558b55eeb8", ""),
    "--help": (0, "41483ed7d73de89ef16cd3c022c8ef15679218559e038e3941de00558b55eeb8", ""),
    "nope": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: argument command: invalid choice: 'nope' (choose from 'bound', 'feasible', 'primitive', 'line', 'dual', 'unique', 'build', 'realize', 'verify', 'graft', 'double-cover', 'cyclic-cover', 'enumerate', 'to-group', 'from-group', 'render', 'catalog')\n"),
    "--json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: the following arguments are required: command\n"),
    "bound nope": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack bound [-h] [-o OUTPUT] --k K --g G [--json]\n"
        "extpack bound: error: the following arguments are required: --k, --g\n"),
    "bound --k 1 --g 3 --json": (0, "2ddd389a2cc844bc93b8203bd61f375e2bf7017a945c25f0ddf1b52889125441", ""),
    "bound -h": (0, "0ee50d5c06051cb57005661e72c66e58e4fcf3b4dd42d6940947c5a7446da938", ""),
    "bound --k 1": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack bound [-h] [-o OUTPUT] --k K --g G [--json]\n"
        "extpack bound: error: the following arguments are required: --g\n"),
    "bound --k 1 --g x": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack bound [-h] [-o OUTPUT] --k K --g G [--json]\n"
        "extpack bound: error: argument --g: invalid int value: 'x'\n"),
    "bound --k 1 --g 3 --json extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "bound --k 1 --g 3 --json --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "feasible --k 4 --g 3": (2, "3fb3739791ea2f54c1404c9fe5254f2e3c560eece56f1501c9b4f1460c28b661", ""),
    "feasible -h": (0, "061558989ab41eecd4a3fb433efd858f8334232caab97b859021a17d93829d32", ""),
    "feasible --g 3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack feasible [-h] [-o OUTPUT] --k K --g G [--json]\n"
        "extpack feasible: error: the following arguments are required: --k\n"),
    "feasible --k 4.0 --g 3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack feasible [-h] [-o OUTPUT] --k K --g G [--json]\n"
        "extpack feasible: error: argument --k: invalid int value: '4.0'\n"),
    "feasible --k 4 --g 3 extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "feasible --k 4 --g 3 --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "primitive --N 7 --json": (0, "ee6aaec65ce184421c71b407d07fa135703bf328208238fdb03097247ed08f82", ""),
    "primitive -h": (0, "b9daf3bdddd170e07c8aad7fe95137f491ae054d811c12f339e9eb5c1ce029f3", ""),
    "primitive --json": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack primitive [-h] [-o OUTPUT] --N N [--json]\n"
        "extpack primitive: error: the following arguments are required: --N\n"),
    "primitive --N 7.5": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack primitive [-h] [-o OUTPUT] --N N [--json]\n"
        "extpack primitive: error: argument --N: invalid int value: '7.5'\n"),
    "primitive --N 7 --json extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "primitive --N 7 --json --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "line --N 7 --jmax 2": (0, "83e6edb2648864c3fd30057709c17132f0573428858efea05a8607cb9dbc0011", ""),
    "line -h": (0, "bc61be173defd973ac4177d516271f0aa97cb0c44c6b47dcb4a54fca654fe822", ""),
    "line --jmax 2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack line [-h] [-o OUTPUT] --N N [--jmax JMAX] [--json]\n"
        "extpack line: error: the following arguments are required: --N\n"),
    "line --N 7 --jmax two": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack line [-h] [-o OUTPUT] --N N [--jmax JMAX] [--json]\n"
        "extpack line: error: argument --jmax: invalid int value: 'two'\n"),
    "line --N 7 --jmax 2 extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "line --N 7 --jmax 2 --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "dual --g 4 -o -": (0, "ffd9bb7d8d6426bd35fe600c78a8f3fd528fee7873d47315c76793be2e55990e", ""),
    "dual -h": (0, "442d2d3ed1482450b40bf1725e91432b6b92a0350d6241762d7ec8099f78abbe", ""),
    "dual": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack dual [-h] [-o OUTPUT] --g G [--json]\n"
        "extpack dual: error: the following arguments are required: --g\n"),
    "dual --g four": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack dual [-h] [-o OUTPUT] --g G [--json]\n"
        "extpack dual: error: argument --g: invalid int value: 'four'\n"),
    "dual --g 4 -o - extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "dual --g 4 -o - --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "unique --k 2 --g 5": (0, "282393bfbf7f394be8f0f0d4c59e26b2acd4fa698b5d13a62c6e95431ac10a3b", ""),
    "unique -h": (0, "819671725e03846ca91ea04d0a97ad98983426719a628692e7a3a3ebd38daf97", ""),
    "unique --k 2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack unique [-h] [-o OUTPUT] --k K --g G [--json]\n"
        "extpack unique: error: the following arguments are required: --g\n"),
    "unique --k  --g 5": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack unique [-h] [-o OUTPUT] --k K --g G [--json]\n"
        "extpack unique: error: argument --k: invalid int value: ''\n"),
    "unique --k 2 --g 5 extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "unique --k 2 --g 5 --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "build --N 13 -o x.cmplx": (0, "fa30a07a074fdd953680ac2e61e80014075c59c608f627790f4dc348fdd9de7d", ""),
    "build -h": (0, "dfb5913f11af069d90b4f44398a545c35f576333437758783bdf93ee2b8fef44", ""),
    "build -o x.cmplx": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack build [-h] [-o OUTPUT] --N N\n"
        "extpack build: error: the following arguments are required: --N\n"),
    "build --N 1e3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack build [-h] [-o OUTPUT] --N N\n"
        "extpack build: error: argument --N: invalid int value: '1e3'\n"),
    "build --N 13 -o x.cmplx extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "build --N 13 -o x.cmplx --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "realize --k 6 --g 3": (0, "5807a4d31e813a49001702b06ae6baa7666e30cd7fb5aaa35fb1d46eb503ea24", ""),
    "realize -h": (0, "ca3e7dfb17d0e8544173b2061ee445957b65a9e33e9bb271782f4db46c1ed224", ""),
    "realize --k 6": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack realize [-h] [-o OUTPUT] --k K --g G\n"
        "extpack realize: error: the following arguments are required: --g\n"),
    "realize --k 6 --g 0x3": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack realize [-h] [-o OUTPUT] --k K --g G\n"
        "extpack realize: error: argument --g: invalid int value: '0x3'\n"),
    "realize --k 6 --g 3 extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "realize --k 6 --g 3 --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "verify X7 --json": (0, "4b29bdaf087b1db0abb3bbed54d504758c318bab5f87f9f9ae75d2443e2eca01", ""),
    "verify -h": (0, "d6085be73e7b061419dd7edae5f22bb897857d97e45e84fafa54130871152fe0", ""),
    "verify X7 --json extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "verify X7 --json --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "graft X8 --variant EG1 --site 2": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: cycle ((0, 3), (1, 1), (1, 4)) cannot take a graft: no wiring row fits the room (2, 2, 2) of sizes (8, 8, 8)\n"),
    "graft -h": (0, "7c59f5db154d90d86141b2e37d7db7681cb4be24a37b5b75a0b459b674a45c97", ""),
    "graft X8 --site 2": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack graft [-h] [-o OUTPUT] --variant {EG1,EG2,EG3,EG4}\n"
        "                     [--site SITE]\n"
        "                     [file]\n"
        "extpack graft: error: the following arguments are required: --variant\n"),
    "graft X8 --variant EG1 --site x": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack graft [-h] [-o OUTPUT] --variant {EG1,EG2,EG3,EG4}\n"
        "                     [--site SITE]\n"
        "                     [file]\n"
        "extpack graft: error: argument --site: invalid int value: 'x'\n"),
    "graft X8 --variant EG1 --site 2 extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "graft X8 --variant EG1 --site 2 --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "double-cover X9": (0, "12dfe5ce72186a3f99dfe758ea8f94a6740966018ddff2013aca4242c7aad521", ""),
    "double-cover -h": (0, "0015021261745b67e7e2a11450f0d61c3b1f955c652923a3066feede1bda5af7", ""),
    "double-cover X9 extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "double-cover X9 --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "cyclic-cover X12 --n 2 --voltages 1 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: need 6 voltages (one per label), got 2\n"),
    "cyclic-cover -h": (0, "d9ed5501516e44cc3fed8758d3a3fb8e769cf270573727262365aefe57f41383", ""),
    "cyclic-cover X12": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack cyclic-cover [-h] [-o OUTPUT] --n N [--voltages [VOLTAGES ...]]\n"
        "                            [file]\n"
        "extpack cyclic-cover: error: the following arguments are required: --n\n"),
    "cyclic-cover X12 --n 2 --voltages 1 z": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack cyclic-cover [-h] [-o OUTPUT] --n N [--voltages [VOLTAGES ...]]\n"
        "                            [file]\n"
        "extpack cyclic-cover: error: argument --voltages: invalid int value: 'z'\n"),
    "cyclic-cover X12 --n 2 --voltages 1 0 extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack cyclic-cover [-h] [-o OUTPUT] --n N [--voltages [VOLTAGES ...]]\n"
        "                            [file]\n"
        "extpack cyclic-cover: error: argument --voltages: invalid int value: 'extra'\n"),
    "cyclic-cover X12 --n 2 --voltages 1 0 --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "enumerate --p 2 --q 3 --r 7 --index 28 --torsion-free --max-count 3": (0, "8a09b591889069e4636a4646250f1f1b6e5d0269158459188e99588c7da82108", ""),
    "enumerate -h": (0, "18ebd1aa19355163a86a38a3257fbeafc578254c9dc0cad4ad7e09932fcd98fa", ""),
    "enumerate --p 2 --q 3 --r 7": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack enumerate [-h] [-o OUTPUT] --p P --q Q --r R --index INDEX\n"
        "                         [--torsion-free] [--proper] [--max-count MAX_COUNT]\n"
        "extpack enumerate: error: the following arguments are required: --index\n"),
    "enumerate --p 2 --q 3 --r 7 --index 2 8": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack enumerate [-h] [-o OUTPUT] --p P --q Q --r R --index INDEX\n"
        "                         [--torsion-free] [--proper] [--max-count MAX_COUNT]\n"
        "extpack enumerate: error: argument --index: invalid int value: '2 8'\n"),
    "enumerate --p 2 --q 3 --r 7 --index 28 --torsion-free --max-count 3 extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "enumerate --p 2 --q 3 --r 7 --index 28 --torsion-free --max-count 3 --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "to-group X9 -o -": (0, "e2af194ee01a2810b94f892c8dfe019144d9ad9bef8eac87a8684adc6d5600ff", ""),
    "to-group -h": (0, "4ae966126870ed13352f4c285a153bf480b99c64c17a595a650983ea3dfe28d0", ""),
    "to-group X9 -o - extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "to-group X9 -o - --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "from-group rec.json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: [Errno 2] No such file or directory: 'rec.json'\n"),
    "from-group -h": (0, "6be38520dfcf06c21e1443fd533464be5f25cf4f06d83b068fc8028d2fe1a165", ""),
    "from-group": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack from-group [-h] [-o OUTPUT] record\n"
        "extpack from-group: error: the following arguments are required: record\n"),
    "from-group rec.json extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "from-group rec.json --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "render - --output x.svg": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: no polygon lines found\n"),
    "render -h": (0, "7f402cc14b7130ea0d71214fd2b6b5367570669fc6aea1c2df5b8f6e6b3c760f", ""),
    "render - --output x.svg extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "render - --output x.svg --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "catalog --json": (0, "9e4774310b57c703fa1fc3acb2120d410452dc477975704944a1cf27cb2cf1bf", ""),
    "catalog -h": (0, "aaec08a7d90bf9a60b317837e8612eabfba8e5a4099c8d34675a742bee7a0b24", ""),
    "catalog --json extra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: extra\n"),
    "catalog --json --no-such-option": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "usage: extpack [-h]\n"
        "               {bound,feasible,primitive,line,dual,unique,build,realize,verify,graft,double-cover,cyclic-cover,enumerate,to-group,from-group,render,catalog}\n"
        "               ...\n"
        "extpack: error: unrecognized arguments: --no-such-option\n"),
    "bound --k 1 --g 3": (0, "b9c9d6a252e1cae2cc669c6fa2ace436ffa153279ba8d50ee5c150e8614d3693", ""),
    "bound --k 4 --g 3": (0, "27864c85aa5014f7792d764cc12adf4410449c703e66a96f5b7e5254beb41159", ""),
    "bound --k 4 --g 3 --json": (0, "ce4860ee07b9e8d4dd15a7b9ba5e1c9d7cf8083e26d66803d80a368d47dd14db", ""),
    "bound --k 1 --g " + HUGE + "": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: the radius bound for k=1, g=" + HUGE + " is out of double-precision range\n"),
    "feasible --k 4 --g 4": (0, "289e17de829a53307227c339a806c0223caabb8b8f44538c6189b28004eb1939", ""),
    "feasible --k 4 --g 4 --json": (0, "d60c42633f3a7d97c739616a208787756ddf92885f2979e3761c882a00e48608", ""),
    "feasible --k 4 --g 3 --json": (2, "3645784cd273bc2fc9faeab06768cbcd79dc00a96c7a1641b7e78def2808b86b", ""),
    "primitive --N 7": (0, "0a9ac599f22406ee1d96955f9602dfe5145104ab9baeea63c1a8ddab7b40418b", ""),
    "line --N 7 --json": (0, "7071ee41204e05da9823e29f14872c0285723649a50d5c83baa86599803f9987", ""),
    "dual --g 4 --json": (0, "e2dabac6bf9eb56b366a92dc60fd92f9c299ddc730369a9e50d54f093e4db7d2", ""),
    "dual --g 3": (0, "9bd27b90a63d8f3934dbe832d0a9acd5a3f63fd0a2bb6c0c9dda185699569300", ""),
    "unique --k 2 --g 5 --json": (0, "fa9239f3ee1ac570b97698bc0d87f27c66606107180428f72cdbae3c7cf26bc0", ""),
    "build --N 13": (0, "55e152822656fa2ee654f246f3159f68835a59059201b8fb1129ff403d55ad7e", ""),
    "realize --k 6 --g 3 -o out.cmplx": (0, "e643ad19504696b51b08071fef728faaf4a5d2066a116ba3cfdae5b2f1b6ee63", ""),
    "realize --k 4 --g 3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: infeasible: k=4 does not divide 6(g-2)=6\n"),
    "verify X7": (0, "6ed6823f56ecf346273ffb9452cc0ff688605da9baaa93ae77c2d10644980234", ""),
    "verify torus.cmplx": (2, "618d79e7ef2893d7f91d264ab88e8b0b791fe4447b7cac9e3d546e2fa22c4977", ""),
    "verify torus.cmplx --json": (2, "fa349ec3551b45d2cf435213b1168f0b14889433f1b83c40fbeeb50d62676a3d", ""),
    "verify nope.cmplx": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: [Errno 2] No such file or directory: 'nope.cmplx'\n"),
    "graft X8 --variant EG1": (0, "6c6c477e58bb0bd6ab1bee3d0fd24d321094c61beb1637630e2d25a316df8812", ""),
    "graft X8 --variant EG1 --site 99": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: site index 99 out of range (0..7)\n"),
    "graft X12 --variant EG3": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: the complex has no EG3 site\n"),
    "double-cover X9 --output -": (0, "12dfe5ce72186a3f99dfe758ea8f94a6740966018ddff2013aca4242c7aad521", ""),
    "cyclic-cover X12 --n 2": (0, "b84da7ff9494faba63ba796a7358512230cf425012412d6a726797fec78a2f84", ""),
    "cyclic-cover X12 --n 2 --voltages 1 0 1 0 1 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: net voltage 1 != 0 (mod 2) around the vertex cycle at corner (0, 2)\n"),
    "enumerate --p 2 --q 3 --r 7 --index 28 --max-count 0": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: need max_count >= 1, got 0\n"),
    "to-group X12 -o x12-out.json": (0, "cc78c419b03f9dde37ff9ee983a745d1d62d46ea2a88cdfa0c7f144ce70b08ac", ""),
    "from-group x12.json": (0, "9bb8b364b971f1bb8d4c1fa3360ca15b5676be5f4ba11d4bbc84da2e9e429dc1", ""),
    "render X7": (0, "15591605535fdd5543d616a470b030a52a45282b30f537728e303a679c2f4255", ""),
    "catalog": (0, "e7e0ae78ae11b2f24c8abe3cf2a54d5bf9207faaf1c1e8321057b95885db84ad", ""),
}


def _pinned_outcome(monkeypatch, capsys, tmp_path, argv):
    """main's exit code, the sha256 of what it wrote and its stderr, with
    COLUMNS=80, stdin at /dev/null and two input files in the working
    directory.  The digest covers stdout, then each file the run created,
    by name."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "torus.cmplx").write_text("polygon 1 2 1 2\n")
    (tmp_path / "x12.json").write_text(json.dumps(_x12_record()))
    inputs = set(os.listdir(tmp_path))
    with open(os.devnull, encoding="utf-8") as null:
        monkeypatch.setattr(sys, "stdin", null)
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:
            code = stop.code
    out, err = capsys.readouterr()
    digest = hashlib.sha256(out.encode())
    for name in sorted(set(os.listdir(tmp_path)) - inputs):
        digest.update(name.encode() + b"\0" + (tmp_path / name).read_bytes())
    return code, digest.hexdigest(), err


@pytest.mark.parametrize("argv", PIN_CASES, ids=[" ".join(argv) or "(none)" for argv in PIN_CASES])
def test_cli_output_is_pinned(monkeypatch, capsys, tmp_path, argv):
    # every usage line, help text, message, exit code and output byte, as
    # computed before the commands were declared in one table
    assert _pinned_outcome(monkeypatch, capsys, tmp_path, argv) == CLI_PINS[" ".join(argv)]


def _full_parse(capsys, argv):
    """vars() of build_parser's namespace for argv, or None where it exits."""
    try:
        return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return None
    finally:
        capsys.readouterr()


def _units(argv):
    """The words of argv after the command: each option with its values, and
    each other word alone."""
    arity = {"-o": 1, "--output": 1}
    for flag, kwargs in cli._COMMANDS[argv[0]][2]:
        arity[flag] = 0 if "action" in kwargs else -1 if "nargs" in kwargs else 1
    units, owed = [], 0
    for word in argv[1:]:
        if owed and not word.startswith("-"):
            units[-1].append(word)
            owed -= 1  # below zero for nargs="*": it takes every word up to an option
        else:
            units.append([word])
            owed = arity.get(word, 0)
    return units


def _deferred_variants(argv):
    """Forms of the valid argv that _fast must leave to argparse."""
    command, units = argv[0], _units(argv)
    declared = dict(cli._COMMANDS[command][2])
    join = lambda units: [command] + [word for unit in units for word in unit]
    options = [i for i, unit in enumerate(units) if unit[0].startswith("-")]
    for i in options:
        unit = units[i]
        yield join(units + [unit])  # repeated
        if len(unit[0]) > 4:
            yield join(units[:i] + [[unit[0][:-1]] + unit[1:]] + units[i + 1:])  # a prefix
        if len(unit) == 2:
            yield join(units[:i] + [["%s=%s" % tuple(unit)]] + units[i + 1:])
            if unit[1].isdigit():
                yield join(units[:i] + [[unit[0], "-" + unit[1]]] + units[i + 1:])
            if "choices" in declared.get(unit[0], {}):
                yield join(units[:i] + [[unit[0], unit[1] + "x"]] + units[i + 1:])
        if declared.get(unit[0], {}).get("required"):
            yield join(units[:i] + units[i + 1:])  # a missing required option
    if "record" in declared:
        yield join([unit for unit in units if unit[0].startswith("-")])  # no record
    if not any(unit[0] in ("-o", "--output") for unit in units):
        yield join(units + [["-o", "-"]])
    if "--voltages" in declared:
        yield join(units + [["--voltages", "1", "-1", "2"]])
    yield join(units + [["--"]])
    yield join([["--"]] + units)
    yield join(units + [["-h"]])
    yield join([["-h"]] + units)
    yield join(units + [["extra"], ["extra"]])  # at least one word too many


#: argvs _fast parses: every option kind of cyclic-cover, and the forms
#: bench/run.py issues
CANONICAL = [
    ["cyclic-cover", "X12", "--n", "2", "--voltages", "1", "0", "1", "0", "1", "0"],
    ["cyclic-cover", "--voltages", "--n", "2", "X12"],
    ["realize", "--k", "24", "--g", "10", "-o", "r0_canon.cmplx"],
    ["verify", "r0_canon.cmplx"],
    ["render", "r0_canon.cmplx", "-o", "r0_canon.svg"],
    ["build", "--N", "43", "-o", "r0_graft.cmplx"],
    ["enumerate", "--p", "2", "--q", "3", "--r", "12", "--index", "24"],
    ["enumerate", "--p", "2", "--q", "3", "--r", "7", "--index", "84", "--torsion-free", "--proper"],
    ["to-group", "X9", "-o", "r0_X9.json"],
    ["from-group", "r0_X9.json"],
    ["bound", "--k", "1", "--g", "3"],
]


@pytest.mark.parametrize("argv", PIN_CASES + CANONICAL,
                         ids=[" ".join(argv) or "(none)" for argv in PIN_CASES + CANONICAL])
def test_fast_parses_like_the_full_parser_or_defers(capsys, argv):
    # _fast gives build_parser's namespace or None, on the pinned argvs, on
    # their options in other orders and on forms only argparse reads
    fast = cli._fast(argv)
    assert fast is None or vars(fast) == _full_parse(capsys, argv)
    if argv in CANONICAL:
        assert fast is not None
    if _full_parse(capsys, argv) is None:
        return
    units = _units(argv)
    for seed in range(3):
        random.Random(seed).shuffle(units)
        shuffled = [argv[0]] + [word for unit in units for word in unit]
        fast = cli._fast(shuffled)
        assert fast is None or vars(fast) == _full_parse(capsys, shuffled), shuffled
    for variant in _deferred_variants(argv):
        assert cli._fast(variant) is None, variant


#: valid argvs that _fast leaves to argparse: '--opt=value', a prefix, a
#: repeat, '-' for stdout or stdin, '--', and negative values
DEFERRED_VALID = [
    ["bound", "--k=1", "--g", "3"],
    ["bound", "--k", "1", "--g", "3", "--js"],
    ["bound", "--k", "4", "--g", "3", "--k", "1"],
    ["feasible", "--k", "-4", "--g", "4"],
    ["enumerate", "--p", "2", "--q", "3", "--r", "7", "--inde", "84", "--torsion-free", "--proper"],
    ["realize", "--k", "24", "--g", "10", "-o", "-"],
    ["to-group", "X9", "--output=r0_X9.json"],
    ["verify", "-"],
    ["verify", "--", "X7"],
    ["graft", "X8", "--variant", "EG1", "--site", "-1"],
    ["cyclic-cover", "X12", "--n", "2", "--voltages", "1", "-1", "0", "1", "0", "1"],
    ["catalog", "--json", "--json"],
]


@pytest.mark.parametrize("argv", DEFERRED_VALID, ids=[" ".join(argv) for argv in DEFERRED_VALID])
def test_main_parses_a_deferred_line_like_the_full_parser(monkeypatch, capsys, argv):
    # argparse accepts what _fast defers, and main runs the command on the
    # full parser's namespace and writes once, to -o or stdout
    want = _full_parse(capsys, argv)
    assert cli._fast(argv) is None and want is not None
    parsed, written = _stub_handlers(monkeypatch)
    assert cli.main(argv) == 0
    assert (parsed, written) == ([want], [want["output"]])
    assert capsys.readouterr().err == ""


def test_the_equivalence_covers_every_pinned_argv():
    assert sorted(" ".join(argv) for argv in PIN_CASES) == sorted(CLI_PINS)


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


def test_json_chunks_write_records_as_their_json_dicts():
    recs = tg.low_index_subgroups(2, 3, 7, 28, max_count=3)
    rep = cx.verify_extremal(catalog.load_entry("X7").complex)
    payload = {"records": recs, "report": rep, "none": [], "nested": [[recs[0]], {"r": rep}]}
    as_dicts = {
        "records": [r.to_json_dict() for r in recs],
        "report": rep.to_json_dict(),
        "none": [],
        "nested": [[recs[0].to_json_dict()], {"r": rep.to_json_dict()}],
    }
    assert "".join(cli._json_chunks(payload)) == "".join(cli._json_chunks(as_dicts))
    assert "".join(cli._json_chunks(rep)) == json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n"


def test_handlers_hand_on_the_library_records():
    # the payload holds the records; the encoder asks each for its dict
    parser = cli.build_parser()
    args = parser.parse_args(["enumerate", "--p", "2", "--q", "3", "--r", "7", "--index", "28"])
    code, payload, text = _commands._enumerate(args)
    assert (code, text) == (0, None)
    assert payload == {"format_version": 1, "count": 13, "records": tg.low_index_subgroups(2, 3, 7, 28)}
    assert all(isinstance(r, tg.SubgroupRecord) for r in payload["records"])
    x12 = catalog.load_entry("X12").complex
    assert _commands._verify(parser.parse_args(["verify", "X12"]))[1] == cx.verify_extremal(x12)
    assert _commands._to_group(parser.parse_args(["to-group", "X12"]))[1] == tg.complex_to_subgroup(x12)


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
        # too deep for the JSON decoder's stack: malformed, not internal
        (lambda d: "[" * 100000 + "]" * 100000, "subgroup record is not JSON: maximum recursion depth"),
        (lambda d: dict(d, triangle=[2, 3, 7]),
         "rotation r2 r0 has a cycle of length 12, which does not divide 7"),
    ],
    ids=["out-of-range", "non-permutation", "non-involution", "two-generators",
         "missing-key", "disconnected", "non-json", "deep-nesting", "wrong-triangle"],
)
def test_malformed_record_is_a_domain_error(tmp_path, capsys, change, message):
    doc = change(_x12_record())
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, "from-group", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["dual", "--g", "2"], ["bound", "--k", "1", "--g", "2"]])
def test_the_genus_rule_reads_the_same_from_every_command(capsys, argv):
    # feasibility._check_domain owns the rule; dual and bound both call it
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: need non-orientable genus g >= 3, got g=2\n"


@pytest.mark.parametrize("r, index", [("5", "60"), ("6", "24")])
def test_from_group_below_seven_is_a_domain_error(tmp_path, capsys, r, index):
    # the first torsion-free proper record of (2, 3, 5) and (2, 3, 6) has
    # no extremal quotient: a domain error, not an internal one
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--q", "3", "--r", r, "--index", index,
                       "--torsion-free", "--proper")
    assert code == 0
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(json.loads(out)["records"][0]))
    code, out, err = run(capsys, "from-group", str(path))
    assert (code, out) == (2, "")
    assert err == "error: complex reconstruction needs N >= 7, got N = %s\n" % r


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


@pytest.mark.parametrize(
    "argv", [["--n", "1"], ["--n", "2"], ["--n", "1", "--voltages", "0", "0"]],
    ids=["search-1", "search-2", "explicit-1"],
)
def test_cyclic_cover_of_a_klein_bottle(tmp_path, capsys, argv):
    # the base is certified first at every degree, degree 1 included
    path = tmp_path / "kb.cmplx"
    path.write_text("polygon 1 2 -1 2\n")
    code, out, err = run(capsys, "cyclic-cover", str(path), *argv)
    assert code == 2 and out == ""
    assert err == (
        "error: base complex is not extremal:"
        " ('CellTooSmall(N=4)', 'NotTrivalent(length=4, corner=(0, 0))')\n"
    )


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
    # pruned search (32 by the unpruned one, whose output the digest is);
    # the 7309 nodes and 11642 room skips make the 18951 nodes the search
    # tried before the room test
    argv = ["enumerate", "--p", "2", "--q", "3", "--r", "12", "--index", "48", "--torsion-free", "--proper"]
    with caplog.at_level(logging.DEBUG, logger="extpack.trigroup"):
        code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == "bbdc3e8e575316ab4ba4e3886d92e3f8cdcddb73c247d5ad7419c1869ef7c3b0"
    (line,) = [rec.getMessage() for rec in caplog.records if rec.name == "extpack.trigroup"]
    assert line.endswith(": 7309 nodes, 919 canonicity prunes, 619 complete tables, 283 records, 11642 room skips")


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


#: every error family main maps: the error a handler raises, the exit code
#: and the one stderr line
ERROR_FAMILIES = [
    (ValueError("need k >= 1, got k=0"), 2, "error: need k >= 1, got k=0"),
    (OSError("[Errno 28] No space left on device"), 2, "error: [Errno 28] No space left on device"),
    (UnknownCatalogEntryError("unknown catalog entry 'X99'"), 2, "error: unknown catalog entry 'X99'"),
    (EnumerationCapError("node cap 10 reached"), 3, "resource limit: node cap 10 reached"),
    # raised by the handler itself: no test allocates for real
    (MemoryError(), 3, "resource limit: out of memory"),
    (RuntimeError("no seed"), 4, "internal error: no seed"),
    (RecursionError("maximum recursion depth exceeded"), 4,
     "internal error: maximum recursion depth exceeded"),
    (ArithmeticError("residual"), 4, "internal error: residual"),
    # a LookupError, like the KeyError of test_internal_errors_exit_4
    (IndexError("tuple index out of range"), 4, "internal error: tuple index out of range"),
]


@pytest.mark.parametrize("error,code,line", ERROR_FAMILIES,
                         ids=[type(error).__name__ for error, _, _ in ERROR_FAMILIES])
def test_every_error_family_maps_to_its_exit_code(monkeypatch, capsys, error, code, line):
    # each family main maps is one line on stderr with its prefix, no
    # traceback and no output
    help_text, _, arguments = _commands._COMMANDS["catalog"]

    def fail(args):
        raise error

    monkeypatch.setitem(_commands._COMMANDS, "catalog", (help_text, fail, arguments))
    result, out, err = run(capsys, "catalog")
    assert (result, out) == (code, "")
    assert err == line + "\n" and "Traceback" not in err


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


#: each form bench/run.py issues, in chains whose later lines read what the
#: earlier ones wrote, and one domain error
PROGRAM_CHAINS = {
    "realize-verify-render": [
        ["realize", "--k", "24", "--g", "10", "-o", "r.cmplx"],
        ["verify", "r.cmplx"],
        ["render", "r.cmplx", "-o", "r.svg"],
    ],
    "build": [["build", "--N", "41", "-o", "b.cmplx"]],
    "group-round-trip": [["to-group", "X9", "-o", "X9.json"], ["from-group", "X9.json"]],
    # 404 KB of buffered stdout
    "enumerate": [["enumerate", "--p", "2", "--q", "3", "--r", "12", "--index", "24"]],
    "domain-error": [["realize", "--k", "4", "--g", "3"]],
}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _program(argv, cwd):
    """extpack run as the process's own command, so that main reads sys.argv,
    with stdout block-buffered as it is by default on a pipe or a file."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return subprocess.Popen([sys.executable, "-m", "extpack.cli", *argv], cwd=cwd,
                            env=dict(env, PYTHONPATH=SRC), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("chain", PROGRAM_CHAINS.values(), ids=list(PROGRAM_CHAINS))
def test_the_program_writes_what_main_returns_in_process(monkeypatch, capsys, tmp_path, chain):
    # main(None), as the extpack script and python -m extpack.cli call it,
    # writes the same bytes and exits with the same code as main(argv)
    here, there = tmp_path / "in-process", tmp_path / "program"
    here.mkdir()
    there.mkdir()
    monkeypatch.chdir(here)
    for argv in chain:
        code, out, err = run(capsys, *argv)
        proc = _program(argv, there)
        got_out, got_err = proc.communicate()
        assert (proc.returncode, got_out, got_err) == (code, out.encode(), err.encode()), argv
    written = sorted(os.listdir(here))
    assert sorted(os.listdir(there)) == written
    for name in written:
        assert (there / name).read_bytes() == (here / name).read_bytes(), name


def test_the_program_reports_a_closed_stdout_pipe():
    # the reader of a 404 KB payload goes after 10 bytes: the next write
    # fails, and the program exits 2 with one line and no traceback
    proc = _program(PROGRAM_CHAINS["enumerate"][0], None)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (2, b"error: [Errno 32] Broken pipe\n")
