import hashlib
import importlib
import json

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
