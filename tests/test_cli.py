import json

import pytest

from extpack import catalog, cli
from extpack import complexes as cx
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
    ],
)
def test_internal_errors_exit_4(monkeypatch, capsys, module, name, argv, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(getattr(cli, module), name, fail)
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

    monkeypatch.setattr(cli.catalog, "load_all", load_all)
    code, out, err = run(capsys, "catalog")
    assert code == 2 and out == ""
    assert err == "error: unknown catalog entry 'X99'\n"
