import logging
import pathlib
import re
import types

import pytest

from extpack import catalog, cli
from extpack import complexes as cx


def test_load_all_certifies():
    entries = catalog.load_all()
    assert set(entries) == set(catalog.EXPECTED)
    for e in entries.values():
        rep = cx.verify_extremal(e.complex)
        assert rep.ok and (rep.k, rep.g, rep.n) == (e.k, e.g, e.n)
        assert e.provenance


def test_derivation_matches_shipped_files(tmp_path):
    # the shipped files must be exactly what the constructions regenerate
    catalog.write_catalog(tmp_path)
    shipped = pathlib.Path(catalog.__file__).parent / "catalog"
    for name in catalog.EXPECTED:
        derived = (tmp_path / ("%s.cmplx" % name)).read_bytes()
        assert derived == (shipped / ("%s.cmplx" % name)).read_bytes(), name



@pytest.mark.parametrize(
    "name, search, records",
    [
        # X7 is the first index-84 class whose canonical form takes step 1
        # of its own graft schedule: the 5th
        ("X7", (2, 3, 7, 84), 5),
        ("X8", (2, 3, 8, 48), 1),
        ("X9", (2, 3, 9, 36), 1),
        ("X12", (2, 3, 12, 24), 1),
        ("D18", (3, 3, 9, 18), 1),
        ("D14", (3, 3, 7, 42), 1),
    ],
)
def test_derive_reads_the_search_up_to_its_pick(caplog, name, search, records):
    with caplog.at_level(logging.DEBUG, logger="extpack.trigroup"):
        catalog.derive(name)
    (line,) = [rec.getMessage() for rec in caplog.records if rec.name == "extpack.trigroup"]
    assert line.startswith("low_index_subgroups(%d, %d, %d) at index %d: " % search), line
    found = re.search(r" (\d+) complete tables, (\d+) records,", line)
    assert found and int(found.group(2)) == records, line
    if name == "X7":
        assert int(found.group(1)) == 5, line

def test_shipped_files_are_fixed_points():
    # a shipped file is already in the form serialize writes
    files = sorted((pathlib.Path(catalog.__file__).parent / "catalog").glob("*.cmplx"))
    assert [f.stem for f in files] == sorted(catalog.EXPECTED)
    for f in files:
        text = f.read_text(encoding="utf-8")
        assert cx.serialize(cx.parse(text)) == text, f.name


def test_dual_fixtures():
    d18 = catalog.load_entry("D18")
    assert (d18.k, d18.g, d18.n) == (1, 4, 18)
    d14 = catalog.load_entry("D14")
    assert (d14.k, d14.g, d14.n) == (3, 6, 14)


def test_a_missing_file_is_not_derived(monkeypatch, tmp_path, capsys):
    (tmp_path / "catalog").mkdir()
    # the package's files are an empty catalog directory
    files = types.SimpleNamespace(files=lambda package: tmp_path)
    monkeypatch.setattr(catalog, "resources", files)

    def derive(name):
        raise AssertionError("derive called for %s" % name)

    monkeypatch.setattr(catalog, "derive", derive)
    with pytest.raises(FileNotFoundError):
        catalog.load_entry("X7")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "X7"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.rstrip().endswith("X7.cmplx'")
