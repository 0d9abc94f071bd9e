import pathlib

from extpack import catalog
from extpack import complexes as cx


def test_load_all_certifies():
    entries = catalog.load_all()
    assert set(entries) == set(catalog.EXPECTED)
    for e in entries.values():
        rep = cx.verify_extremal(e.complex)
        assert rep.ok and (rep.k, rep.g, rep.n) == (e.k, e.g, e.n)
        assert e.provenance


def test_derivation_matches_shipped_files():
    # the shipped files must be exactly what the constructions regenerate
    for name in ("X12", "X9", "X10"):
        derived = catalog.derive(name)
        shipped = catalog.load_entry(name).complex
        assert derived.polygons == shipped.polygons, name


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
