"""The shipped catalog of certified extremal complexes.

The four seeds X7, X8, X9, X12 realize the primitive pairs (6,3), (3,3),
(2,3), (1,3); they are found by the torsion-free proper low-index search
in the matching (2, 3, N) extended triangle group and frozen as data
files.  Each seed is the first class of its search whose canonical form
takes step 1 of its own graft schedule (grafting._step), one rule for
all four: the 5th index-84 class for X7, the 1st for the others.
Derived entries: X10/X11/X15 from the grafting schedules, and D18
(simultaneously 1- and 4-extremal, genus 4) and D14 (genus 6),
obtained from surface subgroups of the (3, 3, 9) and (3, 3, 7) reflection
groups pushed through the index-2 inclusions (3, 3, n) < (2, 3, 2n).
D14 is certified as (k, g, N) = (3, 6, 14).  Its 24-extremal side is an
area count only: 24 heptagons have the area 8*pi of its 3 fourteen-gons,
but ext(3, 3, 7) does not lie in ext(2, 3, 7), and nothing here builds it.

Every entry is read from its shipped data file and re-certified on load;
derive and write_catalog regenerate the files from the constructions.
"""

from __future__ import annotations

from importlib import resources

from . import complexes
from ._record import Record
from .complexes import PolygonComplex
from .errors import IneligibleSiteError, InvariantError, RewriteSearchError, UnknownCatalogEntryError

#: name -> (k, g, N, provenance)
EXPECTED = {
    "X7": (6, 3, 7, "low-index search in (2,3,7) at index 84"),
    "X8": (3, 3, 8, "low-index search in (2,3,8) at index 48"),
    "X9": (2, 3, 9, "low-index search in (2,3,9) at index 36"),
    "X12": (1, 3, 12, "low-index search in (2,3,12) at index 24"),
    "X10": (3, 4, 10, "grafting schedule from X8"),
    "X11": (6, 7, 11, "grafting schedule from X7"),
    "X15": (2, 5, 15, "grafting schedule from X9"),
    "D18": (1, 4, 18, "surface subgroup of (3,3,9) at index 18, pushed into (2,3,18)"),
    "D14": (3, 6, 14, "surface subgroup of (3,3,7) at index 42, pushed into (2,3,14)"),
}

SEED_NAMES = ("X7", "X8", "X9", "X12")


class CatalogEntry(Record):
    name: str
    k: int
    g: int
    n: int
    provenance: str
    complex: PolygonComplex


def _certify(name: str, c: PolygonComplex) -> PolygonComplex:
    k, g, n, _ = EXPECTED[name]
    rep = complexes.verify_extremal(c)
    if not (rep.ok and (rep.k, rep.g, rep.n) == (k, g, n)):
        raise ValueError(
            "catalog entry %s failed certification: got %s expected (%d, %d, %d)"
            % (name, (rep.k, rep.g, rep.n), k, g, n)
        )
    return c


def derive(name: str) -> PolygonComplex:
    """Recompute a catalog complex from scratch (search or grafting).

    A seed is the first class of its torsion-free proper search whose
    canonical form takes step 1 of its own graft schedule (grafting._step);
    the search stops there."""
    if name not in EXPECTED:
        raise UnknownCatalogEntryError("unknown catalog entry %r" % (name,))
    k, g, n, _ = EXPECTED[name]
    from . import grafting, trigroup

    if name in SEED_NAMES:
        stream = trigroup.iter_low_index_subgroups(2, 3, n, 2 * k * n, torsion_free=True, proper=True)
        for c in map(complexes.canonicalize, map(trigroup.subgroup_to_complex, stream)):
            try:
                grafting._step(c, n, 1)
                break
            except (IneligibleSiteError, RewriteSearchError):
                pass
        else:
            raise RuntimeError("no class at index %d takes step 1 of its graft schedule" % (2 * k * n,))
        stream.close()
    elif name.startswith("X"):
        c = complexes.canonicalize(grafting.build_primitive(n))
    else:
        c = complexes.canonicalize(_dual_extremal_complex(k, n))
    return _certify(name, complexes._renamed(c, name))


def _dual_extremal_complex(k: int, two_n: int) -> PolygonComplex:
    """Quotient complex of a surface subgroup of (3, 3, n) inside (2, 3, 2n),
    with k polygons: the subgroup has index 2k * 2n in (2, 3, 2n), as every
    k-polygon complex of cell size 2n does, so k * 2n in (3, 3, n).

    The reflection group of the (pi/3, pi/3, pi/n) triangle sits with index
    two in the (pi/2, pi/3, pi/2n) one: halve the triangle along the mirror
    through its apex.  In the larger group's generators the smaller one is
    <r2, r1, r0 r2 r0>, so a subgroup of index m in (3, 3, n) has index 2m
    in (2, 3, 2n), and its action there is induced from the smaller one
    (trigroup.induced_action).
    """
    from . import trigroup

    n = two_n // 2
    stream = trigroup.iter_low_index_subgroups(3, 3, n, k * two_n, torsion_free=True, proper=True)
    rec = next(stream, None)
    stream.close()
    if rec is None:
        raise RuntimeError("no surface subgroup at index %d in (3,3,%d)" % (k * two_n, n))
    big_rec = trigroup.induced_action(rec)
    if not (big_rec.torsion_free and big_rec.proper and big_rec.genus == rec.genus):
        raise InvariantError(
            "dual-extremal embedding into (2,3,%d) is not a torsion-free proper genus-%d record"
            % (two_n, rec.genus)
        )
    return trigroup.subgroup_to_complex(big_rec)


def load_entry(name: str) -> CatalogEntry:
    """Read one catalog entry from its shipped file, re-certifying it."""
    if name not in EXPECTED:
        raise UnknownCatalogEntryError("unknown catalog entry %r" % (name,))
    path = resources.files(__package__) / "catalog" / ("%s.cmplx" % name)
    c = complexes.parse(path.read_text(encoding="utf-8"))
    k, g, n, prov = EXPECTED[name]
    return CatalogEntry(name, k, g, n, prov, _certify(name, complexes._renamed(c, name)))


def load_all() -> dict[str, CatalogEntry]:
    return {name: load_entry(name) for name in EXPECTED}


def seed_complex(n: int) -> PolygonComplex:
    """The seed complex of cell size n (7, 8, 9 or 12), loaded and
    certified at each call: the graft chain of a seed holds it."""
    if n not in (7, 8, 9, 12):
        raise UnknownCatalogEntryError("no seed with cell size %r" % (n,))
    return load_entry("X%d" % n).complex


def write_catalog(directory) -> None:
    """Regenerate all catalog files under the given directory."""
    import pathlib

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in EXPECTED:
        (directory / ("%s.cmplx" % name)).write_text(
            complexes.serialize(derive(name)), encoding="utf-8"
        )
