"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime and asserting the stated tolerances and budgets."""

import collections
import functools
import math
import time
from fractions import Fraction

import mpmath
import pytest

from conftest import polygon_area
from extpack import catalog
from extpack import complexes as cx
from extpack import covers, feasibility, geometry, grafting, trigroup
from extpack.errors import IneligibleSiteError, InfeasibleSpecError


def _report(num, detail, elapsed, budget):
    ok = elapsed < budget
    print("PASS criterion %d: %s (%.2fs < %ds)" % (num, detail, elapsed, budget))
    assert ok, "criterion %d exceeded its %ds budget: %.2fs" % (num, budget, elapsed)


def test_criterion_01_radius_bound_table():
    start = time.time()
    cases = [(6, 3, 7), (3, 3, 8), (2, 3, 9), (1, 3, 12)]
    with mpmath.workdps(60):
        for k, g, n in cases:
            got = feasibility.packing_radius_bound(k, g)
            oracle = mpmath.mpf(1) / (2 * mpmath.sin(mpmath.pi / n))
            assert abs(got.cosh_r - float(oracle)) < 1e-12, (k, g)
            assert got.sides == n
    _report(1, "cosh R matches 50-digit oracle for 4 pairs", time.time() - start, 1)


def test_criterion_02_catalog_certification():
    start = time.time()
    expected = {"X7": (6, 3), "X8": (3, 3), "X9": (2, 3), "X12": (1, 3)}
    for name, (k, g) in expected.items():
        entry = catalog.load_entry(name)
        rep = cx.verify_extremal(entry.complex)
        assert rep.ok and (rep.k, rep.g) == (k, g), name
        assert rep.k * rep.n == 6 * rep.g + 6 * rep.k - 12
    _report(2, "X7 X8 X9 X12 certify with their (k, g)", time.time() - start, 1)


def test_criterion_03_grafting_schedules():
    start = time.time()
    for n in range(7, 32):
        c = grafting.build_primitive(n)
        rep = cx.verify_extremal(c)
        assert rep.ok and rep.n == n
        assert (rep.k, rep.g) == feasibility.primitive_pair(n), n
    for cls, chain in grafting._chains.items():
        genera = [cx.surface_invariants(x).genus for x in chain]
        assert all(b - a == 1 for a, b in zip(genera, genera[1:])), cls
    _report(3, "build_primitive(7..31) certified, genus +1 per graft", time.time() - start, 10)


def test_criterion_04_existence_grid():
    start = time.time()
    built = 0
    for g in range(3, 13):
        for k in range(1, 6 * (g - 2) + 2):
            if feasibility.is_feasible(k, g):
                rep = cx.verify_extremal(covers.realize_spec(k, g))
                assert rep.ok and (rep.k, rep.g) == (k, g)
                built += 1
            else:
                with pytest.raises(InfeasibleSpecError):
                    covers.realize_spec(k, g)
    _report(4, "existence grid g<=12: %d feasible cases realized" % built, time.time() - start, 120)


def _all_built_complexes():
    out = [catalog.load_entry(n).complex for n in ("X7", "X8", "X9", "X12")]
    for n in range(7, 32):
        out.append(grafting.build_primitive(n))
    for g in range(3, 13):
        for k in range(1, 6 * (g - 2) + 1):
            if feasibility.is_feasible(k, g):
                out.append(covers.realize_spec(k, g))
    return out


def test_criterion_05_double_covers():
    start = time.time()
    checked = 0
    for c in _all_built_complexes():
        rep = cx.verify_extremal(c)
        dc = covers.orientation_double_cover(c)
        inv = cx.surface_invariants(dc)
        assert inv.orientable and inv.genus == rep.g - 1
        assert dc.num_polygons == 2 * rep.k and set(dc.sizes) == {rep.n}
        sizes = cx.vertex_class_sizes(dc)
        assert sizes[0] == 3 and sizes[-1] == 3
        k2, g2 = 2 * rep.k, rep.g - 1
        assert rep.n * k2 == 12 * g2 + 6 * k2 - 12
        plus = trigroup.canonical_fuchsian(trigroup.complex_to_subgroup(c))
        assert plus.quotient_orientable
        assert plus.genus == inv.genus
        assert plus.index // (2 * rep.n) == dc.num_polygons
        checked += 1
    _report(5, "double covers + canonical Fuchsian agree on %d complexes" % checked,
            time.time() - start, 60)


def test_the_double_cover_is_the_canonical_fuchsian_half():
    # criterion 5 compares genus and index; this compares the records: the
    # orientation double cover's flag action, classified, is K+ itself
    cases = [entry.complex for entry in catalog.load_all().values()]
    cases += [covers.realize_spec(k, g) for g in range(3, 9) for k in range(1, 6 * (g - 2) + 1)
              if feasibility.is_feasible(k, g)]
    assert len(cases) == 50
    for c in cases:
        plus = trigroup.canonical_fuchsian(trigroup.complex_to_subgroup(c))
        cover = cx.flag_action(covers.orientation_double_cover(c))
        assert plus == trigroup.classify(trigroup.standardize(cover), 2, 3, cx.verify_extremal(c).n), c


def test_criterion_06_group_theoretic_route():
    start = time.time()
    for (p, q, r), index in [((2, 3, 12), 24), ((2, 3, 7), 84)]:
        recs = trigroup.low_index_subgroups(
            p, q, r, index, torsion_free=True, proper=True, max_count=1
        )
        assert recs, (p, q, r)
        rec = recs[0]
        assert rec.genus == 3 and rec.proper and rec.torsion_free
        rep = cx.verify_extremal(trigroup.subgroup_to_complex(rec))
        assert rep.ok and rep.g == 3 and rep.n == r
    x7 = catalog.load_entry("X7").complex
    assert trigroup.complex_to_subgroup(x7).index == 84
    _report(6, "surface records at index 24 and 84; X7 record has index 84",
            time.time() - start, 300)


@functools.lru_cache(maxsize=None)
def census(k, g):
    """The extremal k-packings of genus g: the proper torsion-free classes
    at index 2kN in ext(2,3,N), each record's complex by its class key
    least_code(flag_action(c)), which no two classes share."""
    n = feasibility._cell_size(k, g)
    out = {}
    for rec in trigroup.iter_low_index_subgroups(2, 3, n, 2 * k * n, torsion_free=True, proper=True):
        c = trigroup.subgroup_to_complex(rec)
        key = cx.least_code(cx.flag_action(c))
        assert key not in out, (k, g, rec)
        out[key] = c
    return out


#: (k, g): the census's class count and its histogram of |Aut|
CENSUS_PINS = {
    (1, 3): (11, {1: 1, 2: 8, 6: 2}),
    (2, 3): (4, {1: 1, 2: 3}),
    (3, 3): (23, {1: 1, 2: 14, 4: 3, 6: 4, 8: 1}),
    (6, 3): (12, {1: 2, 2: 8, 6: 2}),
    (1, 4): (144, {1: 73, 2: 59, 4: 8, 6: 2, 12: 2}),
    (2, 4): (283, {1: 118, 2: 109, 4: 52, 8: 4}),
    (3, 4): (260, {1: 120, 2: 106, 3: 6, 4: 23, 6: 4, 12: 1}),
    (4, 4): (428, {1: 227, 2: 152, 3: 1, 4: 41, 6: 3, 8: 3, 24: 1}),
}


def test_census_classes_and_automorphisms():
    for (k, g), (count, histogram) in CENSUS_PINS.items():
        auts = collections.Counter(len(cx.automorphisms(c)) for c in census(k, g).values())
        assert (len(census(k, g)), dict(auts)) == (count, histogram), (k, g)
    # k = 1: a class with automorphism group A comes from 2N/|A| of the
    # gluings of one labelled N-gon; 128 is the count criterion 10 certifies
    for g, mass in ((3, 128), (4, 3780)):
        n = feasibility._cell_size(1, g)
        assert sum(Fraction(2 * n, len(cx.automorphisms(c))) for c in census(1, g).values()) == mass, g


def reached(outputs, k, g):
    """How many outputs there are and how many classes of the (k, g)
    census they reach; each must certify as (k, g) before it is looked up,
    and land in the census."""
    keys = []
    for c in outputs:
        rep = cx.verify_extremal(c)
        assert rep.ok and (rep.k, rep.g) == (k, g), c
        keys.append(cx.least_code(cx.flag_action(c)))
        assert keys[-1] in census(k, g), c
    return len(keys), len(set(keys))


def all_grafts(c):
    """Every apply_graft of c, at every site of every variant; a site that
    takes no graft is skipped."""
    for variant in grafting.GraftVariant:
        for site in grafting.eligible_sites(c, variant):
            try:
                yield grafting.apply_graft(c, site)
            except IneligibleSiteError:
                continue


def uniform_grafts(k, g):
    """Every uniform graft of every class of the (k, g) census."""
    return (out for c in census(k, g).values() for out in all_grafts(c) if len(set(out.sizes)) == 1)


def uniform_graft_pairs(k, g):
    """Every uniform second graft of every first graft of every class of
    the (k, g) census: for k = 2 no single graft is uniform."""
    return (out for c in census(k, g).values() for mid in all_grafts(c) for out in all_grafts(mid)
            if len(set(out.sizes)) == 1)


def double_covers(k, g):
    return (covers.find_nonorientable_cyclic_cover(c, 2) for c in census(k, g).values())


def test_constructions_land_in_the_census():
    # a graft adds one to the genus, and a double cover doubles k and takes
    # g to 2g - 2, so each output is a class of a census one step up:
    # (outputs, target (k, g), its classes, outputs made, classes reached)
    for outputs, (k, g), classes, made, hits in (
        (uniform_grafts(1, 3), (1, 4), 144, 88, 27),
        (uniform_grafts(3, 3), (3, 4), 260, 288, 36),
        (double_covers(1, 3), (2, 4), 283, 11, 11),
        (double_covers(2, 3), (4, 4), 428, 4, 3),
    ):
        assert len(census(k, g)) == classes
        assert reached(outputs, k, g) == (made, hits), (k, g)


def test_graft_pairs_land_in_the_census():
    # the k = 2 row: two grafts add two to the genus, so each uniform pair
    # from the 4 classes of (2, 3) is a class of the (2, 5) census
    assert len(census(2, 5)) == 4062
    assert reached(uniform_graft_pairs(2, 3), 2, 5) == (512, 10)


def test_criterion_07_dual_extremality():
    start = time.time()
    for (p, q, r), index, genus in [((3, 3, 9), 18, 4), ((3, 3, 7), 42, 6)]:
        recs = trigroup.low_index_subgroups(
            p, q, r, index, torsion_free=True, proper=True, max_count=1
        )
        assert recs and recs[0].genus == genus

    def mu(p, q, r):
        return 1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, r)

    # area ratios: a surface k2-extremal for k2 = 2g-4 (resp. 6g-12) sits at
    # index 2*k2*9 (resp. 2*k2*7) in the (2,3,.) group; a (3,3,.) triangle
    # has 4 (resp. 8) times the area of a (2,3,.) one, so the same area is
    # index (g-2)*9 in (3,3,9), resp. (3g-6)*7/2 in (3,3,7). Only the areas
    # agree: ext(3,3,7) does not lie in ext(2,3,7)
    assert mu(3, 3, 9) / mu(2, 3, 9) == 4
    assert mu(3, 3, 7) / mu(2, 3, 7) == 8
    g = 4
    assert Fraction(2 * (2 * g - 4) * 9, 4) == (g - 2) * 9 == 18
    g = 6
    assert Fraction(2 * (6 * g - 12) * 7, 8) == Fraction((3 * g - 6) * 7, 2) == 42
    _report(7, "surface records at 18 in (3,3,9) and 42 in (3,3,7); area ratios 4 and 8",
            time.time() - start, 600)


def test_criterion_08_uniqueness_predicate():
    start = time.time()
    arithmetic = {7, 8, 9, 10, 11, 12, 14, 16, 18, 24, 30}
    for g in range(3, 41):
        for k in range(1, 6 * (g - 2) + 1):
            if not feasibility.is_feasible(k, g):
                continue
            n = 6 + 6 * (g - 2) // k
            got = feasibility.uniqueness_class(k, g)
            want = (
                feasibility.Uniqueness.POSSIBLY_MULTIPLE
                if n in arithmetic
                else feasibility.Uniqueness.UNIQUE
            )
            assert got is want, (k, g, n)
    for g in range(3, 41):
        unique = feasibility.uniqueness_class(1, g) is feasibility.Uniqueness.UNIQUE
        assert unique == (g > 6), g
    _report(8, "uniqueness classes over g<=40; k=1 unique exactly for g>6",
            time.time() - start, 5)


def test_criterion_09_numeric_layer():
    start = time.time()
    for name in ("X7", "X12"):
        layout = geometry.realize(catalog.load_entry(name).complex)
        rep = geometry.holonomy_check(layout)
        assert rep.max_displacement < 1e-9, name
        assert rep.max_angle_error < 1e-10, name
    for n in range(7, 31):
        assert geometry.boroczky_equality_check(n) < 1e-12, n
        geo = geometry.regular_ngon(n)
        assert abs(polygon_area(geo) - math.pi * (n - 6) / 3) < 1e-9, n
    _report(9, "layout residuals, density equality and cell areas in tolerance",
            time.time() - start, 5)


def test_every_census_class_realizes_exactly():
    # criterion 9's tolerances on every class of the pinned censuses, not
    # only on the catalog: each lays out with holonomy the identity, and
    # its drawing has one label per side occurrence
    worst = [0.0, 0.0]
    classes = 0
    for k, g in CENSUS_PINS:
        for c in census(k, g).values():
            layout = geometry.realize(c)
            rep = geometry.holonomy_check(layout)
            assert rep.max_displacement < 1e-9 and rep.max_angle_error < 1e-10, (k, g, c)
            worst = [max(worst[0], rep.max_displacement), max(worst[1], rep.max_angle_error)]
            svg = geometry.render_svg(layout)
            assert svg.endswith("</svg>\n") and svg.count('<text class="label"') == sum(c.sizes), (k, g, c)
            classes += 1
    assert classes == sum(count for count, _ in CENSUS_PINS.values()) == 1165
    print("census layouts: %d classes, worst displacement %.3g, worst angle error %.3g"
          % (classes, *worst))


def all_single_polygon_gluings(n: int):
    """Yield every complex made of one n-gon: all side matchings and signs.

    There are (n-1)!! * 2^(n/2) of them; n must be even.  Deterministic
    order: matchings by smallest-unmatched-first recursion, then sign masks.
    """
    if n < 2 or n % 2:
        raise ValueError("need an even polygon size, got %r" % (n,))

    def matchings(free: tuple[int, ...]):
        if not free:
            yield ()
            return
        a = free[0]
        rest = free[1:]
        for t, b in enumerate(rest):
            sub = rest[:t] + rest[t + 1:]
            for m in matchings(sub):
                yield ((a, b),) + m

    positions = tuple(range(n))
    for match in matchings(positions):
        for mask in range(1 << (n // 2)):
            word = [0] * n
            for lab, (a, b) in enumerate(match, start=1):
                word[a] = lab
                word[b] = lab if not (mask >> (lab - 1)) & 1 else -lab
            yield cx.PolygonComplex((tuple(word),))


def test_criterion_10_exhaustive_small_oracle():
    start = time.time()
    total = 0
    hits = 0
    for c in all_single_polygon_gluings(12):
        total += 1
        if cx.vertex_class_sizes(c, cap=3) is None:
            continue  # some vertex cycle exceeds length 3: cannot certify
        rep = cx.verify_extremal(c)
        if not rep.ok:
            continue
        hits += 1
        inv = cx.surface_invariants(c)
        assert (inv.vertices, inv.edges, inv.faces) == (4, 6, 1)
        assert inv.euler_characteristic == -1
        assert (rep.k, rep.g, rep.n) == (1, 3, 12)
    assert total == 10395 * 64
    assert hits >= 1
    _report(10, "12-gon exhaustion: %d gluings, %d certified" % (total, hits),
            time.time() - start, 120)


def test_single_polygon_gluing_count():
    assert sum(1 for _ in all_single_polygon_gluings(6)) == 15 * 2**3
    with pytest.raises(ValueError):
        next(all_single_polygon_gluings(5))


def test_criterion_11_classical_fixtures():
    start = time.time()
    cases = [
        ((1, 1), 2, True),
        ((1, -1), 1, False),
        ((1, 2, 1, 2), 0, True),
        ((1, 2, -1, 2), 0, False),
    ]
    for word, chi, orientable in cases:
        inv = cx.surface_invariants(cx.PolygonComplex((word,)))
        assert inv.euler_characteristic == chi and inv.orientable == orientable
    _report(11, "sphere/projective-plane bigons, torus and Klein squares",
            time.time() - start, 5)
