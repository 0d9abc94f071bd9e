import ast
import math
import re

import mpmath
import pytest

from conftest import disk_distance, polygon_area, reference_pairings
from extpack import catalog
from extpack import complexes as cx
from extpack import geometry as geom
from extpack.covers import realize_spec
from extpack.grafting import build_primitive
from extpack.errors import InvariantError
from extpack.feasibility import is_feasible, packing_radius_bound


@pytest.mark.parametrize("n", range(7, 122))
def test_exact_reflection_group(n):
    # psi has degree phi(2n)/2 and changes sign within 1e-50 of mpmath's
    # 2 cos(pi/n); the fixed-point lambda agrees to 50 digits
    psi = geom._min_poly(n)
    assert psi[-1] == 1
    assert len(psi) - 1 == sum(1 for j in range(1, 2 * n) if math.gcd(j, 2 * n) == 1) // 2
    with mpmath.workdps(120):
        lam, eps = 2 * mpmath.cos(mpmath.pi / n), mpmath.mpf(10) ** -50
        assert mpmath.polyval(psi[::-1], lam - eps) * mpmath.polyval(psi[::-1], lam + eps) < 0
        assert abs(mpmath.mpf(geom._lambda(n, 200)) / 2**200 - lam) < eps
    group = geom._group(n)
    t0, t1, t2 = group.reflections
    for g, order in ((group.mul(t0, t1), 2), (group.mul(t1, t2), 3), (group.mul(t2, t0), n)):
        assert group.product([g] * order) == group.identity
        assert group.product([g] * (order - 1)) != group.identity


def times(group, x, y):
    """x y in Z[lambda]: the first entry of the scalar matrix x times (y, 0, 0)."""
    zero = (0,) * group.d
    return group.mul((x, zero, zero, zero, x, zero, zero, zero, x), (y, zero, zero))[0]


def determinant(group, m):
    total = [0] * group.d
    for (a, b, c), sign in (((0, 4, 8), 1), ((1, 5, 6), 1), ((2, 3, 7), 1),
                            ((2, 4, 6), -1), ((0, 5, 7), -1), ((1, 3, 8), -1)):
        term = times(group, times(group, m[a], m[b]), m[c])
        total = [u + sign * v for u, v in zip(total, term)]
    return total[0] if not any(total[1:]) else None


def oracle_cosh_inradius(n):
    with mpmath.workdps(60):
        return mpmath.mpf(1) / (2 * mpmath.sin(mpmath.pi / n))


@pytest.mark.parametrize("n", [7, 8, 9, 12, 18, 30])
def test_regular_ngon_trigonometry(n):
    geo = geom.regular_ngon(n)
    assert abs(math.cosh(geo.inradius) - float(oracle_cosh_inradius(n))) < 1e-12
    assert abs(math.cosh(geo.inradius) * 2 * math.sin(math.pi / n) - 1.0) < 1e-12
    want_rho = (math.cos(math.pi / n) / math.sin(math.pi / n)) / math.tan(math.pi / 3)
    assert abs(math.cosh(geo.circumradius) - want_rho) < 1e-12
    # interior angle at a drawn vertex
    ang = geom.corner_angle(geo.vertices[0], geo.vertices[-1], geo.vertices[1])
    assert abs(ang - 2 * math.pi / 3) < 1e-12
    assert len(geo.vertices) == n and abs(geo.vertices[0].imag) < 1e-15


def test_regular_ngon_rejects_small_n():
    with pytest.raises(ValueError):
        geom.regular_ngon(6)


def test_bound_equals_inradius_when_feasible():
    for g in range(3, 12):
        for k in range(1, 6 * (g - 2) + 1):
            if not is_feasible(k, g):
                continue
            n = 6 + 6 * (g - 2) // k
            geo = geom.regular_ngon(n)
            assert abs(packing_radius_bound(k, g).cosh_r - math.cosh(geo.inradius)) < 1e-12


def test_gauss_bonnet_area():
    for n in (7, 9, 12, 24):
        geo = geom.regular_ngon(n)
        assert abs(polygon_area(geo) - math.pi * (n - 6) / 3) < 1e-9


def test_equilateral_angle():
    assert abs(geom.equilateral_angle(0.0) - math.pi / 3) < 1e-14
    geo = geom.regular_ngon(7)
    assert abs(geom.equilateral_angle(geo.inradius) - 2 * math.pi / 7) < 1e-12
    r = math.acosh(1.1523824354)
    assert abs(geom.equilateral_angle(r) - 2 * math.pi / 7) < 1e-9
    # defining identity with the half-angle reading
    for r in (0.2, 0.7, 1.5):
        alpha = geom.equilateral_angle(r)
        assert abs(math.cosh(r) * math.sin(alpha) - math.cos(alpha / 2)) < 1e-12


@pytest.mark.parametrize("n", list(range(7, 31)))
def test_boroczky_equality(n):
    assert geom.boroczky_equality_check(n) < 1e-12


def test_layouts_and_holonomy(seeds):
    for n in (12, 7):
        lay = geom.realize(seeds[n])
        rep = geom.holonomy_check(lay)
        assert rep.max_displacement < 1e-9
        assert rep.max_angle_error < 1e-10
        # every element is exactly orientation preserving or reversing, and
        # a pairing reverses exactly when it glues head to head
        group = geom._group(n)
        dets = [determinant(group, g) for g in lay.placements]
        assert set(dets) <= {1, -1}
        occ = cx.occurrences(seeds[n])
        for label, g in lay.pairings.items():
            (p, _, s1), (q, _, s2) = occ[label]
            assert determinant(group, g) == (1 if label in lay.tree_labels else s1 * s2 * dets[p] * dets[q])
    x12_lay = geom.realize(seeds[12])
    assert len(x12_lay.pairings) == 6
    assert not x12_lay.tree_labels  # single polygon: every pairing is a boundary pairing
    x7_lay = geom.realize(seeds[7])
    assert len(x7_lay.pairings) == 21
    assert len(x7_lay.tree_labels) == 5  # spanning tree of 6 polygons
    for i, a in enumerate(x7_lay.centres):
        for b in x7_lay.centres[i + 1:]:
            assert abs(a - b) > 1e-6  # distinct polygon slots


def test_drawn_cells_are_the_regular_cell(seeds):
    # polygon 0 is the centered cell, and every drawn side has its length
    lay = geom.realize(seeds[7])
    assert abs(lay.centres[0]) < 1e-15
    assert max(abs(a - b) for a, b in zip(lay.vertices[0], lay.cell.vertices)) < 1e-15
    for poly in lay.vertices:
        for v, u in zip(poly, poly[1:] + poly[:1]):
            assert abs(disk_distance(v, u) - lay.cell.side_length) < 1e-12


#: the big covers, whose layouts float isometries could not close
BIG_COVERS = ((12, 36), (12, 40), (12, 48), (60, 32), (300, 52))


# the library path keeps the bare "k-g" ids
@pytest.mark.parametrize("path, k, g", [
    pytest.param(path, k, g, id="%d-%d" % (k, g) if path == "library" else "cli-%d-%d" % (k, g))
    for path in ("library", "cli")
    for k, g in [(k, g) for g in range(3, 21) for k in range(1, 6 * (g - 2) + 1) if is_feasible(k, g)]
    + list(BIG_COVERS)
])
def test_realize_grid(path, k, g):
    # every feasible pair with g <= 20 and the big covers, at criterion 9's bounds
    c = realize_spec(k, g)
    if path == "cli":
        # what `extpack realize | extpack render` lays out
        c = cx.parse(cx.serialize(c))
    rep = geom.holonomy_check(geom.realize(c))
    assert rep.max_displacement < 1e-9
    assert rep.max_angle_error < 1e-10


#: the construct benchmark's menu: realize, verify and render of three big
#: covers over a small cell, builds by grafting, and covers found by the
#: voltage search
CONSTRUCT_SPECS = ((24, 10), (9, 20), (10, 22), 37, 41, 43, (12, 36), (12, 40), (12, 48))


@pytest.mark.parametrize("spec", list(catalog.EXPECTED) + list(CONSTRUCT_SPECS + BIG_COVERS[3:]), ids=str)
def test_pairings_are_the_eager_pairings(spec):
    # each pairing, computed on first read, is the matrix the eager loop
    # gives, and the labels come in the same order
    if isinstance(spec, str):
        c = catalog.load_entry(spec).complex
    else:
        c = build_primitive(spec) if isinstance(spec, int) else realize_spec(*spec)
    lay = geom.realize(c)
    want = reference_pairings(c)
    assert list(lay.pairings) == list(want) and len(lay.pairings) == len(want)
    assert dict(lay.pairings) == want
    assert lay.pairings == want and lay == geom.realize(c)
    with pytest.raises(TypeError):
        lay.pairings[next(iter(want))] = None
    with pytest.raises(KeyError):
        lay.pairings[max(want) + 1]


@pytest.mark.parametrize("spec", ["X7", (24, 10)], ids=str)
def test_drawing_reads_no_pairing(monkeypatch, spec):
    # realize and render_svg draw from the placements alone; the holonomy
    # check then reads every pairing of the same layout
    c = catalog.load_entry(spec).complex if isinstance(spec, str) else realize_spec(*spec)

    def unread(self, *inputs):
        raise AssertionError("pairings computed while drawing")

    monkeypatch.setattr(geom._Pairings, "_compute", unread)
    lay = geom.realize(c)
    svg = geom.render_svg(lay)
    monkeypatch.undo()
    assert svg == geom.render_svg(geom.realize(c))
    rep = geom.holonomy_check(lay)
    assert rep.max_displacement < 1e-9 and rep.max_angle_error < 1e-10
    assert dict(lay.pairings) == reference_pairings(c)


@pytest.mark.parametrize("spec", ["X7", (24, 10)], ids=str)
def test_pairings_are_computed_once(monkeypatch, spec):
    # drawing, len and iteration compute no pairing; the first read computes
    # them all in one pass, and every later read of the layout reuses them
    c = catalog.load_entry(spec).complex if isinstance(spec, str) else realize_spec(*spec)
    want = reference_pairings(c)
    computed = []
    compute = geom._Pairings._compute

    def counted(self, *inputs):
        computed.append(id(self))
        return compute(self, *inputs)

    monkeypatch.setattr(geom._Pairings, "_compute", counted)
    lay = geom.realize(c)
    geom.render_svg(lay)
    assert len(lay.pairings) == len(want) and list(lay.pairings) == list(want)
    assert computed == []
    rep = geom.holonomy_check(lay)
    assert rep.max_displacement < 1e-9 and rep.max_angle_error < 1e-10
    assert computed == [id(lay.pairings)]
    assert dict(lay.pairings) == want
    again = geom.realize(c)
    assert lay == again
    assert computed == [id(lay.pairings), id(again.pairings)]


def test_holonomy_detects_perturbation(seeds):
    # another label's pairing in place of one non-tree pairing breaks the
    # identity around the vertex cycles of that label, and the check names it
    lay = geom.realize(seeds[7])
    label, other = sorted(set(lay.pairings) - lay.tree_labels)[:2]
    assert lay.pairings[label] != lay.pairings[other]
    bad = geom.DiskLayout(**{**vars(lay), "pairings": {**lay.pairings, label: lay.pairings[other]}})
    with pytest.raises(InvariantError, match="do not compose to the identity") as err:
        geom.holonomy_check(bad)
    labels = re.search(r"\(labels (\([^)]*\))\)", str(err.value)).group(1)
    assert label in ast.literal_eval(labels)


def test_render_svg(seeds):
    lay = geom.realize(seeds[12])
    svg = geom.render_svg(lay)
    assert svg.startswith("<?xml")
    assert svg.count('class="edge"') == 12
    assert svg.count('class="label"') == 12
    assert svg == geom.render_svg(lay)  # byte-identical determinism
    svg7 = geom.render_svg(geom.realize(seeds[7]))
    assert svg7.count('class="edge"') == 42
    labels = {int(t.split(">")[1].split("<")[0]) for t in svg7.split("<text")[1:]}
    assert len({abs(v) for v in labels}) == 21
