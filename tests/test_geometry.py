import dataclasses
import math

import mpmath
import pytest

from extpack import complexes as cx
from extpack import geometry as geom
from extpack.covers import realize_spec
from extpack.feasibility import is_feasible, packing_radius_bound
from extpack.geometry import Isometry


def test_isometry_algebra():
    g = Isometry(1.2 + 0.1j, 0.3 - 0.2j, False)
    h = Isometry(1.05 + 0j, 0.2 + 0.1j, True)
    z = 0.37 - 0.21j
    assert abs(g.compose(h)(z) - g(h(z))) < 1e-12
    assert abs(h.compose(g)(z) - h(g(z))) < 1e-12
    for m in (g, h, g.compose(h)):
        assert abs(m.det_magnitude() - 1.0) < 1e-12
        assert abs(m.inverse()(m(z)) - z) < 1e-12


@pytest.mark.parametrize("a", [1 + 0j, complex(math.nan, 0)])
def test_degenerate_isometry_is_a_numeric_failure(a):
    with pytest.raises(ArithmeticError, match="not a disk automorphism"):
        Isometry(a, 1 + 0j)


def test_rotation_pi_about():
    r0 = geom.rotation_pi_about(0j)
    assert abs(r0(0.25 + 0.1j) + (0.25 + 0.1j)) < 1e-14
    assert not r0.reversing
    p = 0.129 + 0.422j
    inv = geom.rotation_pi_about(p)
    assert abs(inv(p) - p) < 1e-12
    z = -0.4 + 0.2j
    assert abs(inv(inv(z)) - z) < 1e-12


def test_two_point_isometry_orientation_types():
    z1, z2 = 0.1 + 0.2j, -0.3 + 0.05j
    w1 = geom.rotation_pi_about(0.2j)(z1)
    w2 = geom.rotation_pi_about(0.2j)(z2)
    keep = geom.two_point_isometry(z1, z2, w1, w2, False)
    flip = geom.two_point_isometry(z1, z2, w1, w2, True)
    assert not keep.reversing and flip.reversing
    probe = 0.4 - 0.1j
    d = geom.disk_distance(z1, probe)
    assert abs(geom.disk_distance(w1, keep(probe)) - d) < 1e-10
    assert abs(geom.disk_distance(w1, flip(probe)) - d) < 1e-10


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
        assert abs(geom.polygon_area(geo) - math.pi * (n - 6) / 3) < 1e-9


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
        for g in lay.pairings.values():
            assert abs(g.det_magnitude() - 1.0) < 1e-12
    x12_lay = geom.realize(seeds[12])
    assert len(x12_lay.pairings) == 6
    assert not x12_lay.tree_labels  # single polygon: every pairing is a boundary pairing
    x7_lay = geom.realize(seeds[7])
    assert len(x7_lay.pairings) == 21
    assert len(x7_lay.tree_labels) == 5  # spanning tree of 6 polygons
    centres = [g(0j) for g in x7_lay.placements]
    for i, a in enumerate(centres):
        for b in centres[i + 1:]:
            assert abs(a - b) > 1e-6  # distinct polygon slots


# the library path keeps the bare "k-g" ids
@pytest.mark.parametrize("path, k, g", [
    pytest.param(path, k, g, id="%d-%d" % (k, g) if path == "library" else "cli-%d-%d" % (k, g))
    for path in ("library", "cli")
    for g in range(3, 13) for k in range(1, 6 * (g - 2) + 1) if is_feasible(k, g)
])
def test_realize_grid(path, k, g):
    # every feasible pair with g <= 12, at criterion 9's bounds
    c = realize_spec(k, g)
    if path == "cli":
        # what `extpack realize | extpack render` lays out
        c = cx.parse(cx.serialize(c))
    rep = geom.holonomy_check(geom.realize(c))
    assert rep.max_displacement < 1e-9
    assert rep.max_angle_error < 1e-10


def perturbed(layout: geom.DiskLayout, label: int, eps: float) -> geom.DiskLayout:
    """Copy of the layout with one pairing matrix entry nudged."""
    g = layout.pairings[label]
    pairings = dict(layout.pairings)
    pairings[label] = Isometry(g.a + eps, g.b, g.reversing)
    return dataclasses.replace(layout, pairings=pairings)


def test_holonomy_detects_perturbation(seeds):
    lay = geom.realize(seeds[12])
    label = sorted(set(lay.pairings) - lay.tree_labels)[0]
    bad = perturbed(lay, label, 1e-3)
    assert geom.holonomy_check(bad).max_displacement > 1e-4


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
