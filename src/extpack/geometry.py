"""Hyperbolic layer in the unit disk: regular cells, exact layouts of
extremal complexes, holonomy checks and SVG output.

A complex is a (2,3,N) flag action (complexes.flag_action), and a flag is
a chamber of its cell's barycentric subdivision, the triangle with angles
pi/N at the centre, pi/3 at a corner and pi/2 at a side's midpoint; t0, t1
and t2 are the reflections in its sides.  So a layout places every cell by
a word in three reflections, an exact 3x3 matrix over Z[lambda], lambda =
2 cos(pi/N), of the reflection group that the private module _reflection
builds; this module imports the three names it uses (Matrix, _crossing,
_group).  Floats only draw: exact vectors reach the disk through
fixed point.  Drawing reads the placements alone; a layout's side
pairings are computed together, in one pass, when the first of them is
read.

The extremal Dirichlet cells are regular N-gons with interior angle
2*pi/3; their trigonometry pins cosh(inradius) = 1/(2 sin(pi/N)), which is
the same closed form as the packing radius bound, so the geometric and
arithmetic layers can be cross-checked exactly.

New library capability goes in a new module, not here; a function here
that needs it imports that module inside its body, as trigroup imports
_lowindex.  A new command is one entry in _commands.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping

from . import _vertices, complexes
from ._record import Record
from ._reflection import Matrix, _crossing, _group
from .complexes import PolygonComplex
from .errors import InvariantError, NotExtremalError

#: width and height of a rendered SVG, in pixels
SVG_SIZE = 640


# ---------------------------------------------------------------------------
# angles


def corner_angle(v: complex, u: complex, w: complex) -> float:
    """Angle at v between the geodesics toward u and toward w.

    Measured in the chart of v: z -> (z - v) / (1 - conj(v) z) moves v to 0,
    where geodesics through it are diameters, so the angle is the one
    between the images of u and w.
    """
    a = (u - v) / (1.0 - v.conjugate() * u)
    b = (w - v) / (1.0 - v.conjugate() * w)
    return abs(cmath.phase(b / a))


# ---------------------------------------------------------------------------
# regular cells


class NgonGeometry(Record):
    """A regular hyperbolic N-gon with interior angle 2*pi/3, centered at
    the origin with one vertex on the positive real axis."""

    n: int
    interior_angle: float
    inradius: float
    circumradius: float
    side_length: float
    vertices: tuple[complex, ...]


def regular_ngon(n: int) -> NgonGeometry:
    """Geometry of the angle-2*pi/3 regular n-gon (needs n >= 7)."""
    if n < 7:
        raise ValueError(
            "regular polygons with angle 2*pi/3 need n >= 7 in the hyperbolic plane"
        )
    cosh_r = 1.0 / (2.0 * math.sin(math.pi / n))
    cosh_rho = (math.cos(math.pi / n) / math.sin(math.pi / n)) / math.sqrt(3.0)
    cosh_half_s = 2.0 * math.cos(math.pi / n) / math.sqrt(3.0)
    if not abs(cosh_rho - cosh_r * cosh_half_s) < 1e-12:
        raise InvariantError(
            "regular_ngon: right-triangle identity cosh rho = cosh r cosh s/2 fails for n = %d" % n
        )
    rho = math.acosh(cosh_rho)
    radius = math.tanh(rho / 2.0)
    verts = tuple(radius * cmath.exp(2j * math.pi * t / n) for t in range(n))
    return NgonGeometry(
        n=n,
        interior_angle=2.0 * math.pi / 3.0,
        inradius=math.acosh(cosh_r),
        circumradius=rho,
        side_length=2.0 * math.acosh(cosh_half_s),
        vertices=verts,
    )


def equilateral_angle(r: float) -> float:
    """Angle of the equilateral triangle with side 2r.

    The half-angle relation cosh(r) sin(alpha) = cos(alpha/2) reduces to
    cosh(r) = 1/(2 sin(alpha/2)); inverting gives the unique
    alpha in (0, pi/3].
    """
    if r < 0:
        raise ValueError("need r >= 0")
    return 2.0 * math.asin(1.0 / (2.0 * math.cosh(r)))


def boroczky_equality_check(n: int) -> float:
    """Residual of the packing-density equality for the regular n-cell.

    Both sides of the density bound are evaluated with r the inradius,
    alpha the equilateral angle of side 2r, and A the cell area
    pi (n-6)/3; at extremality they agree identically.
    """
    geo = regular_ngon(n)
    r = geo.inradius
    alpha = equilateral_angle(r)
    area = math.pi * (n - 6) / 3.0
    lhs = 2.0 * math.pi * (math.cosh(r) - 1.0) / area
    rhs = 3.0 * alpha * (math.cosh(r) - 1.0) / (math.pi - 3.0 * alpha)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# disk layout


class DiskLayout(Record):
    """A drawn fundamental region: an exact placement per polygon (of the
    centered cell) and an exact side pairing per edge label, elements of
    the (2,3,N) reflection group, with the drawn corners and centres.

    Tree labels are the shared edges along which adjacent polygons were
    drawn together; their pairing is the identity.  The pairings are a
    read-only mapping by label, in label order; realize's mapping computes
    them all on the first read of one, and drawing reads none of them.
    """

    complex: PolygonComplex
    cell: NgonGeometry
    placements: tuple[Matrix, ...]
    vertices: tuple[tuple[complex, ...], ...]
    centres: tuple[complex, ...]
    pairings: Mapping[int, Matrix]
    tree_labels: frozenset[int]


class _Pairings(Mapping):
    """A layout's side pairings by label, in label order.  Length and
    iteration read the labels only; the first pairing read computes every
    pairing in one pass (_compute) and keeps them.
    """

    def __init__(self, first, *inputs):
        self._first, self._inputs, self._done = first, inputs, None

    def __getitem__(self, lab):
        if self._done is None:
            self._done = self._compute(*self._inputs)
        return self._done[lab]

    def __iter__(self):
        return iter(self._first)

    def __len__(self):
        return len(self._first)

    def _compute(self, group, t1, placements, links, tree):
        """g_p H_f t1 H_h^-1 g_q^-1 by label, f on the label's first side and
        h = t1(f), the identity on a tree label.  links holds the tree edges
        (f, h) in realize's queue order, f in the parent, so each inverse
        g_q^-1 = H_h t1 H_f^-1 g_p^-1 is built after its parent's."""
        n, m = group.n, 2 * group.n
        inverses = [group.identity] * len(placements)
        for f, h in links:
            inverses[h // m] = group.mul(_crossing(n, h % m, f % m), inverses[f // m])
        return {lab: group.identity if lab in tree else group.product(
                    [placements[f // m], _crossing(n, f % m, t1[f] % m), inverses[t1[f] // m]])
                for lab, f in self._first.items()}


def realize(c: PolygonComplex) -> DiskLayout:
    """Draw a certified extremal complex in the unit disk.

    Polygon 0 is centered at the origin with corner 0 on the positive real
    axis; the rest are placed along a breadth-first spanning tree of
    inter-polygon edges, grown from polygon 0 and taking each polygon's
    edges in label order.  Crossing from flag f of polygon p to h = t1(f)
    of polygon q places q at g_q = g_p H_f t1 H_h^-1, H_x being the chamber
    of flag x in the centered cell.  A label's pairing g_p H_f t1 H_h^-1
    g_q^-1, f on its first side, carries the drawn second side onto the
    first.  The layout keeps the tree edges in queue order, and its
    pairings are computed from them in one pass on first read (_Pairings).
    """
    rep = complexes.verify_extremal(c)
    if not rep.ok:
        raise NotExtremalError("cannot realize a non-extremal complex: %s" % (rep.failures,))
    n = rep.n
    m = 2 * n  # flags per polygon
    group = _group(n)
    t1 = complexes.flag_action(c)[1]
    sides = _vertices.flag_sides(c)
    # each label's first side, by its leaving flag (flag 2j lies on side j),
    # in label order
    first = dict(sorted((sides[f][0], f) for f in range(0, len(sides), 2) if sides[f][1] == 1))
    placements: list[Matrix | None] = [group.identity] + [None] * (c.num_polygons - 1)
    links: list[tuple[int, int]] = []  # the tree edges (f, h), in queue order
    tree: set[int] = set()
    queue = [0]
    for x in queue:
        # the labels x shares with other polygons, in order
        for lab in sorted({sides[f][0] for f in range(x * m, x * m + m, 2) if t1[f] // m != x}):
            f, h = first[lab], t1[first[lab]]
            if placements[f // m] is None:
                f, h = h, f
            elif placements[h // m] is not None:
                continue
            # the polygon of f is placed and that of h is not
            placements[h // m] = group.mul(placements[f // m], _crossing(n, f % m, h % m))
            links.append((f, h))
            queue.append(h // m)
            tree.add(lab)
    drawn = group.draw(placements)
    return DiskLayout(
        complex=c,
        cell=regular_ngon(n),
        placements=tuple(placements),
        vertices=tuple(tuple(points[:n]) for points in drawn),
        centres=tuple(points[n] for points in drawn),
        pairings=_Pairings(first, group, t1, placements, links, tree),
        tree_labels=frozenset(tree),
    )


class HolonomyReport(Record):
    max_displacement: float
    max_angle_error: float


def holonomy_check(layout: DiskLayout) -> HolonomyReport:
    """Check that the pairings around every vertex cycle compose to the
    identity, exactly, and measure the drawing: max_displacement is the
    largest gap between the two drawn copies of a corner across a tree
    label, and max_angle_error the largest miss of a drawn corner angle
    from 2*pi/3.  Raises InvariantError naming a cycle whose holonomy is
    not the identity, and its labels.
    """
    group = _group(layout.cell.n)
    worst = 0.0
    for cycle in complexes.vertex_cycles_with_crossings(layout.complex):
        # crossing out of a label's first side pulls the next chart back
        # through its pairing, out of its second through the inverse; begun
        # after its -1 crossings, a cycle of three reads P N^-1, so P = N
        word = cycle.crossings
        start = next((t for t, (_, way) in enumerate(word) if way == 1 and word[t - 1][1] == -1), 0)
        word = word[start:] + word[:start]
        ahead = group.product(layout.pairings[lab] for lab, way in word if way == 1)
        back = group.product(layout.pairings[lab] for lab, way in reversed(word) if way == -1)
        if ahead != back:
            raise InvariantError(
                "holonomy: the pairings around the vertex cycle at corners %s (labels %s)"
                " do not compose to the identity"
                % (cycle.corners, tuple(lab for lab, _ in cycle.crossings))
            )
        # crossing t joins corners t and t + 1, drawn at one point across a tree label
        following = cycle.corners[1:] + cycle.corners[:1]
        for (lab, _), (p, i), (q, j) in zip(cycle.crossings, cycle.corners, following):
            if lab in layout.tree_labels:
                worst = max(worst, abs(layout.vertices[p][i] - layout.vertices[q][j]))
    n = layout.cell.n
    angle_err = max(
        abs(corner_angle(poly[i], poly[i - 1], poly[(i + 1) % n]) - 2.0 * math.pi / 3.0)
        for poly in layout.vertices
        for i in range(n)
    )
    return HolonomyReport(max_displacement=worst, max_angle_error=angle_err)


# ---------------------------------------------------------------------------
# rendering


def _fmt(x: float) -> str:
    out = "%.6f" % x
    return "0.000000" if out == "-0.000000" else out


def _side(v: complex, u: complex) -> tuple[str, complex]:
    """The SVG path of the geodesic arc from v to u (y axis flipped for
    SVG) and the arc's midpoint, both from one geodesic: a diameter, or the
    circle through v and u orthogonal to the unit circle."""
    det = v.real * u.imag - v.imag * u.real
    if abs(det) < 1e-13:
        path = "M %s %s L %s %s" % (_fmt(v.real), _fmt(-v.imag), _fmt(u.real), _fmt(-u.imag))
        return path, (v + u) / 2.0
    r1 = (abs(v) ** 2 + 1.0) / 2.0
    r2 = (abs(u) ** 2 + 1.0) / 2.0
    cx = (r1 * u.imag - r2 * v.imag) / det
    cy = (v.real * r2 - u.real * r1) / det
    center = complex(cx, cy)
    radius = abs(v - center)
    a1 = cmath.phase(v - center)
    a2 = cmath.phase(u - center)
    span = (a2 - a1) % (2.0 * math.pi)
    # plane-ccw (span < pi) becomes svg-cw under the y flip
    sweep = int(span > math.pi)
    if sweep:
        a1, span = a2, 2.0 * math.pi - span
    path = "M %s %s A %s %s 0 0 %d %s %s" % (
        _fmt(v.real), _fmt(-v.imag), _fmt(radius), _fmt(radius), sweep, _fmt(u.real), _fmt(-u.imag))
    return path, center + radius * cmath.exp(1j * (a1 + span / 2.0))


def render_svg(layout: DiskLayout) -> str:
    """Deterministic SVG: the unit circle, every polygon side as a geodesic
    arc, and one signed label per side occurrence."""
    n = layout.cell.n
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="-1.1 -1.1 2.2 2.2">' % (SVG_SIZE, SVG_SIZE),
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#888888" stroke-width="0.004"/>',
    ]
    for p, poly in enumerate(layout.vertices):
        word = layout.complex.polygons[p]
        centre = layout.centres[p]
        for i in range(n):
            path, mid = _side(poly[i], poly[(i + 1) % n])
            lines.append(
                '<path class="edge" d="%s" fill="none" stroke="#000000" '
                'stroke-width="0.006"/>' % path
            )
            pos = mid + 0.1 * (centre - mid)
            lines.append(
                '<text class="label" x="%s" y="%s" font-size="0.055" '
                'text-anchor="middle">%d</text>'
                % (_fmt(pos.real), _fmt(-pos.imag), word[i])
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
