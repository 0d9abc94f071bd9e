"""Numeric hyperbolic layer in the unit disk: regular cells, disk
realizations of extremal complexes, holonomy verification and SVG output.

Isometries are stored as SU(1,1)-style matrices [[a, b], [conj b, conj a]]
with |a|^2 - |b|^2 = 1, acting as fractional linear maps, plus a reversing
flag that conjugates the argument first (orientation-reversing maps).

The extremal Dirichlet cells are regular N-gons with interior angle
2*pi/3; their trigonometry pins cosh(inradius) = 1/(2 sin(pi/N)), which is
the same closed form as the packing radius bound, so the geometric and
arithmetic layers can be cross-checked exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import complexes
from .complexes import PolygonComplex
from .errors import InvariantError, NotExtremalError

MATCH_TOL = 1e-9
#: width and height of a rendered SVG, in pixels
SVG_SIZE = 640


# ---------------------------------------------------------------------------
# isometries


@dataclass(frozen=True)
class Isometry:
    """Unit-disk isometry z -> (a z' + b) / (conj(b) z' + conj(a)) where
    z' is conj(z) when `reversing` is set."""

    a: complex
    b: complex
    reversing: bool = False

    def __post_init__(self):
        det = abs(self.a) ** 2 - abs(self.b) ** 2
        if not det > 0:
            raise ArithmeticError("not a disk automorphism: |a|^2 - |b|^2 = %g" % det)
        s = math.sqrt(det)
        object.__setattr__(self, "a", self.a / s)
        object.__setattr__(self, "b", self.b / s)

    def __call__(self, z: complex) -> complex:
        if self.reversing:
            z = z.conjugate()
        return (self.a * z + self.b) / (self.b.conjugate() * z + self.a.conjugate())

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self . other)(z) = self(other(z))."""
        a2, b2 = other.a, other.b
        if self.reversing:
            a2, b2 = a2.conjugate(), b2.conjugate()
        return Isometry(
            a=self.a * a2 + self.b * b2.conjugate(),
            b=self.a * b2 + self.b * a2.conjugate(),
            reversing=self.reversing != other.reversing,
        )

    def inverse(self) -> "Isometry":
        if not self.reversing:
            return Isometry(self.a.conjugate(), -self.b, False)
        return Isometry(self.a, -self.b.conjugate(), True)

    def det_magnitude(self) -> float:
        return abs(abs(self.a) ** 2 - abs(self.b) ** 2)

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(1.0 + 0j, 0j, False)

    @staticmethod
    def rotation(theta: float) -> "Isometry":
        return Isometry(cmath.exp(0.5j * theta), 0j, False)

    @staticmethod
    def translate_to(p: complex) -> "Isometry":
        """Maps 0 to p."""
        if abs(p) >= 1:
            raise ValueError("point outside the open unit disk")
        return Isometry(1.0 + 0j, p, False)


def disk_distance(z: complex, w: complex) -> float:
    num = 2.0 * abs(z - w) ** 2
    den = (1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2)
    return math.acosh(1.0 + num / den)


def _frame(z1: complex, z2: complex) -> Isometry:
    """Maps z1 to 0 and z2 onto the positive real axis."""
    move = Isometry(1.0 + 0j, -z1, False)
    w = move(z2)
    return Isometry.rotation(-cmath.phase(w)).compose(move)


def two_point_isometry(
    z1: complex, z2: complex, w1: complex, w2: complex, reversing: bool
) -> Isometry:
    """The unique isometry of the given orientation type with z1 -> w1 and
    z2 -> w2; requires d(z1, z2) = d(w1, w2)."""
    if abs(disk_distance(z1, z2) - disk_distance(w1, w2)) > 1e-9:
        raise ValueError("point pairs are not isometric")
    fa = _frame(z1, z2)
    fb = _frame(w1, w2)
    if reversing:
        fa = Isometry(fa.a.conjugate(), fa.b.conjugate(), True)
    out = fb.inverse().compose(fa)
    miss = max(abs(out(z1) - w1), abs(out(z2) - w2))
    if not miss < 1e-9:
        raise InvariantError(
            "two_point_isometry: the image of %r misses %r by %.3g" % ((z1, z2), (w1, w2), miss)
        )
    return out


def rotation_pi_about(p: complex) -> Isometry:
    """The elliptic involution fixing p."""
    if abs(p) >= 1:
        raise ValueError("point outside the open unit disk")
    t = Isometry.translate_to(p)
    return t.compose(Isometry.rotation(math.pi)).compose(t.inverse())


# ---------------------------------------------------------------------------
# geodesics and angles


def _geodesic_center(v: complex, u: complex) -> complex | None:
    """Center of the circle through v, u orthogonal to the unit circle, or
    None when the geodesic is a diameter."""
    det = v.real * u.imag - v.imag * u.real
    if abs(det) < 1e-13:
        return None
    r1 = (abs(v) ** 2 + 1.0) / 2.0
    r2 = (abs(u) ** 2 + 1.0) / 2.0
    cx = (r1 * u.imag - r2 * v.imag) / det
    cy = (v.real * r2 - u.real * r1) / det
    return complex(cx, cy)


def corner_angle(v: complex, u: complex, w: complex) -> float:
    """Angle at v between the geodesics toward u and toward w.

    Measured in the chart of v: z -> (z - v) / (1 - conj(v) z) moves v to 0,
    where geodesics through it are diameters, so the angle is the one
    between the images of u and w.
    """
    a = (u - v) / (1.0 - v.conjugate() * u)
    b = (w - v) / (1.0 - v.conjugate() * w)
    return abs(cmath.phase(b / a))


def triangle_area(a: complex, b: complex, c: complex) -> float:
    """Hyperbolic area via the angle deficit."""
    return math.pi - corner_angle(a, b, c) - corner_angle(b, a, c) - corner_angle(c, a, b)


# ---------------------------------------------------------------------------
# regular cells


@dataclass(frozen=True)
class NgonGeometry:
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


def polygon_area(geo: NgonGeometry) -> float:
    """Numeric area from the central triangulation (Gauss-Bonnet check)."""
    total = 0.0
    n = geo.n
    for t in range(n):
        total += triangle_area(0j, geo.vertices[t], geo.vertices[(t + 1) % n])
    return total


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


@dataclass(frozen=True)
class DiskLayout:
    """A drawn fundamental region: one placement isometry per polygon (over
    a common centered cell) and one side-pairing isometry per edge label.

    Tree labels are the shared edges along which adjacent polygons were
    drawn together; their pairing isometry is the identity.
    """

    complex: PolygonComplex
    cell: NgonGeometry
    placements: tuple[Isometry, ...]
    vertices: tuple[tuple[complex, ...], ...]
    pairings: dict[int, Isometry]
    tree_labels: frozenset[int]


def realize(c: PolygonComplex) -> DiskLayout:
    """Draw a certified extremal complex in the unit disk.

    Polygon 0 is centered at the origin; the rest are transported across a
    breadth-first spanning tree of inter-polygon edges, grown from polygon
    0 and taking each polygon's edges in label order.  Every edge
    pairing gets the isometry carrying the drawn second occurrence onto the
    drawn first one, reversing exactly when the signs differ; paired edges
    must land on each other within MATCH_TOL.
    """
    rep = complexes.verify_extremal(c)
    if not rep.ok:
        raise NotExtremalError("cannot realize a non-extremal complex: %s" % (rep.failures,))
    n = rep.n
    geo = regular_ngon(n)
    base = geo.vertices
    occ = complexes.occurrences(c)

    def gamma(lab: int) -> Isometry:
        """Base-coordinate gluing: maps the cell across side j onto the
        neighbor slot across side i (occurrence order of lab)."""
        (p, i, s1), (q, j, s2) = occ[lab]
        if s1 == s2:
            return two_point_isometry(
                base[j], base[(j + 1) % n], base[(i + 1) % n], base[i], False
            )
        return two_point_isometry(
            base[j], base[(j + 1) % n], base[i], base[(i + 1) % n], True
        )

    k = c.num_polygons
    # a BFS tree from polygon 0, so every polygon is drawn as few gluings
    # from the origin as the dual graph allows
    shared: list[list[int]] = [[] for _ in range(k)]
    for lab in sorted(occ):
        (p, _, _), (q, _, _) = occ[lab]
        if p != q:
            shared[p].append(lab)
            shared[q].append(lab)
    placements: list[Isometry | None] = [None] * k
    placements[0] = Isometry.identity()
    tree: set[int] = set()
    queue = [0]
    for x in queue:
        for lab in shared[x]:
            (p, _, _), (q, _, _) = occ[lab]
            if placements[q] is None:
                placements[q] = placements[p].compose(gamma(lab))
                queue.append(q)
            elif placements[p] is None:
                placements[p] = placements[q].compose(gamma(lab).inverse())
                queue.append(p)
            else:
                continue
            tree.add(lab)
    if len(queue) < k:
        raise NotExtremalError("complex is disconnected")  # unreachable for valid input

    verts = tuple(
        tuple(placements[p](v) for v in base) for p in range(k)
    )
    pairings: dict[int, Isometry] = {}
    worst = 0.0
    for lab in sorted(occ):
        (p, i, s1), (q, j, s2) = occ[lab]
        g = placements[p].compose(gamma(lab)).compose(placements[q].inverse())
        pairings[lab] = g
        # the drawn pairing must carry the second occurrence's edge onto the
        # first one's, endpoint by endpoint
        if s1 == s2:
            t1 = abs(g(verts[q][j]) - verts[p][(i + 1) % n])
            t2 = abs(g(verts[q][(j + 1) % n]) - verts[p][i])
        else:
            t1 = abs(g(verts[q][j]) - verts[p][i])
            t2 = abs(g(verts[q][(j + 1) % n]) - verts[p][(i + 1) % n])
        worst = max(worst, t1, t2, abs(g.det_magnitude() - 1.0))
    if worst > MATCH_TOL:
        raise ArithmeticError(
            "edge matching residual %.3g exceeds tolerance %.3g (layout bug)" % (worst, MATCH_TOL)
        )
    return DiskLayout(
        complex=c,
        cell=geo,
        placements=tuple(placements),
        vertices=verts,
        pairings=pairings,
        tree_labels=frozenset(tree),
    )


@dataclass(frozen=True)
class HolonomyReport:
    max_displacement: float
    max_angle_error: float


def holonomy_check(layout: DiskLayout) -> HolonomyReport:
    """Compose the pairing isometries around every vertex cycle and measure
    how far the corner point moves; also check all drawn corner angles
    against 2*pi/3."""
    c = layout.complex
    n = layout.cell.n
    worst = 0.0
    for cycle in complexes.vertex_cycles_with_crossings(c):
        p0, i0 = cycle.corners[0]
        x0 = layout.vertices[p0][i0]
        hol = Isometry.identity()
        for lab, direction in cycle.crossings:
            g = layout.pairings[lab]
            # crossing from the first occurrence into the second pulls the
            # next chart back through g, and conversely through its inverse
            hol = hol.compose(g if direction == 1 else g.inverse())
        worst = max(worst, abs(hol(x0) - x0))
    angle_err = 0.0
    target = 2.0 * math.pi / 3.0
    for poly in layout.vertices:
        for i in range(n):
            ang = corner_angle(poly[i], poly[i - 1], poly[(i + 1) % n])
            angle_err = max(angle_err, abs(ang - target))
    return HolonomyReport(max_displacement=worst, max_angle_error=angle_err)


# ---------------------------------------------------------------------------
# rendering


def _fmt(x: float) -> str:
    out = "%.6f" % x
    return "0.000000" if out == "-0.000000" else out


def _arc_path(v: complex, u: complex) -> str:
    """SVG path for the geodesic arc from v to u (y axis flipped for SVG)."""
    center = _geodesic_center(v, u)
    if center is None:
        return "M %s %s L %s %s" % (_fmt(v.real), _fmt(-v.imag), _fmt(u.real), _fmt(-u.imag))
    radius = abs(v - center)
    cross = ((v - center).conjugate() * (u - center)).imag
    # plane-ccw becomes svg-cw under the y flip
    sweep = 0 if cross > 0 else 1
    return "M %s %s A %s %s 0 0 %d %s %s" % (
        _fmt(v.real), _fmt(-v.imag), _fmt(radius), _fmt(radius),
        sweep, _fmt(u.real), _fmt(-u.imag),
    )


def _geodesic_midpoint(v: complex, u: complex) -> complex:
    center = _geodesic_center(v, u)
    if center is None:
        return (v + u) / 2.0
    a1 = cmath.phase(v - center)
    a2 = cmath.phase(u - center)
    span = (a2 - a1) % (2.0 * math.pi)
    if span > math.pi:
        a1, span = a2, 2.0 * math.pi - span
    return center + abs(v - center) * cmath.exp(1j * (a1 + span / 2.0))


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
        centre = layout.placements[p](0j)
        for i in range(n):
            v, u = poly[i], poly[(i + 1) % n]
            lines.append(
                '<path class="edge" d="%s" fill="none" stroke="#000000" '
                'stroke-width="0.006"/>' % _arc_path(v, u)
            )
            mid = _geodesic_midpoint(v, u)
            pos = mid + 0.1 * (centre - mid)
            lines.append(
                '<text class="label" x="%s" y="%s" font-size="0.055" '
                'text-anchor="middle">%d</text>'
                % (_fmt(pos.real), _fmt(-pos.imag), word[i])
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
