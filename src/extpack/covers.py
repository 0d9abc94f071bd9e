"""Covering constructions: orientation double covers and cyclic covers.

Every cover is a lift of the base's flag action (_action.lift, a
permutation-voltage lift, Gross-Tucker 1987): n sheets of flags, on which
t0 and t2 keep the sheet and t1 moves it by a shift fixed per flag.  One
two_color pass over the lift says whether the cover is connected and
whether it is orientable, and read_polygons reads its words off.

The orientation double cover changes sheet across exactly the
orientation-reversing pairings.  The cover of a k-extremal genus-g complex
is an orientable 2k-extremal complex of genus g - 1.

A cyclic degree-n cover shifts by a voltage per edge label: + it across
the label from its first side (in scan order), - it from its second.  Its
vertex cycles keep length three exactly when the net voltage around every
cycle vanishes.  `find_nonorientable_cyclic_cover` searches assignments
drawn from the integer kernel of the cycle/edge crossing matrix, in a
deterministic order, and returns the first connected non-orientable cover;
one exists for every n because the deck homomorphism can be chosen to kill
an orientation-reversing loop.  `cyclic_cover` and the search share one
front half and one lift at every degree, so degree 1 is certified too.
"""

from __future__ import annotations

import itertools
import sys
from math import gcd, lcm

from . import _action, _vertices, complexes
from ._canon import read_polygons
from ._record import Record
from .complexes import PolygonComplex
from .errors import CoverError, EnumerationCapError, InvariantError

#: largest coefficient radius the voltage search scans
MAX_VOLTAGE_RADIUS = 4


class VoltageAssignment(Record):
    """Sheet-shift residues, one per edge label, for a degree-n cyclic cover."""

    modulus: int
    voltages: tuple[tuple[int, int], ...]  # (label, residue) pairs, sorted

    def as_dict(self) -> dict[int, int]:
        return dict(self.voltages)

    @classmethod
    def from_dict(cls, n: int, d: dict[int, int]) -> "VoltageAssignment":
        if n < 1:
            raise CoverError("cover degree must be >= 1")
        return cls(modulus=n, voltages=tuple(sorted((k, v % n) for k, v in d.items())))


# ---------------------------------------------------------------------------
# the orientation double cover


def orientation_double_cover(c: PolygonComplex) -> PolygonComplex:
    """Two-sheeted orientable cover of a non-orientable complex.

    It is the 2-sheet lift that changes sheet across exactly the
    orientation-reversing pairings, the ones across which t1 keeps the
    parity of a flag (t0 and t2 always change it).  So every involution of
    the lift changes sheet + parity (mod 2), and the lift two-colors.
    """
    if complexes.is_orientable(c):
        raise CoverError("complex is already orientable; it has no orientation double cover")
    flags = complexes.flag_action(c)
    lift = _action.lift(flags, 2, [None, [(f ^ g ^ 1) & 1 for f, g in enumerate(flags[1])], None])
    out = PolygonComplex(read_polygons(lift), name=c.name + "+" if c.name else None)
    if not complexes.is_orientable(out):
        raise InvariantError("orientation_double_cover: the cover of %r is not orientable" % (c,))
    return out


# ---------------------------------------------------------------------------
# cyclic covers


def _cycle_matrix(c: PolygonComplex):
    """Net crossing count of each edge label around each vertex cycle."""
    cycles = complexes.vertex_cycles_with_crossings(c)
    # the crossings are flag_sides entries, and every label is crossed
    labels = sorted({lab for cycle in cycles for lab, _ in cycle.crossings})
    col = {lab: t for t, lab in enumerate(labels)}
    rows = []
    for cycle in cycles:
        row = [0] * len(labels)
        for lab, direction in cycle.crossings:
            row[col[lab]] += direction
        rows.append(row)
    return labels, rows, [cycle.corners[0] for cycle in cycles]


def _integer_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Primitive integer basis of the rational nullspace of the row matrix.

    Fraction-free Gauss-Jordan elimination: each row operation scales the
    row by the pivot before subtracting and then divides the row by the gcd
    of its entries, so every row stays a nonzero multiple of the row that
    exact rational reduction would hold, and the pivot columns are the
    same.  Each free column gives one kernel vector, scaled by the lcm of
    the pivots so it is integral and then made primitive, with a positive
    entry at its free column.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        pv = prow[col]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != r and f:
                row = [pv * a - f * b for a, b in zip(mat[i], prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    scale = 1
    for rr, pc in enumerate(pivots):
        scale = lcm(scale, mat[rr][pc])
    basis = []
    for fc in (cc for cc in range(ncols) if cc not in pivots):
        v = [0] * ncols
        v[fc] = scale
        for rr, pc in enumerate(pivots):
            v[pc] = -mat[rr][fc] * (scale // mat[rr][pc])
        g = gcd(*v)
        basis.append([x // g for x in v] if g > 1 else v)
    return basis


def _checked_base(c: PolygonComplex, n: int):
    """The front half of every cyclic cover: the degree is at least 1 and
    the base certifies extremal.  Returns the base's _cycle_matrix."""
    if n < 1:
        raise CoverError("cover degree must be >= 1")
    rep = complexes.verify_extremal(c)
    if not rep.ok:
        raise CoverError("base complex is not extremal: %s" % (rep.failures,))
    return _cycle_matrix(c)


def _lift(c: PolygonComplex, sides, n: int, volt: dict[int, int]) -> list[list[int]]:
    """The flag action of c lifted to n sheets by voltages volt (label to
    shift), for sides = flag_sides(c): the one voltage lift of this module."""
    shift = [d * volt[lab] % n for lab, d in sides]
    return _action.lift(complexes.flag_action(c), n, [None, shift, None])


def cyclic_cover(c: PolygonComplex, assignment: VoltageAssignment) -> PolygonComplex:
    """Degree-n cyclic cover of an extremal complex from explicit voltages.

    The cover is the lift of the flag action by the voltages (see the
    module docstring for the direction).  Preconditions checked, in order:
    _checked_base's, a voltage per label, none for a label c lacks, no net
    voltage around any vertex cycle mod n, and a connected lift.
    """
    n = assignment.modulus
    labels, rows, anchors = _checked_base(c, n)
    volt = assignment.as_dict()
    missing = [lab for lab in labels if lab not in volt]
    if missing:
        raise CoverError("no voltage for labels %s" % missing)
    extra = sorted(set(volt) - set(labels))
    if extra:
        raise CoverError("voltages for labels the complex does not have: %s" % extra)
    for row, anchor in zip(rows, anchors):
        s = sum(coef * volt[lab] for coef, lab in zip(row, labels)) % n
        if s:
            raise CoverError(
                "net voltage %d != 0 (mod %d) around the vertex cycle at corner %s"
                % (s, n, tuple(anchor))
            )
    return _cover(c, assignment)


def _cover(c: PolygonComplex, assignment: VoltageAssignment) -> PolygonComplex:
    """The lift of a checked base c by voltages with no net voltage around
    any vertex cycle; checked connected, and trivalent once built."""
    n = assignment.modulus
    lift = _lift(c, _vertices.flag_sides(c), n, assignment.as_dict())
    if not _action.two_color(lift)[0]:
        raise CoverError("voltages give a disconnected cover of degree %d" % n)
    out = PolygonComplex(read_polygons(lift))
    sizes = complexes.vertex_class_sizes(out)
    if sizes[0] != 3 or sizes[-1] != 3:
        raise InvariantError(
            "cyclic_cover: the %d-cover of %r has vertex cycles of lengths %d..%d"
            % (n, c, sizes[0], sizes[-1])
        )
    return out


def find_voltage(c: PolygonComplex, n: int) -> VoltageAssignment:
    """First voltage assignment giving a connected non-orientable n-cover.

    Candidates are integer combinations of a kernel basis of the cycle
    crossing matrix (so cycle sums vanish exactly), scanned in order of
    increasing coefficient radius, up to MAX_VOLTAGE_RADIUS, and
    lexicographic within a radius, and reduced mod n; the zero vector is
    skipped when n > 1, and at n = 1 it is the first candidate.  A
    candidate is accepted when two_color reads its lift connected and not
    bipartite, as the certified base itself is at n = 1.  The counters
    (kernel dimension, candidates, rejects, radius) go to the
    "extpack.covers" logger at DEBUG.
    """
    labels, rows, _ = _checked_base(c, n)
    sides = _vertices.flag_sides(c)
    basis = _integer_kernel(rows, len(labels))
    columns = list(zip(*basis))
    combos = (
        (radius, combo)
        for radius in range(1, MAX_VOLTAGE_RADIUS + 1)
        for combo in itertools.product(range(-radius, radius + 1), repeat=len(basis))
        if max(map(abs, combo)) == radius
    )
    found = None
    tried = disconnected = orientable = radius = 0
    for radius, combo in combos:
        vec = [sum(a * b for a, b in zip(combo, col)) % n for col in columns]
        if n > 1 and not any(vec):
            continue
        tried += 1
        volt = dict(zip(labels, vec))
        connected, bipartite = _action.two_color(_lift(c, sides, n, volt))
        if not connected:
            disconnected += 1
        elif bipartite:
            orientable += 1
        else:
            found = VoltageAssignment.from_dict(n, volt)
            break
    # unimported, logging could show no record: keep it off the cold start
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("extpack.covers").debug(
            "find_voltage(%r, %d): kernel dim %d, %d candidates, %d disconnected,"
            " %d orientable, radius %d",
            c, n, len(basis), tried, disconnected, orientable, radius,
        )
    if found is None:
        raise EnumerationCapError(
            "voltage search exhausted (radius %d, kernel dim %d)" % (MAX_VOLTAGE_RADIUS, len(basis))
        )
    return found


def find_nonorientable_cyclic_cover(c: PolygonComplex, n: int) -> PolygonComplex:
    """First (in voltage search order) connected non-orientable n-cover.

    find_voltage checks the base at every n, and its voltages vanish around
    every vertex cycle by construction, so the cover skips cyclic_cover's
    checks.  At n = 1 the base is certified first, then c is returned.
    """
    assignment = find_voltage(c, n)
    return c if n == 1 else _cover(c, assignment)


def realize_spec(k: int, g: int) -> PolygonComplex:
    """A certified k-extremal complex of genus g, for any feasible pair.

    Composes the primitive grafting schedule for N = 6 + 6(g-2)/k with a
    non-orientable cyclic cover of degree j = k/k_N (the position of (k, g)
    on the parameter line of N).
    """
    from . import feasibility, grafting

    n_sides = feasibility._cell_size(k, g)
    j = feasibility.cover_index(k, g)
    base = grafting.build_primitive(n_sides)
    out = find_nonorientable_cyclic_cover(base, j)
    rep = complexes.verify_extremal(out)
    if not (rep.ok and (rep.k, rep.g, rep.n) == (k, g, n_sides)):
        raise InvariantError(
            "realize_spec: the complex for (k, g) = (%d, %d) certifies as %s" % (k, g, rep)
        )
    return complexes._renamed(out, "K%dG%d" % (k, g))
