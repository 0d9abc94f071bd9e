"""Covering constructions: orientation double covers and cyclic covers.

The orientation double cover takes two coherently oriented copies of every
polygon (the second with its boundary word reversed) and lifts each
pairing; an orientation-preserving pairing stays within a sheet, an
orientation-reversing one swaps sheets, and every lifted pairing is then
orientation preserving.  The cover of a k-extremal genus-g complex is an
orientable 2k-extremal complex of genus g - 1.

Cyclic degree-n covers are driven by voltages: an integer residue per edge
label.  Crossing an edge shifts the sheet by its voltage, so the vertex
cycles survive (length three) exactly when the net voltage around every
cycle vanishes.  `find_nonorientable_cyclic_cover` searches assignments
drawn from the integer kernel of the cycle/edge crossing matrix, in a
deterministic order, and returns the first connected non-orientable cover;
one exists for every n because the deck homomorphism can be chosen to kill
an orientation-reversing loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from . import complexes, feasibility, grafting
from .complexes import PolygonComplex
from .errors import CoverError, EnumerationCapError, InvariantError

#: largest coefficient radius the voltage search scans
MAX_VOLTAGE_RADIUS = 4


@dataclass(frozen=True)
class VoltageAssignment:
    """Sheet-shift residues, one per edge label, for a degree-n cyclic cover."""

    modulus: int
    voltages: tuple[tuple[int, int], ...]  # (label, residue) pairs, sorted

    def as_dict(self) -> dict[int, int]:
        return dict(self.voltages)

    @classmethod
    def from_dict(cls, n: int, d: dict[int, int]) -> "VoltageAssignment":
        return cls(modulus=n, voltages=tuple(sorted((k, v % n) for k, v in d.items())))


# ---------------------------------------------------------------------------
# orientation double cover


def orientation_double_cover(c: PolygonComplex) -> PolygonComplex:
    """Two-sheeted orientable cover of a non-orientable complex."""
    if complexes.is_orientable(c):
        raise CoverError("complex is already orientable; it has no orientation double cover")
    sizes = c.sizes
    k = len(sizes)
    # faces 0..k-1 are the + copies, k..2k-1 the reversed copies
    words = [[0] * sizes[p] for p in range(k)] + [[0] * sizes[p] for p in range(k)]
    label = 0
    occ = complexes.occurrences(c)
    for lab in sorted(occ):
        (p, i, s1), (q, j, s2) = occ[lab]
        ri = sizes[p] - 1 - i
        rj = sizes[q] - 1 - j
        if s1 == s2:
            pairs = (((p, i), (q, j)), ((k + p, ri), (k + q, rj)))
        else:
            pairs = (((p, i), (k + q, rj)), ((k + p, ri), (q, j)))
        for (fa, ia), (fb, ib) in pairs:
            label += 1
            words[fa][ia] = label
            words[fb][ib] = label
    out = PolygonComplex(
        tuple(tuple(w) for w in words),
        name=(c.name + "+") if c.name else None,
    )
    if not complexes.is_orientable(out):
        raise InvariantError("orientation_double_cover: the cover of %r is not orientable" % (c,))
    return out


# ---------------------------------------------------------------------------
# cyclic covers


def _cycle_matrix(c: PolygonComplex):
    """Net crossing count of each edge label around each vertex cycle."""
    labels = sorted(complexes.occurrences(c))
    col = {lab: t for t, lab in enumerate(labels)}
    rows = []
    anchors = []
    for data in complexes.vertex_cycles_with_crossings(c):
        row = [0] * len(labels)
        for lab, direction in data.crossings:
            row[col[lab]] += direction
        rows.append(row)
        anchors.append(data.cycle.corners[0])
    return labels, rows, anchors


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
                g = 0
                for x in row:
                    g = gcd(g, x)
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
        g = 0
        for x in v:
            g = gcd(g, x)
        basis.append([x // g for x in v] if g > 1 else v)
    return basis


def _cover_words(c: PolygonComplex, n: int, volt: dict[int, int]):
    """Words of the degree-n cover: sheet copies of each polygon with the
    pairing of label L shifted by volt[L] sheets."""
    occ = complexes.occurrences(c)
    nlabels = len(occ)
    lab_index = {lab: t for t, lab in enumerate(sorted(occ))}
    sizes = c.sizes
    k = len(sizes)
    words = [[0] * sizes[p] for _ in range(n) for p in range(k)]

    def face(p, t):
        return t * k + p

    for lab, ((p, i, s1), (q, j, s2)) in occ.items():
        v = volt[lab] % n
        for t in range(n):
            cover_lab = lab_index[lab] + 1 + nlabels * t
            words[face(p, t)][i] = s1 * cover_lab
            words[face(q, (t + v) % n)][j] = s2 * cover_lab
    return words


def _cover_components(c: PolygonComplex, n: int, volt: dict[int, int]) -> int:
    """Components of the degree-n cover: gcd of n and the net voltages of
    closed walks in the (connected) polygon graph of the base.

    A spanning tree gives every polygon a potential; each edge then
    contributes its voltage less the potential difference it spans.
    """
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(c.num_polygons)]
    for lab, ((p, _, _), (q, _, _)) in complexes.occurrences(c).items():
        adjacent[p].append((q, volt[lab]))
        adjacent[q].append((p, -volt[lab]))
    potential: list[int | None] = [None] * c.num_polygons
    potential[0] = 0
    stack = [0]
    parts = n
    while stack:
        p = stack.pop()
        for q, v in adjacent[p]:
            if potential[q] is None:
                potential[q] = potential[p] + v
                stack.append(q)
            else:
                parts = gcd(parts, potential[p] + v - potential[q])
    return parts


def cyclic_cover(c: PolygonComplex, assignment: VoltageAssignment) -> PolygonComplex:
    """Degree-n cyclic cover of an extremal complex from explicit voltages.

    Preconditions checked: the base certifies extremal, the net voltage
    around every vertex cycle vanishes mod n, and the cover is connected.
    """
    rep = complexes.verify_extremal(c)
    if not rep.ok:
        raise CoverError("base complex is not extremal: %s" % (rep.failures,))
    n = assignment.modulus
    if n < 1:
        raise CoverError("cover degree must be >= 1")
    volt = assignment.as_dict()
    labels, rows, anchors = _cycle_matrix(c)
    missing = [lab for lab in labels if lab not in volt]
    if missing:
        raise CoverError("no voltage for labels %s" % missing)
    for row, anchor in zip(rows, anchors):
        s = sum(coef * volt[lab] for coef, lab in zip(row, labels)) % n
        if s:
            raise CoverError(
                "net voltage %d != 0 (mod %d) around the vertex cycle at corner %s"
                % (s, n, tuple(anchor))
            )
    parts = _cover_components(c, n, volt)
    if parts > 1:
        raise CoverError(
            "voltages give a disconnected cover (%d components)" % parts
        )
    out = PolygonComplex(tuple(tuple(w) for w in _cover_words(c, n, volt)))
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
    lexicographic within a radius.
    """
    rep = complexes.verify_extremal(c)
    if not rep.ok:
        raise CoverError("base complex is not extremal: %s" % (rep.failures,))
    labels, rows, _ = _cycle_matrix(c)
    if n == 1:
        return VoltageAssignment.from_dict(1, {lab: 0 for lab in labels})
    basis = _integer_kernel(rows, len(labels))
    for radius in range(1, MAX_VOLTAGE_RADIUS + 1):
        for combo in itertools.product(range(-radius, radius + 1), repeat=len(basis)):
            if max(abs(x) for x in combo) != radius:
                continue
            vec = [0] * len(labels)
            for coef, bv in zip(combo, basis):
                if coef:
                    for t, x in enumerate(bv):
                        vec[t] += coef * x
            volt = {lab: vec[t] % n for t, lab in enumerate(labels)}
            if all(v == 0 for v in volt.values()):
                continue
            if _cover_components(c, n, volt) > 1:
                continue
            words = _cover_words(c, n, volt)
            out = PolygonComplex(tuple(tuple(w) for w in words))
            if complexes.is_orientable(out):
                continue
            return VoltageAssignment.from_dict(n, volt)
    raise EnumerationCapError(
        "voltage search exhausted (radius %d, kernel dim %d)" % (MAX_VOLTAGE_RADIUS, len(basis))
    )


def find_nonorientable_cyclic_cover(c: PolygonComplex, n: int) -> PolygonComplex:
    """First (in voltage search order) connected non-orientable n-cover."""
    if n == 1:
        return PolygonComplex(c.polygons, name=c.name)
    return cyclic_cover(c, find_voltage(c, n))


def realize_spec(k: int, g: int) -> PolygonComplex:
    """A certified k-extremal complex of genus g, for any feasible pair.

    Composes the primitive grafting schedule for N = 6 + 6(g-2)/k with a
    non-orientable cyclic cover of degree j = k/k_N (the position of (k, g)
    on the parameter line of N).
    """
    feasibility.require_feasible(k, g)
    n_sides = 6 + 6 * (g - 2) // k
    j = feasibility.cover_index(k, g)
    base = grafting.build_primitive(n_sides)
    out = find_nonorientable_cyclic_cover(base, j)
    rep = complexes.verify_extremal(out)
    if not (rep.ok and (rep.k, rep.g, rep.n) == (k, g, n_sides)):
        raise InvariantError(
            "realize_spec: the complex for (k, g) = (%d, %d) certifies as %s" % (k, g, rep)
        )
    return PolygonComplex(out.polygons, name="K%dG%d" % (k, g))
