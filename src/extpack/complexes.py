"""Polygon complexes: closed surfaces built from edge-identified polygons.

A complex is a list of polygons, each a cyclic word of signed nonzero
integer labels read counterclockwise around the boundary.  Every absolute
label occurs exactly twice across the complex and the two occurrences are
identified:

* equal signs: the identification is orientation preserving, so the two
  directed boundary occurrences are glued head-to-tail (the classical
  ``a ... a^{-1}`` pattern);
* opposite signs: the identification is orientation reversing and the
  occurrences are glued head-to-head (the classical ``a ... a`` pattern,
  a crosscap when both occurrences sit on one polygon).

With that convention ``polygon 1 1`` is a sphere, ``polygon 1 -1`` the
projective plane, ``polygon 1 2 1 2`` the torus and ``polygon 1 2 -1 2``
the Klein bottle.

Corners are the polygon vertices: corner (p, i) sits between side i-1 and
side i of polygon p.  The gluing partitions corners into vertex cycles; a
complex is certified extremal when it is connected, non-orientable, all
polygons share one size N >= 7 and every vertex cycle has length exactly
three (three angles of 2*pi/3 closing up to 2*pi).

Every combinatorial fact here is read from the flag action (see
flag_action), which a complex builds once, when it is created.  One walk
of t1 t2 gives the vertex cycles; vertex_cycles records each as one
VertexCycle, its corners with the edges crossed between them, which the
grafts, the cyclic covers and the holonomy check all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ComplexFormatError, InvalidComplexError, InvariantError

FORMAT_HEADER = "# extpack complex format v1"


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class PolygonComplex:
    """An edge-identified collection of polygons forming a closed surface.

    The name is presentation metadata and does not take part in equality.
    Creating a complex validates its labels and builds its flag action in
    one pass; the action is kept outside the dataclass fields.
    """

    polygons: tuple[tuple[int, ...], ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        polys = tuple(tuple(w) for w in self.polygons)
        object.__setattr__(self, "polygons", polys)
        if not polys:
            raise InvalidComplexError("complex needs at least one polygon")
        # one pass validates the labels and builds the flag action (see
        # flag_action for the numbering): seen maps a label to its first
        # side's flags until the second occurrence pairs it, then to None
        m = 2 * sum(map(len, polys))
        t0 = [0] * m
        t1 = [0] * m
        seen: dict[int, tuple[int, int, bool] | None] = {}
        bad = []
        corner = 0
        for word in polys:
            n = len(word)
            if n < 1:
                raise InvalidComplexError("empty polygon")
            for i, v in enumerate(word):
                if not isinstance(v, int) or v == 0:
                    raise InvalidComplexError("labels must be nonzero integers, got %r" % (v,))
                start = 2 * (corner + i)
                end = 2 * (corner + (i + 1) % n) + 1
                t0[start] = end
                t0[end] = start
                a = abs(v)
                if a not in seen:
                    seen[a] = (start, end, v > 0)
                    continue
                first = seen[a]
                if first is None:
                    bad.append(a)
                    continue
                seen[a] = None
                start1, end1, positive = first
                if positive == (v > 0):
                    start, end = end, start
                t1[start1], t1[start] = start, start1
                t1[end1], t1[end] = end, end1
            corner += n
        bad.extend(a for a, first in seen.items() if first is not None)
        if bad:
            raise InvalidComplexError(
                "unpaired label %s: every label must occur exactly twice" % (min(bad),)
            )
        t2 = [0] * m
        t2[0::2] = range(1, m, 2)
        t2[1::2] = range(0, m, 2)
        flags = (tuple(t0), tuple(t1), tuple(t2))
        transitive, bipartite = two_color(flags)
        if not transitive:
            raise InvalidComplexError("complex is disconnected")
        object.__setattr__(self, "_flags", flags)
        object.__setattr__(self, "_orientable", bipartite)

    @property
    def num_polygons(self) -> int:
        return len(self.polygons)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.polygons)

    @property
    def num_edges(self) -> int:
        return sum(self.sizes) // 2

    def __repr__(self):
        tag = " %s" % self.name if self.name else ""
        return "<PolygonComplex%s k=%d sides=%s>" % (tag, self.num_polygons, list(self.sizes))


def _renamed(c: PolygonComplex, name: str | None) -> PolygonComplex:
    """c under another name, sharing its words and its flag action."""
    out = object.__new__(PolygonComplex)
    out.__dict__.update(c.__dict__, name=name)
    return out


@dataclass(frozen=True)
class VertexCycle:
    """Corners (polygon, position) around one surface vertex, in cyclic
    order, and the edges crossed between consecutive corners.

    crossing t sits between corners[t] and corners[t+1 (mod len)]; it is
    (label, direction) with direction +1 when the crossing leaves the first
    occurrence of the label (in scan order) and -1 when it leaves the
    second.  The corners fix the cycle, so the crossings take no part in
    equality or hashing.
    """

    corners: tuple[tuple[int, int], ...]
    crossings: tuple[tuple[int, int], ...] = field(default=(), compare=False)

    def __len__(self):
        return len(self.corners)


@dataclass(frozen=True)
class SurfaceInvariants:
    vertices: int
    edges: int
    faces: int
    euler_characteristic: int
    orientable: bool
    genus: int


@dataclass(frozen=True)
class ExtremalityReport:
    ok: bool
    k: int | None
    g: int | None
    n: int | None
    chi: int
    orientable: bool
    failures: tuple[str, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "ok": self.ok,
            "k": self.k,
            "g": self.g,
            "N": self.n,
            "chi": self.chi,
            "orientable": self.orientable,
            "failures": list(self.failures),
        }


# ---------------------------------------------------------------------------
# combinatorial structure, all read from the flag action


def two_color(perms) -> tuple[bool, bool]:
    """Color points by a BFS from 0 in which every permutation flips the color.

    Returns (transitive, bipartite): whether every point is reached, and
    whether no permutation maps a point to one of its own color.  For a
    complex's flag action these are connectivity and orientability; for a
    subgroup's coset action bipartite means the subgroup avoids every
    orientation-reversing word.
    """
    color = [-1] * len(perms[0])
    color[0] = 0
    queue = [0]
    bipartite = True
    for x in queue:
        flip = 1 - color[x]
        for perm in perms:
            y = perm[x]
            cy = color[y]
            if cy < 0:
                color[y] = flip
                queue.append(y)
            elif cy != flip:
                bipartite = False
    return len(queue) == len(color), bipartite


def bfs_code(perms, start: int, bound: tuple[int, ...] | None = None) -> tuple[int, ...] | None:
    """The action renumbered by a BFS from start, read point by point.

    Points are numbered in the order the BFS first reaches them, scanning
    the permutations in order; entry k*i + j of the code (k = len(perms))
    is the number of perms[j] applied to point number i.  Two pointed
    transitive actions are isomorphic exactly when their codes are equal.
    With a bound, returns None as soon as a prefix of the code reads
    greater than the bound's (Weinberg's 1966 code for maps, with the
    early abort of a least-code search).
    """
    order = [-1] * len(perms[0])
    order[start] = 0
    seq = [start]
    code = []
    for x in seq:
        for perm in perms:
            y = perm[x]
            o = order[y]
            if o < 0:
                o = order[y] = len(seq)
                seq.append(y)
            if bound is not None and o != bound[len(code)]:
                if o > bound[len(code)]:
                    return None
                bound = None
            code.append(o)
    return tuple(code)


def least_code(perms) -> tuple[int, ...]:
    """The least BFS code over all start points of a transitive action.

    It is the isomorphism key: equal for two actions exactly when they are
    isomorphic, so for two complexes' flag actions exactly when one is the
    other relabeled, with polygons rotated, reordered or mirrored, and for
    two coset tables exactly when the subgroups are conjugate.
    """
    best = bfs_code(perms, 0)
    for start in range(1, len(perms[0])):
        code = bfs_code(perms, start, best)
        if code is not None:
            best = code
    return best


def automorphisms(c: PolygonComplex) -> list[int]:
    """The automorphism group of c, as the images of flag 0.

    An automorphism of the flag action commutes with t0, t1 and t2, so it
    is fixed by where it sends flag 0, and flag f is such an image exactly
    when the BFS code from f equals the code from flag 0.  The list starts
    with flag 0 (the identity) and is increasing; the group acts freely on
    the flags, so its order, the length of the list, divides their number.
    """
    perms = c._flags
    ref = bfs_code(perms, 0)
    return [f for f in range(len(perms[0])) if bfs_code(perms, f, ref) == ref]


def flag_action(c: PolygonComplex) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The three flag involutions (side swap, edge crossing, corner swap).

    Every corner carries two flags.  Number corner (p, i) as j = (corners
    of the polygons before p) + i; then flag 2*j sits on the side leaving
    corner j and flag 2*j+1 on the side arriving at it.  So the corner of
    flag f is f >> 1, and t2, which swaps the two flags of a corner within
    its polygon, is f ^ 1.  t0 exchanges the two flags of a side, and t1
    crosses the edge pairing (respecting the sign convention).  The action
    is built once, when the complex is created.
    """
    return c._flags


def occurrences(c: PolygonComplex) -> dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Map label -> its two occurrences (polygon, position, sign) in scan order."""
    out: dict[int, list] = {}
    for p, word in enumerate(c.polygons):
        for i, v in enumerate(word):
            out.setdefault(abs(v), []).append((p, i, 1 if v > 0 else -1))
    return {a: (occ[0], occ[1]) for a, occ in out.items()}


def _corners(c: PolygonComplex) -> list[tuple[int, int]]:
    """Every corner (polygon, position), indexed by its number in the flag action."""
    return [(p, i) for p, word in enumerate(c.polygons) for i in range(len(word))]


def _walk(c: PolygonComplex):
    """Yield each vertex cycle as the flags that t1 . t2 visits.

    Cycles come in the order of their least corner and start at its
    leaving flag; the walk meets each corner of a cycle once.
    """
    t1 = c._flags[1]
    seen = bytearray(len(t1) >> 1)
    for start in range(0, len(t1), 2):
        if seen[start >> 1]:
            continue
        cycle = []
        f = start
        while True:
            cycle.append(f)
            seen[f >> 1] = 1
            f = t1[f ^ 1]
            if f == start:
                break
        yield cycle


def vertex_class_sizes(c: PolygonComplex, cap: int | None = None) -> list[int] | None:
    """Sizes of the corner classes; returns None early if any exceeds cap."""
    sizes = []
    for cycle in _walk(c):
        if cap and len(cycle) > cap:
            return None
        sizes.append(len(cycle))
    return sorted(sizes)


def flag_sides(c: PolygonComplex) -> list[tuple[int, int]]:
    """(label, direction) of the side each flag lies on.

    The direction is +1 on the label's first side in scan order and -1 on
    its second: the direction of VertexCycle.crossings, and of a cyclic
    cover's voltages.
    """
    # sides are numbered like the corners they leave: flag 2j lies on side
    # j, and t0 takes flag 2j+1 to the leaving flag of its side
    labels = [abs(v) for word in c.polygons for v in word]
    first: dict[int, int] = {}
    for side, lab in enumerate(labels):
        first.setdefault(lab, side)
    sides = [(lab, 1 if first[lab] == side else -1) for side, lab in enumerate(labels)]
    out = sides * 2
    out[0::2] = sides
    out[1::2] = [sides[f >> 1] for f in c._flags[0][1::2]]
    return out


def vertex_cycles(c: PolygonComplex) -> list[VertexCycle]:
    """All vertex cycles, by least corner, with their corners in cyclic
    order around the vertex and the crossings between them."""
    corners = _corners(c)
    sides = flag_sides(c)
    # the walk leaves each corner along the side of its other flag
    return [
        VertexCycle(
            tuple([corners[f >> 1] for f in cycle]),
            tuple([sides[f ^ 1] for f in cycle]),
        )
        for cycle in _walk(c)
    ]


#: the same function; the library calls it under this name, which the
#: benchmark tracer wraps
vertex_cycles_with_crossings = vertex_cycles


def is_orientable(c: PolygonComplex) -> bool:
    """Whether the flag action two-colors (decided when c is created)."""
    return c._orientable


def surface_invariants(c: PolygonComplex) -> SurfaceInvariants:
    """Euler characteristic, orientability and genus of the glued surface."""
    v = sum(1 for _ in _walk(c))
    e = c.num_edges
    f = c.num_polygons
    chi = v - e + f
    orientable = is_orientable(c)
    if orientable:
        if chi % 2:
            raise InvalidComplexError("orientable surface with odd Euler characteristic")
        genus = (2 - chi) // 2
    else:
        genus = 2 - chi
    return SurfaceInvariants(v, e, f, chi, orientable, genus)


def verify_extremal(c: PolygonComplex) -> ExtremalityReport:
    """Certify that c is an extremal complex and report (k, g, N).

    Checks: uniform polygon size N >= 7, every vertex cycle of length three,
    non-orientable.  Failures are collected, never raised.  When the
    certificate holds, kN = 6g + 6k - 12 follows from chi = k - kN/6.
    """
    failures: list[str] = []
    sizes = set(c.sizes)
    n = None
    if len(sizes) != 1:
        failures.append("NonUniformPolygon(sizes=%s)" % sorted(sizes))
    else:
        n = sizes.pop()
        if n < 7:
            failures.append("CellTooSmall(N=%d)" % n)

    v = 0
    corners = None
    for cycle in _walk(c):
        v += 1
        if len(cycle) != 3:
            if corners is None:
                corners = _corners(c)
            p, i = corners[cycle[0] >> 1]
            failures.append("NotTrivalent(length=%d, corner=(%d, %d))" % (len(cycle), p, i))
    orientable = is_orientable(c)
    if orientable:
        failures.append("Orientable")

    e = c.num_edges
    f = c.num_polygons
    chi = v - e + f
    ok = not failures
    k = g = nn = None
    if ok:
        k, nn, g = f, n, 2 - chi
        if k * nn != 6 * g + 6 * k - 12:
            raise InvariantError(
                "verify_extremal: kN = 6g + 6k - 12 fails for (k, g, N) = (%d, %d, %d)" % (k, g, nn)
            )
    return ExtremalityReport(
        ok=ok, k=k, g=g, n=nn, chi=chi, orientable=orientable, failures=tuple(failures)
    )


def is_graftable(c: PolygonComplex) -> bool:
    """Connected, non-orientable, every vertex trivalent (sizes may differ)."""
    sizes = vertex_class_sizes(c, cap=3)
    if sizes is None or sizes[0] != 3:
        return False
    return not is_orientable(c)


# ---------------------------------------------------------------------------
# canonical form


def read_polygons(perms) -> tuple[tuple[int, ...], ...]:
    """The polygon words of a flag action (t0, t1, t2), read flag by flag.

    Each flag x that is not yet on a polygon starts the next polygon, whose
    sides are (a, t0 a) from a = x, stepping a <- t2 t0 a until a returns
    to x.  Labels are numbered 1, 2, ... by first occurrence and positive
    there; the partner of a side (a, b) with label v holds t1 a and t1 b,
    and reads +v if its first flag is t1 b, -v if it is t1 a.  With the
    sign rule of PolygonComplex, the words glue back to the given action,
    up to renumbering of the flags.
    """
    t0, t1, t2 = perms
    side_of = [-1] * len(t0)  # flag -> 2 * (its side's number) + its end
    firsts: list[int] = []  # the first flag of every side
    sizes: list[int] = []
    for x in range(len(t0)):
        if side_of[x] >= 0:
            continue
        a = x
        before = len(firsts)
        while True:
            b = t0[a]
            side_of[a] = 2 * len(firsts)
            side_of[b] = 2 * len(firsts) + 1
            firsts.append(a)
            a = t2[b]
            if a == x:
                break
        sizes.append(len(firsts) - before)
    labels = [0] * len(firsts)
    label = 0
    for s, a in enumerate(firsts):
        if labels[s]:
            continue
        label += 1
        labels[s] = label
        partner = side_of[t1[a]]
        if partner >> 1 == s:
            raise InvariantError("read_polygons: t1 glues side %d to itself" % s)
        labels[partner >> 1] = label if partner & 1 else -label
    words = []
    at = 0
    for n in sizes:
        words.append(tuple(labels[at:at + n]))
        at += n
    return tuple(words)


def canonicalize(c: PolygonComplex) -> PolygonComplex:
    """The canonical form: c read off its least-code flag action.

    least_code renumbers the flags so that t_j of new flag i is entry
    3i + j of the code; read_polygons reads the words off that action.
    Since least_code is the isomorphism key, so is the result: two
    complexes have the same canonical form exactly when one is the other
    relabeled, with polygons rotated, reordered or mirrored.
    """
    code = least_code(c._flags)
    words = read_polygons((code[0::3], code[1::3], code[2::3]))
    return PolygonComplex(words, name=c.name)


# ---------------------------------------------------------------------------
# file format


def parse(text: str) -> PolygonComplex:
    """Parse the complex file format and return the canonical complex.

    Lines: ``#`` comments, an optional ``name <string>`` line, and one
    ``polygon <signed ints>`` line per polygon.
    """
    name = None
    polys: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "name":
            if name is not None:
                raise ComplexFormatError("duplicate name line", line=lineno)
            name = line[len("name"):].strip() or None
            continue
        if fields[0] != "polygon":
            raise ComplexFormatError("expected 'polygon' or 'name', got %r" % fields[0], line=lineno)
        word = []
        for tok in fields[1:]:
            try:
                v = int(tok)
            except ValueError:
                raise ComplexFormatError("bad label %r" % tok, line=lineno) from None
            if v == 0:
                raise ComplexFormatError("zero label", line=lineno)
            word.append(v)
        if not word:
            raise ComplexFormatError("empty polygon", line=lineno)
        polys.append(tuple(word))
    if not polys:
        raise ComplexFormatError("no polygon lines found")
    return canonicalize(PolygonComplex(tuple(polys), name=name))


def serialize(c: PolygonComplex) -> str:
    """Write the canonical form of c in the complex file format."""
    canon = canonicalize(c)
    lines = [FORMAT_HEADER]
    if canon.name:
        lines.append("name %s" % canon.name)
    for word in canon.polygons:
        lines.append("polygon " + " ".join(str(v) for v in word))
    return "\n".join(lines) + "\n"
