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

A complex stores one involution of its flag action (see flag_action),
the edge crossing t1, written when it is created by the pass that also
decides connectivity and orientability on the polygon graph; t0 and t2
follow from the polygon sizes and are built on first use.  One walk of
t1 t2 finds the vertex cycles, each as its start flag and its number of
corners, which is all the certificate reads.  A walk that reaches the
end is kept on the complex, so a census's capped filter, the
certificate, the invariants, vertex_cycles and the graft sites walk a
complex once.  The complex writes its fields and these stored results
straight into its instance dict.

The canonical form and the file format (_canon) and the vertex-cycle
readers (_vertices) live in private modules, so that no compile of a
cold command is large and a caller that only certifies loads neither.
The library calls them there.  The module __getattr__ resolves here only
the package's public names among them and the two the benchmark tracer
wraps on this module, occurrences and vertex_cycles_with_crossings.

New library capability goes in a new module, not here; a function here
that needs it imports that module inside its body, as trigroup imports
_lowindex.  A new command is one entry in _commands.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain

from ._record import Record
from .errors import InvalidComplexError, InvariantError

# ---------------------------------------------------------------------------
# data model


class PolygonComplex(Record):
    """An edge-identified collection of polygons forming a closed surface.

    The name is presentation metadata and does not take part in equality.
    Creating a complex validates its labels and writes t1, outside the
    record fields, in one pass that also decides connectivity and
    orientability on the polygon graph; flag_action derives t0 and t2.
    __init__ writes the fields in one update of the instance dict, and
    __post_init__, which it calls through the class, writes the checked
    polygons, t1 and the orientability bit in one more.
    """

    polygons: tuple[tuple[int, ...], ...]
    name: str | None = None
    _uncompared = ("name",)

    def __init__(self, polygons, name=None):
        self.__dict__.update(polygons=polygons, name=name)
        self.__post_init__()

    def __post_init__(self):
        polys = tuple(map(tuple, self.polygons))
        if not polys:
            raise InvalidComplexError("complex needs at least one polygon")
        # a C-level check of all labels; a fault runs the ordered scan to word it
        flat = list(chain.from_iterable(polys))
        if not all(polys) or set(map(type, flat)) != {int} or 0 in flat:
            for word in polys:
                if not word:
                    raise InvalidComplexError("empty polygon")
                for v in word:
                    if not isinstance(v, int) or v == 0:
                        raise InvalidComplexError("labels must be nonzero integers, got %r" % (v,))
        # one pass pairs the sides and writes t1 (see flag_action): seen maps
        # a label to its first side's leaving flag, end flag, sign, polygon
        m = 2 * len(flat)
        t1 = [-1] * m
        seen: dict[int, tuple[int, int, bool, int]] = {}
        # links[p]: (q, flipped) per pairing of polygon p with a polygon q != p
        links = [[] for _ in polys] if len(polys) > 1 else None
        orientable = True
        start = -2  # the leaving flag of the side before the current one
        for p, word in enumerate(polys):
            # the polygon's last side leaves flag last and ends at wrap, the
            # arriving flag of its first corner
            wrap, last = start + 3, start + 2 * len(word)
            for v in word:
                start += 2
                end = start + 3 if start != last else wrap
                positive = v > 0
                a = v if positive else -v
                if a not in seen:
                    seen[a] = (start, end, positive, p)
                    continue
                start1, end1, positive1, p1 = seen[a]
                flipped = positive1 != positive
                # a flipped pair glues head to head, the other head to tail
                if flipped:
                    t1[start1], t1[start] = start, start1
                    t1[end1], t1[end] = end, end1
                else:
                    t1[start1], t1[end] = end, start1
                    t1[end1], t1[start] = start, end1
                if p1 != p:
                    links[p1].append((p, flipped))
                    links[p].append((p1, flipped))
                elif flipped:
                    orientable = False
        # 2 * labels = sides and no flag left at -1: each label seen exactly twice
        if 4 * len(seen) != m or -1 in t1:
            bad = min(a for a, n in Counter(map(abs, flat)).items() if n != 2)
            raise InvalidComplexError("unpaired label %s: every label must occur exactly twice" % bad)
        # color the polygon graph, a flipped link changing the color; it is
        # the flag action's two-coloring with p's color on p's leaving flags.
        # One polygon is connected, and its self-pairings decided orientability
        if len(polys) > 1:
            color = [0] + [-1] * (len(polys) - 1)
            queue = [0]
            for p in queue:
                cp = color[p]
                for q, flipped in links[p]:
                    if color[q] < 0:
                        color[q] = cp ^ flipped
                        queue.append(q)
                    elif color[q] != cp ^ flipped:
                        orientable = False
            if len(queue) < len(polys):
                raise InvalidComplexError("complex is disconnected")
        self.__dict__.update(polygons=polys, _t1=tuple(t1), _orientable=orientable)

    @property
    def num_polygons(self) -> int:
        return len(self.polygons)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.polygons))

    @property
    def num_edges(self) -> int:
        # four flags to an edge
        return len(self._t1) >> 2

    def __repr__(self):
        tag = " %s" % self.name if self.name else ""
        return "<PolygonComplex%s k=%d sides=%s>" % (tag, self.num_polygons, list(self.sizes))


def _renamed(c: PolygonComplex, name: str | None) -> PolygonComplex:
    """c under another name, sharing its words and whatever c has derived;
    c itself is left as it was."""
    out = object.__new__(PolygonComplex)
    out.__dict__.update(c.__dict__, name=name)
    return out


class SurfaceInvariants(Record):
    vertices: int
    edges: int
    faces: int
    euler_characteristic: int
    orientable: bool
    genus: int


class ExtremalityReport(Record):
    ok: bool
    k: int | None
    g: int | None
    n: int | None
    chi: int
    orientable: bool
    failures: tuple[str, ...] = ()

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
# combinatorial structure, read from flag actions


def flag_action(c: PolygonComplex) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The three flag involutions (side swap, edge crossing, corner swap).

    Every corner carries two flags.  Number corner (p, i) as j = (corners
    of the polygons before p) + i; then flag 2*j sits on the side leaving
    corner j and flag 2*j+1 on the side arriving at it.  So the corner of
    flag f is f >> 1, and t2, which swaps the two flags of a corner within
    its polygon, is f ^ 1.  t0 exchanges the two flags of a side, and t1
    crosses the edge pairing (respecting the sign convention).  Only t1 is
    stored at creation; t0 and t2 are built here on first use, and kept.
    """
    flags = getattr(c, "_flags", None)
    if flags is None:
        # t0 swaps a side's flags 2j and 2j + 3; the last side of a polygon
        # with corners b .. e - 1 ends at flag 2b + 1, not 2e + 1
        m = len(c._t1)
        t0, t2 = [0] * m, [0] * m
        t0[0::2], t0[1::2] = range(3, m + 3, 2), range(-2, m - 2, 2)
        t2[0::2], t2[1::2] = range(1, m, 2), range(0, m, 2)
        ends = list(accumulate(map(len, c.polygons)))
        for b, e in zip([0] + ends, ends):
            t0[2 * e - 2], t0[2 * b + 1] = 2 * b + 1, 2 * e - 2
        flags = (tuple(t0), c._t1, tuple(t2))
        c.__dict__["_flags"] = flags
    return flags


def _walk(c: PolygonComplex, cap: int | None = None) -> list[tuple[int, int]] | None:
    """Each vertex cycle as (start, corners): the leaving flag of its least
    corner and the number of corners that t1 . t2 visits from there.

    This is the one routine that finds the vertex cycles.  They come in the
    order of their least corner, so the starts increase.  The walk counts
    corners and keeps no flags (_cycle reads a cycle's flags from its
    start).  It returns None as soon as a cycle passes cap corners; with no
    cap it tests against the number of flags, which no cycle passes.

    A walk that reaches the end, uncapped or within its cap, is kept on c
    as _cycles, as flag_action keeps the flag triple, and every later call
    answers from it: None exactly when its largest cycle passes the cap.
    So a complex is walked to the end at most once, and callers share the
    list and only read it.
    """
    out = getattr(c, "_cycles", None)
    if out is not None:
        return out if cap is None or max([n for _, n in out]) <= cap else None
    t1 = c._t1
    cap = len(t1) if cap is None else cap
    seen = bytearray(len(t1) >> 1)
    out = []
    for start in range(0, len(t1), 2):
        if seen[start >> 1]:
            continue
        # later starts are greater, so start's own corner needs no mark
        n = 1
        f = t1[start ^ 1]
        while f != start:
            n += 1
            if n > cap:
                return None
            seen[f >> 1] = 1
            f = t1[f ^ 1]
        out.append((start, n))
    c.__dict__["_cycles"] = out
    return out


def _drop_derived(c: PolygonComplex) -> None:
    """Drop c's flag triple and kept walk, which flag_action and _walk
    rebuild on first use; c keeps its words and t1."""
    c.__dict__.pop("_flags", None)
    c.__dict__.pop("_cycles", None)


def _cycle(c: PolygonComplex, start: int) -> list[int]:
    """The flags of the vertex cycle that _walk starts at start, one per
    corner, in the order t1 . t2 visits them."""
    t1 = c._t1
    flags = [start]
    f = t1[start ^ 1]
    while f != start:
        flags.append(f)
        f = t1[f ^ 1]
    return flags


def vertex_class_sizes(c: PolygonComplex, cap: int | None = None) -> list[int] | None:
    """Sorted sizes of the corner classes, or None when one passes cap
    (any number >= 1): the walk stops at the first such cycle."""
    if cap is not None and cap < 1:
        raise ValueError("need cap >= 1, got %r" % (cap,))
    walk = _walk(c, cap)
    return None if walk is None else sorted([n for _, n in walk])


def is_orientable(c: PolygonComplex) -> bool:
    """Whether the polygon graph two-colors (decided when c is created)."""
    return c._orientable


def surface_invariants(c: PolygonComplex) -> SurfaceInvariants:
    """Euler characteristic, orientability and genus of the glued surface."""
    v = len(_walk(c))
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
    sizes = set(map(len, c.polygons))
    n = None
    if len(sizes) != 1:
        failures.append("NonUniformPolygon(sizes=%s)" % sorted(sizes))
    else:
        n = sizes.pop()
        if n < 7:
            failures.append("CellTooSmall(N=%d)" % n)

    walk = _walk(c)
    v = len(walk)
    for start, length in walk:
        if length != 3:
            # the cycle's least corner: corner number start >> 1, counted
            # polygon by polygon
            p, i = 0, start >> 1
            while i >= len(c.polygons[p]):
                i -= len(c.polygons[p])
                p += 1
            failures.append("NotTrivalent(length=%d, corner=(%d, %d))" % (length, p, i))
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
    return ExtremalityReport(ok, k, g, nn, chi, orientable, tuple(failures))


def is_graftable(c: PolygonComplex) -> bool:
    """Connected, non-orientable, every vertex trivalent (sizes may differ)."""
    sizes = vertex_class_sizes(c, cap=3)
    return sizes is not None and sizes[0] == 3 and not is_orientable(c)


# ---------------------------------------------------------------------------
# names read from the private modules


def __getattr__(name):
    """The public names of this module whose code lives in a private
    module, and the two names the benchmark tracer wraps here, read (PEP
    562) from that module, which loads on first use: the least-code pass,
    the canonical form and the file format from _canon, the vertex-cycle
    readers from _vertices."""
    if name in ("least_code", "automorphisms", "canonicalize", "parse", "serialize"):
        from . import _canon as module
    elif name in ("VertexCycle", "vertex_cycles", "occurrences", "vertex_cycles_with_crossings"):
        from . import _vertices as module
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(module, name)
