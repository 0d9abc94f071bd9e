"""The vertex-cycle readers of complexes: VertexCycle, the side of each
flag (flag_sides), every vertex cycle with its corners and crossings
(vertex_cycles), the occurrences of each label and the corners in flag
order (_corners).

They live apart from complexes so that its compile stays small, and a
caller that only certifies complexes (a census, verify_extremal and the
invariants) never loads them.  The library calls them here, as
_vertices.flag_sides and the like.  complexes resolves VertexCycle and
vertex_cycles, which the package exports from it, and occurrences and
vertex_cycles_with_crossings, which the benchmark tracer wraps there;
the library calls the alias through complexes.  The walk and a
cycle's flags, which read a complex's private fields, stay in complexes
(complexes._walk, complexes._cycle), and the flag action is read through
complexes.flag_action, which the tracer wraps.
"""

from __future__ import annotations

from . import complexes
from ._record import Record


def _corners(c: complexes.PolygonComplex) -> list[tuple[int, int]]:
    """Every corner (polygon, position), indexed by its number in the flag action."""
    return [(p, i) for p, word in enumerate(c.polygons) for i in range(len(word))]


class VertexCycle(Record):
    """Corners (polygon, position) around one surface vertex, in cyclic
    order, and the edges crossed between consecutive corners.

    crossing t sits between corners[t] and corners[t+1 (mod len)]; it is
    (label, direction) with direction +1 when the crossing leaves the first
    occurrence of the label (in scan order) and -1 when it leaves the
    second.  The corners fix the cycle, so the crossings take no part in
    equality or hashing.
    """

    corners: tuple[tuple[int, int], ...]
    crossings: tuple[tuple[int, int], ...] = ()
    _uncompared = ("crossings",)

    def __len__(self):
        return len(self.corners)


def occurrences(c: complexes.PolygonComplex) -> dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Map label -> its two occurrences (polygon, position, sign) in scan order."""
    out: dict[int, list] = {}
    for p, word in enumerate(c.polygons):
        for i, v in enumerate(word):
            out.setdefault(abs(v), []).append((p, i, 1 if v > 0 else -1))
    return {a: (occ[0], occ[1]) for a, occ in out.items()}


def flag_sides(c: complexes.PolygonComplex) -> list[tuple[int, int]]:
    """(label, direction) of the side each flag lies on.

    The direction is +1 on the label's first side in scan order and -1 on
    its second: the direction of VertexCycle.crossings, and of a cyclic
    cover's voltages.
    """
    # sides are numbered like the corners they leave: flag 2j lies on side
    # j, and t0 takes flag 2j+1 to the leaving flag of its side
    labels = [abs(v) for word in c.polygons for v in word]
    first = {lab: side for side, lab in reversed(list(enumerate(labels)))}
    sides = [(lab, 1 if first[lab] == side else -1) for side, lab in enumerate(labels)]
    out = sides * 2
    out[0::2] = sides
    out[1::2] = [sides[f >> 1] for f in complexes.flag_action(c)[0][1::2]]
    return out


def vertex_cycles(c: complexes.PolygonComplex) -> list[VertexCycle]:
    """All vertex cycles, by least corner, with their corners in cyclic
    order around the vertex and the crossings between them."""
    corners = _corners(c)
    sides = flag_sides(c)
    # the walk leaves each corner along the side of its other flag
    return [
        VertexCycle(
            tuple([corners[f >> 1] for f in flags]),
            tuple([sides[f ^ 1] for f in flags]),
        )
        for flags in (complexes._cycle(c, start) for start, _ in complexes._walk(c))
    ]


#: the same function; the library calls it under this name, which the
#: benchmark tracer wraps
vertex_cycles_with_crossings = vertex_cycles
