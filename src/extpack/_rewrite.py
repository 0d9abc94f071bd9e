"""The wiring table of edge-grafting and its size policy: the rows of
WIRINGS, the rows each twist grafts by (_TWIST_ROWS, _twist), and how
many new sides a row may give each polygon (graft_room, _misses_room,
_fits).

They live apart from grafting so that no compile of a cold command is
large.  grafting, the one module that builds grafted complexes, imports
the names it uses and holds the rewrite search (Rewrite, apply_rewrite,
discover_rewrite).  This module imports no module that imports it; it
reads the flag action through complexes.flag_action, which the
benchmark tracer wraps.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import complexes


#: the local wirings of EG1-EG4, shared by all four variants: one word of
#: new labels per site corner, in the order of the site's corners.  Label i
#: stands for base + i, base being the complex's largest label, and is
#: positive where it first occurs.  The rows are tried in this order.
WIRINGS = (
    ((1, 2), (-2, 3), (1, 3)),
    ((1, 2), (3, 2), (1, -3)),
    ((1, 2), (-2, 3), (-3, -1)),
    ((1, 2), (3, 2), (3, -1)),
    ((1,), (2,), (3, 1, -2, -3)),
    ((1,), (2,), (3, -2, -1, -3)),
    ((1,), (2, -1, 3, -2), (3,)),
)

#: the rows of WIRINGS (0-based) that graft at a site, by its twist.  A
#: graft changes t2 only at the site's corners, and on their six flags t1
#: is fixed by the twist, so every vertex cycle a row creates, and whether
#: each has three corners, depends only on the row and the twist.
_TWIST_ROWS = {
    (0, 0): (2, 5),
    (0, 1): (0, 6),
    (1, 0): (3,),
    (1, 1): (1, 4),
}


def _twist(c: complexes.PolygonComplex, site) -> tuple[int, int]:
    """Which of the GraftSite's three crossings are orientation-reversing
    pairings, as the parities of the flags t1 reaches from the arriving
    flag of the first corner and then from its partner at the second.  An
    even number of the crossings reverse, so these two bits give all
    three."""
    t1 = complexes.flag_action(c)[1]
    p, pos = site.corners[0]
    f = t1[2 * (sum(c.sizes[:p]) + pos) + 1]
    return f & 1, t1[f ^ 1] & 1


#: the per-polygon growths one graft can make: a row's side counts summed
#: over the corners that share a polygon, sorted, for every such sharing
_GROWTHS = frozenset(
    tuple(sorted(sum(len(w) for w, q in zip(row, owner) if q == p) for p in set(owner)))
    for row in WIRINGS
    for owner in itertools.product(range(3), repeat=3)
)


def graft_room(c: complexes.PolygonComplex) -> tuple[int, ...] | None:
    """How many new sides each polygon may take in one graft: the size
    policy of every graft.

    When one graft can make the complex uniform, of size (sum + 6) / k, the
    room is what each polygon lacks of that size.  It sums to 6, as every
    row of WIRINGS does, so a row fits only by filling it exactly.
    Otherwise, when (sum + 12) / k is whole, the room is what each polygon
    lacks of that size: the free half of a pair whose second graft makes
    the complex uniform (k = 2 and 6).  Otherwise None, no limit.
    """
    sizes = c.sizes
    k = len(sizes)
    total = sum(sizes)
    if (total + 6) % k == 0:
        room = tuple((total + 6) // k - s for s in sizes)
        if tuple(sorted(v for v in room if v)) in _GROWTHS:
            return room
    if (total + 12) % k == 0:
        return tuple((total + 12) // k - s for s in sizes)
    return None


def _misses_room(polys, room) -> bool:
    """Whether a site whose corners lie in the polygons polys misses a
    polygon that an exact room, one summing to 6 as every row does, still
    fills: then no row fits there.  _iter_sites passes over such a site;
    given one anyway, _fits rejects each row there, since the row puts its
    6 sides on the site's polygons, whose room sums to less than 6."""
    if room is None or sum(room) != 6:
        return False
    return any(v for p, v in enumerate(room) if p not in polys)


def _fits(site, row, room) -> bool:
    """Whether the row grows no polygon beyond its room (None is no limit)
    at the GraftSite."""
    if room is None:
        return True
    grow = Counter()
    for (p, _), word in zip(site.corners, row):
        grow[p] += len(word)
    return all(v <= room[p] for p, v in grow.items())
