"""The rewrite search of edge-grafting: the wiring table WIRINGS, the rows
each twist grafts by, the size policy graft_room, and the search of a
site's rows, discover_rewrite, with the Rewrite it returns and
apply_rewrite, which performs one.

They moved out of grafting so that no compile of a cold command is
large; grafting imports every name back, so grafting.WIRINGS,
grafting.discover_rewrite and the rest resolve as before.  Calls back
into grafting (grafting.apply_rewrite, grafting._graft_at) and into the
polygon layer (complexes.is_graftable, complexes.flag_action) go through
their modules: the benchmark tracer wraps those names there.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import complexes
from ._record import Record
from .errors import InvariantError


class Rewrite(Record):
    """An explicit graft: sequences of new signed labels inserted at slots.

    insertions are (polygon, position, labels) triples; inserting at
    position i places the new sides between the old sides i-1 and i.
    """

    insertions: tuple[tuple[int, int, tuple[int, ...]], ...]


def apply_rewrite(c: complexes.PolygonComplex, rw: Rewrite) -> complexes.PolygonComplex:
    words = [list(w) for w in c.polygons]
    by_poly: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for p, pos, seq in rw.insertions:
        by_poly.setdefault(p, []).append((pos, seq))
    for p, ins in by_poly.items():
        for pos, seq in sorted(ins, reverse=True):
            words[p][pos:pos] = list(seq)
    return complexes.PolygonComplex(tuple(tuple(w) for w in words), name=c.name)


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


def _twist(c: complexes.PolygonComplex, site: grafting.GraftSite) -> tuple[int, int]:
    """Which of the site's three crossings are orientation-reversing
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


def _fits(site: grafting.GraftSite, row, room) -> bool:
    """Whether the row grows no polygon beyond its room (None is no limit)."""
    if room is None:
        return True
    grow = Counter()
    for (p, _), word in zip(site.corners, row):
        grow[p] += len(word)
    return all(v <= room[p] for p, v in grow.items())


def _iter_rewrites(c: complexes.PolygonComplex, site: grafting.GraftSite, room):
    """Yield (rewrite, grafted complex) for every row of the site's twist
    (_TWIST_ROWS) that fits the room, in table order.

    c must be graftable; the callers check that once per search.  A row
    fits when it grows no polygon beyond its room (_fits); at a site whose
    corners miss a polygon that an exact room still fills, which the
    stream of _grafts never reaches, no row fits (_misses_room).  The
    grafted complex stays connected and non-orientable, because every old
    pairing survives.
    Each row is built and checked in full: a row of the twist that is not
    trivalent after all is an InvariantError.
    """
    base = max(abs(v) for w in c.polygons for v in w)
    twist = _twist(c, site)
    for r in _TWIST_ROWS[twist]:
        row = WIRINGS[r]
        if not _fits(site, row, room):
            continue
        rw = Rewrite(tuple(
            (p, pos, tuple(v + base if v > 0 else v - base for v in word))
            for (p, pos), word in zip(site.corners, row)
        ))
        out = grafting.apply_rewrite(c, rw)
        if not complexes.is_graftable(out):
            raise InvariantError(
                "graft: the twist table accepts row %d at %s (twist %s), the full check rejects"
                " rewrite %s" % (r, site.corners, twist, rw.insertions)
            )
        yield rw, out


def discover_rewrite(c: complexes.PolygonComplex, site: grafting.GraftSite) -> Rewrite:
    """The first rewrite of the wiring table at the site that fits the
    room of graft_room and grafts.

    Each row of WIRINGS inserts six new sides, three new pairs, at the
    site's corners; the rows that graft are those of the site's twist.
    Raises NotExtremalError when c is not graftable and
    IneligibleSiteError when none of the rows fits the room.
    """
    return grafting._graft_at(grafting._graftable(c), site)[0]


# grafting imports this module's names at its top, so it is imported last:
# then either module may be imported first
from . import grafting
