"""Edge-grafting: local rewrites that raise the genus of an extremal
complex by one while keeping every vertex trivalent.

A graft inserts three new edge pairs (six new sides) at a chosen vertex
cycle, keeping all old pairings.  `eligible_sites` reads the sites and
whether the complex is graftable (trivalent and non-orientable) off one
walk of its vertex cycles.  The wirings are the rows of WIRINGS, one
table for all four variants.  How many new sides each polygon may take
is one policy, `graft_room`: exactly what makes the complex
uniform when one graft can, else up to the size a second graft can
equalize (the free half of a pair), else no limit.  Which rows leave
every vertex trivalent depends only on the site's twist, which of its
three crossings reverse orientation (`_TWIST_ROWS`).  `discover_rewrite`
returns the first row of the twist, in table order, whose side counts
fit the room; the grafted complex is checked in full.  Any such rewrite
changes (V, E, F) by (+2, +3, 0), so the genus goes up by exactly one.

The four variants come in two alternating families.  EG1/EG2 act at a
cycle seen as three separate boundary corners; EG3/EG4 act at a cycle two
of whose corners flank an edge shared by two different polygons (the
2*pi/3 + 4*pi/3 picture).  Within a family the two names are the two
phases of the alternation and share the same mechanism.

Iterating grafts from the four seed complexes produces a primitive
extremal complex for every cell size N >= 7 (`build_primitive`).
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass

from . import complexes
from .complexes import PolygonComplex, VertexCycle
from .errors import IneligibleSiteError, InvariantError, NotExtremalError, RewriteSearchError


class GraftVariant(enum.Enum):
    EG1 = "EG1"
    EG2 = "EG2"
    EG3 = "EG3"
    EG4 = "EG4"

    @property
    def needs_shared_edge(self) -> bool:
        return self in (GraftVariant.EG3, GraftVariant.EG4)


@dataclass(frozen=True)
class GraftSite:
    """A vertex cycle at which a variant may be applied.

    shared_edge is the label of an inter-polygon edge flanked by two of the
    cycle's corners (EG3/EG4 only).
    """

    variant: GraftVariant
    cycle: VertexCycle
    shared_edge: int | None = None

    @property
    def corners(self):
        return self.cycle.corners


@dataclass(frozen=True)
class Rewrite:
    """An explicit graft: sequences of new signed labels inserted at slots.

    insertions are (polygon, position, labels) triples; inserting at
    position i places the new sides between the old sides i-1 and i.
    """

    insertions: tuple[tuple[int, int, tuple[int, ...]], ...]


def apply_rewrite(c: PolygonComplex, rw: Rewrite) -> PolygonComplex:
    words = [list(w) for w in c.polygons]
    by_poly: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for p, pos, seq in rw.insertions:
        by_poly.setdefault(p, []).append((pos, seq))
    for p, ins in by_poly.items():
        for pos, seq in sorted(ins, reverse=True):
            words[p][pos:pos] = list(seq)
    return PolygonComplex(tuple(tuple(w) for w in words), name=c.name)


#: the message of every graftability check
_NOT_GRAFTABLE = "complex is not graftable (trivalent + non-orientable)"


def eligible_sites(c: PolygonComplex, variant: GraftVariant) -> list[GraftSite]:
    """All vertex cycles where the variant may act, ordered by least corner.

    The complex must be graftable: connected, non-orientable and trivalent
    throughout (polygon sizes are allowed to differ between the two halves
    of a paired graft step).  The cycles the sites are read from decide it.
    """
    cycles = complexes.vertex_cycles_with_crossings(c)
    if complexes.is_orientable(c) or any(len(cycle) != 3 for cycle in cycles):
        raise NotExtremalError(_NOT_GRAFTABLE)
    if not variant.needs_shared_edge:
        return [GraftSite(variant=variant, cycle=cycle) for cycle in cycles]
    sites = []
    for cycle in cycles:
        # crossing t joins the polygons of corners t and t + 1
        polys = [p for p, _ in cycle.corners]
        shared = [lab for (lab, _), p, q in zip(cycle.crossings, polys, polys[1:] + polys[:1])
                  if p != q]
        if shared:
            sites.append(GraftSite(variant=variant, cycle=cycle, shared_edge=shared[0]))
    return sites


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


def _twist(c: PolygonComplex, site: GraftSite) -> tuple[int, int]:
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


def graft_room(c: PolygonComplex) -> tuple[int, ...] | None:
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


def _misses_room(site: GraftSite, room) -> bool:
    """Whether the site's corners miss a polygon that an exact room, one
    summing to 6 as every row does, still fills: then no row fits there."""
    if room is None or sum(room) != 6:
        return False
    polys = {p for p, _ in site.corners}
    return any(v for p, v in enumerate(room) if p not in polys)


def _fits(site: GraftSite, row, room) -> bool:
    """Whether the row grows no polygon beyond its room (None is no limit)."""
    if room is None:
        return True
    grow = Counter()
    for (p, _), word in zip(site.corners, row):
        grow[p] += len(word)
    return all(v <= room[p] for p, v in grow.items())


def _iter_rewrites(c: PolygonComplex, site: GraftSite, room):
    """Yield (rewrite, grafted complex) for every row of the site's twist
    (_TWIST_ROWS) that fits the room, in table order.

    c must be graftable; the callers check that once per search.  A row
    fits when it grows no polygon beyond its room (_fits); a site whose
    corners miss a polygon that an exact room still fills fits no row and
    is skipped before any is tried (_misses_room).  The grafted complex stays
    connected and non-orientable, because every old pairing survives.
    Each row is built and checked in full: a row of the twist that is not
    trivalent after all is an InvariantError.
    """
    if _misses_room(site, room):
        return
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
        out = apply_rewrite(c, rw)
        if not complexes.is_graftable(out):
            raise InvariantError(
                "graft: the twist table accepts row %d at %s (twist %s), the full check rejects"
                " rewrite %s" % (r, site.corners, twist, rw.insertions)
            )
        yield rw, out


def discover_rewrite(c: PolygonComplex, site: GraftSite) -> Rewrite:
    """The first rewrite of the wiring table at the site that fits the
    room of graft_room and grafts.

    Each row of WIRINGS inserts six new sides, three new pairs, at the
    site's corners; the rows that graft are those of the site's twist.
    Raises NotExtremalError when c is not graftable and
    IneligibleSiteError when none of the rows fits the room.
    """
    if not complexes.is_graftable(c):
        raise NotExtremalError(_NOT_GRAFTABLE)
    return _graft_at(c, site)[0]


def _graft_at(c, site) -> tuple[Rewrite, PolygonComplex]:
    """discover_rewrite's rewrite together with the grafted complex; c must
    be graftable."""
    room = graft_room(c)
    found = next(_iter_rewrites(c, site, room), None)
    if found is None:
        if not _misses_room(site, room) and any(_fits(site, row, room) for row in WIRINGS):
            why = "no row of its twist %s fits" % (_twist(c, site),)
        else:
            why = "no wiring row fits"
        raise IneligibleSiteError(
            "cycle %s cannot take a graft: %s the room %s of sizes %s"
            % (site.corners, why, room, c.sizes)
        )
    return found


def has_complementary_pair(c: PolygonComplex) -> bool:
    """True when some shared-edge cycle (an EG3 site) and some disjoint
    second cycle split the polygons three against three: the shape the
    paired k = 6 grafting steps consume.  c must be graftable."""
    if c.num_polygons != 6:
        return False
    polys = {frozenset(p for p, _ in cycle.corners) for cycle in complexes.vertex_cycles(c)}
    for site in eligible_sites(c, GraftVariant.EG3):
        a = frozenset(p for p, _ in site.corners)
        if len(a) == 3 and frozenset(range(6)) - a in polys:
            return True
    return False


def apply_graft(c: PolygonComplex, site: GraftSite) -> PolygonComplex:
    """Perform one edge-grafting at the site; genus goes up by one.

    The new sides fill the room of graft_room: uniform complexes with
    k = 1 or 3 polygons grow uniformly, and k = 2 and 6 grow freely up to
    the size a second graft can equalize.  Raises IneligibleSiteError when
    the site is not one of eligible_sites or no row of its twist fits the room
    there.
    """
    if site not in eligible_sites(c, site.variant):
        raise IneligibleSiteError("site %s is not eligible for %s" % (site.corners, site.variant))
    return _graft_at(c, site)[1]


def _grafts(c: PolygonComplex, variant: GraftVariant):
    """Every complex one graft of the variant makes from c under graft_room:
    site by site in eligible_sites order, row by row.  c must be graftable
    (eligible_sites checks)."""
    room = graft_room(c)
    for site in eligible_sites(c, variant):
        for _, out in _iter_rewrites(c, site, room):
            yield out


def graft_first_site(c: PolygonComplex, variant: GraftVariant) -> PolygonComplex:
    """Apply the variant at the first eligible site where a row grafts,
    under the same room as apply_graft.

    Raises IneligibleSiteError when no row of any site's twist fits the
    room.
    """
    out = next(_grafts(c, variant), None)
    if out is None:
        raise IneligibleSiteError(
            "no %s site of %d can take a graft: no wiring row fits the room %s of sizes %s"
            % (variant.value, len(eligible_sites(c, variant)), graft_room(c), c.sizes)
        )
    return out


def _graft_pair(
    c: PolygonComplex, v1: GraftVariant, v2: GraftVariant
) -> tuple[PolygonComplex, PolygonComplex]:
    """Two consecutive grafts ending uniform, the k = 2 and 6 steps.

    Both halves graft under graft_room: the first grows freely up to the
    size the pair ends at, the second fills the room that leaves exactly.
    The first halves are backtracked over, site by site and row by row,
    until the second half makes the complex uniform.  The scan is
    deterministic and finite: a site has at most two first halves, the
    rows of its twist.  Raises RewriteSearchError, naming the sites and
    the first halves tried, when no first half works.
    """
    tried = 0
    for mid in _grafts(c, v1):
        tried += 1
        fin = next(_grafts(mid, v2), None)
        if fin is not None and len(set(fin.sizes)) == 1:
            return mid, fin
    raise RewriteSearchError(
        "no workable %s/%s pair over %d sites: %d first halves tried"
        % (v1.value, v2.value, len(eligible_sites(c, v1)), tried)
    )


# schedules: base seed, variant rotation, and whether grafts come in pairs,
# per congruence class of N mod 6
_SCHEDULES = {
    0: (12, (GraftVariant.EG2, GraftVariant.EG1), False),
    1: (7, (GraftVariant.EG3, GraftVariant.EG1, GraftVariant.EG4, GraftVariant.EG2), True),
    2: (8, (GraftVariant.EG1, GraftVariant.EG2), False),
    3: (9, (GraftVariant.EG3, GraftVariant.EG4), True),
    4: (8, (GraftVariant.EG1, GraftVariant.EG2), False),
    5: (7, (GraftVariant.EG3, GraftVariant.EG1, GraftVariant.EG4, GraftVariant.EG2), True),
}

_chains: dict[int, list[PolygonComplex]] = {}


def _chain(cls: int, steps: int) -> PolygonComplex:
    from . import catalog

    base_n, variants, paired = _SCHEDULES[cls]
    chain = _chains.setdefault(cls, [catalog.seed_complex(base_n)])
    while len(chain) <= steps:
        step = len(chain)  # 1-based step number being produced
        cur = chain[-1]
        variant = variants[(step - 1) % len(variants)]
        if paired:
            mid, fin = _graft_pair(cur, variant, variants[step % len(variants)])
            chain.append(mid)
            chain.append(fin)
        else:
            chain.append(graft_first_site(cur, variant))
    return chain[steps]


def build_primitive(N: int) -> PolygonComplex:
    """A primitive extremal complex with cell size N, grown from the seeds.

    Schedule by N mod 6: start from X12, X7, X8 or X9 and alternate the
    variant family of that class; each graft adds one to the genus and the
    k*(N - N_base)/6 grafts end at the primitive pair (k_N, g_N).
    Intermediate complexes with imprimitive or non-uniform data are kept
    internally but never returned.  The output is the graft chain's own
    labeling, not the canonical form: cyclic covers are searched over it.
    """
    if N < 7:
        raise ValueError("need cell size N >= 7, got %r" % (N,))
    cls = N % 6
    base_n = _SCHEDULES[cls][0]
    from .feasibility import smallest_k

    k = smallest_k(N)
    steps = k * (N - base_n) // 6
    return complexes._renamed(_chain(cls, steps), "X%d" % N)
