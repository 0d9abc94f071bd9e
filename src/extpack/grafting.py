"""Edge-grafting: local rewrites that raise the genus of an extremal
complex by one while keeping every vertex trivalent.

A graft inserts three new edge pairs (six new sides) at a chosen vertex
cycle, keeping all old pairings.  `eligible_sites` checks that the
complex is graftable (trivalent and non-orientable) with one capped
walk, which the complex keeps, then reads the cycles' starts from that
walk and builds the sites one at a time, each from the flags read off
its start.  Each complex of a graft chain is checked once, when it is
grafted.  The wirings are the rows of WIRINGS, one table for all four
variants.  How many new sides each polygon may take is one policy,
`graft_room`: exactly what makes the complex uniform when one graft can,
else up to the size a second graft can equalize (the free half of a
pair), else no limit.  One routine, `graft`, grafts the variant at a
site it picks or at a site given by index; when it picks (the CLI's
`graft` without `--site`, and each single step of a chain, which runs
its core on a complex already checked) it reads one stream, `_grafts`:
the sites that room leaves, row by row.  `apply_graft` and
`discover_rewrite` take a site itself and check it in one place
(`_eligible`): it must be one of `eligible_sites`.  Which rows leave
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
extremal complex for every cell size N >= 7 (`build_primitive`).  N mod 6
only picks the seed and its schedule, so the process keeps one chain per
seed and every N of that seed reads a prefix of it.  One routine, _step,
takes a step of a schedule: the chain steps through it, and
catalog.derive picks each seed as the first class that takes step 1.

The wiring table and the size policy (WIRINGS, _TWIST_ROWS, _twist,
graft_room, _misses_room, _fits) live in the private module _rewrite, so
that no compile of a cold command is large; this module imports the
names it uses and holds the rewrite search.  The vertex-cycle readers
are called in _vertices (_vertices.flag_sides, _vertices.vertex_cycles).
"""

from __future__ import annotations

import enum

from . import _vertices, complexes
from ._record import Record
from ._rewrite import _TWIST_ROWS, WIRINGS, _fits, _misses_room, _twist, graft_room
from .complexes import PolygonComplex
from .errors import IneligibleSiteError, InvariantError, NotExtremalError, RewriteSearchError


class GraftVariant(enum.Enum):
    EG1 = "EG1"
    EG2 = "EG2"
    EG3 = "EG3"
    EG4 = "EG4"

    @property
    def needs_shared_edge(self) -> bool:
        return self in (GraftVariant.EG3, GraftVariant.EG4)


class GraftSite(Record):
    """A vertex cycle at which a variant may be applied.

    shared_edge is the label of an inter-polygon edge flanked by two of the
    cycle's corners (EG3/EG4 only).
    """

    variant: GraftVariant
    cycle: _vertices.VertexCycle
    shared_edge: int | None = None

    @property
    def corners(self):
        return self.cycle.corners


class Rewrite(Record):
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


def _graftable(c: PolygonComplex) -> PolygonComplex:
    """c, once one capped walk has found it graftable; NotExtremalError
    otherwise.  The public entry points check their argument with it."""
    if not complexes.is_graftable(c):
        raise NotExtremalError("complex is not graftable (trivalent + non-orientable)")
    return c


def eligible_sites(c: PolygonComplex, variant: GraftVariant) -> list[GraftSite]:
    """All vertex cycles where the variant may act, ordered by least corner.

    The complex must be graftable: connected, non-orientable and trivalent
    throughout (polygon sizes are allowed to differ between the two halves
    of a paired graft step).  The sites are those _iter_sites yields.
    """
    return list(_iter_sites(_graftable(c), variant))


def _iter_sites(c: PolygonComplex, variant: GraftVariant, room=None):
    """Yield eligible_sites one at a time, so a caller that stops at the
    first site that grafts builds no VertexCycle or GraftSite past it.

    c must be graftable: it is not checked again here.  The walk that
    checked it, kept on c, holds every cycle's start; a cycle's flags
    are read from its start (complexes._cycle) only when the caller
    reaches it, and its VertexCycle (from the vertex-cycle readers of
    _vertices) is built only when it is a site of the variant.  Given
    c's room of graft_room (in _rewrite), as _grafts gives it, a cycle
    whose corners miss a polygon that an exact room still fills
    (_misses_room) is passed over: no row fits there.  This is the one
    place that test is made.
    """
    corners = _vertices._corners(c)
    sides = _vertices.flag_sides(c)
    for start, _ in complexes._walk(c):
        flags = complexes._cycle(c, start)
        if room is not None and _misses_room({corners[f >> 1][0] for f in flags}, room):
            continue
        # the walk leaves each corner along the side of its other flag, and
        # crossing t joins the polygons of corners t and t + 1
        shared = None
        if variant.needs_shared_edge:
            shared = next((sides[f ^ 1][0] for f, e in zip(flags, flags[1:] + flags[:1])
                           if corners[f >> 1][0] != corners[e >> 1][0]), None)
            if shared is None:
                continue
        cycle = _vertices.VertexCycle(tuple([corners[f >> 1] for f in flags]),
                                      tuple([sides[f ^ 1] for f in flags]))
        yield GraftSite(variant, cycle, shared)


def _iter_rewrites(c: PolygonComplex, site: GraftSite, room):
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
    Raises NotExtremalError when c is not graftable, and
    IneligibleSiteError when the site is not one of eligible_sites or
    none of the rows fits the room.
    """
    return _graft_at(_eligible(c, site), site)[0]


def _eligible(c: PolygonComplex, site: GraftSite) -> PolygonComplex:
    """c, once it is graftable and the site is one of its eligible_sites:
    the one site check of the entry points that take a site."""
    if site not in _iter_sites(_graftable(c), site.variant):
        raise IneligibleSiteError("site %s is not eligible for %s" % (site.corners, site.variant))
    return c


def _graft_at(c, site) -> tuple[Rewrite, PolygonComplex]:
    """discover_rewrite's rewrite together with the grafted complex; c must
    be graftable and the site one of its sites."""
    room = graft_room(c)
    found = next(_iter_rewrites(c, site, room), None)
    if found is None:
        if any(_fits(site, row, room) for row in WIRINGS):
            why = "no row of its twist %s fits" % (_twist(c, site),)
        else:
            why = "no wiring row fits"
        raise IneligibleSiteError(
            "cycle %s cannot take a graft: %s the room %s of sizes %s"
            % (site.corners, why, room, c.sizes)
        )
    return found


def apply_graft(c: PolygonComplex, site: GraftSite) -> PolygonComplex:
    """Perform one edge-grafting at the site; genus goes up by one.

    The new sides fill the room of graft_room: uniform complexes with
    k = 1 or 3 polygons grow uniformly, and k = 2 and 6 grow freely up to
    the size a second graft can equalize.  Raises what discover_rewrite
    raises, at the same sites.
    """
    return _graft_at(_eligible(c, site), site)[1]


def _grafts(c: PolygonComplex, variant: GraftVariant):
    """Every complex one graft makes from c under graft_room: site by site,
    row by row.  The sites are those of the variant that c's room leaves
    (_iter_sites), read as far as the caller reads the grafts."""
    room = graft_room(c)
    for site in _iter_sites(c, variant, room):
        for _, out in _iter_rewrites(c, site, room):
            yield out


def graft(c: PolygonComplex, variant: GraftVariant, index: int | None = None) -> PolygonComplex:
    """Apply the variant at one site, under the same room as apply_graft.

    With index None the site is the first that a row grafts at: the first
    graft of the stream the graft chain reads (_grafts), which passes over
    the sites the room rules out.  With an int it is site `index` of
    eligible_sites.  Raises NotExtremalError when c is not graftable, and
    IneligibleSiteError when the complex has no site of the variant, no
    row of any site's twist fits the room (index None), the index is out
    of range, or no row of the site's twist fits the room there.
    """
    return _graft(_graftable(c), variant, index)


def _graft(c: PolygonComplex, variant: GraftVariant, index: int | None = None) -> PolygonComplex:
    """graft on a graftable c, which is not checked again.  Every site is
    counted only when the stream has no graft or an index is given."""
    if index is None:
        out = next(_grafts(c, variant), None)
        if out is not None:
            return out
    sites = list(_iter_sites(c, variant))
    if not sites:
        raise IneligibleSiteError("the complex has no %s site" % variant.value)
    if index is None:
        raise IneligibleSiteError(
            "no %s site of %d can take a graft: no wiring row fits the room %s of sizes %s"
            % (variant.value, len(sites), graft_room(c), c.sizes)
        )
    if not 0 <= index < len(sites):
        raise IneligibleSiteError("site index %d out of range (0..%d)" % (index, len(sites) - 1))
    return _graft_at(c, sites[index])[1]


def _graft_pair(
    c: PolygonComplex, v1: GraftVariant, v2: GraftVariant
) -> tuple[PolygonComplex, PolygonComplex]:
    """Two consecutive grafts ending uniform, the k = 2 and 6 steps, from a graftable c.

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


#: the seed's cell size, by N mod 6: N = 1 and 5 grow from X7, 2 and 4 from X8
_SEEDS = (12, 7, 8, 9, 8, 7)

#: per seed: the variant rotation, and whether grafts come in pairs
_SCHEDULES = {
    12: ((GraftVariant.EG2, GraftVariant.EG1), False),
    7: ((GraftVariant.EG3, GraftVariant.EG1, GraftVariant.EG4, GraftVariant.EG2), True),
    8: ((GraftVariant.EG1, GraftVariant.EG2), False),
    9: ((GraftVariant.EG3, GraftVariant.EG4), True),
}

#: per seed: its graft chain, from the seed on; a member the chain has
#: grafted past keeps its words and t1 only (complexes._drop_derived)
_chains: dict[int, list[PolygonComplex]] = {}


def _step(c: PolygonComplex, seed: int, step: int) -> tuple[PolygonComplex, ...]:
    """The complexes that step `step` (1-based) of seed's schedule appends
    after the graftable c: both halves of a paired step (_graft_pair), else
    one graft (_graft).  Raises IneligibleSiteError or
    RewriteSearchError when c cannot take the step."""
    variants, paired = _SCHEDULES[seed]
    variant = variants[(step - 1) % len(variants)]
    if paired:
        return _graft_pair(c, variant, variants[step % len(variants)])
    return (_graft(c, variant),)


def _chain(seed: int, steps: int) -> PolygonComplex:
    if seed not in _chains:
        from . import catalog

        _chains[seed] = [_graftable(catalog.seed_complex(seed))]
    # every later complex was checked when it was grafted (_iter_rewrites)
    chain = _chains[seed]
    while len(chain) <= steps:
        cur = chain[-1]
        made = _step(cur, seed, len(chain))
        chain += made
        for c in (cur,) + made[:-1]:
            complexes._drop_derived(c)
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
    from .feasibility import smallest_k

    seed = _SEEDS[N % 6]
    steps = smallest_k(N) * (N - seed) // 6
    return complexes._renamed(_chain(seed, steps), "X%d" % N)
