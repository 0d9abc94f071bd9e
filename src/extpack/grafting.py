"""Edge-grafting: local rewrites that raise the genus of an extremal
complex by one while keeping every vertex trivalent.

A graft inserts three new edge pairs (six new sides) at a chosen vertex
cycle, keeping all old pairings.  The wirings are the rows of WIRINGS,
one table for all four variants: `discover_rewrite` returns the first
row, in table order, whose side counts fit the requested polygon sizes
and whose output is again trivalent and non-orientable.  Each row is
checked by walking only the cycles through the corners it touches, on
the base's flag action plus the flags of the new sides.  Any such
rewrite changes (V, E, F) by (+2, +3, 0), so the genus goes up by
exactly one.

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


def eligible_sites(c: PolygonComplex, variant: GraftVariant) -> list[GraftSite]:
    """All vertex cycles where the variant may act, ordered by least corner.

    The complex must be graftable: connected, non-orientable and trivalent
    throughout (polygon sizes are allowed to differ between the two halves
    of a paired graft step).
    """
    if not complexes.is_graftable(c):
        raise NotExtremalError("complex is not graftable (trivalent + non-orientable)")
    sites = []
    for data in complexes.vertex_cycles_with_crossings(c):
        if variant.needs_shared_edge:
            # crossing t joins the polygons of corners t and t + 1
            polys = [p for p, _ in data.cycle.corners]
            shared = [lab for (lab, _), p, q in zip(data.crossings, polys, polys[1:] + polys[:1])
                      if p != q]
            if not shared:
                continue
            sites.append(GraftSite(variant=variant, cycle=data.cycle, shared_edge=shared[0]))
        else:
            sites.append(GraftSite(variant=variant, cycle=data.cycle))
    sites.sort(key=lambda s: min(s.corners))
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


def _trivalent_after(c: PolygonComplex, rw: Rewrite) -> bool:
    """Whether apply_rewrite(c, rw) is trivalent, for a graftable c.

    Only cycles through a corner the rewrite creates or splits can change;
    every other cycle is a cycle of c, which is trivalent.  The touched
    cycles are walked like complexes._walk walks t1 . t2, on c's flag
    action plus an overlay: each new side gets two flags numbered after
    c's, a split corner keeps its old arriving flag at its first half and
    its old leaving flag at its last half, and new labels glue by the
    sign rule of PolygonComplex.  No old flag is renumbered, so c's t1
    serves every old side as it is.
    """
    t1 = complexes.flag_action(c)[1]
    m = len(t1)
    first_corner = list(itertools.accumulate(map(len, c.polygons), initial=0))
    cross = {}  # t1 on the new flags
    turn = {}  # t2 where the rewrite changes it
    unpaired = {}  # label -> (tail, head, positive) of its first new side
    starts = []  # the leaving flag of every created or split corner
    f = m
    for p, pos, seq in rw.insertions:
        j = first_corner[p] + pos
        arriving = 2 * j + 1
        for v in seq:
            turn[arriving], turn[f] = f, arriving
            starts.append(f)
            tail, head = f, f + 1
            first = unpaired.pop(abs(v), None)
            if first is None:
                unpaired[abs(v)] = (tail, head, v > 0)
            else:
                tail1, head1, positive = first
                if positive == (v > 0):
                    tail, head = head, tail
                cross[tail1], cross[tail] = tail, tail1
                cross[head1], cross[head] = head, head1
            arriving = f + 1
            f += 2
        turn[arriving], turn[2 * j] = 2 * j, arriving
        starts.append(2 * j)
    for start in starts:
        f = start
        for length in (1, 2, 3):
            g = turn.get(f, f ^ 1)
            f = cross[g] if g >= m else t1[g]
            if f == start:
                break
        if f != start or length != 3:
            return False
    return True


def _iter_rewrites(c: PolygonComplex, site: GraftSite, need, max_insert, tally: Counter):
    """Yield (rewrite, grafted complex) for every row of WIRINGS that grafts
    at the site and meets all graft postconditions, in table order.

    A row fits when its per-polygon side counts equal need (a uniform
    target) or stay within max_insert (the free half of a paired graft).
    Each fitting row is checked on the site's cycles (_trivalent_after);
    the grafted complex stays connected and non-orientable, because every
    old pairing survives.  Only an accepted row is built, and then checked
    in full: a disagreement is an InvariantError.  tally counts the rows
    that fit and those the local check rejected.
    """
    old_classes = complexes.vertex_class_sizes(c)
    if old_classes[0] != 3 or old_classes[-1] != 3 or complexes.is_orientable(c):
        raise NotExtremalError("complex is not graftable (trivalent + non-orientable)")
    base = max(abs(v) for w in c.polygons for v in w)
    for row in WIRINGS:
        grow = Counter()
        for (p, _), word in zip(site.corners, row):
            grow[p] += len(word)
        if need is not None and any(grow[p] != v for p, v in need.items()):
            continue
        if max_insert is not None and any(v > max_insert.get(p, 0) for p, v in grow.items()):
            continue
        tally["fit"] += 1
        rw = Rewrite(tuple(
            (p, pos, tuple(v + base if v > 0 else v - base for v in word))
            for (p, pos), word in zip(site.corners, row)
        ))
        if not _trivalent_after(c, rw):
            tally["rejected"] += 1
            continue
        out = apply_rewrite(c, rw)
        if not complexes.is_graftable(out):
            raise InvariantError(
                "graft: the local check accepts rewrite %s at %s, the full check rejects it"
                % (rw.insertions, site.corners)
            )
        new_classes = complexes.vertex_class_sizes(out)
        if len(new_classes) != len(old_classes) + 2:
            raise InvariantError(
                "graft: rewrite %s at %s changes the vertex count by %d, not 2"
                % (rw.insertions, site.corners, len(new_classes) - len(old_classes))
            )
        yield rw, out


#: what a search's RewriteSearchError reports, from its tally
_TALLY = "%(fit)d wiring rows fit, the local check rejected %(rejected)d"


def _resolve_constraints(c, target_sizes, max_size):
    sizes = c.sizes
    need = None
    if target_sizes is not None:
        if len(set(target_sizes)) != 1 or len(target_sizes) != len(sizes):
            raise ValueError("target_sizes must be one size per polygon, all equal")
        m = target_sizes[0]
        need = {p: m - sz for p, sz in enumerate(sizes)}
        if any(v < 0 for v in need.values()) or sum(need.values()) != 6:
            raise RewriteSearchError("sizes %s cannot grow to %s" % (sizes, target_sizes))
    max_insert = None
    if max_size is not None and need is None:
        max_insert = {p: max_size - sz for p, sz in enumerate(sizes)}
    return need, max_insert


def discover_rewrite(
    c: PolygonComplex,
    site: GraftSite,
    target_sizes: tuple[int, ...] | None = None,
    max_size: int | None = None,
) -> Rewrite:
    """The first rewrite of the wiring table at the site that meets all
    graft postconditions.

    Each row of WIRINGS inserts six new sides, three new pairs, at the
    site's corners.  target_sizes, when given, must be uniform and pins the
    polygon sizes of the result; max_size instead caps every polygon (the
    free half of a paired graft).  Raises RewriteSearchError when no row
    grafts, which signals a wrong eligibility predicate rather than a user
    error; its message names how many rows fit the target and how many the
    local check rejected.
    """
    return _graft_at(c, site, target_sizes, max_size)[0]


def _graft_at(c, site, target_sizes, max_size) -> tuple[Rewrite, PolygonComplex]:
    """discover_rewrite's rewrite together with the grafted complex."""
    need, max_insert = _resolve_constraints(c, target_sizes, max_size)
    tally = Counter()
    found = next(_iter_rewrites(c, site, need, max_insert, tally), None)
    if found is None:
        raise RewriteSearchError(
            "no rewrite at cycle %s (target %s, cap %s): %s"
            % (site.corners, target_sizes, max_size, _TALLY % tally)
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


def default_target_sizes(c: PolygonComplex) -> tuple[int, ...] | None:
    """The natural size multiset after one graft.

    Uniform complexes with k = 1 or 3 grow uniformly by 6/k in a single
    graft.  For k = 2 and k = 6 a single corner-local graft cannot spread
    the six new sides evenly, so grafts come in pairs: the first half is
    unconstrained (None) and the second grows the complex back to uniform.
    """
    sizes = c.sizes
    k = len(sizes)
    if len(set(sizes)) == 1:
        n = sizes[0]
        if k in (1, 3):
            return tuple([n + 6 // k] * k)
        return None
    total = sum(sizes) + 6
    if total % k == 0:
        return tuple([total // k] * k)
    return None


def apply_graft(
    c: PolygonComplex,
    site: GraftSite,
    target_sizes: tuple[int, ...] | None = None,
    max_size: int | None = None,
) -> PolygonComplex:
    """Perform one edge-grafting at the site; genus goes up by one.

    Without an explicit target, uniform complexes with k = 1 or 3 polygons
    grow uniformly; k = 2 and 6 grafts pair up (see default_target_sizes),
    so a bare apply grows the complex freely within the paired bound.
    """
    if site not in eligible_sites(c, site.variant):
        raise IneligibleSiteError("site %s is not eligible for %s" % (site.corners, site.variant))
    if target_sizes is None and max_size is None:
        target_sizes = default_target_sizes(c)
        if target_sizes is None:
            total = sum(c.sizes) + 12
            if total % c.num_polygons == 0:
                max_size = total // c.num_polygons
    return _graft_at(c, site, target_sizes, max_size)[1]


def _graft_any_site(c, variant, target_sizes=None, max_size=None, tally=None):
    """Apply the variant at the first site admitting a valid rewrite.

    The rows are counted into tally (a fresh Counter if None).
    """
    tally = Counter() if tally is None else tally
    need, max_insert = _resolve_constraints(c, target_sizes, max_size)
    sites = eligible_sites(c, variant)
    for site in sites:
        for _, out in _iter_rewrites(c, site, need, max_insert, tally):
            return out
    raise RewriteSearchError(
        "no %s rewrite at any of %d sites (target %s, cap %s): %s"
        % (variant.value, len(sites), target_sizes, max_size, _TALLY % tally)
    )


def _graft_pair(
    c: PolygonComplex, v1: GraftVariant, v2: GraftVariant
) -> tuple[PolygonComplex, PolygonComplex]:
    """Two consecutive grafts ending uniform.

    First strategy: pick two sites whose corner polygons are disjoint and
    cover the complex, grow each side by two around its own site (the k = 6
    picture: three polygons per site).  Fallback: grow freely below the
    final size at one site and retry until the second graft can equalize
    (the k = 2 picture).  Both scans are deterministic and finite: a site
    has at most len(WIRINGS) first halves.
    """
    k = c.num_polygons
    total = sum(c.sizes) + 12
    if total % k:
        raise InvariantError(
            "graft pair: %d sides after two grafts do not split evenly over %r" % (total, c)
        )
    m = total // k
    final = tuple([m] * k)
    sites1 = eligible_sites(c, v1)
    tally = Counter()

    if k == 6:
        sites2 = eligible_sites(c, v2)
        for site1 in sites1:
            polys1 = {p for p, _ in site1.corners}
            if len(polys1) != 3:
                continue
            need1 = {p: (2 if p in polys1 else 0) for p in range(k)}
            for site2 in sites2:
                polys2 = {p for p, _ in site2.corners}
                if polys2 != set(range(k)) - polys1:
                    continue
                for _, mid in _iter_rewrites(c, site1, need1, None, tally):
                    # site2's corners are untouched by the first half, so
                    # the cycle and its positions survive into mid
                    need2, _ = _resolve_constraints(mid, final, None)
                    for _, fin in _iter_rewrites(mid, site2, need2, None, tally):
                        return mid, fin

    max_insert = {p: m - sz for p, sz in enumerate(c.sizes)}
    for site1 in sites1:
        for _, mid in _iter_rewrites(c, site1, None, max_insert, tally):
            try:
                return mid, _graft_any_site(mid, v2, final, tally=tally)
            except RewriteSearchError:
                pass
    raise RewriteSearchError(
        "no workable %s/%s pair over %d sites: %s"
        % (v1.value, v2.value, len(sites1), _TALLY % tally)
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
            chain.append(_graft_any_site(cur, variant, default_target_sizes(cur)))
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
