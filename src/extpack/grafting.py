"""Edge-grafting: local rewrites that raise the genus of an extremal
complex by one while keeping every vertex trivalent.

A graft inserts three new edge pairs (six new sides) at a chosen vertex
cycle, keeping all old pairings.  The exact wiring is not hard-coded:
`discover_rewrite` searches the bounded space of insertions at the
site's corners and returns the first rewrite, in a fixed deterministic
order, whose output is again trivalent, non-orientable and matches the
requested polygon sizes.  Each candidate is checked by walking only the
cycles through the corners it touches, on the base's flag action plus
the flags of the new sides.  Any such rewrite changes (V, E, F) by
(+2, +3, 0), so the genus goes up by exactly one.

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


def _compositions(total: int, parts: int):
    """Weak compositions of total into parts, balanced ones first."""
    if parts == 1:
        yield (total,)
        return
    out = []
    def rec(prefix, rest, left):
        if left == 1:
            out.append(prefix + (rest,))
            return
        for v in range(rest + 1):
            rec(prefix + (v,), rest - v, left - 1)
    rec((), total, parts)
    out.sort(key=lambda t: (max(t) - min(t), t))
    yield from out


def _slot_distributions(c: PolygonComplex, slots, need, max_insert):
    """Distributions of six new sides over the slots.

    With `need` (per-polygon counts for a uniform target) the distribution
    is constrained polygon by polygon; with `max_insert` (per-polygon caps
    for the free half of a paired graft) compositions are filtered.
    """
    if need is not None:
        by_poly: dict[int, list[int]] = {}
        for s, (p, _) in enumerate(slots):
            by_poly.setdefault(p, []).append(s)
        if any(need.get(p, 0) > 0 and p not in by_poly for p in need):
            return
        groups = sorted(by_poly)
        per_group = [
            list(_compositions(need.get(p, 0), len(by_poly[p]))) for p in groups
        ]
        for combo in itertools.product(*per_group):
            dist = [0] * len(slots)
            for p, comp in zip(groups, combo):
                for s, v in zip(by_poly[p], comp):
                    dist[s] = v
            yield tuple(dist)
        return
    for dist in _compositions(6, len(slots)):
        if max_insert is not None:
            sums: dict[int, int] = {}
            for (p, _), v in zip(slots, dist):
                sums[p] = sums.get(p, 0) + v
            if any(v > max_insert.get(p, 0) for p, v in sums.items()):
                continue
        yield dist


_PAIRINGS_6 = []


def _pairings_of_six():
    if _PAIRINGS_6:
        return _PAIRINGS_6
    def rec(free):
        if not free:
            yield ()
            return
        a = free[0]
        for t in range(1, len(free)):
            b = free[t]
            rest = free[1:t] + free[t + 1:]
            for m in rec(rest):
                yield ((a, b),) + m
    _PAIRINGS_6.extend(rec(tuple(range(6))))
    return _PAIRINGS_6


def _candidate_rewrites(c: PolygonComplex, slots, need, max_insert):
    """Deterministic stream of rewrites: distribute six new sides over the
    slots, then try each pairing of the six and each sign pattern."""
    base = max(abs(v) for w in c.polygons for v in w)
    nslots = len(slots)
    for dist in _slot_distributions(c, slots, need, max_insert):
        positions = []  # (slot index, rank within slot) for the 6 darts
        for s, cnt in enumerate(dist):
            positions.extend((s, t) for t in range(cnt))
        for pairing in _pairings_of_six():
            for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                          (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)):
                darts = [0] * 6
                for lab_off, (a, b) in enumerate(pairing):
                    darts[a] = base + 1 + lab_off
                    darts[b] = signs[lab_off] * (base + 1 + lab_off)
                seqs: list[list[int]] = [[] for _ in range(nslots)]
                for (s, _), v in zip(positions, darts):
                    seqs[s].append(v)
                yield Rewrite(
                    insertions=tuple(
                        (slots[s][0], slots[s][1], tuple(seq))
                        for s, seq in enumerate(seqs)
                        if seq
                    )
                )


class RewriteSearch:
    """What a bounded rewrite search did, for the error that ends it.

    tried counts candidate rewrites, rejected those the local check turned
    down, and ended names the slot tier or cap that ended the last scan.
    """

    def __init__(self):
        self.tried = 0
        self.rejected = 0
        self.ended = "no slot tier"

    def __str__(self):
        return "%d candidates tried, %d rejected by the local check, ended by %s" % (
            self.tried, self.rejected, self.ended
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


def _iter_rewrites(c: PolygonComplex, site: GraftSite, need, max_insert, search: RewriteSearch):
    """Yield (rewrite, grafted complex) for every rewrite at the site meeting
    all graft postconditions, in the fixed deterministic order of the
    candidate stream.

    Each candidate is checked on the site's cycles (_trivalent_after); the
    grafted complex stays connected and non-orientable, because every old
    pairing survives.  Only an accepted candidate is built, and then
    checked in full: a disagreement is an InvariantError.
    """
    if need is not None:
        slot_polys = {p for p, _ in site.corners}
        if any(v > 0 and p not in slot_polys for p, v in need.items()):
            search.ended = "a target that grows a polygon away from the site"
            return
    old_classes = complexes.vertex_class_sizes(c)
    if old_classes[0] != 3 or old_classes[-1] != 3 or complexes.is_orientable(c):
        raise NotExtremalError("complex is not graftable (trivalent + non-orientable)")
    search.ended = "the corner slot tier"
    for rw in _candidate_rewrites(c, list(site.corners), need, max_insert):
        search.tried += 1
        if not _trivalent_after(c, rw):
            search.rejected += 1
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
    """Find the first rewrite at the site meeting all graft postconditions.

    The search space is bounded: six new sides at slots splitting the
    site's corners, three new pairs, one sign each.  target_sizes, when given, must be
    uniform and pins the polygon sizes of the result; max_size instead caps
    every polygon (the free half of a paired graft).  Raises
    RewriteSearchError when the space is exhausted, which signals a wrong
    eligibility predicate rather than a user error; its message names the
    candidates tried and how many the local check rejected.
    """
    return _graft_at(c, site, target_sizes, max_size)[0]


def _graft_at(c, site, target_sizes, max_size) -> tuple[Rewrite, PolygonComplex]:
    """discover_rewrite's rewrite together with the grafted complex."""
    need, max_insert = _resolve_constraints(c, target_sizes, max_size)
    search = RewriteSearch()
    found = next(_iter_rewrites(c, site, need, max_insert, search), None)
    if found is None:
        raise RewriteSearchError(
            "no rewrite at cycle %s (target %s, cap %s): %s"
            % (site.corners, target_sizes, max_size, search)
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


def _graft_any_site(c, variant, target_sizes=None, max_size=None, search=None):
    """Apply the variant at the first site admitting a valid rewrite.

    The candidates are counted into search (a fresh RewriteSearch if None).
    """
    search = RewriteSearch() if search is None else search
    need, max_insert = _resolve_constraints(c, target_sizes, max_size)
    sites = eligible_sites(c, variant)
    for site in sites:
        for _, out in _iter_rewrites(c, site, need, max_insert, search):
            return out
    raise RewriteSearchError(
        "no %s rewrite at any of %d sites (target %s, cap %s): %s"
        % (variant.value, len(sites), target_sizes, max_size, search)
    )


def _graft_pair(
    c: PolygonComplex, v1: GraftVariant, v2: GraftVariant
) -> tuple[PolygonComplex, PolygonComplex]:
    """Two consecutive grafts ending uniform.

    First strategy: pick two sites whose corner polygons are disjoint and
    cover the complex, grow each side by two around its own site (the k = 6
    picture: three polygons per site).  Fallback: grow freely below the
    final size at one site and retry until the second graft can equalize
    (the k = 2 picture).  Both searches are deterministic.
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
    search = RewriteSearch()
    pairs = capped_pairs = capped_sites = 0

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
                pairs += 1
                count = 0
                for _, mid in _iter_rewrites(c, site1, need1, None, search):
                    # site2's corners are untouched by the first half, so
                    # the cycle and its positions survive into mid
                    need2, _ = _resolve_constraints(mid, final, None)
                    for _, fin in _iter_rewrites(mid, site2, need2, None, search):
                        return mid, fin
                    count += 1
                    if count >= 8:
                        search.ended = "the cap of 8 first halves per site pair"
                        capped_pairs += 1
                        break

    max_insert = {p: m - sz for p, sz in enumerate(c.sizes)}
    for site1 in sites1:
        count = 0
        for _, mid in _iter_rewrites(c, site1, None, max_insert, search):
            try:
                return mid, _graft_any_site(mid, v2, final, search=search)
            except RewriteSearchError:
                pass
            count += 1
            if count >= 40:
                search.ended = "the cap of 40 first halves per site"
                capped_sites += 1
                break
    raise RewriteSearchError(
        "no workable %s/%s pair: %s; the cap of 8 ended %d of %d site pairs, "
        "the cap of 40 ended %d of %d sites"
        % (v1.value, v2.value, search, capped_pairs, pairs, capped_sites, len(sites1))
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
