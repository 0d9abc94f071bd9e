import hashlib
import itertools
import random
import re
import sys
from collections import Counter

import pytest

from extpack import _rewrite, catalog
from extpack import complexes as cx
from extpack import covers
from extpack import grafting as gr
from extpack import trigroup as tg
from extpack.errors import (
    IneligibleSiteError,
    InvariantError,
    NotExtremalError,
    RewriteSearchError,
)
from extpack.feasibility import primitive_pair, smallest_k


def test_eligible_sites_shapes(seeds):
    sites1 = gr.eligible_sites(seeds[8], gr.GraftVariant.EG1)
    assert sites1, "EG1 must offer sites on X8"
    sites3 = gr.eligible_sites(seeds[9], gr.GraftVariant.EG3)
    assert sites3, "EG3 must offer sites on X9"
    for s in sites3:
        assert s.shared_edge is not None
        (p1, _, _), (p2, _, _) = cx.occurrences(seeds[9])[s.shared_edge]
        assert p1 != p2
    # single-polygon complexes have no inter-polygon edges, so no EG3 sites
    assert gr.eligible_sites(seeds[12], gr.GraftVariant.EG3) == []
    assert gr.eligible_sites(seeds[12], gr.GraftVariant.EG2)


def test_eligible_sites_rejects_bad_input():
    torus = cx.PolygonComplex(((1, 2, 1, 2),))
    with pytest.raises(NotExtremalError):
        gr.eligible_sites(torus, gr.GraftVariant.EG1)


def test_every_entry_point_checks_its_complex(seeds):
    torus = cx.PolygonComplex(((1, 2, 1, 2),))
    site = gr.eligible_sites(seeds[8], gr.GraftVariant.EG1)[0]
    for call in (
        lambda: gr.graft(torus, gr.GraftVariant.EG1),
        lambda: gr.graft(torus, gr.GraftVariant.EG1, 0),
        lambda: gr.apply_graft(torus, site),
        lambda: gr.discover_rewrite(torus, site),
    ):
        with pytest.raises(NotExtremalError, match="not graftable"):
            call()


def test_apply_graft_x8_to_x10(seeds):
    out = gr.graft(seeds[8], gr.GraftVariant.EG1)
    rep = cx.verify_extremal(out)
    assert (rep.k, rep.g, rep.n) == (3, 4, 10)
    # the paired variant has a site in the image
    assert gr.eligible_sites(out, gr.GraftVariant.EG2)
    out2 = gr.graft(out, gr.GraftVariant.EG2)
    rep2 = cx.verify_extremal(out2)
    assert (rep2.k, rep2.g, rep2.n) == (3, 5, 12)


def test_apply_graft_x12_to_18(seeds):
    out = gr.graft(seeds[12], gr.GraftVariant.EG2)
    rep = cx.verify_extremal(out)
    assert (rep.k, rep.g, rep.n) == (1, 4, 18)


def test_graft_step_deltas(seeds):
    c = seeds[8]
    out = gr.graft(c, gr.GraftVariant.EG1)
    before = cx.surface_invariants(c)
    after = cx.surface_invariants(out)
    assert after.edges == before.edges + 3
    assert after.faces == before.faces
    assert after.vertices == before.vertices + 2
    assert after.euler_characteristic == before.euler_characteristic - 1
    assert after.genus == before.genus + 1
    assert not after.orientable


def test_pair_step_from_x9(seeds):
    mid, fin = gr._graft_pair(seeds[9], gr.GraftVariant.EG3, gr.GraftVariant.EG4)
    assert cx.is_graftable(mid)
    assert cx.surface_invariants(mid).genus == 4
    rep = cx.verify_extremal(fin)
    assert (rep.k, rep.g, rep.n) == (2, 5, 15)


def test_pair_step_from_x7(seeds):
    mid, fin = gr._graft_pair(seeds[7], gr.GraftVariant.EG3, gr.GraftVariant.EG1)
    assert cx.is_graftable(mid)
    assert cx.surface_invariants(mid).genus == 4
    rep = cx.verify_extremal(fin)
    assert (rep.k, rep.g, rep.n) == (6, 5, 9)


def test_graft_room_is_the_one_size_policy(seeds):
    # one graft grows by a row's side counts, summed over shared polygons
    assert _rewrite._GROWTHS == {(6,), (1, 5), (2, 4), (1, 1, 4), (2, 2, 2)}
    assert gr.graft_room(seeds[12]) == (6,)
    assert gr.graft_room(seeds[8]) == (2, 2, 2)
    # no graft grows two polygons by three each, or six by one: the free
    # half of a pair, up to the size two grafts reach
    assert gr.graft_room(seeds[9]) == (6, 6)
    assert gr.graft_room(seeds[7]) == (2,) * 6
    five = cx.PolygonComplex(((1, 2), (-2, 3), (-3, 4), (-4, 5), (-5, -1)))
    assert gr.graft_room(five) is None


@pytest.mark.parametrize("variant, sizes", [
    ("EG1", (18, 12, 12, 12, 12)),
    ("EG2", (18, 12, 12, 12, 12)),
    ("EG3", (16, 14, 12, 12, 12)),
    ("EG4", (16, 14, 12, 12, 12)),
])
def test_a_graft_with_no_room_limit(variant, sizes):
    # five 12-gons: neither one graft nor a pair can end uniform, so no
    # polygon's growth is limited and the first fitting row grafts
    c = covers.realize_spec(5, 7)
    assert gr.graft_room(c) is None
    out = gr.graft(c, gr.GraftVariant(variant))
    assert out.sizes == sizes
    assert cx.is_graftable(out)
    assert cx.surface_invariants(out).genus == 8


def test_paired_steps_graft_under_the_policy():
    # every paired step of the k = 2 and 6 chains up to N = 121: the first
    # half stays within the room of its base, the second fills the room of
    # the mid exactly and ends uniform
    for n in range(116, 122):
        gr.build_primitive(n)
    pairs = 0
    for seed, (_, paired) in gr._SCHEDULES.items():
        chain = gr._chains[seed] if paired else []
        for cur, mid, fin in zip(chain[0::2], chain[1::2], chain[2::2]):
            room = gr.graft_room(cur)
            assert sum(room) == 12
            assert all(b - a <= r for a, b, r in zip(cur.sizes, mid.sizes, room))
            assert gr.graft_room(mid) == tuple(b - a for a, b in zip(mid.sizes, fin.sizes))
            assert len(set(fin.sizes)) == 1
            pairs += 1
    assert pairs == 75


def test_catalog_sites_graft_or_are_ineligible():
    # apply_graft at every eligible site of every catalog entry either
    # grafts or says the site cannot take a graft (a domain error)
    verdicts = Counter()
    for _, entry in sorted(catalog.load_all().items()):
        for variant in gr.GraftVariant:
            for site in gr.eligible_sites(entry.complex, variant):
                try:
                    gr.apply_graft(entry.complex, site)
                    verdicts["grafts"] += 1
                except IneligibleSiteError:
                    verdicts["ineligible"] += 1
    assert verdicts == {"grafts": 224, "ineligible": 108}


@pytest.mark.parametrize("entry", [gr.apply_graft, gr.discover_rewrite], ids=lambda f: f.__name__)
def test_apply_graft_validates_site(seeds, entry):
    # both entry points that take a site reject, by one check, a site that
    # is not one of eligible_sites: a cycle of X8, which X12 does not
    # have; a cycle of X12 with no shared edge, given as EG3; and a
    # fabricated cycle
    site = gr.eligible_sites(seeds[8], gr.GraftVariant.EG1)[0]
    x12_site = gr.eligible_sites(seeds[12], gr.GraftVariant.EG2)[0]
    fabricated = cx.VertexCycle(((0, 0), (0, 1), (0, 2)))
    for wrong in (
        gr.GraftSite(variant=gr.GraftVariant.EG3, cycle=site.cycle),
        gr.GraftSite(variant=gr.GraftVariant.EG3, cycle=x12_site.cycle),
        gr.GraftSite(variant=gr.GraftVariant.EG1, cycle=fabricated),
        gr.GraftSite(variant=gr.GraftVariant.EG2, cycle=fabricated),
    ):
        with pytest.raises(IneligibleSiteError, match="is not eligible for"):
            entry(seeds[12], wrong)


@pytest.mark.parametrize("n", list(range(7, 32)))
def test_build_primitive_certifies(n):
    c = gr.build_primitive(n)
    rep = cx.verify_extremal(c)
    assert rep.ok and rep.n == n
    assert (rep.k, rep.g) == primitive_pair(n)


def test_build_primitive_genus_steps():
    gr.build_primitive(31)  # force every chain long enough
    for cls, chain in gr._chains.items():
        genera = [cx.surface_invariants(c).genus for c in chain]
        assert all(b - a == 1 for a, b in zip(genera, genera[1:])), cls


def test_build_primitive_rejects_small_n():
    with pytest.raises(ValueError):
        gr.build_primitive(6)


def test_build_primitive_reads_sites_one_at_a_time(monkeypatch):
    # each graft builds the VertexCycles of the sites it reads up to the
    # first that grafts: 544 for N = 41 from an empty chain, where building
    # every site of every complex took 1,598
    built = []
    init = cx.VertexCycle.__init__
    monkeypatch.setattr(cx.VertexCycle, "__init__", lambda self, *args: built.append(args[0]) or init(self, *args))
    monkeypatch.setattr(gr, "_chains", {})
    c = gr.build_primitive(41)
    assert 0 < len(built) <= 800
    monkeypatch.undo()
    assert c == gr.build_primitive(41) and cx.verify_extremal(c).ok


def test_build_primitive_builds_only_the_sites_its_room_leaves(monkeypatch):
    # a cycle whose corners miss a polygon that an exact room fills is
    # passed over before its site is built: 51 GraftSites for N = 41 from
    # an empty chain, where 493 of the 544 built before fitted no row
    built = []
    init = gr.GraftSite.__init__
    monkeypatch.setattr(gr.GraftSite, "__init__", lambda self, *args: built.append(args[1]) or init(self, *args))
    monkeypatch.setattr(gr, "_chains", {})
    c = gr.build_primitive(41)
    assert 0 < len(built) <= 60
    monkeypatch.undo()
    assert c == gr.build_primitive(41)
    # eligible_sites and graft at an index still read every site: X15's EG1
    # grafts reach a room that only some of the sites meet
    x15 = catalog.load_entry("X15").complex
    c = list(itertools.islice(gr._grafts(x15, gr.GraftVariant.EG1), 4))[-1]
    room = gr.graft_room(c)
    sites = gr.eligible_sites(c, gr.GraftVariant.EG1)
    kept = list(gr._iter_sites(c, gr.GraftVariant.EG1, room))
    assert kept == [site for site in sites if not gr._misses_room({p for p, _ in site.corners}, room)]
    assert 0 < len(kept) < len(sites)
    with pytest.raises(IneligibleSiteError, match=r"site index %d out of range \(0\.\.%d\)" % (len(sites), len(sites) - 1)):
        gr.graft(c, gr.GraftVariant.EG1, len(sites))


def test_build_primitive_checks_each_complex_once(monkeypatch):
    # the seed is checked when the chain starts and every later complex
    # when it is grafted: 35 checks for the 35 complexes of N = 41, where
    # checking again at each next graft's sites took 68
    checked = []
    is_graftable = cx.is_graftable
    monkeypatch.setattr(cx, "is_graftable", lambda c: checked.append(c) or is_graftable(c))
    monkeypatch.setattr(gr, "_chains", {})
    c = gr.build_primitive(41)
    assert 0 < len(checked) <= 35
    assert len(checked) == len({id(x) for x in checked})
    monkeypatch.undo()
    assert c == gr.build_primitive(41) and cx.verify_extremal(c).ok


def test_one_chain_per_seed(monkeypatch):
    # N mod 6 picks the seed only: N = 41 reads the X7 chain N = 43 grew,
    # and N = 20 the X8 chain N = 22 grew, without a graft of their own
    monkeypatch.setattr(gr, "_chains", {})
    rewrites = []
    apply_rewrite = gr.apply_rewrite
    monkeypatch.setattr(gr, "apply_rewrite", lambda c, rw: rewrites.append(rw) or apply_rewrite(c, rw))
    for first, second in ((43, 41), (22, 20)):
        gr.build_primitive(first)
        assert rewrites
        rewrites.clear()
        c = gr.build_primitive(second)
        assert rewrites == []
        assert (cx.verify_extremal(c).n, c.name) == (second, "X%d" % second)
    assert set(gr._chains) <= {7, 8, 9, 12}


def test_a_chain_drops_what_it_derived_for_the_members_it_grafted_past(monkeypatch):
    # the chain keeps every member, for criterion 3 and the paired-step
    # tests, but only the last keeps its flag triple and walk; the others
    # rebuild them on first use, equal to a fresh complex's
    monkeypatch.setattr(gr, "_chains", {})
    last = gr.build_primitive(43)
    (chain,) = gr._chains.values()
    assert len(chain) == 37 and chain[-1].polygons == last.polygons
    for c in chain[:-1]:
        assert "_flags" not in vars(c) and "_cycles" not in vars(c), c
        fresh = cx.PolygonComplex(c.polygons)
        assert cx.flag_action(c) == cx.flag_action(fresh) and cx._walk(c) == cx._walk(fresh)
        assert cx.verify_extremal(c) == cx.verify_extremal(fresh)



def test_a_build_from_a_longer_chain_derives_nothing_for_its_member(monkeypatch):
    # N = 41 returns member 34 of the chain N = 43 grew, renamed: the
    # member keeps its words and t1 only, as before the build
    monkeypatch.setattr(gr, "_chains", {})
    gr.build_primitive(43)
    c = gr.build_primitive(41)
    (chain,) = gr._chains.values()
    kept = [i for i, member in enumerate(chain) if {"_flags", "_cycles"} & set(vars(member))]
    assert kept == [36] and c.polygons is chain[34].polygons
    # what the copy derives stays with the copy
    assert cx.verify_extremal(c).ok and "_cycles" in vars(c)
    assert not {"_flags", "_cycles"} & set(vars(chain[34]))

def reference_first_graft(c, variant):
    """The first graft over every eligible site of the variant, each under
    c's room, or None."""
    room = gr.graft_room(c)
    for site in gr.eligible_sites(c, variant):
        for _, out in gr._iter_rewrites(c, site, room):
            return out
    return None


def test_graft_first_site_reads_the_room_stream():
    # the stream that passes over the sites the room rules out grafts
    # where the walk over every site does, and fails with the same message,
    # on the catalog, the chains' complexes up to N = 31 and the seventh
    # EG1 graft of X11: its sizes (11, 13, 13, 13, 11, 11) leave the exact
    # room (2, 0, 0, 0, 2, 2), which every site misses
    complexes = [entry.complex for _, entry in sorted(catalog.load_all().items())]
    x11 = catalog.load_entry("X11").complex
    complexes.append(list(itertools.islice(gr._grafts(x11, gr.GraftVariant.EG1), 7))[-1])
    steps = {}
    for n in range(7, 32):
        gr.build_primitive(n)
        seed = gr._SEEDS[n % 6]
        steps[seed] = max(steps.get(seed, 0), smallest_k(n) * (n - seed) // 6)
    for seed, last in sorted(steps.items()):
        complexes.extend(gr._chains[seed][: last + 1])
    verdicts = Counter()
    for c in complexes:
        for variant in gr.GraftVariant:
            expected = reference_first_graft(c, variant)
            if expected is not None:
                assert gr.graft(c, variant) == expected, (c, variant)
                verdicts["grafts"] += 1
                continue
            sites = gr.eligible_sites(c, variant)
            message = ("no %s site of %d can take a graft: no wiring row fits the room %s of sizes %s"
                       % (variant.value, len(sites), gr.graft_room(c), c.sizes)
                       if sites else "the complex has no %s site" % variant.value)
            with pytest.raises(IneligibleSiteError) as err:
                gr.graft(c, variant)
            assert str(err.value) == message, (c, variant)
            verdicts[bool(sites)] += 1
    assert verdicts == {"grafts": 212, True: 4, False: 12}, verdicts


def test_discover_rewrite_is_deterministic(seeds):
    site = gr.eligible_sites(seeds[12], gr.GraftVariant.EG2)[0]
    rw1 = gr.discover_rewrite(seeds[12], site)
    rw2 = gr.discover_rewrite(seeds[12], site)
    assert rw1 == rw2
    out = gr.apply_rewrite(seeds[12], rw1)
    assert sum(len(seq) for _, _, seq in rw1.insertions) == 6
    assert cx.verify_extremal(out).ok


# ---------------------------------------------------------------------------
# the candidate stream the wiring table was read from


def compositions(total, parts):
    """Weak compositions of total into parts, balanced ones first."""
    out = [t for t in itertools.product(range(total + 1), repeat=parts) if sum(t) == total]
    return sorted(out, key=lambda t: (max(t) - min(t), t))


def slot_distributions(slots, need, max_insert):
    """Distributions of six new sides over the slots.

    With need (per-polygon counts for a uniform target) the distribution
    is constrained polygon by polygon; with max_insert (per-polygon caps
    for the free half of a paired graft) compositions are filtered.
    """
    if need is not None:
        by_poly = {}
        for s, (p, _) in enumerate(slots):
            by_poly.setdefault(p, []).append(s)
        if any(need.get(p, 0) > 0 and p not in by_poly for p in need):
            return
        groups = sorted(by_poly)
        per_group = [compositions(need.get(p, 0), len(by_poly[p])) for p in groups]
        for combo in itertools.product(*per_group):
            dist = [0] * len(slots)
            for p, comp in zip(groups, combo):
                for s, v in zip(by_poly[p], comp):
                    dist[s] = v
            yield tuple(dist)
        return
    for dist in compositions(6, len(slots)):
        if max_insert is not None:
            sums = Counter()
            for (p, _), v in zip(slots, dist):
                sums[p] += v
            if any(v > max_insert.get(p, 0) for p, v in sums.items()):
                continue
        yield dist


def pairings(free):
    """Perfect matchings of the points, the first point's partner slowest."""
    if not free:
        yield ()
        return
    for t in range(1, len(free)):
        for rest in pairings(free[1:t] + free[t + 1:]):
            yield ((free[0], free[t]),) + rest


def reference_candidate_rewrites(c, slots, need, max_insert):
    """The exhaustive stream of insertions at the slots that grafting once
    searched: distribute six new sides over the slots, then try each
    pairing of the six and each sign pattern."""
    base = max(abs(v) for w in c.polygons for v in w)
    for dist in slot_distributions(slots, need, max_insert):
        positions = [s for s, cnt in enumerate(dist) for _ in range(cnt)]
        for pairing in pairings(tuple(range(6))):
            for signs in itertools.product((1, -1), repeat=3):
                darts = [0] * 6
                for lab_off, (a, b) in enumerate(pairing):
                    darts[a] = base + 1 + lab_off
                    darts[b] = signs[lab_off] * (base + 1 + lab_off)
                seqs = [[] for _ in slots]
                for s, v in zip(positions, darts):
                    seqs[s].append(v)
                yield gr.Rewrite(tuple(
                    (slots[s][0], slots[s][1], tuple(seq)) for s, seq in enumerate(seqs) if seq
                ))


def test_wiring_rows_are_candidates_of_the_stream():
    # at an unconstrained site of three corners the rows are candidates
    # 74, 81, 103, 108, 1019, 1047 and 1118, in the table's order
    c = cx.PolygonComplex(((1, 2, 3), (-1, -2, -3)))
    slots = [(0, 1), (1, 0), (1, 2)]
    stream = list(reference_candidate_rewrites(c, slots, None, None))
    rows = [row_rewrite(c, slots, row) for row in gr.WIRINGS]
    assert [stream.index(rw) for rw in rows] == [74, 81, 103, 108, 1019, 1047, 1118]
    for row in gr.WIRINGS:
        labels = [v for word in row for v in word]
        assert sorted(map(abs, labels)) == [1, 1, 2, 2, 3, 3]
        firsts = [v for t, v in enumerate(labels) if abs(v) not in map(abs, labels[:t])]
        assert firsts == [1, 2, 3]


def default_constraints(c):
    """The stream's per-polygon need (an exact room) or cap (any other
    room) for the room apply_graft grafts with."""
    room = gr.graft_room(c)
    if room is None:
        return None, None
    room = dict(enumerate(room))
    return (room, None) if sum(room.values()) == 6 else (None, room)


def graft_test_complexes(max_n):
    """The catalog, the 12 classes of (2,3,7)@84, and every complex of the
    graft chains up to cell size max_n, the mids of paired steps included."""
    out = [entry.complex for _, entry in sorted(catalog.load_all().items())]
    for rec in tg.low_index_subgroups(2, 3, 7, 84, torsion_free=True, proper=True):
        out.append(tg.subgroup_to_complex(rec))
    steps = {}
    for n in range(7, max_n + 1):
        gr.build_primitive(n)
        seed = gr._SEEDS[n % 6]
        steps[seed] = max(steps.get(seed, 0), smallest_k(n) * (n - seed) // 6)
    for seed, last in sorted(steps.items()):
        out.extend(gr._chains[seed][: last + 1])
    return out


def reference_trivalent_after(c, rw):
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
    t1 = cx.flag_action(c)[1]
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


def reference_first_rewrite(c, site, need, max_insert):
    """The first rewrite of the stream that the local check accepts, or None."""
    stream = reference_candidate_rewrites(c, list(site.corners), need, max_insert)
    return next((rw for rw in stream if reference_trivalent_after(c, rw)), None)


def row_rewrite(c, corners, row):
    """The rewrite a row of WIRINGS makes at the corners."""
    base = max(abs(v) for w in c.polygons for v in w)
    return gr.Rewrite(tuple(
        (p, pos, tuple(v + base if v > 0 else v - base for v in word))
        for (p, pos), word in zip(corners, row)
    ))


def row_fits(site, row, room):
    """Whether the row grows no polygon of the site beyond its room."""
    grow = Counter()
    for (p, _), word in zip(site.corners, row):
        grow[p] += len(word)
    return room is None or all(v <= room[p] for p, v in grow.items())


def compare_with_reference(max_n):
    """Check that the table's first accepted rewrite is the candidate
    stream's, at every eligible site of every variant with apply_graft's
    room, and count the sites that graft and those that do not.  At each
    site's cycle, also check every row of WIRINGS in full: it grafts
    exactly when it is one of the rows of the site's twist ("rows" counts
    these checks)."""
    verdicts = Counter()
    for c in graft_test_complexes(max_n):
        if not cx.is_graftable(c):
            continue
        need, max_insert = default_constraints(c)
        expected = {}  # the stream's answer per cycle, shared by the variants
        for variant in gr.GraftVariant:
            for site in gr.eligible_sites(c, variant):
                if site.cycle not in expected:
                    expected[site.cycle] = reference_first_rewrite(c, site, need, max_insert)
                    twist_rows = gr._TWIST_ROWS[gr._twist(c, site)]
                    for r, row in enumerate(gr.WIRINGS):
                        out = gr.apply_rewrite(c, row_rewrite(c, site.corners, row))
                        assert cx.is_graftable(out) == (r in twist_rows), (c, site, r)
                        verdicts["rows"] += 1
                try:
                    got = gr.discover_rewrite(c, site)
                except IneligibleSiteError:
                    got = None
                assert got == expected[site.cycle], (c, site, need, max_insert)
                verdicts[got is not None] += 1
    return verdicts


def test_table_grafts_like_the_candidate_stream():
    # both verdicts occur: at many sites no row fits the target, most of
    # them on the non-uniform mids of the k = 6 schedules.  The 1,522
    # cycles, seven rows each, check the twist table in full
    verdicts = compare_with_reference(31)
    assert verdicts[True] > 1000 and verdicts[False] > 100, verdicts
    assert verdicts["rows"] == 10654, verdicts


def random_rewrites(c, slots, rng, count):
    """Random candidates over the slots: six new sides, three pairs, signs."""
    base = max(abs(v) for w in c.polygons for v in w)
    for _ in range(count):
        darts = []
        for lab in range(base + 1, base + 4):
            darts += [lab, rng.choice((lab, -lab))]
        rng.shuffle(darts)
        where = sorted(rng.randrange(len(slots)) for _ in range(6))
        seqs = {}
        for s, v in zip(where, darts):
            seqs.setdefault(s, []).append(v)
        yield gr.Rewrite(tuple(
            (slots[s][0], slots[s][1], tuple(seq)) for s, seq in sorted(seqs.items())
        ))


def site_slots(c, site):
    """The two slot tiers of a site: its corners, then those widened by one."""
    widened = {(p, (i + d) % len(c.polygons[p])) for p, i in site.corners for d in (-1, 0, 1)}
    return list(site.corners), sorted(widened)


def test_local_check_matches_the_full_check():
    # every complex of every chain up to N = 31 (the mids of the paired
    # schedules included) and every site; at each, two candidates of the
    # search's own order over the corner slots, with two new sides per
    # corner, and a random rewrite over the widened slots.  The two meet
    # both verdicts: index 81 (the table's second row) often grafts.
    rng = random.Random(4)
    verdicts = Counter()
    for n in range(26, 32):
        gr.build_primitive(n)
        seed = gr._SEEDS[n % 6]
        steps = smallest_k(n) * (n - seed) // 6
        for c in gr._chains[seed][: steps + 1]:
            for site in gr.eligible_sites(c, gr.GraftVariant.EG1):
                need = Counter(p for p, _ in site.corners for _ in range(2))
                corner, widened = site_slots(c, site)
                for rw in itertools.chain(
                    itertools.islice(reference_candidate_rewrites(c, corner, need, None), 4, 82, 77),
                    random_rewrites(c, widened, rng, 1),
                ):
                    local = reference_trivalent_after(c, rw)
                    assert local == cx.is_graftable(gr.apply_rewrite(c, rw)), (c, rw)
                    verdicts[local] += 1
    assert verdicts[True] > 300 and verdicts[False] > 4000


def test_a_site_where_no_row_of_its_twist_fits_is_ineligible():
    # the fourth EG1 graft of X15 has sizes (20, 16) and the exact room
    # (1, 5).  At its EG1 site 3, rows 4-6 fit the room, but the site's
    # twist (1, 0) grafts by row 3 alone, which does not fit
    x15 = catalog.load_entry("X15").complex
    c = list(itertools.islice(gr._grafts(x15, gr.GraftVariant.EG1), 4))[-1]
    room = gr.graft_room(c)
    assert (c.sizes, room) == ((20, 16), (1, 5))
    site = gr.eligible_sites(c, gr.GraftVariant.EG1)[3]
    assert gr._twist(c, site) == (1, 0) and gr._TWIST_ROWS[1, 0] == (3,)
    fit = [r for r, row in enumerate(gr.WIRINGS) if row_fits(site, row, room)]
    assert fit == [4, 5, 6]
    for r in fit:
        rw = row_rewrite(c, site.corners, gr.WIRINGS[r])
        assert not reference_trivalent_after(c, rw)
        assert not cx.is_graftable(gr.apply_rewrite(c, rw))
    with pytest.raises(IneligibleSiteError) as err:
        gr.discover_rewrite(c, site)
    assert str(err.value) == (
        "cycle %s cannot take a graft: no row of its twist (1, 0) fits the room (1, 5)"
        " of sizes (20, 16)" % (site.corners,)
    )


def test_the_full_check_stays_behind_the_twist_table(seeds, monkeypatch):
    # a row the site's twist does not graft by is caught, not returned
    c = seeds[12]
    site = gr.eligible_sites(c, gr.GraftVariant.EG2)[0]
    twist = gr._twist(c, site)
    wrong = next(r for r in range(len(gr.WIRINGS)) if r not in gr._TWIST_ROWS[twist])
    monkeypatch.setitem(gr._TWIST_ROWS, twist, (wrong,))
    with pytest.raises(InvariantError, match="the full check rejects"):
        gr.discover_rewrite(c, site)


@pytest.mark.parametrize("n", [7, 9])
def test_graft_pair_error_names_its_counts(seeds, monkeypatch, n):
    # every first half is found and no second half is: the error names
    # the sites and the first halves tried
    base = seeds[n]
    search_rewrites = gr._iter_rewrites
    first_halves = []

    def first_halves_only(c, site, room):
        if c is base:
            for found in search_rewrites(c, site, room):
                first_halves.append(found)
                yield None, cx.PolygonComplex(found[1].polygons)

    monkeypatch.setattr(gr, "_iter_rewrites", first_halves_only)
    with pytest.raises(RewriteSearchError) as err:
        gr._graft_pair(base, gr.GraftVariant.EG3, gr.GraftVariant.EG1)
    match = re.search(
        r"^no workable EG3/EG1 pair over (\d+) sites: (\d+) first halves tried$",
        str(err.value),
    )
    assert match, str(err.value)
    num_sites, tried = map(int, match.groups())
    assert num_sites == len(gr.eligible_sites(base, gr.GraftVariant.EG3))
    assert tried == len(first_halves) > 0


def test_build_primitive_output_is_pinned():
    # sha256 of serialize(build_primitive(N)) for N = 7..121, joined in
    # order, as the exhaustive candidate search built them
    text = "".join(cx.serialize(gr.build_primitive(n)) for n in range(7, 122))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c5eddefbdd77beba0bf3a3e23ae2bc1a088ebb58630dea006b389ee88798ec32"
    )


if __name__ == "__main__":
    # the reference comparison and the twist table's check over longer
    # chains: PYTHONPATH=src python tests/test_grafting.py 61
    print(dict(compare_with_reference(int(sys.argv[1]) if len(sys.argv) > 1 else 61)))
