import itertools
import random
import re
from collections import Counter

import pytest

from extpack import complexes as cx
from extpack import grafting as gr
from extpack.errors import IneligibleSiteError, NotExtremalError, RewriteSearchError
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


def test_apply_graft_x8_to_x10(seeds):
    out = gr._graft_any_site(seeds[8], gr.GraftVariant.EG1, gr.default_target_sizes(seeds[8]))
    rep = cx.verify_extremal(out)
    assert (rep.k, rep.g, rep.n) == (3, 4, 10)
    # the paired variant has a site in the image
    assert gr.eligible_sites(out, gr.GraftVariant.EG2)
    out2 = gr._graft_any_site(out, gr.GraftVariant.EG2, gr.default_target_sizes(out))
    rep2 = cx.verify_extremal(out2)
    assert (rep2.k, rep2.g, rep2.n) == (3, 5, 12)


def test_apply_graft_x12_to_18(seeds):
    out = gr._graft_any_site(seeds[12], gr.GraftVariant.EG2, gr.default_target_sizes(seeds[12]))
    rep = cx.verify_extremal(out)
    assert (rep.k, rep.g, rep.n) == (1, 4, 18)


def test_graft_step_deltas(seeds):
    c = seeds[8]
    out = gr._graft_any_site(c, gr.GraftVariant.EG1, gr.default_target_sizes(c))
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


def test_apply_graft_validates_site(seeds):
    site = gr.eligible_sites(seeds[8], gr.GraftVariant.EG1)[0]
    wrong = gr.GraftSite(variant=gr.GraftVariant.EG3, cycle=site.cycle)
    with pytest.raises(IneligibleSiteError):
        gr.apply_graft(seeds[12], wrong)


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


def test_discover_rewrite_is_deterministic(seeds):
    site = gr.eligible_sites(seeds[12], gr.GraftVariant.EG2)[0]
    rw1 = gr.discover_rewrite(seeds[12], site, gr.default_target_sizes(seeds[12]))
    rw2 = gr.discover_rewrite(seeds[12], site, gr.default_target_sizes(seeds[12]))
    assert rw1 == rw2
    out = gr.apply_rewrite(seeds[12], rw1)
    assert sum(len(seq) for _, _, seq in rw1.insertions) == 6
    assert cx.verify_extremal(out).ok


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
    # both verdicts: index 81 of the corner tier often grafts.
    rng = random.Random(4)
    verdicts = Counter()
    for n in range(26, 32):
        gr.build_primitive(n)
        steps = smallest_k(n) * (n - gr._SCHEDULES[n % 6][0]) // 6
        for c in gr._chains[n % 6][: steps + 1]:
            for site in gr.eligible_sites(c, gr.GraftVariant.EG1):
                need = Counter(p for p, _ in site.corners for _ in range(2))
                corner, widened = site_slots(c, site)
                for rw in itertools.chain(
                    itertools.islice(gr._candidate_rewrites(c, corner, need, None), 4, 82, 77),
                    random_rewrites(c, widened, rng, 1),
                ):
                    local = gr._trivalent_after(c, rw)
                    assert local == cx.is_graftable(gr.apply_rewrite(c, rw)), (c, rw)
                    verdicts[local] += 1
    assert verdicts[True] > 300 and verdicts[False] > 4000


def test_rewrite_search_error_names_its_counts(seeds, monkeypatch):
    c = seeds[8]
    target = gr.default_target_sizes(c)
    site = next(
        s for s in gr.eligible_sites(c, gr.GraftVariant.EG1)
        if len({p for p, _ in s.corners}) == 3
    )
    need = {p: 2 for p in range(3)}
    tried = sum(1 for _ in gr._candidate_rewrites(c, list(site.corners), need, None))
    monkeypatch.setattr(gr, "_trivalent_after", lambda c, rw: False)
    with pytest.raises(RewriteSearchError) as err:
        gr.discover_rewrite(c, site, target)
    assert (
        "%d candidates tried, %d rejected by the local check, ended by the corner slot tier"
        % (tried, tried)
    ) in str(err.value)


@pytest.mark.parametrize("n", [7, 9])
def test_graft_pair_error_names_the_caps(seeds, monkeypatch, n):
    # every first half is the search's first one, over and over, and no
    # second half is found: the k = 6 search stops at 8 first halves per
    # site pair, the fallback at 40 per site, and the error says so
    base = seeds[n]
    search_rewrites = gr._iter_rewrites
    # the fallback caps a site only if it has a first half at all
    m = (sum(base.sizes) + 12) // base.num_polygons
    max_insert = {p: m - sz for p, sz in enumerate(base.sizes)}
    sites = gr.eligible_sites(base, gr.GraftVariant.EG3)
    has_first_half = [
        next(search_rewrites(base, site, None, max_insert, gr.RewriteSearch()), None) is not None
        for site in sites
    ]

    def first_halves_only(c, site, need, max_insert, search):
        found = None
        if c is base:
            found = next(search_rewrites(c, site, need, max_insert, search), None)
        while found is not None:
            yield None, cx.PolygonComplex(found[1].polygons)

    monkeypatch.setattr(gr, "_iter_rewrites", first_halves_only)
    with pytest.raises(RewriteSearchError) as err:
        gr._graft_pair(base, gr.GraftVariant.EG3, gr.GraftVariant.EG1)
    match = re.search(
        r"^no workable EG3/EG1 pair: (\d+) candidates tried, (\d+) rejected by the local "
        r"check, ended by (.*); the cap of 8 ended (\d+) of (\d+) site pairs, "
        r"the cap of 40 ended (\d+) of (\d+) sites$",
        str(err.value),
    )
    assert match, str(err.value)
    tried, rejected, ended, capped_pairs, pairs, capped_sites, num_sites = match.groups()
    assert int(tried) > int(rejected) > 0
    assert int(pairs) > 0 if n == 7 else int(pairs) == 0
    assert capped_pairs == pairs
    # the last site's scan sets the reason, whether or not it hits the cap
    last = "the cap of 40 first halves per site" if has_first_half[-1] else "the corner slot tier"
    assert ended == last
    assert int(num_sites) == len(sites)
    assert 0 < int(capped_sites) == sum(has_first_half)
