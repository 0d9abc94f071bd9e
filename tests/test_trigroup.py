import contextlib
import json
import logging
import os
import pathlib
import random
import re
from collections import deque
from fractions import Fraction

import pytest

from extpack import catalog
from extpack import _action, _blocks
from extpack import _lowindex as li
from extpack import complexes as cx
from extpack import trigroup as tg
from extpack.errors import EnumerationCapError, InvariantError


# ---------------------------------------------------------------------------
# reference Todd-Coxeter enumeration: the general route to a coset table from
# subgroup generators, against which the direct constructions are checked.
# Words are tuples of signed 1-based generator numbers (1, 2, 3 = r0, r1, r2).

Word = tuple[int, ...]


def triangle_relators(p: int, q: int, r: int) -> tuple[Word, ...]:
    """Relators of the extended (p, q, r) triangle group."""
    return ((1, 1), (2, 2), (3, 3), (1, 2) * p, (2, 3) * q, (3, 1) * r)


def free_reduce(word: Word) -> Word:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_perms(perms):
    out = []
    for perm in perms:
        inv = [0] * len(perm)
        for i, j in enumerate(perm):
            inv[j] = i
        out.append(tuple(inv))
    return tuple(out)


def apply_word(perms, c: int, word: Word) -> int:
    inv = None
    for x in word:
        if x > 0:
            c = perms[x - 1][c]
        else:
            if inv is None:
                inv = inverse_perms(perms)
            c = inv[-x - 1][c]
    return c


def check_relators(relators, perms) -> None:
    """Every relator acts trivially and the action is transitive."""
    for rel in relators:
        for c in range(len(perms[0])):
            assert apply_word(perms, c, rel) == c, "relator %s broken at coset %d" % (rel, c)
    assert _action.two_color(perms)[0], "action is not transitive"


def schreier_generators(perms) -> list[Word]:
    """Subgroup generators from a spanning tree of the coset graph."""
    n = len(perms[0])
    inv = inverse_perms(perms)
    path: list[Word | None] = [None] * n
    path[0] = ()
    queue = deque([0])
    tree: set[tuple[int, int]] = set()
    while queue:
        c = queue.popleft()
        for g in range(len(perms)):
            for sign, perm in ((1, perms[g]), (-1, inv[g])):
                d = perm[c]
                if path[d] is None:
                    path[d] = path[c] + (sign * (g + 1),)
                    tree.add((c, sign * (g + 1)))
                    queue.append(d)
    gens: list[Word] = []
    seen: set[Word] = set()
    for c in range(n):
        for g in range(len(perms)):
            if (c, g + 1) in tree:
                continue
            d = perms[g][c]
            back = tuple(-x for x in reversed(path[d]))
            w = free_reduce(path[c] + (g + 1,) + back)
            if w and w not in seen:
                seen.add(w)
                gens.append(w)
    return gens


def substitute(word: Word, images: dict[int, Word]) -> Word:
    """Rewrite a word through generator images (for subgroup embeddings)."""
    out: list[int] = []
    for x in word:
        img = images[abs(x)]
        if x > 0:
            out.extend(img)
        else:
            out.extend(-y for y in reversed(img))
    return free_reduce(tuple(out))


def coset_enumerate(
    relators: tuple[Word, ...],
    subgroup_words: tuple[Word, ...] = (),
    cap: int = 10**6,
):
    """Enumerate the cosets of the subgroup generated by subgroup_words in
    the three-generator group with the given relators; returns the
    generators' actions, standardized.

    HLT-style scanning with on-the-fly filling; merged cosets are tracked
    through a union-find.  `cap` bounds the total number of coset rows ever
    allocated (live plus collapsed); exceeding it raises
    EnumerationCapError, a resource signal rather than a mathematical one.
    """
    ngens = 3
    ncols = 2 * ngens

    def col_of(letter: int) -> int:
        return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)

    rel_paths = [tuple(col_of(x) for x in rel) for rel in relators]
    sub_paths = [tuple(col_of(x) for x in w) for w in subgroup_words]

    rows: list[list[int]] = [[li.UNDEF] * ncols]
    labels: list[int] = [0]

    def find(c: int) -> int:
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def follow(c: int, col: int) -> int:
        c = find(c)
        d = rows[c][col]
        if d == li.UNDEF:
            if len(rows) >= cap:
                raise EnumerationCapError(
                    "coset enumeration exceeded the cap of %d rows" % cap
                )
            d = len(rows)
            rows.append([li.UNDEF] * ncols)
            labels.append(d)
            rows[c][col] = d
            rows[d][col ^ 1] = c
        return find(d)

    def unify(a: int, b: int) -> None:
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            labels[y] = x
            rx, ry = rows[x], rows[y]
            for col in range(ncols):
                d = ry[col]
                if d == li.UNDEF:
                    continue
                if rx[col] == li.UNDEF:
                    rx[col] = d
                else:
                    stack.append((rx[col], d))

    def trace(c: int, cols: tuple[int, ...]) -> int:
        for col in cols:
            c = follow(c, col)
        return c

    for path in sub_paths:
        unify(trace(0, path), 0)

    visit = 0
    while visit < len(rows):
        if find(visit) == visit:
            for path in rel_paths:
                unify(trace(visit, path), visit)
        visit += 1

    live = [c for c in range(len(rows)) if find(c) == c]
    renum = {c: i for i, c in enumerate(live)}
    perms = []
    for g in range(ngens):
        col = 2 * g
        perm = [renum[find(rows[c][col])] for c in live]
        perms.append(perm)
    perms = tg.standardize(perms)
    check_relators(relators, perms)
    for w in subgroup_words:
        assert apply_word(perms, 0, w) == 0, "subgroup word %s does not stabilize coset 0" % (w,)
    return perms


def test_enumerate_finite_reflection_group():
    # the (2,3,3) reflection group is the full tetrahedral group of order 24
    perms = coset_enumerate(triangle_relators(2, 3, 3), (), cap=10**4)
    assert len(perms[0]) == 24


def test_enumerate_orientation_subgroup():
    perms = coset_enumerate(triangle_relators(2, 3, 7), ((1, 2), (2, 3)), cap=10**5)
    assert len(perms[0]) == 2


def test_enumeration_cap_signals_infinite_group():
    with pytest.raises(EnumerationCapError):
        coset_enumerate(triangle_relators(3, 3, 9), (), cap=4000)


def test_low_index_subgroup_class_counts_in_s4():
    # ext(2,3,3) is S4; known subgroup conjugacy class counts by index
    for index, classes in [(1, 1), (2, 1), (3, 1), (4, 1), (6, 3), (8, 1), (12, 2), (24, 1)]:
        assert len(tg.low_index_subgroups(2, 3, 3, index)) == classes


@pytest.mark.parametrize(
    "args,kwargs,message",
    [
        ((1, 3, 7, 28), {}, "triangle parameters must be >= 2"),
        ((2, 3, 7, 0), {}, "need index >= 1"),
        ((2, 3, 7, 28), {"max_count": 0}, "need max_count >= 1"),
        ((2, 3, 7, 28), {"max_count": -1}, "need max_count >= 1"),
        ((2, 3, 7, 0), {"max_count": 0}, "need index >= 1"),
    ],
    ids=["p-below-2", "index-0", "max-count-0", "max-count-negative", "index-before-max-count"],
)
def test_low_index_rejects_bad_arguments(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        tg.low_index_subgroups(*args, **kwargs)


def test_torsion_free_search_rejects_a_table_with_torsion(monkeypatch):
    # r0 fixes both points; the torsion-free search must never complete it
    table = ((0, 1), (1, 0), (1, 0))
    assert not tg.classify(table, 2, 3, 8).torsion_free
    monkeypatch.setattr(li._TriangleSearch, "solutions", lambda self: iter([table]))
    with pytest.raises(InvariantError, match=r"completed table 1, \(\(0, 1\), .*which has torsion"):
        tg.low_index_subgroups(2, 3, 8, 2, torsion_free=True)


class UnprunedSearch(li._TriangleSearch):
    """The low-index search without its canonicity tests: every table in
    scan order is completed, each class many times."""

    def _ties(self, live):
        return []

    def _least_first(self, mark):
        return True


def reference_low_index(p, q, r, index, torsion_free=False, proper=None):
    """The earlier low_index_subgroups: the unpruned search, every table
    standardized and classified, conjugates removed by their least code."""
    records, seen = [], set()
    for perms in UnprunedSearch(p, q, r, index, torsion_free).solutions():
        rec = tg.classify(tg.standardize(perms), p, q, r)
        if torsion_free and not rec.torsion_free:
            continue
        if proper is not None and rec.proper != proper:
            continue
        key = cx.least_code(rec.perms)
        if key not in seen:
            seen.add(key)
            records.append(rec)
    return records


GENERIC_CASES = [((2, 3, 12), 24, 300), ((2, 3, 7), 28, 13), ((3, 3, 7), 14, 24), ((2, 3, 8), 24, 75)] + [
    ((2, 3, 3), index, classes)  # S4, as in the class-count test above
    for index, classes in [(1, 1), (2, 1), (3, 1), (4, 1), (6, 3), (8, 1), (12, 2), (24, 1)]
]


@pytest.mark.parametrize(
    "pqr,index,classes",
    GENERIC_CASES,
    ids=["%d,%d,%d@%d" % (pqr + (index,)) for pqr, index, _ in GENERIC_CASES],
)
def test_generic_search_matches_the_unpruned_search(pqr, index, classes):
    recs = tg.low_index_subgroups(*pqr, index)
    reference = reference_low_index(*pqr, index)
    assert len(recs) == classes
    codes = [_action.bfs_code(rec.perms, 0) for rec in recs]
    assert codes == [cx.least_code(rec.perms) for rec in recs]
    assert codes == sorted(set(codes))  # one per class, met in code order
    # the first table the unpruned DFS meets in a class is its least-code one
    assert [rec.perms for rec in recs] == [rec.perms for rec in reference]


@pytest.mark.parametrize(
    "pqr,index,proper",
    [((2, 3, 8), 48, True), ((2, 3, 7), 84, True), ((3, 3, 9), 18, True), ((3, 3, 9), 18, None)],
    ids=["2,3,8@48", "2,3,7@84", "3,3,9@18", "3,3,9@18-either"],
)
def test_torsion_free_records_match_the_least_code_dedupe(pqr, index, proper):
    recs = tg.low_index_subgroups(*pqr, index, torsion_free=True, proper=proper)
    reference = reference_low_index(*pqr, index, torsion_free=True, proper=proper)
    assert recs and [rec.perms for rec in recs] == [rec.perms for rec in reference]
    if proper is None:
        assert {rec.proper for rec in recs} == {True, False}


#: torsion-free types at small indices; those below the least index of a
#: surface have no record, but their searches still run and prune
TF_GRID = [
    ((2, 3, 7), 84), ((2, 3, 8), 48), ((2, 3, 9), 36), ((2, 3, 10), 40), ((2, 3, 11), 44),
    ((2, 3, 12), 24), ((3, 3, 4), 24), ((3, 3, 5), 30), ((3, 3, 6), 24), ((3, 3, 7), 28),
    ((3, 3, 8), 16), ((3, 3, 9), 18), ((2, 4, 5), 40),
]
TF_GRID_IDS = ["%d,%d,%d@%d" % (pqr + (index,)) for pqr, index in TF_GRID]


@pytest.mark.parametrize("pqr,index", TF_GRID, ids=TF_GRID_IDS)
def test_pruned_torsion_free_records_match_the_reference(pqr, index):
    reference = reference_low_index(*pqr, index, torsion_free=True)
    for proper in (None, True, False):
        want = [rec.perms for rec in reference if proper in (None, rec.proper)]
        for max_count in (None, 1):
            recs = tg.low_index_subgroups(*pqr, index, torsion_free=True, proper=proper, max_count=max_count)
            assert [rec.perms for rec in recs] == want[:max_count]


def first_entry(t, f):
    """The first t1 entry of the block-order code from flag f: the place of
    t1[f] on the walk f, t0 f, t2 t0 f, ... round f's block, else the block
    size."""
    walk = [f]
    while len(walk) == 1 or walk[-1] != f:
        walk.append(t[0 if len(walk) % 2 else 2][walk[-1]])
    walk.pop()
    return walk.index(t[1][f]) if t[1][f] in walk else len(walk)


@pytest.mark.parametrize(
    "pqr,index",
    [((2, 3, 7), 84), ((2, 3, 12), 24), ((3, 3, 6), 24), ((3, 3, 9), 18), ((2, 4, 5), 40)],
    ids=["2,3,7@84", "2,3,12@24", "3,3,6@24", "3,3,9@18", "2,4,5@40"],
)
def test_first_entry_prune_keeps_the_least_tables(pqr, index):
    unpruned = list(UnprunedSearch(*pqr, index, True).solutions())
    pruned = list(li._TriangleSearch(*pqr, index, True).solutions())
    # exactly the tables whose t1[0] is the least first entry, in order: an
    # in-order subsequence of the unpruned tables
    least = [t for t in unpruned if t[1][0] == min(first_entry(t, f) for f in range(index))]
    assert len(pruned) < len(unpruned) and pruned == least
    # the first table of every class comes first in block order, so it stays
    firsts = {}
    for t in unpruned:
        firsts.setdefault(cx.least_code(t), t)
    assert set(firsts.values()) <= set(pruned)


def _search_counters(caplog):
    (record,) = [rec for rec in caplog.records if rec.name == "extpack.trigroup"]
    text = record.getMessage()
    found = re.search(
        r"(\d+) nodes, (\d+) canonicity prunes, (\d+) complete tables, (\d+) records", text
    )
    assert found, text
    return tuple(map(int, found.groups()))


def test_search_counters_are_logged_at_debug(caplog):
    tg.low_index_subgroups(2, 3, 7, 28)
    assert not caplog.records  # silent by default
    with caplog.at_level(logging.DEBUG, logger="extpack.trigroup"):
        recs = tg.low_index_subgroups(2, 3, 7, 28)
    nodes, prunes, tables, records = _search_counters(caplog)
    assert prunes > 0 and tables == records == len(recs) == 13 and nodes > tables
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="extpack.trigroup"):
        recs = tg.low_index_subgroups(2, 3, 8, 48, torsion_free=True, proper=True)
    nodes, prunes, tables, records = _search_counters(caplog)
    assert prunes > 0 and tables > records == len(recs) == 23


def reference_table_key(perms):
    """The earlier isomorphism key: the least of the tables renumbered by a
    BFS from every point, compared column by column."""
    def renumber(start):
        order = [-1] * len(perms[0])
        order[start] = 0
        seq = [start]
        for x in seq:
            for perm in perms:
                if order[perm[x]] < 0:
                    order[perm[x]] = len(seq)
                    seq.append(perm[x])
        return tuple(tuple(order[perm[x]] for x in seq) for perm in perms)

    return min(renumber(s) for s in range(len(perms[0])))


@pytest.mark.parametrize("pqr,index,torsion_free", [((2, 3, 8), 48, True), ((2, 3, 7), 28, False)])
def test_least_code_partitions_like_the_reference_key(pqr, index, torsion_free):
    sols = list(UnprunedSearch(*pqr, index, torsion_free).solutions())
    assert len(sols) == {48: 458, 28: 252}[index]  # each class many times
    pairs = {(reference_table_key(perms), cx.least_code(perms)) for perms in sols}
    classes = len({ref for ref, _ in pairs})
    assert classes > 1
    assert len({code for _, code in pairs}) == len(pairs) == classes
    # the key does not depend on how the points are numbered
    rng = random.Random(index)
    for perms in sols[:20]:
        sigma = list(range(index))
        rng.shuffle(sigma)
        moved = [[0] * index for _ in perms]
        for new, perm in zip(moved, perms):
            for x in range(index):
                new[sigma[x]] = sigma[perm[x]]
        assert cx.least_code(moved) == cx.least_code(perms)


def test_low_index_deterministic():
    a = tg.low_index_subgroups(2, 3, 12, 24, torsion_free=True, proper=True)
    b = tg.low_index_subgroups(2, 3, 12, 24, torsion_free=True, proper=True)
    assert [r.perms for r in a] == [r.perms for r in b]
    assert len(a) >= 1 and all(r.genus == 3 for r in a)


@pytest.mark.parametrize(
    "pqr,index,genus",
    [((2, 3, 12), 24, 3), ((2, 3, 7), 84, 3), ((3, 3, 9), 18, 4), ((3, 3, 7), 42, 6)],
)
def test_low_index_finds_surface_records(pqr, index, genus):
    recs = tg.low_index_subgroups(*pqr, index, torsion_free=True, proper=True, max_count=1)
    assert recs
    rec = recs[0]
    assert rec.torsion_free and rec.proper and not rec.quotient_orientable
    assert rec.genus == genus
    check_relators(triangle_relators(*pqr), rec.perms)


def test_classify_whole_group_and_rotation_subgroup():
    rels = triangle_relators(2, 3, 7)
    whole = coset_enumerate(rels, ((1,), (2,), (3,)), cap=10**4)
    rec = tg.classify(whole, 2, 3, 7)
    assert rec.index == 1 and not rec.torsion_free
    plus = coset_enumerate(rels, ((1, 2), (2, 3)), cap=10**4)
    rec2 = tg.classify(plus, 2, 3, 7)
    assert rec2.index == 2 and not rec2.proper and not rec2.torsion_free


def test_area_ratio_identities():
    def mu(p, q, r):
        return 1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, r)

    assert mu(3, 3, 9) / mu(2, 3, 9) == 4
    assert mu(3, 3, 7) / mu(2, 3, 7) == 8
    assert mu(3, 3, 9) / mu(2, 3, 18) == 2
    assert mu(3, 3, 7) / mu(2, 3, 14) == 2


def test_complex_to_subgroup_and_back():
    # the bridge both ways gives back the shipped file, name line aside
    for name, entry in catalog.load_all().items():
        c = entry.complex
        rec = tg.complex_to_subgroup(c)
        assert rec.index == 2 * entry.k * entry.n
        assert rec.torsion_free and rec.proper and rec.genus == entry.g
        back = tg.subgroup_to_complex(rec)
        shipped = (pathlib.Path(catalog.__file__).parent / "catalog" / ("%s.cmplx" % name)).read_text()
        assert cx.serialize(back) == shipped.replace("name %s\n" % name, ""), name


@pytest.mark.parametrize("r, index", [(5, 60), (6, 24)])
def test_subgroup_to_complex_rejects_cell_size_below_seven(r, index):
    # a torsion-free proper (2, 3, N) record with N < 7 has no extremal
    # quotient: it is refused before the quotient is built
    (rec,) = tg.low_index_subgroups(2, 3, r, index, torsion_free=True, proper=True, max_count=1)
    assert rec.torsion_free and rec.proper
    with pytest.raises(ValueError, match=r"^complex reconstruction needs N >= 7, got N = %d$" % r):
        tg.subgroup_to_complex(rec)


def test_x7_record_has_hurwitz_index(seeds):
    assert tg.complex_to_subgroup(seeds[7]).index == 84


def test_schreier_round_trip(seeds):
    # re-enumerating the subgroup from its Schreier generators recovers the index
    rec = tg.complex_to_subgroup(seeds[7])
    words = schreier_generators(rec.perms)
    perms = coset_enumerate(triangle_relators(2, 3, 7), tuple(words), cap=10**5)
    assert len(perms[0]) == 84


def test_induced_action_matches_todd_coxeter():
    # (3, 3, n) = <r2, r1, r0 r2 r0> inside (2, 3, 2n): enumerate the cosets
    # of each subgroup's Schreier generators, rewritten into the big group
    images = {1: (3,), 2: (2,), 3: (1, 3, 1)}
    cases = [((3, 3, 9), 18, True), ((3, 3, 7), 14, False)]
    for pqr, index, torsion_free in cases:
        n = pqr[2]
        big = triangle_relators(2, 3, 2 * n)
        recs = tg.low_index_subgroups(*pqr, index, torsion_free=torsion_free)
        assert len(recs) == (41 if torsion_free else 24)
        for rec in recs:
            words = tuple(substitute(w, images) for w in schreier_generators(rec.perms))
            reference = coset_enumerate(big, words, cap=10**5)
            induced = tg.induced_action(rec)
            assert induced.perms == reference
    not_333 = tg.low_index_subgroups(2, 3, 3, 4)[0]
    with pytest.raises(ValueError):
        tg.induced_action(not_333)


def test_canonical_fuchsian(seeds):
    for n, c in seeds.items():
        rec = tg.complex_to_subgroup(c)
        plus = tg.canonical_fuchsian(rec)
        assert plus.index == 2 * rec.index
        assert plus.quotient_orientable and not plus.proper
        assert plus.genus == rec.genus - 1
        assert plus.torsion_free
    with pytest.raises(ValueError):
        tg.canonical_fuchsian(plus)


def test_subgroup_orbit_counts(seeds):
    rec = tg.complex_to_subgroup(seeds[12])
    s0, s1, s2 = rec.perms
    m = rec.index

    def orbit_count(perms):
        seen = [False] * m
        count = 0
        for start in range(m):
            if seen[start]:
                continue
            count += 1
            seen[start] = True
            stack = [start]
            while stack:
                a = stack.pop()
                for perm in perms:
                    if not seen[perm[a]]:
                        seen[perm[a]] = True
                        stack.append(perm[a])
        return count

    n = 12
    k = m // (2 * n)
    assert orbit_count((s0, s2)) == k            # faces
    assert orbit_count((s0, s1)) == k * n // 2   # edges
    assert orbit_count((s1, s2)) == k * n // 3   # vertices


def test_record_json_round_trip(seeds):
    rec = tg.complex_to_subgroup(seeds[9])
    text = json.dumps(rec.to_json_dict())
    back = tg.record_from_json(text)
    assert back.perms == rec.perms
    assert back.genus == rec.genus and back.params == rec.params


def test_a_deeply_nested_record_is_malformed_input():
    # the JSON decoder runs out of stack on it: a malformed record, not a
    # failed library invariant
    with pytest.raises(ValueError, match="^subgroup record is not JSON: maximum recursion depth"):
        tg.record_from_json("[" * 100000 + "]" * 100000)


class WalkSearch(li._TriangleSearch):
    """The earlier propagation: each chain walked by a method call that
    returns a 4-tuple, each relator order read from a dict."""

    def __init__(self, p, q, r, index, torsion_free):
        super().__init__(p, q, r, index, torsion_free)
        self.pair_of = {(0, 1): p, (1, 0): p, (1, 2): q, (2, 1): q, (2, 0): r, (0, 2): r}

    def _analyze(self, i, j, c, d, queue):
        L = self.pair_of[(i, j)]
        if c == d:
            # loop: one reflection end of the chain
            end, col, hops, looped = self._walk(i, j, c, j, None)
            if looped:
                return L % (hops + 1) == 0
            return hops <= L - 1
        # walk from d; stopping at c with expected column i means the chain
        # closes through the new edge
        end_d, col_d, hops_d, loop_d = self._walk(i, j, d, j, (c, i))
        if end_d is None:  # closed cycle
            edges = hops_d + 1
            if self.tf:
                return edges == 2 * L
            return edges % 2 == 0 and L % (edges // 2) == 0
        end_c, col_c, hops_c, loop_c = self._walk(i, j, c, j, None)
        edges = hops_c + hops_d + 1
        if loop_c and loop_d:
            return L % (edges + 1) == 0
        if loop_c or loop_d:
            return edges <= L - 1
        if edges >= 2 * L:
            return False
        if edges == 2 * L - 1:
            if col_c != col_d:
                return False
            queue.append((col_c, end_c, end_d))
        return True

    def _walk(self, i, j, start, first, stop):
        t = self.t
        cur = start
        col = first
        hops = 0
        while True:
            if stop is not None and cur == stop[0] and col == stop[1]:
                return None, None, hops, False
            nxt = t[col][cur]
            if nxt == li.UNDEF:
                return cur, col, hops, False
            if nxt == cur:
                return cur, col, hops, True
            cur = nxt
            hops += 1
            col = i if col == j else j

    def _assign(self, col, a, b):
        t = self.t
        queue = [(col, a, b)]
        while queue:
            col, a, b = queue.pop()
            cur = t[col][a]
            if cur != li.UNDEF:
                if cur != b:
                    return False
                continue
            if t[col][b] != li.UNDEF:
                return False
            if self.tf and a == b:
                return False
            t[col][a] = b
            t[col][b] = a
            self.trail.append((col, a, b))
            for other in range(3):
                if other != col and not self._analyze(col, other, a, b, queue):
                    return False
        return True


#: the groups benchmark's enumerate menu (torsion-free searches are proper),
#: with the search's (nodes, prunes, tables, records)
MENU_COUNTERS = {
    ((2, 3, 7), 84, True): (7224, 384, 70, 12),
    ((2, 3, 8), 48, True): (858, 130, 49, 23),
    ((2, 3, 9), 36, True): (284, 51, 5, 4),
    ((2, 3, 12), 24, True): (250, 80, 15, 11),
    ((3, 3, 9), 18, True): (920, 165, 71, 37),
    ((2, 3, 12), 24, False): (30487, 1289, 300, 300),
    ((2, 3, 7), 28, False): (5153, 233, 13, 13),
}
MENU_IDS = ["%d,%d,%d@%d%s" % (pqr + (index, "-tf" if tf else "")) for pqr, index, tf in MENU_COUNTERS]

#: the torsion-free menu searches' nodes without the room test: every entry
#: it skips was a node that failed in _assign, so nodes + skips make these
#: ((3,3,9)@18 has no t0 partner test, p being 3)
NODES_WITHOUT_ROOM_TEST = {
    ((2, 3, 7), 84, True): 21779,
    ((2, 3, 8), 48, True): 2133,
    ((2, 3, 9), 36, True): 670,
    ((2, 3, 12), 24, True): 584,
    ((3, 3, 9), 18, True): 1344,
}


def _room_skips(caplog):
    (record,) = [rec for rec in caplog.records if rec.name == "extpack.trigroup"]
    text = record.getMessage()
    found = re.search(r" records, (\d+) room skips$", text)
    assert found, text
    return int(found.group(1))


@pytest.mark.parametrize("search, counters", MENU_COUNTERS.items(), ids=MENU_IDS)
def test_menu_search_counters_are_pinned(caplog, search, counters):
    pqr, index, tf = search
    with caplog.at_level(logging.DEBUG, logger="extpack.trigroup"):
        tg.low_index_subgroups(*pqr, index, torsion_free=tf, proper=True if tf else None)
    assert _search_counters(caplog) == counters
    skips = _room_skips(caplog)
    assert counters[0] + skips == NODES_WITHOUT_ROOM_TEST.get(search, counters[0])
    assert (skips > 0) == tf


#: generic searches off the menu, with their (nodes, prunes, tables); they
#: take p != 2 and q != 3, and a search that tried the new point anywhere
#: but last, or not at all, would move these counts
GENERIC_COUNTERS = {
    ((2, 3, 8), 16): (2261, 152, 10),
    ((2, 3, 9), 18): (2861, 205, 20),
    ((2, 3, 7), 14): (922, 79, 4),
    ((3, 3, 4), 12): (2105, 121, 10),
    ((2, 4, 5), 10): (1137, 96, 24),
}


@pytest.mark.parametrize(
    "pqr, index", GENERIC_COUNTERS, ids=["%d,%d,%d@%d" % (pqr + (index,)) for pqr, index in GENERIC_COUNTERS]
)
def test_generic_search_counters_are_pinned(caplog, pqr, index):
    with caplog.at_level(logging.DEBUG, logger="extpack.trigroup"):
        tg.low_index_subgroups(*pqr, index)
    nodes, prunes, tables, records = _search_counters(caplog)
    assert (nodes, prunes, tables) == GENERIC_COUNTERS[pqr, index] and records == tables
    assert _room_skips(caplog) == 0



STREAM_CASES = [(pqr, index, tf) for pqr, index, tf in MENU_COUNTERS] + [
    (pqr, index, False) for pqr, index in GENERIC_COUNTERS
]


@pytest.mark.parametrize("proper", [None, True, False], ids=["any", "proper", "improper"])
@pytest.mark.parametrize(
    "pqr, index, tf", STREAM_CASES,
    ids=["%d,%d,%d@%d%s" % (pqr + (index, "-tf" if tf else "")) for pqr, index, tf in STREAM_CASES],
)
def test_the_stream_yields_the_list(pqr, index, tf, proper):
    stream = tg.iter_low_index_subgroups(*pqr, index, torsion_free=tf, proper=proper)
    assert list(stream) == tg.low_index_subgroups(*pqr, index, torsion_free=tf, proper=proper)


@pytest.mark.parametrize(
    "args,message",
    [
        ((1, 3, 7, 28), "triangle parameters must be >= 2"),
        ((2, 1, 7, 28), "triangle parameters must be >= 2"),
        ((2, 3, 7, 0), "need index >= 1"),
        ((1, 3, 7, 0), "triangle parameters must be >= 2"),
    ],
    ids=["p-below-2", "q-below-2", "index-0", "p-before-index"],
)
def test_the_stream_checks_its_arguments_when_called(args, message):
    # the call raises: no next() is needed to reach the checks
    with pytest.raises(ValueError, match=message):
        tg.iter_low_index_subgroups(*args, torsion_free=True)


def test_a_closed_stream_logs_what_it_searched(caplog):
    with caplog.at_level(logging.DEBUG, logger="extpack.trigroup"):
        stream = tg.iter_low_index_subgroups(2, 3, 8, 96, torsion_free=True)
        first = next(stream)
        assert not caplog.records
        stream.close()
        stream.close()
    counters, skips = _search_counters(caplog), _room_skips(caplog)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="extpack.trigroup"):
        assert tg.low_index_subgroups(2, 3, 8, 96, torsion_free=True, max_count=1) == [first]
    assert (_search_counters(caplog), _room_skips(caplog)) == (counters, skips)
    nodes, _, tables, records = counters
    # the full search takes 252,440 nodes and 7,458 tables
    assert records == 1 and tables < 7458 and nodes < 252440

def test_the_search_calls_what_the_tracer_wraps(monkeypatch):
    # bench/spans.py wraps trigroup.low_index_subgroups and trigroup.classify
    # and reads classify's calls inside the search as trigroup.class_yield;
    # with the kernel in _lowindex, both names must still see every call
    from extpack import cli

    calls = []
    classify = tg.classify

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(tg, "classify", counted)
    assert len(tg.low_index_subgroups(2, 3, 12, 24)) == len(calls) == 300
    calls.clear()
    tables = [t[1] for t in li._TriangleSearch(2, 3, 7, 84, True).solutions()]
    passed = sum(_blocks._least_in_block_order(t1, 14) for t1 in tables)
    assert len(tg.low_index_subgroups(2, 3, 7, 84, torsion_free=True, proper=True)) == 12
    assert len(calls) == passed == 12 and len(tables) == 70
    searched = []
    search = tg.low_index_subgroups

    def traced(*args, **kwargs):
        searched.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(tg, "low_index_subgroups", traced)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert cli.main(["enumerate", "--p", "2", "--q", "3", "--r", "7", "--index", "28"]) == 0
    assert searched == [(2, 3, 7, 28)]


class CheckedRoomSearch(li._TriangleSearch):
    """The search handing every entry that the room test skips to _assign,
    which must reject it; the entry is then undone."""

    def _skip(self, c, d):
        mark = len(self.trail)
        assert not self._assign(1, c, d), "the room test skipped %d <-> %d, which _assign enters" % (c, d)
        self._undo(mark)
        assert self.t[1][c] == self.t[1][d] == li.UNDEF
        super()._skip(c, d)


ROOM_CASES = [(pqr, index) for pqr, index, tf in MENU_COUNTERS if tf] + [
    case for case in TF_GRID if case + (True,) not in MENU_COUNTERS
]


@pytest.mark.parametrize(
    "pqr, index", ROOM_CASES, ids=["%d,%d,%d@%d" % (pqr + (index,)) for pqr, index in ROOM_CASES]
)
def test_every_room_skip_is_an_entry_assign_rejects(pqr, index):
    checked, plain = CheckedRoomSearch(*pqr, index, True), li._TriangleSearch(*pqr, index, True)
    assert list(checked.solutions()) == list(plain.solutions())
    assert (checked.nodes, checked.skips, checked.prunes) == (plain.nodes, plain.skips, plain.prunes)
    assert checked.skips > 0


def test_the_room_test_is_exact_on_the_first_337_records(monkeypatch):
    def records():
        return tg.low_index_subgroups(3, 3, 7, 42, torsion_free=True, max_count=50)

    plain = records()
    monkeypatch.setattr(li, "_TriangleSearch", CheckedRoomSearch)
    assert records() == plain and len(plain) == 50


def block_order_code(t, f):
    """r1 of the table t renumbered from flag f in block order: each block
    is numbered in full when r1 first reaches it, along the walk x, t0 x,
    t2 t0 x, ... from the flag x it is reached at."""
    new, seq = {}, []

    def enter(x):
        y, k = x, 0
        while True:
            new[y] = len(seq)
            seq.append(y)
            y, k = t[2 * (k % 2)][y], k + 1
            if y == x:
                return

    enter(f)
    code = []
    for x in seq:
        if t[1][x] not in new:
            enter(t[1][x])
        code.append(new[t[1][x]])
    return code


@pytest.mark.parametrize(
    "pqr,index,classes,prefix_classes",
    [((2, 3, 7), 84, 12, 18), ((2, 3, 8), 48, 23, 32), ((3, 3, 9), 18, 41, 41), ((2, 3, 12), 48, 303, 482)],
    ids=["2,3,7@84", "2,3,8@48", "3,3,9@18", "2,3,12@48"],
)
def test_the_block_order_test_matches_the_least_code_over_all_flags(pqr, index, classes, prefix_classes):
    # prefix_classes: the tables a test reading only the first 8 entries of
    # each code would keep; on three of the four searches it keeps repeats
    kept = prefix_kept = 0
    for t in li._TriangleSearch(*pqr, index, True).solutions():
        codes = [block_order_code(t, f) for f in range(index)]
        assert codes[0] == list(t[1])  # the search's own numbering is block order from 0
        least = codes[0] == min(codes)
        assert _blocks._least_in_block_order(t[1], 2 * pqr[2]) == least
        kept += least
        prefix_kept += codes[0][:8] == min(code[:8] for code in codes)
    assert kept == classes == len(tg.low_index_subgroups(*pqr, index, torsion_free=True))
    assert prefix_kept == prefix_classes


@pytest.mark.parametrize(
    "pqr, index, tf",
    list(MENU_COUNTERS) + [(pqr, index, False) for pqr, index, _ in GENERIC_CASES],
    ids=MENU_IDS + ["%d,%d,%d@%d" % (pqr + (index,)) for pqr, index, _ in GENERIC_CASES],
)
def test_flat_propagation_walks_like_the_chain_walker(pqr, index, tf):
    # the S4 cases and (2,3,8)@24 reach reflection ends, which the
    # torsion-free menu never does
    flat, walk = li._TriangleSearch(*pqr, index, tf), WalkSearch(*pqr, index, tf)
    tables = list(flat.solutions())
    assert tables and tables == list(walk.solutions())
    assert (flat.nodes, flat.prunes) == (walk.nodes, walk.prunes)


def test_flat_propagation_finds_the_first_337_record_as_the_chain_walker(caplog, monkeypatch):
    def first_record():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="extpack.trigroup"):
            recs = tg.low_index_subgroups(3, 3, 7, 42, torsion_free=True, proper=True, max_count=1)
        return [rec.perms for rec in recs], _search_counters(caplog)

    flat = first_record()
    monkeypatch.setattr(li, "_TriangleSearch", WalkSearch)
    assert first_record() == flat and len(flat[0]) == 1
