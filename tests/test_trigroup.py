import random
from collections import deque
from fractions import Fraction

import pytest

from extpack import complexes as cx
from extpack import trigroup as tg
from extpack.errors import EnumerationCapError


# ---------------------------------------------------------------------------
# reference Todd-Coxeter enumeration: the general route to a coset table from
# subgroup generators, against which the direct constructions are checked


def schreier_generators(table: tg.CosetTable) -> list[tg.Word]:
    """Subgroup generators from a spanning tree of the coset graph."""
    n = table.index
    inv = table.inverse_perms()
    path: list[tg.Word | None] = [None] * n
    path[0] = ()
    queue = deque([0])
    tree: set[tuple[int, int]] = set()
    while queue:
        c = queue.popleft()
        for g in range(table.ngens):
            for sign, perm in ((1, table.perms[g]), (-1, inv[g])):
                d = perm[c]
                if path[d] is None:
                    path[d] = path[c] + (sign * (g + 1),)
                    tree.add((c, sign * (g + 1)))
                    queue.append(d)
    gens: list[tg.Word] = []
    seen: set[tg.Word] = set()
    for c in range(n):
        for g in range(table.ngens):
            if (c, g + 1) in tree:
                continue
            d = table.perms[g][c]
            back = tuple(-x for x in reversed(path[d]))
            w = tg._free_reduce(path[c] + (g + 1,) + back)
            if w and w not in seen:
                seen.add(w)
                gens.append(w)
    return gens


def substitute(word: tg.Word, images: dict[int, tg.Word]) -> tg.Word:
    """Rewrite a word through generator images (for subgroup embeddings)."""
    out: list[int] = []
    for x in word:
        img = images[abs(x)]
        if x > 0:
            out.extend(img)
        else:
            out.extend(-y for y in reversed(img))
    return tg._free_reduce(tuple(out))


def coset_enumerate(
    pres: tg.Presentation,
    subgroup_words: tuple[tg.Word, ...] = (),
    cap: int = 10**6,
) -> tg.CosetTable:
    """Enumerate the cosets of the subgroup generated by subgroup_words.

    HLT-style scanning with on-the-fly filling; merged cosets are tracked
    through a union-find.  `cap` bounds the total number of coset rows ever
    allocated (live plus collapsed); exceeding it raises
    EnumerationCapError, a resource signal rather than a mathematical one.
    """
    ncols = 2 * pres.ngens

    def col_of(letter: int) -> int:
        return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)

    rel_paths = [tuple(col_of(x) for x in rel) for rel in pres.relators]
    sub_paths = [tuple(col_of(x) for x in w) for w in subgroup_words]

    rows: list[list[int]] = [[tg.UNDEF] * ncols]
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
        if d == tg.UNDEF:
            if len(rows) >= cap:
                raise EnumerationCapError(
                    "coset enumeration exceeded the cap of %d rows" % cap
                )
            d = len(rows)
            rows.append([tg.UNDEF] * ncols)
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
                if d == tg.UNDEF:
                    continue
                if rx[col] == tg.UNDEF:
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
    for g in range(pres.ngens):
        col = 2 * g
        perm = [renum[find(rows[c][col])] for c in live]
        perms.append(perm)
    table = tg.CosetTable(
        ngens=pres.ngens,
        perms=tg.standardize(perms),
        subgroup_words=tuple(tuple(w) for w in subgroup_words),
    )
    tg.validate_table(pres, table)
    return table


def test_triangle_presentation_shapes():
    pres = tg.triangle_presentation(2, 3, 7)
    assert pres.ngens == 3 and len(pres.relators) == 6
    assert tg.triangle_type(pres) == (2, 3, 7)
    with pytest.raises(ValueError):
        tg.triangle_presentation(1, 3, 7)


def test_enumerate_finite_reflection_group():
    # the (2,3,3) reflection group is the full tetrahedral group of order 24
    table = coset_enumerate(tg.triangle_presentation(2, 3, 3), (), cap=10**4)
    assert table.index == 24


def test_enumerate_orientation_subgroup():
    pres = tg.triangle_presentation(2, 3, 7)
    table = coset_enumerate(pres, ((1, 2), (2, 3)), cap=10**5)
    assert table.index == 2


def test_enumeration_cap_signals_infinite_group():
    with pytest.raises(EnumerationCapError):
        coset_enumerate(tg.triangle_presentation(3, 3, 9), (), cap=4000)


def test_low_index_subgroup_class_counts_in_s4():
    # ext(2,3,3) is S4; known subgroup conjugacy class counts by index
    pres = tg.triangle_presentation(2, 3, 3)
    for index, classes in [(1, 1), (2, 1), (3, 1), (4, 1), (6, 3), (8, 1), (12, 2), (24, 1)]:
        assert len(tg.low_index_subgroups(pres, index)) == classes


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
    sols = list(tg._TriangleSearch(*pqr, index, torsion_free).solutions())
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
    pres = tg.triangle_presentation(2, 3, 12)
    a = tg.low_index_subgroups(pres, 24, torsion_free=True, proper=True)
    b = tg.low_index_subgroups(pres, 24, torsion_free=True, proper=True)
    assert [r.table.perms for r in a] == [r.table.perms for r in b]
    assert len(a) >= 1 and all(r.genus == 3 for r in a)


@pytest.mark.parametrize(
    "pqr,index,genus",
    [((2, 3, 12), 24, 3), ((2, 3, 7), 84, 3), ((3, 3, 9), 18, 4), ((3, 3, 7), 42, 6)],
)
def test_low_index_finds_surface_records(pqr, index, genus):
    pres = tg.triangle_presentation(*pqr)
    recs = tg.low_index_subgroups(pres, index, torsion_free=True, proper=True, max_count=1)
    assert recs
    rec = recs[0]
    assert rec.torsion_free and rec.proper and not rec.quotient_orientable
    assert rec.genus == genus
    tg.validate_table(pres, rec.table)


def test_classify_whole_group_and_rotation_subgroup():
    pres = tg.triangle_presentation(2, 3, 7)
    whole = coset_enumerate(pres, ((1,), (2,), (3,)), cap=10**4)
    rec = tg.classify(whole, 2, 3, 7)
    assert rec.index == 1 and not rec.torsion_free
    plus = coset_enumerate(pres, ((1, 2), (2, 3)), cap=10**4)
    rec2 = tg.classify(plus, 2, 3, 7)
    assert rec2.index == 2 and not rec2.proper and not rec2.torsion_free


def test_area_ratio_identities():
    def mu(p, q, r):
        return 1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, r)

    assert mu(3, 3, 9) / mu(2, 3, 9) == 4
    assert mu(3, 3, 7) / mu(2, 3, 7) == 8
    assert mu(3, 3, 9) / mu(2, 3, 18) == 2
    assert mu(3, 3, 7) / mu(2, 3, 14) == 2


def test_complex_to_subgroup_and_back(seeds):
    for n, c in seeds.items():
        rec = tg.complex_to_subgroup(c)
        rep = cx.verify_extremal(c)
        assert rec.index == 2 * rep.k * n
        assert rec.torsion_free and rec.proper and rec.genus == rep.g
        back = tg.subgroup_to_complex(rec)
        rep2 = cx.verify_extremal(back)
        assert (rep2.k, rep2.g, rep2.n) == (rep.k, rep.g, rep.n)
        cycles = sorted(len(v) for v in cx.vertex_cycles(back))
        assert cycles == sorted(len(v) for v in cx.vertex_cycles(c))


def test_x7_record_has_hurwitz_index(seeds):
    assert tg.complex_to_subgroup(seeds[7]).index == 84


def test_schreier_round_trip(seeds):
    # re-enumerating the subgroup from its Schreier generators recovers the index
    rec = tg.complex_to_subgroup(seeds[7])
    words = schreier_generators(rec.table)
    pres = tg.triangle_presentation(2, 3, 7)
    table = coset_enumerate(pres, tuple(words), cap=10**5)
    assert table.index == 84


def test_induced_action_matches_todd_coxeter():
    # (3, 3, n) = <r2, r1, r0 r2 r0> inside (2, 3, 2n): enumerate the cosets
    # of each subgroup's Schreier generators, rewritten into the big group
    images = {1: (3,), 2: (2,), 3: (1, 3, 1)}
    cases = [((3, 3, 9), 18, True), ((3, 3, 7), 14, False)]
    for pqr, index, torsion_free in cases:
        n = pqr[2]
        big = tg.triangle_presentation(2, 3, 2 * n)
        small = tg.triangle_presentation(*pqr)
        recs = tg.low_index_subgroups(small, index, torsion_free=torsion_free)
        assert len(recs) == (41 if torsion_free else 24)
        for rec in recs:
            words = tuple(substitute(w, images) for w in schreier_generators(rec.table))
            reference = coset_enumerate(big, words, cap=10**5)
            induced = tg.induced_action(rec)
            assert induced.table.perms == reference.perms
    not_333 = tg.low_index_subgroups(tg.triangle_presentation(2, 3, 3), 4)[0]
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
    s0, s1, s2 = rec.table.perms
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
    text = rec.to_json()
    back = tg.record_from_json(text)
    assert back.table.perms == rec.table.perms
    assert back.genus == rec.genus and back.params == rec.params
