import random
from fractions import Fraction

import pytest

from extpack import complexes as cx
from extpack import trigroup as tg
from extpack.errors import EnumerationCapError


def test_triangle_presentation_shapes():
    pres = tg.triangle_presentation(2, 3, 7)
    assert pres.ngens == 3 and len(pres.relators) == 6
    assert tg.triangle_type(pres) == (2, 3, 7)
    rot = tg.triangle_presentation(2, 3, 7, extended=False)
    assert rot.ngens == 2 and len(rot.relators) == 3
    with pytest.raises(ValueError):
        tg.triangle_presentation(1, 3, 7)


def test_enumerate_finite_reflection_group():
    # the (2,3,3) reflection group is the full tetrahedral group of order 24
    table = tg.coset_enumerate(tg.triangle_presentation(2, 3, 3), (), cap=10**4)
    assert table.index == 24


def test_enumerate_orientation_subgroup():
    pres = tg.triangle_presentation(2, 3, 7)
    table = tg.coset_enumerate(pres, ((1, 2), (2, 3)), cap=10**5)
    assert table.index == 2


def test_enumeration_cap_signals_infinite_group():
    with pytest.raises(EnumerationCapError):
        tg.coset_enumerate(tg.triangle_presentation(3, 3, 9), (), cap=4000)


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
    whole = tg.coset_enumerate(pres, ((1,), (2,), (3,)), cap=10**4)
    rec = tg.classify(whole, 2, 3, 7)
    assert rec.index == 1 and not rec.torsion_free
    plus = tg.coset_enumerate(pres, ((1, 2), (2, 3)), cap=10**4)
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
    words = tg.schreier_generators(rec.table)
    pres = tg.triangle_presentation(2, 3, 7)
    table = tg.coset_enumerate(pres, tuple(words), cap=10**5)
    assert table.index == 84


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
