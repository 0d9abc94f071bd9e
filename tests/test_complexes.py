import enum
import hashlib
import random
import re

import pytest

from conftest import (
    random_complexes, reference_automorphisms, reference_bfs_code, reference_least_code, reference_vertex_orbits,
)
from extpack import _action, catalog, covers, grafting
from extpack import complexes as cx
from extpack import trigroup as tg
from extpack.complexes import PolygonComplex
from extpack.covers import realize_spec
from extpack.errors import ComplexFormatError, InvalidComplexError


def test_classical_invariants():
    cases = [
        ((1, 1), 2, True, 0),       # sphere
        ((1, -1), 1, False, 1),     # projective plane
        ((1, 2, 1, 2), 0, True, 1),  # torus
        ((1, 2, -1, 2), 0, False, 2),  # klein bottle
    ]
    for word, chi, orientable, genus in cases:
        inv = cx.surface_invariants(PolygonComplex((word,)))
        assert inv.euler_characteristic == chi
        assert inv.orientable == orientable
        assert inv.genus == genus


def test_vertex_cycles_classical():
    assert [len(v) for v in cx.vertex_cycles(PolygonComplex(((1, 2, 1, 2),)))] == [4]
    assert sorted(len(v) for v in cx.vertex_cycles(PolygonComplex(((1, 1),)))) == [1, 1]
    assert [len(v) for v in cx.vertex_cycles(PolygonComplex(((1, -1),)))] == [2]


def test_a_vertex_cycle_is_fixed_by_its_corners(seeds):
    # one record per vertex, by least corner; crossing t is an edge at both
    # corners t and t + 1, and the crossings take no part in equality
    assert cx.vertex_cycles is cx.vertex_cycles_with_crossings
    for c in list(seeds.values()) + random_complexes(50):
        cycles = cx.vertex_cycles(c)
        assert [v.corners[0] for v in cycles] == sorted(min(v.corners) for v in cycles)
        for v in cycles:
            ends = [{abs(c.polygons[p][i - 1]), abs(c.polygons[p][i])} for p, i in v.corners]
            assert len(v.crossings) == len(v)
            for (lab, _), a, b in zip(v.crossings, ends, ends[1:] + ends[:1]):
                assert lab in a & b, (c, v)
            bare = cx.VertexCycle(v.corners)
            assert bare.crossings == () and bare == v and hash(bare) == hash(v)


def test_corner_conservation():
    for c in random_complexes(200):
        cycles = cx.vertex_cycles(c)
        assert sum(len(v) for v in cycles) == sum(c.sizes) == 2 * c.num_edges


UNPAIRED = "unpaired label %d: every label must occur exactly twice"
NONZERO = "labels must be nonzero integers, got %s"

#: malformed inputs and the exact message of each, in the order of the
#: checks: no polygon, then an empty polygon or a bad label (whichever the
#: scan meets first), then the smallest label not seen exactly twice, then
#: connectivity
VALIDATION_CASES = [
    ((), "complex needs at least one polygon"),
    (((1, 1), (), (2, 0, 2)), "empty polygon"),  # empty before a zero label
    (((1, 0, 1), ()), NONZERO % 0),  # empty after a zero label
    (((),), "empty polygon"),
    (((1, 1.0),), NONZERO % 1.0),
    (((1, "1"),), NONZERO % "'1'"),
    (((1, None, 1),), NONZERO % None),
    (((True, False),), NONZERO % True),  # a bool is not an int label
    (((1, 1, 2),), UNPAIRED % 2),  # seen once
    (((1, 1, 1),), UNPAIRED % 1),  # seen three times
    (((2, 2, 2, 2, 1, 1),), UNPAIRED % 2),  # seen four times
    (((3, 3, 3, 1),), UNPAIRED % 1),  # the smallest bad label, once beats thrice
    (((5, 5, 5, 5, 3, 3, 4),), UNPAIRED % 4),  # and once beats four times
    (((1, 2, 0),), NONZERO % 0),  # a zero label after an unpaired one
    (((1, 2), (0,)), NONZERO % 0),
    (((1, 1), (2, 3)), UNPAIRED % 2),  # unpaired before disconnected
    (((1, 1), (2, 2)), "complex is disconnected"),
    (((1, -1), (2, 2), (3, -3)), "complex is disconnected"),
]


def test_validation_errors():
    for words, message in VALIDATION_CASES:
        with pytest.raises(InvalidComplexError) as err:
            PolygonComplex(words)
        assert str(err.value) == message, words


def test_bool_and_int_enum_labels_are_rejected():
    # the scan that words the error tests a label's type as the fast check
    # does, so a bool or an IntEnum is named, not read as the int it equals
    class Label(enum.IntEnum):
        TWO = 2

    for label in (True, Label.TWO):
        with pytest.raises(InvalidComplexError) as err:
            PolygonComplex(((1, label, 1, label),))
        assert str(err.value) == NONZERO % repr(label), label


def reference_flags(words):
    """The flag action as flag_action describes it, built with no check,
    so that a disconnected draw has one too."""
    base = [0]
    for w in words:
        base.append(base[-1] + len(w))
    m = 2 * base[-1]
    t0, t1 = [0] * m, [0] * m
    occ = {}
    for p, w in enumerate(words):
        for i, v in enumerate(w):
            start, end = 2 * (base[p] + i), 2 * (base[p] + (i + 1) % len(w)) + 1
            t0[start], t0[end] = end, start
            occ.setdefault(abs(v), []).append((start, end, v > 0))
    for (s1, e1, pos1), (s2, e2, pos2) in occ.values():
        if pos1 == pos2:  # equal signs glue head to tail
            s2, e2 = e2, s2
        t1[s1], t1[s2] = s2, s1
        t1[e1], t1[e2] = e2, e1
    return tuple(t0), tuple(t1), tuple(f ^ 1 for f in range(m))


def gluing(rng, sizes):
    """Polygons of the given sizes with their sides paired at random and
    each pairing's signs drawn at random (connected or not)."""
    slots = [(p, i) for p, n in enumerate(sizes) for i in range(n)]
    rng.shuffle(slots)
    words = [[0] * n for n in sizes]
    for lab in range(1, len(slots) // 2 + 1):
        (p, i), (q, j) = slots[2 * lab - 2], slots[2 * lab - 1]
        words[p][i] = lab
        words[q][j] = lab if rng.random() < 0.5 else -lab
    return tuple(tuple(w) for w in words)


def test_polygon_graph_coloring_agrees_with_two_color():
    # connectivity and orientability come from the polygon graph; the flag
    # action's two-coloring must read the same on every draw
    rng = random.Random(18)
    draws = [c.polygons for c in random_complexes(300, seed=181)]
    draws += [gluing(rng, [n]) for n in (10, 12, 14) for _ in range(100)]
    for _ in range(600):
        sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
        sizes[-1] += sum(sizes) % 2
        draws.append(gluing(rng, sizes))
    draws += [
        ((1, -1, 2), (2, 3, 3)),  # the only flipped label, inside polygon 0
        ((1, 2), (-2, 3), (-3, -1)),  # an odd flipped cycle of three polygons
        ((1, 2), (-2, 3), (-3, 1)),  # an even one
    ]
    seen = set()
    for words in draws:
        flags = reference_flags(words)
        transitive, bipartite = _action.two_color(flags)
        if not transitive:
            with pytest.raises(InvalidComplexError, match="complex is disconnected"):
                PolygonComplex(words)
            seen.add("disconnected")
            continue
        c = PolygonComplex(words)
        assert cx.flag_action(c) == flags, words
        assert cx.is_orientable(c) == _action.two_color(cx.flag_action(c))[1] == bipartite, words
        seen.add((c.num_polygons > 1, bipartite))
    assert seen == {"disconnected", (False, False), (False, True), (True, False), (True, True)}
    assert not cx.is_orientable(PolygonComplex(draws[-3]))
    assert not cx.is_orientable(PolygonComplex(draws[-2]))
    assert cx.is_orientable(PolygonComplex(draws[-1]))


def test_creating_a_complex_does_not_two_color_its_flags(monkeypatch, seeds):
    def refuse(perms):
        raise AssertionError("two_color called")

    monkeypatch.setattr(_action, "two_color", refuse)
    assert len(random_complexes(100, seed=182)) == 100
    for c in seeds.values():
        assert PolygonComplex(c.polygons) == c
    with pytest.raises(InvalidComplexError, match="complex is disconnected"):
        PolygonComplex(((1, 1), (2, 2)))


def test_the_certificate_never_builds_t0_or_t2(monkeypatch, seeds):
    # a complex stores t1 alone; the census path (creation, the capped and
    # uncapped walks, orientability) must not derive the rest of the action
    def refuse(c):
        raise AssertionError("flag_action called")

    monkeypatch.setattr(cx, "flag_action", refuse)
    sample = random_complexes(200, seed=191) + [PolygonComplex(c.polygons) for c in seeds.values()]
    for c in sample:
        cx.vertex_class_sizes(c, cap=3)
        cx.vertex_class_sizes(c)
        cx.verify_extremal(c)
        cx.surface_invariants(c)
        cx.is_orientable(c)
        assert "_flags" not in vars(c), c


def test_derived_flag_action_matches_the_reference():
    sample = random_complexes(300, seed=192)
    sample += [e.complex for e in catalog.load_all().values()]
    sample += [grafting.build_primitive(n) for n in range(7, 44)]
    for c in sample:
        action = cx.flag_action(c)
        assert action == reference_flags(c.polygons), c
        assert cx.flag_action(c) is action  # built once, then kept


def test_capped_walk_stops_at_the_first_cycle_past_the_cap():
    # the walk is one (start, corners) pair per cycle, by least corner, and
    # None with a cap exactly when some cycle passes it; each cycle's flags
    # are read from its start.  Every cap, and every cap between two
    # integers, is asked twice: of a fresh complex, which walks, and of one
    # that keeps its full walk, which answers from it
    for c in random_complexes(300, seed=183):
        orbits = reference_vertex_orbits(c)
        walk = [(orbit[0], len(orbit)) for orbit in orbits]
        sizes = sorted(map(len, orbits))
        caps = [x for cap in range(1, sizes[-1] + 2) for x in (cap, cap + 0.5)]
        for cap in caps:
            passed = sizes[-1] > cap
            fresh = PolygonComplex(c.polygons)
            assert cx._walk(fresh, cap) == (None if passed else walk), (c, cap)
            # a walk stopped at the cap is not kept
            assert ("_cycles" in vars(fresh)) is not passed, (c, cap)
            fresh = PolygonComplex(c.polygons)
            assert cx.vertex_class_sizes(fresh, cap) == (None if passed else sizes), (c, cap)
        assert cx._walk(c) == walk, c
        assert cx._walk(c) is vars(c)["_cycles"], c
        starts = [start for start, _ in walk]
        assert starts == sorted(set(starts)) and all(start % 2 == 0 for start in starts), c
        assert [start >> 1 for start in starts] == [min(f >> 1 for f in orbit) for orbit in orbits], c
        assert [cx._cycle(c, start) for start in starts] == orbits, c
        assert cx.vertex_class_sizes(c) == sizes
        renamed = cx._renamed(c, "renamed")
        assert vars(renamed)["_cycles"] is vars(c)["_cycles"], c
        for cap in caps:
            passed = sizes[-1] > cap
            for kept in (c, renamed):
                assert cx._walk(kept, cap) == (None if passed else walk), (c, cap)
                assert cx.vertex_class_sizes(kept, cap) == (None if passed else sizes), (c, cap)


class _CountedT1:
    """A stand-in for a complex's stored t1 that counts the entries read.

    num_edges reads only its length; a walk reads one entry per corner, and
    so does reading every cycle's flags from its start."""

    def __init__(self, t1):
        self.t1, self.reads = t1, 0

    def __len__(self):
        return len(self.t1)

    def __getitem__(self, i):
        self.reads += 1
        return self.t1[i]


def test_a_survivor_of_the_capped_walk_is_walked_once():
    # a census calls vertex_class_sizes(c, cap=3), then certifies each
    # survivor: the certificate, the invariants and the uncapped sizes read
    # no entry of t1 after the capped walk, vertex_cycles and the graft
    # sites read each cycle's flags once, and all equal their results on a
    # fresh complex of the same words
    sample = [c.polygons for c in random_complexes(300, seed=2961)]
    sample += [e.complex.polygons for e in catalog.load_all().values()]
    survivors = 0
    for words in sample:
        c = PolygonComplex(words)
        if cx.vertex_class_sizes(c, cap=3) is None:
            assert "_cycles" not in vars(c), words
            continue
        survivors += 1
        t1 = _CountedT1(vars(c)["_t1"])
        vars(c)["_t1"] = t1
        fresh = PolygonComplex(words)
        assert cx.verify_extremal(c) == cx.verify_extremal(fresh), words
        assert cx.surface_invariants(c) == cx.surface_invariants(fresh), words
        assert cx.vertex_class_sizes(c) == cx.vertex_class_sizes(fresh), words
        assert t1.reads == 0, words
        cycles = [(v.corners, v.crossings) for v in cx.vertex_cycles(c)]
        assert cycles == [(v.corners, v.crossings) for v in cx.vertex_cycles(fresh)], words
        assert t1.reads == len(t1) >> 1, words
    assert survivors >= 20
    for words in [e.complex.polygons for e in catalog.load_all().values()]:
        c = PolygonComplex(words)
        if not cx.is_graftable(c):
            continue
        t1 = _CountedT1(vars(c)["_t1"])
        vars(c)["_t1"] = t1
        for variant in grafting.GraftVariant:
            t1.reads = 0
            assert grafting.eligible_sites(c, variant) == grafting.eligible_sites(PolygonComplex(words), variant)
            assert t1.reads == len(t1) >> 1, (words, variant)


@pytest.mark.parametrize("cap", [0, -1])
def test_vertex_class_sizes_needs_a_positive_cap(cap):
    with pytest.raises(ValueError, match="need cap >= 1, got %d" % cap):
        cx.vertex_class_sizes(PolygonComplex(((1, 2, -1, 2),)), cap)


def test_certificate_and_cycles_are_pinned():
    # verify_extremal, surface_invariants and vertex_cycles (corners and
    # crossings) on the catalog and on build_primitive(7..43), hashed as
    # they read before the capped walk and the polygon-graph coloring
    sample = [e.complex for e in catalog.load_all().values()]
    sample += [grafting.build_primitive(n) for n in range(7, 44)]
    h = hashlib.sha256()
    for c in sample:
        cycles = [(v.corners, v.crossings) for v in cx.vertex_cycles(c)]
        h.update(repr((cx.verify_extremal(c), cx.surface_invariants(c), cycles)).encode())
    assert h.hexdigest() == "1d70833e9d08a74c99c0fc9db3299f8ff399e093913c6ebd7187e926861c21e5"


def test_parse_examples():
    torus = cx.parse("polygon 1 2 1 2\n")
    assert cx.surface_invariants(torus).genus == 1
    klein = cx.parse("# comment\nname kb\npolygon 1 2 -1 2\n")
    assert klein.name == "kb"
    assert not cx.is_orientable(klein)
    with pytest.raises(InvalidComplexError):
        cx.parse("polygon 1 1 2\n")


def test_parse_error_positions():
    with pytest.raises(ComplexFormatError, match="line 2"):
        cx.parse("polygon 1 1\npolygon 2 x\n")
    with pytest.raises(ComplexFormatError, match="zero label"):
        cx.parse("polygon 0 1 1\n")
    with pytest.raises(ComplexFormatError, match="no polygon"):
        cx.parse("# empty\n")
    with pytest.raises(ComplexFormatError, match="expected"):
        cx.parse("poly 1 1\n")


def test_serialize_parse_round_trip():
    # the last case is a 4,200-flag cover
    for c in random_complexes(150, seed=7) + [realize_spec(300, 52)]:
        text = cx.serialize(c)
        back = cx.parse(text)
        assert cx.serialize(back) == text
        canon = cx.canonicalize(c)
        assert back == canon


def test_serialize_refuses_a_name_with_a_line_break(seeds):
    # parse reads lines by str.splitlines, so a name that holds a break
    # would come back as another complex, or none
    for name in ("X12", "kb", "a name with spaces", "\u00e9t\u00e9"):
        c = cx._renamed(seeds[12], name)
        back = cx.parse(cx.serialize(c))
        assert back == cx.canonicalize(c) and back.name == name
    for name in ("\n", "\r", "\u2028", "kb\npolygon 1 1", "kb\r", "kb\u2028polygon 1 1"):
        with pytest.raises(ValueError, match="^%s$" % re.escape("complex name %r holds a line break" % name)):
            cx.serialize(cx._renamed(seeds[12], name))


def test_renamed_complex_shares_its_flag_action(seeds):
    # the copy shares what c has derived, and derives nothing for c
    c = PolygonComplex(seeds[9].polygons, "X9")
    before = vars(c).copy()
    renamed = cx._renamed(c, "Y9")
    assert vars(c) == before and "_flags" not in before
    assert renamed == c and renamed.polygons is c.polygons
    assert renamed.name == "Y9" and c.name == "X9"
    assert cx.flag_action(renamed) == cx.flag_action(c)
    assert cx.flag_action(cx._renamed(c, "Z9")) is cx.flag_action(c)
    assert cx.is_orientable(renamed) == cx.is_orientable(c)


def test_canonicalize_relabeling():
    c = PolygonComplex(((2, -2, 5, 5),))
    assert cx.canonicalize(c).polygons == ((1, 2, -2, 1),)


def test_canonical_equal_iff_least_code_equal():
    # the small draws repeat classes, so both directions are exercised
    sample = random_complexes(300, seed=23) + random_complexes(
        300, seed=29, max_polygons=2, max_edges=4
    )
    pairs = {(cx.least_code(cx.flag_action(c)), cx.canonicalize(c).polygons) for c in sample}
    keys = {key for key, _ in pairs}
    forms = {form for _, form in pairs}
    assert len(keys) == len(forms) == len(pairs) < len(sample)


def test_canonicalize_idempotent_on_random_complexes():
    for c in random_complexes(1000, seed=99):
        once = cx.canonicalize(c)
        assert cx.canonicalize(once) == once


def test_canonicalize_invariants():
    for c in random_complexes(200, seed=5):
        canon = cx.canonicalize(c)
        seen = []
        for word in canon.polygons:
            for v in word:
                if abs(v) not in seen:
                    assert v > 0, canon  # first occurrence positive
                    seen.append(abs(v))
        assert seen == list(range(1, c.num_edges + 1))


def test_canonicalize_rotation_invariance_single_polygon():
    for c in random_complexes(100, seed=11, max_polygons=1):
        word = c.polygons[0]
        canon = cx.canonicalize(c)
        for r in range(len(word)):
            rot = PolygonComplex((word[r:] + word[:r],))
            assert cx.canonicalize(rot) == canon


def mirrored(c, p):
    """c with polygon p read the other way round: its word reversed and
    every label in it negated.  The glued surface is the same."""
    words = list(c.polygons)
    words[p] = tuple(-v for v in reversed(words[p]))
    return PolygonComplex(tuple(words))


def presentation_facts(c):
    rep = cx.verify_extremal(c)
    return (
        cx.surface_invariants(c),
        sorted(cx.vertex_class_sizes(c)),
        (rep.ok, rep.k, rep.g, rep.n),
        cx.least_code(cx.flag_action(c)),
        len(cx.automorphisms(c)),
        cx.canonicalize(c).polygons,
    )


def test_mirroring_a_polygon_keeps_invariants():
    for c in random_complexes(300, seed=13):
        facts = presentation_facts(c)
        for p in range(c.num_polygons):
            assert presentation_facts(mirrored(c, p)) == facts, (c, p)


def test_mirroring_a_catalog_polygon_keeps_invariants_and_subgroup():
    for entry in catalog.load_all().values():
        c = entry.complex
        facts = presentation_facts(c)
        key = cx.least_code(tg.complex_to_subgroup(c).perms)
        for p in range(c.num_polygons):
            m = mirrored(c, p)
            assert presentation_facts(m) == facts, (entry.name, p)
            assert cx.least_code(tg.complex_to_subgroup(m).perms) == key, (entry.name, p)


def extends_to_automorphism(perms, f):
    """Whether flag 0 -> f extends to a bijection commuting with every
    permutation (the reference for automorphisms)."""
    phi = {0: f}
    stack = [0]
    while stack:
        x = stack.pop()
        for perm in perms:
            y, img = perm[x], perm[phi[x]]
            if y not in phi:
                phi[y] = img
                stack.append(y)
            elif phi[y] != img:
                return False
    return len(set(phi.values())) == len(perms[0])


def test_automorphisms_against_the_extension_reference():
    sample = random_complexes(150, seed=17) + [e.complex for e in catalog.load_all().values()]
    for c in sample:
        perms = cx.flag_action(c)
        auts = cx.automorphisms(c)
        assert auts[0] == 0
        assert len(perms[0]) % len(auts) == 0
        assert auts == [f for f in range(len(perms[0])) if extends_to_automorphism(perms, f)], c


def assert_like_the_references(c):
    perms = cx.flag_action(c)
    assert cx.least_code(perms) == reference_least_code(perms), c
    assert cx.automorphisms(c) == reference_automorphisms(c), c


@pytest.mark.parametrize("n", [2, 3, 4])
def test_deck_group_divides_the_automorphism_group(seeds, n):
    cover = covers.find_nonorientable_cyclic_cover(seeds[9], n)
    assert len(cx.automorphisms(cover)) % n == 0
    assert_like_the_references(cover)


def test_least_code_and_automorphisms_match_the_references_on_random_complexes():
    sample = random_complexes(400, seed=31) + random_complexes(200, seed=37, max_polygons=5, max_edges=12)
    for c in sample:
        assert_like_the_references(c)


def test_least_code_and_automorphisms_match_the_references_on_double_covers():
    sample = [e.complex for e in catalog.load_all().values()] + random_complexes(100, seed=41)
    for c in sample:
        assert_like_the_references(c)
        if not cx.is_orientable(c):
            assert_like_the_references(covers.orientation_double_cover(c))


@pytest.mark.parametrize("build, arg", [
    pytest.param(build, arg, id="%s-%s" % (build, arg))
    for build, args in (
        ("realize", [(24, 10), (9, 20), (10, 22), (12, 36), (12, 40), (12, 48)]),
        ("primitive", [37, 41, 43]),
    )
    for arg in args
])
def test_least_code_and_automorphisms_match_the_references_on_the_construct_menu(build, arg):
    assert_like_the_references(realize_spec(*arg) if build == "realize" else grafting.build_primitive(arg))


@pytest.mark.parametrize("pqr, index", [((2, 3, 7), 28), ((2, 3, 12), 24)])
def test_least_code_matches_the_reference_on_coset_tables(pqr, index):
    recs = tg.low_index_subgroups(*pqr, index)
    assert recs
    for rec in recs:
        assert cx.least_code(rec.perms) == reference_least_code(rec.perms), rec


def test_least_code_with_no_automorphism():
    c = PolygonComplex(((3, -3, 2, 1, -2, 1),))
    assert reference_automorphisms(c) == [0]
    assert_like_the_references(c)


def test_least_code_with_two_automorphisms_and_a_late_tie():
    # the least code is read from flags 1 and 11 only: the one tie comes
    # at the last start
    c = PolygonComplex(((2,), (-1, 2, 3, 1), (-3,)))
    perms = cx.flag_action(c)
    least = reference_least_code(perms)
    assert [f for f in range(12) if reference_bfs_code(perms, f) == least] == [1, 11]
    assert reference_automorphisms(c) == [0, 10]
    assert_like_the_references(c)


def test_least_code_when_the_best_changes_after_a_tie():
    # flag 1 ties flag 0 in full, which joins the first orbit; then flag 2
    # reads lower and becomes the best
    c = PolygonComplex(((2, 2, 1, 1),))
    perms = cx.flag_action(c)
    codes = [reference_bfs_code(perms, f) for f in range(3)]
    assert codes[0] == codes[1] > codes[2]
    assert len(reference_automorphisms(c)) == 4
    assert_like_the_references(c)


def test_least_code_rejects_an_intransitive_action():
    # two components, {0, 1} and {2, 3, 4, 5}: the pass must not key the first alone
    t0 = t2 = (1, 0, 3, 2, 5, 4)
    t1 = (0, 1, 4, 5, 2, 3)
    with pytest.raises(ValueError, match="intransitive action, point 0 reaches 2 of 6 points"):
        cx.least_code((t0, t1, t2))


def test_verify_extremal_failures():
    rep = cx.verify_extremal(PolygonComplex(((1, 2, 1, 2),)))
    assert not rep.ok
    assert any(f.startswith("NotTrivalent") for f in rep.failures)
    assert "Orientable" in rep.failures
    rep = cx.verify_extremal(PolygonComplex(((1, -1),)))
    assert not rep.ok and any("CellTooSmall" in f for f in rep.failures)


def test_verify_extremal_on_seeds(seeds):
    expected = {7: (6, 3), 8: (3, 3), 9: (2, 3), 12: (1, 3)}
    for n, c in seeds.items():
        rep = cx.verify_extremal(c)
        assert rep.ok
        assert (rep.k, rep.g) == expected[n]
        assert rep.n == n
        assert rep.k * rep.n == 6 * rep.g + 6 * rep.k - 12
        json_dict = rep.to_json_dict()
        assert json_dict["ok"] and json_dict["N"] == n


def test_report_json_shape():
    rep = cx.verify_extremal(PolygonComplex(((1, 2, 1, 2),)))
    d = rep.to_json_dict()
    assert set(d) == {"format_version", "ok", "k", "g", "N", "chi", "orientable", "failures"}
