import pytest

from conftest import random_complexes
from extpack import catalog, covers
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


def test_validation_errors():
    with pytest.raises(InvalidComplexError, match="unpaired label 2"):
        PolygonComplex(((1, 1, 2),))
    with pytest.raises(InvalidComplexError):
        PolygonComplex(((1, 0, 1),))
    with pytest.raises(InvalidComplexError, match="disconnected"):
        PolygonComplex(((1, 1), (2, 2)))
    with pytest.raises(InvalidComplexError):
        PolygonComplex(((1, 1, 1),))
    # the smallest bad label is reported, whether seen once or three times
    with pytest.raises(InvalidComplexError, match="unpaired label 1"):
        PolygonComplex(((3, 3, 3, 1),))
    # a zero label is reported before any unpaired one
    with pytest.raises(InvalidComplexError, match="nonzero integers, got 0"):
        PolygonComplex(((1, 1, 1, 0),))


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


def test_renamed_complex_shares_its_flag_action(seeds):
    c = seeds[9]
    renamed = cx._renamed(c, "Y9")
    assert renamed == c and renamed.polygons is c.polygons
    assert renamed.name == "Y9" and c.name == "X9"
    assert cx.flag_action(renamed) is cx.flag_action(c)
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_deck_group_divides_the_automorphism_group(seeds, n):
    cover = covers.find_nonorientable_cyclic_cover(seeds[9], n)
    assert len(cx.automorphisms(cover)) % n == 0


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
