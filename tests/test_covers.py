import hashlib
import logging
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import random_complexes
from extpack import _vertices, catalog, covers
from extpack import complexes as cx
from extpack.complexes import PolygonComplex
from extpack.errors import CoverError, InfeasibleSpecError


def reference_double_cover(c: PolygonComplex) -> PolygonComplex:
    """The double cover written out word by word: faces 0..k-1 copy the
    polygons, faces k..2k-1 copy them with reversed words, and each pairing
    is lifted within the sheets when it preserves orientation and across
    them when it reverses it."""
    sizes = c.sizes
    k = len(sizes)
    words = [[0] * sizes[p] for p in range(k)] + [[0] * sizes[p] for p in range(k)]
    label = 0
    occ = cx.occurrences(c)
    for lab in sorted(occ):
        (p, i, s1), (q, j, s2) = occ[lab]
        ri = sizes[p] - 1 - i
        rj = sizes[q] - 1 - j
        if s1 == s2:
            pairs = (((p, i), (q, j)), ((k + p, ri), (k + q, rj)))
        else:
            pairs = (((p, i), (k + q, rj)), ((k + p, ri), (q, j)))
        for (fa, ia), (fb, ib) in pairs:
            label += 1
            words[fa][ia] = label
            words[fb][ib] = label
    return PolygonComplex(tuple(tuple(w) for w in words))


def reference_cyclic_cover(c: PolygonComplex, n: int, volt: dict[int, int]) -> PolygonComplex:
    """The degree-n cover written out word by word: sheet copies of each
    polygon, with the copy of label L's first occurrence on sheet t paired
    to the copy of its second occurrence on sheet t + volt[L]."""
    occ = cx.occurrences(c)
    nlabels = len(occ)
    lab_index = {lab: t for t, lab in enumerate(sorted(occ))}
    sizes = c.sizes
    k = len(sizes)
    words = [[0] * sizes[p] for _ in range(n) for p in range(k)]
    for lab, ((p, i, s1), (q, j, s2)) in occ.items():
        v = volt[lab] % n
        for t in range(n):
            cover_lab = lab_index[lab] + 1 + nlabels * t
            words[t * k + p][i] = s1 * cover_lab
            words[(t + v) % n * k + q][j] = s2 * cover_lab
    return PolygonComplex(tuple(tuple(w) for w in words))


def test_double_cover_lift_matches_the_word_construction():
    entries = [e.complex for e in catalog.load_all().values()]
    sample = entries + [c for c in random_complexes(300, seed=41) if not cx.is_orientable(c)]
    for c in sample:
        lift = covers.orientation_double_cover(c)
        assert cx.canonicalize(lift) == cx.canonicalize(reference_double_cover(c)), c


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cyclic_cover_lift_matches_the_word_construction(n):
    for entry in catalog.load_all().values():
        c = entry.complex
        va = covers.find_voltage(c, n)
        lift = covers.cyclic_cover(c, va)
        ref = reference_cyclic_cover(c, n, va.as_dict())
        assert cx.canonicalize(lift) == cx.canonicalize(ref), (entry.name, va)


def test_double_cover_classical():
    sphere = covers.orientation_double_cover(PolygonComplex(((1, -1),)))
    inv = cx.surface_invariants(sphere)
    assert inv.euler_characteristic == 2 and inv.orientable
    torus = covers.orientation_double_cover(PolygonComplex(((1, 2, -1, 2),)))
    inv = cx.surface_invariants(torus)
    assert inv.euler_characteristic == 0 and inv.orientable


def test_double_cover_rejects_orientable():
    with pytest.raises(CoverError):
        covers.orientation_double_cover(PolygonComplex(((1, 2, 1, 2),)))


def test_double_cover_of_x7(seeds):
    dc = covers.orientation_double_cover(seeds[7])
    inv = cx.surface_invariants(dc)
    assert inv.orientable and inv.genus == 2
    assert dc.num_polygons == 12 and set(dc.sizes) == {7}
    sizes = cx.vertex_class_sizes(dc)
    assert sizes[0] == 3 and sizes[-1] == 3


def deck_swapped_double_cover(c: PolygonComplex) -> PolygonComplex:
    """The double cover with its two sheets exchanged."""
    cover = covers.orientation_double_cover(c)
    k = c.num_polygons
    words = cover.polygons
    return PolygonComplex(words[k:] + words[:k], name=cover.name)


def test_double_cover_deck_swap(seeds):
    dc = covers.orientation_double_cover(seeds[9])
    swapped = deck_swapped_double_cover(seeds[9])
    assert swapped.polygons != dc.polygons  # the swap fixes no polygon
    assert cx.canonicalize(swapped).polygons == cx.canonicalize(dc).polygons


def test_double_cover_doubles_chi_on_random_complexes():
    # the sheet-propagation orientability test must agree with cover
    # connectivity: the double cover construction only succeeds (connected)
    # on non-orientable input and raises on orientable input
    for c in random_complexes(1000, seed=31):
        inv = cx.surface_invariants(c)
        if inv.orientable:
            with pytest.raises(CoverError):
                covers.orientation_double_cover(c)
            continue
        dc = covers.orientation_double_cover(c)
        dinv = cx.surface_invariants(dc)
        assert dinv.orientable
        assert dinv.euler_characteristic == 2 * inv.euler_characteristic
        assert dc.num_polygons == 2 * c.num_polygons
        assert dc.num_edges == 2 * c.num_edges


def test_realize_spec_checks_the_base_once(monkeypatch):
    # the degree-2 cover over X29: the voltage search checks the base and
    # reads its cycle matrix, and the cover is built without doing so again
    from extpack.grafting import build_primitive

    build_primitive(29)  # the chain's own checks are not counted
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("verify_extremal", "vertex_cycles_with_crossings"):
        count(cx, name)
    count(_vertices, "flag_sides")
    count(covers, "_cycle_matrix")
    covers.realize_spec(12, 48)
    assert calls == {
        "verify_extremal": 2,  # the base, and the result
        "_cycle_matrix": 1,
        "vertex_cycles_with_crossings": 1,
        "flag_sides": 3,  # the cycle walk, the search's lifts, the cover's lift
    }


def test_cyclic_cover_degree_one_is_identity(seeds):
    for c in seeds.values():
        assert covers.find_nonorientable_cyclic_cover(c, 1) is c


def _voltage_counters(caplog):
    (rec,) = [r for r in caplog.records if r.name == "extpack.covers"]
    msg = rec.getMessage()
    m = re.search(
        r"kernel dim (\d+), (\d+) candidates, (\d+) disconnected, (\d+) orientable, radius (\d+)",
        msg,
    )
    assert m, msg
    return tuple(int(x) for x in m.groups())


def test_search_counters_are_logged_at_debug(caplog):
    from extpack.grafting import build_primitive

    x23 = build_primitive(23)
    covers.find_voltage(x23, 2)
    assert not caplog.records  # silent by default
    with caplog.at_level(logging.DEBUG, logger="extpack.covers"):
        covers.find_voltage(x23, 2)
    dim, tried, disconnected, orientable, radius = _voltage_counters(caplog)
    assert dim > 0 and (tried, disconnected, orientable, radius) == (1, 0, 0, 1)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="extpack.covers"):
        covers.find_voltage(catalog.load_entry("D18").complex, 2)
    assert _voltage_counters(caplog) == (3, 2, 0, 1, 1)  # one orientable cover rejected


def test_degree_one_search_accepts_the_zero_assignment(seeds, caplog):
    # at n = 1 every residue is zero: the scan's first candidate is the
    # zero assignment, accepted and counted like any other
    x12 = seeds[12]
    with caplog.at_level(logging.DEBUG, logger="extpack.covers"):
        va = covers.find_voltage(x12, 1)
    assert va == covers.VoltageAssignment.from_dict(1, {lab: 0 for lab in cx.occurrences(x12)})
    dim, tried, disconnected, orientable, radius = _voltage_counters(caplog)
    assert dim > 0 and (tried, disconnected, orientable, radius) == (1, 0, 0, 1)


@pytest.mark.parametrize("n", [0, -2])
def test_voltage_search_rejects_degree_below_one(seeds, n):
    with pytest.raises(CoverError, match="cover degree must be >= 1"):
        covers.find_voltage(seeds[7], n)
    with pytest.raises(CoverError, match="cover degree must be >= 1"):
        covers.find_nonorientable_cyclic_cover(seeds[7], n)


@pytest.mark.parametrize(
    "n_base,deg,expect",
    [(12, 2, (2, 4, 12)), (7, 3, (18, 5, 7)), (9, 3, (6, 5, 9)), (12, 1, (1, 3, 12))],
)
def test_found_cyclic_covers(seeds, n_base, deg, expect):
    out = covers.find_nonorientable_cyclic_cover(seeds[n_base], deg)
    rep = cx.verify_extremal(out)
    assert (rep.k, rep.g, rep.n) == expect
    base_inv = cx.surface_invariants(seeds[n_base])
    assert cx.surface_invariants(out).euler_characteristic == deg * base_inv.euler_characteristic


def test_cyclic_cover_of_x10():
    from extpack.grafting import build_primitive

    x10 = build_primitive(10)
    out = covers.find_nonorientable_cyclic_cover(x10, 2)
    rep = cx.verify_extremal(out)
    assert (rep.k, rep.g, rep.n) == (6, 6, 10)


def test_cyclic_cover_precondition_errors(seeds):
    x12 = seeds[12]
    labels = sorted(cx.occurrences(x12))
    zero = covers.VoltageAssignment.from_dict(2, {lab: 0 for lab in labels})
    with pytest.raises(CoverError, match="disconnected cover of degree 2"):
        covers.cyclic_cover(x12, zero)
    bad = covers.VoltageAssignment.from_dict(2, {lab: 1 for lab in labels})
    with pytest.raises(CoverError, match="net voltage"):
        covers.cyclic_cover(x12, bad)
    kb = PolygonComplex(((1, 2, -1, 2),))
    with pytest.raises(CoverError, match="not extremal"):
        covers.cyclic_cover(kb, zero)
    for n in (1, 2):  # degree 1 certifies the base like any other degree
        with pytest.raises(CoverError, match="not extremal"):
            covers.find_nonorientable_cyclic_cover(kb, n)


def test_cyclic_cover_rejects_voltages_for_labels_it_lacks(seeds):
    # a voltage for a label the complex does not have is named, after the
    # labels that have none
    volt = covers.find_voltage(seeds[12], 2).as_dict()
    extra = covers.VoltageAssignment.from_dict(2, {**volt, 999: 1})
    with pytest.raises(CoverError, match=r"voltages for labels the complex does not have: \[999\]"):
        covers.cyclic_cover(seeds[12], extra)
    missing = covers.VoltageAssignment.from_dict(2, {**{lab: v for lab, v in volt.items() if lab != 1}, 999: 1})
    with pytest.raises(CoverError, match=r"no voltage for labels \[1\]"):
        covers.cyclic_cover(seeds[12], missing)
    assert covers.cyclic_cover(seeds[12], covers.VoltageAssignment.from_dict(2, volt)).sizes == (12, 12)


def test_explicit_voltage_route_matches_search(seeds):
    va = covers.find_voltage(seeds[12], 2)
    out = covers.cyclic_cover(seeds[12], va)
    rep = cx.verify_extremal(out)
    assert (rep.k, rep.g, rep.n) == (2, 4, 12)


def test_realize_spec_examples(seeds):
    r = covers.realize_spec(4, 4)
    rep = cx.verify_extremal(r)
    assert (rep.k, rep.g, rep.n) == (4, 4, 9)
    same = covers.realize_spec(6, 3)
    rep = cx.verify_extremal(same)
    assert (rep.k, rep.g, rep.n) == (6, 3, 7)
    with pytest.raises(InfeasibleSpecError):
        covers.realize_spec(4, 3)


def test_realize_spec_genus_arithmetic():
    # cover degree j scales genus as g = 2 + j (g_N - 2)
    from extpack.feasibility import cover_index, primitive_pair

    for k, g in [(2, 4), (12, 4), (18, 5), (9, 5), (6, 6)]:
        out = covers.realize_spec(k, g)
        rep = cx.verify_extremal(out)
        assert (rep.k, rep.g) == (k, g)
        j = cover_index(k, g)
        gN = primitive_pair(rep.n)[1]
        assert g == 2 + j * (gN - 2)


def test_realize_output_is_pinned():
    # sha256 of serialize(realize_spec(k, g)) over test_realize_grid's pairs,
    # every feasible pair with g <= 20 and then the big covers, joined in order
    from extpack.feasibility import is_feasible

    pairs = [(k, g) for g in range(3, 21) for k in range(1, 6 * (g - 2) + 1) if is_feasible(k, g)]
    pairs += [(12, 36), (12, 40), (12, 48), (60, 32), (300, 52)]
    text = "".join(cx.serialize(covers.realize_spec(k, g)) for k, g in pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "23a09a5b81816e77df3bd9fbd3ba841d5564c501c1222072de1a0b4acf49d191"
    )


def reference_integer_kernel(rows, ncols):
    """The nullspace basis by exact rational Gauss-Jordan elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][col]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    basis = []
    for fc in (cc for cc in range(ncols) if cc not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            v[pc] = -mat[rr][fc]
        den = 1
        for x in v:
            den = lcm(den, x.denominator)
        iv = [int(x * den) for x in v]
        g = 0
        for x in iv:
            g = gcd(g, abs(x))
        basis.append([x // g for x in iv] if g > 1 else iv)
    return basis


@pytest.mark.parametrize("n", [7, 12, 15, 23, 29])
def test_integer_kernel_on_crossing_matrices(n):
    from extpack.grafting import build_primitive

    labels, rows, _ = covers._cycle_matrix(build_primitive(n))
    basis = covers._integer_kernel(rows, len(labels))
    assert basis and basis == reference_integer_kernel(rows, len(labels))


def test_integer_kernel_on_random_matrices():
    rng = random.Random(17)
    for _ in range(2000):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 11)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(ncols)] for _ in range(nrows)]
        if rows and rng.random() < 0.3:  # rank deficient
            rows.append([2 * a - 5 * b for a, b in zip(rows[0], rows[-1])])
        if rng.random() < 0.2:
            rows.insert(rng.randint(0, len(rows)), [0] * ncols)
        basis = covers._integer_kernel(rows, ncols)
        assert basis == reference_integer_kernel(rows, ncols), rows
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
