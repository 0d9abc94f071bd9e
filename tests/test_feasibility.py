import math
from fractions import Fraction

import mpmath
import pytest

from extpack import covers, grafting
from extpack import feasibility as fz
from extpack.errors import InfeasibleSpecError


def oracle_cosh_r(k, g):
    """Independent high-precision evaluation of the radius bound."""
    with mpmath.workdps(60):
        return mpmath.mpf(1) / (2 * mpmath.sin(mpmath.pi * k / (6 * g + 6 * k - 12)))


@pytest.mark.parametrize(
    "k,g,approx",
    [(1, 3, 1.9318516526), (6, 3, 1.1523824354), (2, 3, 1.4619022000)],
)
def test_radius_bound_against_high_precision(k, g, approx):
    params = fz.packing_radius_bound(k, g)
    assert abs(params.cosh_r - float(oracle_cosh_r(k, g))) < 1e-12
    assert abs(params.cosh_r - approx) < 1e-9
    assert math.cosh(params.radius) == pytest.approx(params.cosh_r, abs=1e-12)


def test_radius_bound_reports_rational_cell_size():
    params = fz.packing_radius_bound(4, 3)
    assert not params.integral
    assert params.cell_size == Fraction(6 * 3 + 6 * 4 - 12, 4) == Fraction(15, 2)
    assert params.sides is None and params.index is None
    good = fz.packing_radius_bound(4, 4)
    assert good.integral and good.sides == 9 and good.index == 2 * 4 * 9


def test_radius_bound_domain_errors():
    with pytest.raises(ValueError):
        fz.packing_radius_bound(0, 5)
    with pytest.raises(ValueError):
        fz.packing_radius_bound(1, 2)


@pytest.mark.parametrize(
    "message,calls",
    [
        ("need non-orientable genus g >= 3, got g=2",
         [(fz.packing_radius_bound, 1, 2), (fz.count_feasible_k, 2), (fz.dual_extremal_pairs, 2)]),
        ("need k >= 1, got k=0", [(fz.is_feasible, 0, 3), (fz.feasible_genus_progression, 0)]),
        ("need cell size N >= 7, got N=6",
         [(fz.smallest_k, 6), (fz.primitive_pair, 6), (grafting.build_primitive, 6)]),
        ("infeasible: k=4 does not divide 6(g-2)=6",
         [(fz.is_primitive, 4, 3), (fz.cover_index, 4, 3), (fz.uniqueness_class, 4, 3),
          (covers.realize_spec, 4, 3)]),
    ],
    ids=["genus", "discs", "cell-size", "divisibility"],
)
def test_each_domain_rule_has_one_message_at_every_entry_point(message, calls):
    # one routine owns each rule and every entry point calls it, so the
    # wording cannot drift between copies
    for call, *args in calls:
        with pytest.raises(ValueError) as info:
            call(*args)
        assert str(info.value) == message, call.__name__


def test_radius_bound_monotone_on_grid():
    # strictly decreasing in k for fixed g, strictly increasing in g for fixed k
    for g in range(3, 51, 7):
        values = [fz.packing_radius_bound(k, g).cosh_r for k in range(1, 51)]
        assert all(a > b for a, b in zip(values, values[1:]))
    for k in (1, 2, 5, 50):
        values = [fz.packing_radius_bound(k, g).cosh_r for g in range(3, 51)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_is_feasible_examples():
    assert fz.is_feasible(4, 4)
    assert not fz.is_feasible(4, 3)
    assert fz.is_feasible(1, 100)


def test_universal_k():
    assert fz.universal_k() == frozenset({1, 2, 3, 6})
    assert 6 in fz.universal_k()
    assert 4 not in fz.universal_k()


@pytest.mark.parametrize("k,modulus", [(6, 1), (4, 2), (9, 3), (1, 1), (12, 2)])
def test_genus_progression(k, modulus):
    prog = fz.feasible_genus_progression(k)
    assert prog.modulus == modulus
    assert prog.residue == 2 % modulus
    for g in range(3, 51):
        if g % prog.modulus == prog.residue % prog.modulus:
            assert fz.is_feasible(k, g), (k, g)


def test_count_feasible_k_matches_divisor_enumeration():
    for g in range(3, 40):
        n = 6 * (g - 2)
        brute = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert fz.count_feasible_k(g) == brute
    assert fz.count_feasible_k(3) == 4
    assert fz.count_feasible_k(4) == 6
    assert fz.count_feasible_k(5) == 6


def test_line_ln_examples():
    assert fz.line_ln(7, 2).entries == ((6, 3), (12, 4))
    assert fz.line_ln(12, 3).entries == ((1, 3), (2, 4), (3, 5))
    assert fz.line_ln(9, 2).entries == ((2, 3), (4, 4))
    with pytest.raises(ValueError):
        fz.line_ln(6, 1)


def test_line_entries_satisfy_cell_identity_and_primitivity():
    for n in range(7, 40):
        entries = fz.line_ln(n, 6).entries
        for j, (k, g) in enumerate(entries, start=1):
            assert k * n == 6 * g + 6 * k - 12
            assert fz.is_feasible(k, g)
            assert fz.is_primitive(k, g) == (j == 1)


def test_primitive_pair_examples():
    assert fz.primitive_pair(7) == (6, 3)
    assert fz.primitive_pair(10) == (3, 4)
    assert fz.primitive_pair(12) == (1, 3)
    assert fz.is_primitive(2, 3)
    assert fz.is_primitive(1, 3)
    assert not fz.is_primitive(2, 4)  # shares the N=12 line with (1, 3)
    with pytest.raises(InfeasibleSpecError):
        fz.is_primitive(4, 3)


def test_dual_extremal_pairs():
    assert fz.dual_extremal_pairs(4) == {frozenset({1, 4})}
    assert fz.dual_extremal_pairs(6) == {frozenset({2, 8}), frozenset({3, 24})}
    assert fz.dual_extremal_pairs(5) == set()
    for g in range(3, 40):
        for pair in fz.dual_extremal_pairs(g):
            ks = sorted(pair)
            assert all(fz.is_feasible(k, g) for k in ks)
            cells = {6 + 6 * (g - 2) // k for k in ks}
            assert cells in ({18, 9}, {14, 7})


def test_uniqueness_class():
    assert fz.uniqueness_class(6, 3) is fz.Uniqueness.POSSIBLY_MULTIPLE
    assert fz.uniqueness_class(1, 7) is fz.Uniqueness.UNIQUE
    assert fz.uniqueness_class(1, 3) is fz.Uniqueness.POSSIBLY_MULTIPLE
    with pytest.raises(InfeasibleSpecError):
        fz.uniqueness_class(4, 3)


def test_cover_index():
    assert fz.cover_index(6, 3) == 1
    assert fz.cover_index(2, 4) == 2
    assert fz.cover_index(18, 5) == 3


def test_cover_index_is_the_position_on_the_line():
    # k_N divides k for every feasible pair, so k // k_N is exact and entry
    # j of the line of N is the pair itself
    pairs = 0
    for g in range(3, 61):
        for k in range(1, 6 * (g - 2) + 1):
            if fz.is_feasible(k, g):
                N = 6 + 6 * (g - 2) // k
                j = fz.cover_index(k, g)
                assert j * fz.smallest_k(N) == k
                assert fz.line_ln(N, j).entries[-1] == (k, g)
                pairs += 1
    assert pairs == sum(fz.count_feasible_k(g) for g in range(3, 61))
