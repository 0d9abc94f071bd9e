"""Arithmetic layer for extremal k-packings on non-orientable surfaces.

Everything here is exact integer or rational arithmetic except the radius
bound itself, which is evaluated in double precision.  Throughout, k is the
number of discs and g >= 3 the non-orientable genus; a packing is feasible
iff k divides 6(g-2), in which case the Dirichlet cells are regular N-gons
with N = 6 + 6(g-2)/k.

Each domain rule has one owner here, and every other routine, in this
module or outside it, calls that owner rather than test the rule again, so
a rule gives one message at every entry point: _check_domain tests k >= 1
and g >= 3 (ValueError), _cell_size tests that k divides 6(g-2)
(InfeasibleSpecError), and smallest_k tests that a cell size is at least 7
(ValueError).
"""

from __future__ import annotations

import enum
import math
from math import gcd

from ._record import Record
from .errors import InfeasibleSpecError

#: Cell sizes N for which the rotation subgroup of the (2, 3, N) triangle
#: group is arithmetic (Takeuchi's list).  For these N a surface can carry
#: more than one extremal k-packing; for all other N the packing is unique.
ARITHMETIC_CELL_SIZES = frozenset({7, 8, 9, 10, 11, 12, 14, 16, 18, 24, 30})


def _check_domain(k: int = 1, g: int = 3) -> None:
    """The domain rules k >= 1 and g >= 3; a caller that takes one of k
    and g passes that one alone."""
    if k < 1:
        raise ValueError("need k >= 1, got k=%r" % (k,))
    if g < 3:
        raise ValueError("need non-orientable genus g >= 3, got g=%r" % (g,))


class ExtremalParams(Record):
    """Radius bound data for a (k, g) packing spec.

    cell_size is the exact rational N = (6g+6k-12)/k; sides and index are
    filled only when N is an integer (equivalently k | 6(g-2)).
    """

    k: int
    g: int
    cosh_r: float
    radius: float
    cell_size: Fraction
    integral: bool
    sides: int | None
    index: int | None


class Uniqueness(enum.Enum):
    UNIQUE = "unique"
    POSSIBLY_MULTIPLE = "possibly-multiple"


class GenusProgression(Record):
    """Congruence class g = residue (mod modulus) of genera admitting k discs."""

    k: int
    modulus: int
    residue: int


class LineLN(Record):
    """The parameter line of a fixed cell size N: all (k, g) with kN = 6g+6k-12."""

    cell_size: int
    entries: tuple[tuple[int, int], ...]


def packing_radius_bound(k: int, g: int) -> ExtremalParams:
    """Largest possible disc radius for k discs on genus-g non-orientable X.

    Returns cosh R = 1 / (2 sin(k*pi/(6g+6k-12))) together with the exact
    cell size N; infeasible pairs still get a bound, with N reported as a
    non-integral rational.  Raises ValueError when k or g is too large for
    the bound to be evaluated in double precision.
    """
    _check_domain(k, g)
    denom = 6 * g + 6 * k - 12
    try:
        cosh_r = 1.0 / (2.0 * math.sin(math.pi * k / denom))
    except OverflowError:
        raise ValueError(
            "the radius bound for k=%d, g=%d is out of double-precision range" % (k, g)
        ) from None
    # imported here, its one use: fractions also loads decimal and numbers,
    # which no other command needs
    from fractions import Fraction

    cell = Fraction(denom, k)
    integral = cell.denominator == 1
    return ExtremalParams(
        k=k,
        g=g,
        cosh_r=cosh_r,
        radius=math.acosh(cosh_r),
        cell_size=cell,
        integral=integral,
        sides=int(cell) if integral else None,
        index=2 * k * int(cell) if integral else None,
    )


def is_feasible(k: int, g: int) -> bool:
    """True iff a compact non-orientable k-extremal surface of genus g exists."""
    _check_domain(k, g)
    return 6 * (g - 2) % k == 0


def universal_k() -> frozenset[int]:
    """The k admitting extremal packings on every genus g >= 3."""
    return frozenset({1, 2, 3, 6})


def feasible_genus_progression(k: int) -> GenusProgression:
    """Genera guaranteed to admit k discs: all g >= 3 with g = 2 (mod k/gcd(k,6))."""
    _check_domain(k)
    m = k // gcd(k, 6)
    return GenusProgression(k=k, modulus=m, residue=2 % m)


def count_feasible_k(g: int) -> int:
    """Number of k >= 1 with k | 6(g-2), i.e. the divisor count of 6(g-2)."""
    _check_domain(g=g)
    n = 6 * (g - 2)
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def smallest_k(N: int) -> int:
    """The least k on the line of cell size N; equals 6/gcd(N, 6)."""
    if N < 7:
        raise ValueError("need cell size N >= 7, got N=%r" % (N,))
    return 6 // gcd(N, 6)


def line_ln(N: int, j_max: int) -> LineLN:
    """First j_max parameter pairs (k, g) sharing cell size N, by index j >= 1.

    Entry j is (j*k_N, 2 + j*k_N*(N-6)/6) where k_N = 6/gcd(N, 6); the
    congruence class of N mod 6 determines k_N, and entry j=1 is primitive.
    """
    if j_max < 1:
        raise ValueError("need j_max >= 1, got %r" % (j_max,))
    kn = smallest_k(N)
    entries = tuple(
        (j * kn, 2 + j * kn * (N - 6) // 6) for j in range(1, j_max + 1)
    )
    return LineLN(cell_size=N, entries=entries)


def primitive_pair(N: int) -> tuple[int, int]:
    """The minimal pair (k_N, g_N) on the line of cell size N (index j=1)."""
    return line_ln(N, 1).entries[0]


def _cell_size(k: int, g: int) -> int:
    """The cell size N = 6 + 6(g-2)/k of a feasible pair; InfeasibleSpecError
    otherwise."""
    if not is_feasible(k, g):
        raise InfeasibleSpecError("infeasible: k=%d does not divide 6(g-2)=%d" % (k, 6 * (g - 2)))
    return 6 + 6 * (g - 2) // k


def is_primitive(k: int, g: int) -> bool:
    """True iff (k, g) is the minimal pair for its cell size: position 1
    on its line."""
    return cover_index(k, g) == 1


def cover_index(k: int, g: int) -> int:
    """Position j of (k, g) on its line: the cyclic-cover degree over the
    primitive pair.

    k(N - 6) = 6(g - 2), so 6 divides kN and k_N = 6/gcd(N, 6) divides k;
    entry j = k/k_N of the line is then (k, g).
    """
    return k // smallest_k(_cell_size(k, g))


def dual_extremal_pairs(g: int) -> set[frozenset[int]]:
    """All pairs {k1, k2} for which one surface of genus g can be extremal twice.

    Case 1, {(g-2)/2, 2g-4}, occurs for even g >= 4; case 2,
    {(3g-6)/4, 6g-12}, for g = 2 (mod 4).  Any other multiplicity is
    impossible.
    """
    _check_domain(g=g)
    pairs: set[frozenset[int]] = set()
    if g % 2 == 0 and g >= 4:
        pairs.add(frozenset({(g - 2) // 2, 2 * g - 4}))
    if g % 4 == 2 and g >= 6:
        pairs.add(frozenset({(3 * g - 6) // 4, 6 * g - 12}))
    return pairs


def uniqueness_class(k: int, g: int) -> Uniqueness:
    """Whether a k-extremal genus-g surface can carry several extremal packings.

    Multiplicity requires the ambient (2, 3, N) triangle group to be
    arithmetic, which happens exactly for N in ARITHMETIC_CELL_SIZES.
    """
    if _cell_size(k, g) in ARITHMETIC_CELL_SIZES:
        return Uniqueness.POSSIBLY_MULTIPLE
    return Uniqueness.UNIQUE
