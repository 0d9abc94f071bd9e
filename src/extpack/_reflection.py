"""The (2,3,N) reflection group over Z[lambda], lambda = 2 cos(pi/N): the
exact matrices that geometry places cells and pairs sides with.

The group is generated by t0, t1 and t2, the reflections in the sides of
a flag's chamber (complexes.flag_action), the triangle with angles pi/N
at its cell's centre, pi/3 at a corner and pi/2 at a side's midpoint.
Vinberg's representation makes each an exact 3x3 matrix over Z[lambda],
reduced by lambda's minimal polynomial, which comes from the cyclotomic
polynomial Phi_2N.  _Group builds the generators, checks the relations and
keeps the chambers, corners and centre of the centered cell; _Group.draw
takes placed cells to the unit disk through fixed point.

geometry imports the names it uses (Matrix, _crossing, _group); only a
command that draws or checks a layout loads this module.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import InvariantError

#: a row-major 3 x m matrix over Z[lambda], m = 3 (or 1, a vector); an entry
#: holds the integer coefficients of 1, lambda, lambda^2, ...
Matrix = tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n, lowest coefficient first: x^n - 1 divided exactly by the
    monic Phi_m of n's proper divisors m."""
    poly = [-1] + [0] * (n - 1) + [1]
    for m in range(1, n):
        if n % m == 0:
            den = _cyclotomic(m)
            quot = []
            for i in reversed(range(len(poly) - len(den) + 1)):
                quot.append(poly[i + len(den) - 1])
                for j, b in enumerate(den):
                    poly[i + j] -= quot[-1] * b
            poly = quot[::-1]
    return tuple(poly)


def _min_poly(n: int) -> list[int]:
    """psi, the minimal polynomial of lambda = 2 cos(pi/n), lowest
    coefficient first: Phi_2n(x) = x^m psi(x + 1/x) with m = phi(2n)/2
    (Watkins and Zeitlin, Amer. Math. Monthly 100, 1993), folded by
    x^j + x^-j = D_j(y), D_0 = 2, D_1 = y, D_j+1 = y D_j - D_j-1."""
    phi = _cyclotomic(2 * n)
    m = len(phi) // 2
    psi, prev, cur = [phi[m]], [2], [0, 1]
    for j in range(1, m + 1):
        psi = [a + phi[m + j] * b for a, b in itertools.zip_longest(psi, cur, fillvalue=0)]
        prev, cur = cur, [a - b for a, b in itertools.zip_longest([0] + cur, prev, fillvalue=0)]
    return psi


@functools.lru_cache(maxsize=None)
def _lambda(n: int, bits: int) -> int:
    """lambda 2^bits by integer Newton steps on psi from the float
    2 cos(pi/n); psi changing sign within two units certifies it."""
    psi = _min_poly(n)
    deriv = [j * c for j, c in enumerate(psi)][1:]

    def value(poly, a):  # poly(a / 2^bits) 2^(bits deg poly), exactly, by Horner
        h = 0
        for j, c in enumerate(reversed(poly)):
            h = h * a + (c << bits * j)
        return h

    a = round(2.0 * math.cos(math.pi / n) * 2**52) << (bits - 52)
    for _ in range(bits):
        step = value(psi, a) // value(deriv, a)
        a -= step
        if abs(step) <= 1:
            break
    if value(psi, a - 2) * value(psi, a + 2) >= 0:
        raise InvariantError("psi has no root within 2^-%d of 2 cos(pi/%d)" % (bits - 1, n))
    return a


class _Group:
    """t0, t1 and t2 of the (2,3,n) triangle group as exact matrices, with
    the chambers, corners and centre of the centered cell."""

    def __init__(self, n: int):
        self.n = n
        self.psi = _min_poly(n)
        d = self.d = len(self.psi) - 1

        def ring(a, b=0):  # a + b lambda
            return (a, b) + (0,) * (d - 2)

        # t_i(v) = v - (A v)_i e_i, where A = 2 (-cos(pi/m_ij)) with m01 = 2,
        # m12 = 3 and m02 = n is [[2, 0, -lambda], [0, 2, -1], [-lambda, -1, 2]]
        rows = ((ring(-1), ring(0), ring(0, 1)), (ring(0), ring(-1), ring(1)),
                (ring(0, 1), ring(1), ring(-1)))
        self.identity = tuple(ring(int(r == s)) for r in range(3) for s in range(3))
        t = self.reflections = [tuple(rows[i][s] if r == i else self.identity[3 * r + s]
                                      for r in range(3) for s in range(3)) for i in range(3)]
        for relation, i, j, order in (("t0^2", 0, 0, 1), ("t1^2", 1, 1, 1), ("t2^2", 2, 2, 1),
                                      ("(t0 t1)^2", 0, 1, 2), ("(t1 t2)^3", 1, 2, 3)):
            self._require(relation, self.product([self.mul(t[i], t[j])] * order))
        # chamber 2j leaves corner j, 2j + 1 arrives at it (complexes.flag_action)
        rotation = self.mul(t[0], t[2])
        self.chambers = [self.identity, t[2]]
        for _ in range(n - 1):
            self.chambers.append(self.mul(self.chambers[-2], rotation))
            self.chambers.append(self.mul(self.chambers[-1], t[2]))
        self._require("(t2 t0)^%d" % n, self.mul(self.chambers[-2], rotation))
        # chamber 0's corner is orthogonal to e1 and e2, the centre to e0
        # and e2: columns of A's adjugate
        corner = (ring(3), ring(0, 1), ring(0, 2))
        self.corners = [self.mul(self.chambers[2 * j], corner) for j in range(n)]
        self.centre = (ring(0, 1), (4, 0, -1) + (0,) * (d - 3), ring(2))

    def _require(self, relation: str, power: Matrix) -> None:
        if power != self.identity:
            raise InvariantError("relation %s fails in the (2,3,%d) reflection group" % (relation, self.n))

    def mul(self, a: Matrix, b: Matrix) -> Matrix:
        """a b, over nonzero coefficients only, so sparse factors are cheap."""
        if a is self.identity:
            return b
        d, m = self.d, len(b) // 3
        sa = [[(s, c) for s, c in enumerate(x) if c] for x in a]
        sb = [[(s, c) for s, c in enumerate(x) if c] for x in b]
        out = []
        for i in (0, 3, 6):
            for j in range(m):
                acc = [0] * (2 * d - 1)
                for xs, ys in zip(sa[i:i + 3], sb[j::m]):
                    for s, c in xs:
                        for t, v in ys:
                            acc[s + t] += c * v
                # lambda^top = lambda^(top - d) (lambda^d - psi(lambda)), of lower degree
                for top in range(2 * d - 2, d - 1, -1):
                    if acc[top]:
                        acc[top - d:top] = [u - acc[top] * p for u, p in zip(acc[top - d:top], self.psi)]
                out.append(tuple(acc[:d]))
        return tuple(out)

    def product(self, factors) -> Matrix:
        return functools.reduce(self.mul, factors, self.identity)

    def draw(self, placements: list[Matrix]) -> list[list[complex]]:
        """The corners and the centre of each placed cell in the unit disk.

        With sigma = 2 sin(pi/n) and tau^2 = lambda^2 - 3, the vector x has
        X = (lambda x1 - sigma^2 x0) / 2 sigma, Y = (lambda x0 + x1 - 2 x2) / 2
        and T = tau x1 / sigma on the hyperboloid of norm -3 tau^2 (corners)
        or -sigma^2 tau^2 (centres), and z = (X + iY) / (T + sqrt(-norm)).
        The sums run in fixed point, with guard bits for the coefficients'
        size, and each coordinate is rounded to float once.
        """
        size = max(abs(c) for g in placements for x in g for c in x).bit_length()
        bits = (size + self.d + 191) // 64 * 64
        lam = _lambda(self.n, bits)
        powers = [1 << bits]
        for _ in range(self.d - 1):
            powers.append(powers[-1] * lam >> bits)

        def fixed(v):
            return [sum(c * p for c, p in zip(x, powers)) for x in v]

        sigma = math.isqrt((4 << 2 * bits) - lam * lam)
        tau = math.isqrt(lam * lam - (3 << 2 * bits))
        sigma2 = sigma * sigma >> bits
        lift = [math.isqrt(3 * sigma * sigma)] * self.n + [sigma2]  # sigma sqrt(-norm) / tau
        base = [fixed(v) for v in self.corners + [self.centre]]
        out = []
        for g in placements:
            m = fixed(g)
            out.append([])
            for v, k in zip(base, lift):
                x0, x1, x2 = (sum(a * b for a, b in zip(m[r:r + 3], v)) >> bits for r in (0, 3, 6))
                den = 2 * tau * (x1 + k)
                out[-1].append(complex((lam * x1 - sigma2 * x0) / den,
                                       sigma * ((lam * x0 >> bits) + x1 - 2 * x2) / den))
        return out


@functools.lru_cache(maxsize=8)
def _group(n: int) -> _Group:
    """The (2,3,n) reflection group, its relations checked as it is built;
    a few are kept, since a large n holds megabytes of chambers."""
    return _Group(n)


@functools.lru_cache(maxsize=4096)
def _crossing(n: int, f: int, h: int) -> Matrix:
    """H_f t1 H_h^-1, which carries chamber h of the centered cell onto the
    chamber across chamber f's side; H_h^-1 is H_h for a reflection (odd h)
    and the opposite rotation for even h."""
    group = _group(n)
    inverse = group.chambers[h if h & 1 else -h % (2 * n)]
    return group.mul(group.mul(group.chambers[f], group.reflections[1]), inverse)
