import math
import random

import pytest

from extpack import catalog
from extpack.geometry import corner_angle
from extpack.complexes import PolygonComplex, flag_action
from extpack.errors import InvalidComplexError


@pytest.fixture(scope="session")
def seeds():
    return {n: catalog.seed_complex(n) for n in (7, 8, 9, 12)}


def random_complexes(count, seed=20240817, max_polygons=3, max_edges=7):
    """Deterministic stream of small random valid complexes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(1, max_polygons)
        e = rng.randint(max(1, k // 2), max_edges)
        total = 2 * e
        if total < k:
            continue
        cuts = sorted(rng.sample(range(1, total), k - 1)) if k > 1 else []
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        positions = [(p, i) for p, sz in enumerate(sizes) for i in range(sz)]
        rng.shuffle(positions)
        words = [[0] * sz for sz in sizes]
        for lab in range(1, e + 1):
            (p1, i1), (p2, i2) = positions[2 * lab - 2], positions[2 * lab - 1]
            words[p1][i1] = lab
            words[p2][i2] = lab if rng.random() < 0.5 else -lab
        try:
            out.append(PolygonComplex(tuple(tuple(w) for w in words)))
        except InvalidComplexError:
            continue  # disconnected draw; try again
    return out


def reference_bfs_code(perms, start, bound=None):
    """bfs_code with the early abort least_code had before its orbit
    pruning: None as soon as a prefix of the code reads greater than the
    bound's."""
    order = [-1] * len(perms[0])
    order[start] = 0
    seq = [start]
    code = []
    for x in seq:
        for perm in perms:
            y = perm[x]
            o = order[y]
            if o < 0:
                o = order[y] = len(seq)
                seq.append(y)
            if bound is not None and o != bound[len(code)]:
                if o > bound[len(code)]:
                    return None
                bound = None
            code.append(o)
    return tuple(code)


def reference_least_code(perms):
    """The least BFS code, every start read up to its first greater entry
    (the reference for least_code)."""
    best = reference_bfs_code(perms, 0)
    for start in range(1, len(perms[0])):
        code = reference_bfs_code(perms, start, best)
        if code is not None:
            best = code
    return best


def reference_automorphisms(c):
    """The flags whose BFS code equals flag 0's, each read on its own (the
    reference for automorphisms)."""
    perms = flag_action(c)
    ref = reference_bfs_code(perms, 0)
    return [f for f in range(len(perms[0])) if reference_bfs_code(perms, f, ref) == ref]


def disk_distance(z: complex, w: complex) -> float:
    """Hyperbolic distance between two points of the unit disk."""
    num = 2.0 * abs(z - w) ** 2
    den = (1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2)
    return math.acosh(1.0 + num / den)


def triangle_area(a: complex, b: complex, c: complex) -> float:
    """Hyperbolic area via the angle deficit."""
    return math.pi - corner_angle(a, b, c) - corner_angle(b, a, c) - corner_angle(c, a, b)


def polygon_area(geo) -> float:
    """Numeric area of a regular_ngon cell from its central triangulation
    (the Gauss-Bonnet check)."""
    n = geo.n
    return sum(triangle_area(0j, geo.vertices[t], geo.vertices[(t + 1) % n]) for t in range(n))
