import math
import random

import pytest

from extpack import catalog
from extpack import geometry
from extpack.geometry import corner_angle
from extpack.complexes import PolygonComplex, flag_action, flag_sides
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


def reference_vertex_orbits(c):
    """The orbits of t1 . t2 on c's flags, one per vertex cycle, each read
    from the leaving flag of its least corner, by least corner (the
    reference for complexes._walk and complexes._cycle).  t1 and t2 are
    read off flag_action, and every flag of an orbit is looked up in full."""
    _, t1, t2 = flag_action(c)
    done = set()
    out = []
    for start in range(0, len(t1), 2):
        if start // 2 in done:
            continue
        orbit = [start]
        f = t1[t2[start]]
        while f != start:
            orbit.append(f)
            f = t1[t2[f]]
        done.update(f // 2 for f in orbit)
        out.append(orbit)
    return out


def reference_pairings(c):
    """Every side pairing of realize's layout of c, by label in label order,
    computed eagerly along the same spanning tree, as realize did before
    its layouts computed each pairing on first read (the reference for
    DiskLayout.pairings)."""
    n = len(c.polygons[0])
    m = 2 * n
    group = geometry._group(n)
    t1 = flag_action(c)[1]
    sides = flag_sides(c)
    first = {sides[f][0]: f for f in range(0, len(sides), 2) if sides[f][1] == 1}
    placements = [group.identity] + [None] * (c.num_polygons - 1)
    inverses = placements[:]
    tree = set()
    queue = [0]
    for x in queue:
        for lab in sorted({sides[f][0] for f in range(x * m, x * m + m, 2) if t1[f] // m != x}):
            f, h = first[lab], t1[first[lab]]
            if placements[f // m] is None:
                f, h = h, f
            elif placements[h // m] is not None:
                continue
            placements[h // m] = group.mul(placements[f // m], geometry._crossing(n, f % m, h % m))
            inverses[h // m] = group.mul(geometry._crossing(n, h % m, f % m), inverses[f // m])
            queue.append(h // m)
            tree.add(lab)
    return {
        lab: group.identity if lab in tree else group.product(
            [placements[f // m], geometry._crossing(n, f % m, t1[f] % m), inverses[t1[f] // m]])
        for lab, f in sorted(first.items())
    }


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
