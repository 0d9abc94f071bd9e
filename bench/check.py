"""Independent checks of extpack outputs.

Nothing here imports extpack: complex files, SVG drawings and subgroup
records are parsed and re-derived with this module's own union-find,
breadth-first searches and arithmetic, so a defect in the library cannot
hide itself by also breaking the check.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from math import gcd

SVG_NS = "{http://www.w3.org/2000/svg}"

#: name -> (k, g, N) of the shipped catalog entries
CATALOG = {
    "X7": (6, 3, 7),
    "X8": (3, 3, 8),
    "X9": (2, 3, 9),
    "X12": (1, 3, 12),
    "X10": (3, 4, 10),
    "X11": (6, 7, 11),
    "X15": (2, 5, 15),
    "D18": (1, 4, 18),
    "D14": (3, 6, 14),
}


class CheckError(Exception):
    """An output failed an independent check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# polygon complexes


def parse_complex(text: str) -> list[tuple[int, ...]]:
    """Polygon words of a complex file (comments and the name line skipped)."""
    polys = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#") or fields[0] == "name":
            continue
        _require(fields[0] == "polygon", "unexpected line %r" % line)
        try:
            polys.append(tuple(int(t) for t in fields[1:]))
        except ValueError:
            raise CheckError("non-integer label in %r" % line) from None
    _require(bool(polys), "no polygon lines")
    return polys


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def invariants(polys) -> dict:
    """Vertex classes, Euler characteristic, orientability and connectivity.

    Corner (p, i) sits between sides i-1 and i of polygon p.  Two equal-sign
    occurrences glue head to tail, opposite signs head to head.
    """
    occ: dict[int, list[tuple[int, int, int]]] = {}
    for p, word in enumerate(polys):
        for i, v in enumerate(word):
            _require(v != 0, "zero label")
            occ.setdefault(abs(v), []).append((p, i, 1 if v > 0 else -1))
    _require(all(len(o) == 2 for o in occ.values()), "a label does not occur exactly twice")
    base = [0]
    for word in polys:
        base.append(base[-1] + len(word))
    parent = list(range(base[-1]))

    def corner(p: int, i: int) -> int:
        return base[p] + i % len(polys[p])

    # orientation colouring of the polygons: equal signs keep the colour
    colour: list[int | None] = [None] * len(polys)
    colour[0] = 0
    adj: list[list[tuple[int, int]]] = [[] for _ in polys]
    for (p, i, s1), (q, j, s2) in occ.values():
        same = s1 == s2
        pairs = ((i, j + 1), (i + 1, j)) if same else ((i, j), (i + 1, j + 1))
        for a, b in pairs:
            ra, rb = _root(parent, corner(p, a)), _root(parent, corner(q, b))
            parent[ra] = rb
        adj[p].append((q, 0 if same else 1))
        adj[q].append((p, 0 if same else 1))
    orientable = True
    stack = [0]
    while stack:
        p = stack.pop()
        for q, flip in adj[p]:
            want = colour[p] ^ flip
            if colour[q] is None:
                colour[q] = want
                stack.append(q)
            elif colour[q] != want:
                orientable = False
    connected = all(c is not None for c in colour)
    counts: dict[int, int] = {}
    for x in range(base[-1]):
        r = _root(parent, x)
        counts[r] = counts.get(r, 0) + 1
    v, e, f = len(counts), len(occ), len(polys)
    return {
        "k": f,
        "sizes": sorted({len(w) for w in polys}),
        "class_sizes": sorted(counts.values()),
        "chi": v - e + f,
        "orientable": orientable,
        "connected": connected,
    }


def extremal_kgn(inv: dict) -> tuple[int, int, int] | None:
    """(k, g, N) when the invariants describe an extremal complex, else None."""
    if not inv["connected"] or inv["orientable"] or len(inv["sizes"]) != 1:
        return None
    n = inv["sizes"][0]
    if n < 7 or inv["class_sizes"][0] != 3 or inv["class_sizes"][-1] != 3:
        return None
    return inv["k"], 2 - inv["chi"], n


def primitive_pair(n: int) -> tuple[int, int]:
    k = 6 // gcd(n, 6)
    return k, 2 + k * (n - 6) // 6


def check_complex_text(text: str, expect: tuple[int, int, int]) -> None:
    got = extremal_kgn(invariants(parse_complex(text)))
    _require(got == expect, "complex is %s, expected extremal (k, g, N) = %s" % (got, expect))


def check_verify_text(text: str, expect: tuple[int, int, int]) -> None:
    want = "ok: (k, g, N) = (%d, %d, %d)\n" % expect
    _require(text == want, "verify printed %r, expected %r" % (text[:200], want))


def check_svg(text: str, expect: tuple[int, int, int]) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        raise CheckError("SVG is not well-formed: %s" % err) from None
    _require(root.tag == SVG_NS + "svg", "root element is %s" % root.tag)
    k, _, n = expect
    edges = sum(1 for el in root.iter(SVG_NS + "path") if el.get("class") == "edge")
    _require(edges == k * n, "SVG has %d edge paths, expected k*N = %d" % (edges, k * n))


# ---------------------------------------------------------------------------
# subgroup records


def _cycle_lengths(a, b) -> list[int]:
    n = len(a)
    seen = [False] * n
    out = []
    for s in range(n):
        length, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = b[a[x]]
            length += 1
        if length:
            out.append(length)
    return out


def bfs_key(perms) -> tuple:
    """Least breadth-first renumbering over all base points: equal keys iff
    the two transitive actions are conjugate."""
    n = len(perms[0])
    best = None
    for start in range(n):
        order = {start: 0}
        seq = [start]
        for x in seq:
            for perm in perms:
                y = perm[x]
                if y not in order:
                    order[y] = len(seq)
                    seq.append(y)
        key = tuple(tuple(order[perm[x]] for x in seq) for perm in perms)
        if best is None or key < best:
            best = key
    return best


def check_record(d: dict, pqr: tuple[int, int, int], index: int) -> tuple:
    """Re-derive a record's classification; returns its BFS key."""
    perms = d["generators"]
    _require(len(perms) == 3, "expected three generators")
    _require(all(sorted(p) == list(range(index)) for p in perms), "generator is not a permutation of the index")
    _require(all(p[p[x]] == x for p in perms for x in range(index)), "generator is not an involution")
    _require(tuple(d["triangle"]) == pqr, "record triangle %s != %s" % (d["triangle"], pqr))
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for p in perms:
            if p[x] not in seen:
                seen.add(p[x])
                stack.append(p[x])
    _require(len(seen) == index, "action is not transitive")
    s0, s1, s2 = perms
    torsion_free = all(p[x] != x for p in perms for x in range(index))
    for (a, b), order in zip(((s0, s1), (s1, s2), (s2, s0)), pqr):
        lengths = _cycle_lengths(a, b)
        _require(all(order % m == 0 for m in lengths), "rotation order broken")
        torsion_free = torsion_free and all(m == order for m in lengths)
    colour = {0: 0}
    stack = [0]
    proper = False
    while stack:
        x = stack.pop()
        for p in perms:
            y = p[x]
            if y not in colour:
                colour[y] = 1 - colour[x]
                stack.append(y)
            elif colour[y] == colour[x]:
                proper = True
    _require(d["torsion_free"] == torsion_free, "torsion_free flag disagrees")
    _require(d["proper"] == proper, "proper flag disagrees")
    if torsion_free:
        p, q, r = pqr
        # twice the genus-defining area, over the common denominator pqr
        num = index * (p * q * r - q * r - p * r - p * q)
        den = 2 * p * q * r if proper else 4 * p * q * r
        _require(num % den == 0, "non-integral genus")
        genus = (2 if proper else 1) + num // den
        _require(d["genus"] == genus, "genus %s != %d" % (d["genus"], genus))
    return bfs_key(perms)


def check_enumerate(text: str, pqr, index: int, tf_proper: bool, count: int) -> None:
    """Records of ``enumerate`` (with --torsion-free --proper when tf_proper)."""
    d = json.loads(text)
    recs = d["records"]
    _require(d["count"] == len(recs), "count field disagrees with the records")
    _require(len(recs) == count, "%d classes, expected %d" % (len(recs), count))
    keys = set()
    for rec in recs:
        keys.add(check_record(rec, pqr, index))
        _require(not tf_proper or (rec["torsion_free"] and rec["proper"]),
                 "torsion-free/proper filter not honoured")
    _require(len(keys) == len(recs), "records are not pairwise non-conjugate")


def check_to_group(text: str, name: str) -> None:
    k, g, n = CATALOG[name]
    d = json.loads(text)
    check_record(d, (2, 3, n), 2 * k * n)
    _require(d["torsion_free"] and d["proper"] and d["genus"] == g, "record of %s misclassified" % name)
