"""Extended triangle groups: low-index subgroup search, classification,
the two index-2 constructions (the orientation-preserving half and the
induced (3, 3, n) < (2, 3, 2n) action), and the bridge between subgroups
and polygon complexes.

The extended triangle group of type (p, q, r) is generated by the three
reflections r0, r1, r2 in the sides of a hyperbolic triangle with angles
pi/p, pi/q, pi/r; its relations are r0^2 = r1^2 = r2^2 = 1 and the
rotation orders (r0 r1)^p = (r1 r2)^q = (r2 r0)^r = 1.  A subgroup of
finite index m is stored as its action on right cosets: three involutions
of the points 0..m-1, coset 0 being the subgroup itself.

For a torsion-free subgroup, cosets are flags of the quotient surface and
every generator acts as a fixed-point-free involution whose pairwise
products have full cycle length.  When the type is (2, 3, N) the flag
action is exactly the flag structure of a polygon complex; the two
conversion directions live here.
"""

from __future__ import annotations

import json
import sys

from ._action import bfs_code, two_color
from ._record import Record
from .errors import InvariantError

UNDEF = -1

Perms = tuple[tuple[int, ...], ...]


def standardize(perms) -> Perms:
    """Renumber points in BFS order from 0 (columns scanned in order)."""
    code = bfs_code(perms, 0)
    k = len(perms)
    return tuple(code[g::k] for g in range(k))


# ---------------------------------------------------------------------------
# classification


class SubgroupRecord(Record):
    """A finite-index subgroup of an extended triangle group, classified.

    perms are the actions of r0, r1, r2 on the cosets; the quotient surface
    is orientable exactly when the subgroup is not proper.
    """

    perms: Perms
    params: tuple[int, int, int]
    torsion_free: bool
    proper: bool
    genus: int | None

    @property
    def index(self) -> int:
        return len(self.perms[0])

    @property
    def quotient_orientable(self) -> bool:
        return not self.proper

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "index": self.index,
            "generators": [list(p) for p in self.perms],
            "subgroup_words": [],
            "triangle": list(self.params),
            "extended": True,
            "torsion_free": self.torsion_free,
            "proper": self.proper,
            "quotient_orientable": self.quotient_orientable,
            "genus": self.genus,
        }


def _ints(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


def record_from_json(text: str) -> SubgroupRecord:
    """Read a subgroup record (SubgroupRecord.to_json_dict, as JSON).

    Only "triangle" and "generators" are read; classify checks the action
    and recomputes the classification ("subgroup_words" and the stored
    flags are ignored).  A malformed record raises ValueError.
    """
    try:
        d = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError("subgroup record is not JSON: %s" % err) from None
    if not isinstance(d, dict):
        raise ValueError("subgroup record is not a JSON object")
    for key in ("triangle", "generators"):
        if key not in d:
            raise ValueError("subgroup record has no %r field" % key)
    pqr, gens = d["triangle"], d["generators"]
    if not (_ints(pqr) and len(pqr) == 3):
        raise ValueError("subgroup record: 'triangle' is not three integers")
    if not (isinstance(gens, list) and all(map(_ints, gens))):
        raise ValueError("subgroup record: 'generators' is not a list of integer lists")
    return classify(gens, *pqr)


def _cycle_lengths(perm: tuple[int, ...], nxt: tuple[int, ...]) -> list[int]:
    """Cycle lengths of the composite point -> nxt[perm[point]]."""
    n = len(perm)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        c = s
        while not seen[c]:
            seen[c] = True
            c = nxt[perm[c]]
            length += 1
        out.append(length)
    return out


def _check_params(p: int, q: int, r: int) -> None:
    if min(p, q, r) < 2:
        raise ValueError("triangle parameters must be >= 2, got (%d, %d, %d)" % (p, q, r))


def classify(perms, p: int, q: int, r: int) -> SubgroupRecord:
    """Check a coset action of the extended (p, q, r) triangle group and
    classify the subgroup it stands for.

    perms must be three involutions of the points 0..m-1 (the actions of
    r0, r1, r2) that act transitively, with every cycle of r0 r1, r1 r2,
    r2 r0 of length dividing p, q, r respectively; anything else raises
    ValueError naming the generator, the point or the cycle at fault.
    Torsion-freeness is fixed-point-freeness of the reflections together
    with full cycle length of the three rotations.  Properness is failure
    of the parity coloring.  Genus comes from the area: with
    mu = 1 - 1/p - 1/q - 1/r, a torsion-free subgroup of index m
    uniformizes a surface of Euler characteristic -m*mu/2.
    """
    _check_params(p, q, r)
    if len(perms) != 3:
        raise ValueError("expected three generators (r0, r1, r2), got %d" % len(perms))
    perms = tuple(tuple(perm) for perm in perms)
    m = len(perms[0])
    if m == 0:
        raise ValueError("the action has no points")
    points = list(range(m))
    for g, perm in enumerate(perms):
        if len(perm) != m:
            raise ValueError("generator %d moves %d points, generator 0 moves %d" % (g, len(perm), m))
        if min(perm) < 0 or max(perm) >= m:
            x = next(x for x in points if not 0 <= perm[x] < m)
            raise ValueError("generator %d sends point %d to %d, outside 0..%d" % (g, x, perm[x], m - 1))
        if [perm[y] for y in perm] != points:
            if len(set(perm)) != m:
                raise ValueError("generator %d is not a permutation: it hits a point twice" % g)
            x = next(x for x in points if perm[perm[x]] != x)
            raise ValueError(
                "generator %d is not an involution: it sends %d to %d and %d to %d"
                % (g, x, perm[x], perm[x], perm[perm[x]])
            )
    torsion_free = all(perm[c] != c for perm in perms for c in range(m))
    for g, full in enumerate((p, q, r)):
        lengths = _cycle_lengths(perms[g], perms[(g + 1) % 3])
        for length in lengths:
            if full % length:
                raise ValueError(
                    "rotation r%d r%d has a cycle of length %d, which does not divide %d"
                    % (g, (g + 1) % 3, length, full)
                )
        torsion_free = torsion_free and set(lengths) == {full}
    transitive, bipartite = two_color(perms)
    if not transitive:
        raise ValueError("the action is not transitive: point 0 does not reach all %d points" % m)
    proper = not bipartite
    genus: int | None = None
    if torsion_free:
        # genus 2 + m*mu/2 (non-orientable) or 1 + m*mu/4 (orientable)
        num = m * (p * q * r - q * r - r * p - p * q)
        den = (2 if proper else 4) * p * q * r
        if num % den:
            raise ValueError("classification inconsistency: genus has fraction %d/%d" % (num % den, den))
        genus = (2 if proper else 1) + num // den
    return SubgroupRecord(perms, (p, q, r), torsion_free, proper, genus)


# ---------------------------------------------------------------------------
# low-index subgroup search


class _TriangleSearch:
    """Backtracking search over transitive actions of an extended triangle
    group in which every generator is an involution.

    Points are filled in a fixed scan order.  _assign enters each tentative
    entry c <-> d of a column i and propagates it, in one flat loop: for
    each other column j, with L the order of (ri rj), it walks the
    alternating i/j chain through c <-> d from d, then from c.  A closed
    chain needs exactly 2L edges under the torsion-free filter, else 2L'
    for a divisor L' of L; a path with one reflection end (a fixed point)
    may have at most L points, and with two ends a number dividing L; an
    open path of 2L or more edges fails, and one of 2L - 1 forces the
    entry closing it, queued LIFO.

    The generic search fills the table in BFS scan order from 0, trying
    values in increasing order, and prunes by canonicity (_ties): it
    completes each class once, as its least-code table, in code order.
    With the torsion-free filter, all (r2 r0) orbits are prefilled as
    polygon blocks of size 2r and r1 alone is searched, in the same order,
    so tables come in block order (lexicographic in r1, in the block-BFS
    numbering from 0); _least_first prunes a table that reads a lower
    first entry from another flag.  Before an entry c <-> d of r1 is
    tried, the room test reads the open (r1 r2) paths that end at c and d:
    an entry that would join them into an open path of 2q or more edges is
    one _assign rejects, and is skipped; for p = 2, so is one whose forced
    partner t0 c <-> t0 d fails the same way.  nodes counts the entries
    passed to _assign, skips the entries the room test skipped, prunes the
    canonicity prunes.
    """

    def __init__(self, p: int, q: int, r: int, index: int, torsion_free: bool):
        self.m = index
        self.tf = torsion_free
        self.t = [[UNDEF] * index for _ in range(3)]
        self.trail: list[tuple[int, int, int]] = []
        # per column i, the other columns j with the order of (ri rj)
        self.rel = (((1, p), (2, r)), ((0, p), (2, q)), ((0, r), (1, q)))
        self.p, self.q = p, q
        self.count = 1
        self.nodes = 0
        self.skips = 0
        self.prunes = 0
        self.block = blk = 2 * r
        self.impossible = torsion_free and index % blk != 0
        if torsion_free and not self.impossible:
            t0, t2 = self.t[0], self.t[2]
            for base in range(0, index, blk):
                for s in range(0, blk, 2):
                    t0[base + s] = base + s + 1
                    t0[base + s + 1] = base + s
                    t2[base + s + 1] = base + (s + 2) % blk
                    t2[base + (s + 2) % blk] = base + s + 1

    # -- assignment with propagation ------------------------------------

    def _assign(self, col: int, a: int, b: int) -> bool:
        """Enter a <-> b in column col and everything it forces, or fail;
        the walks take a j hop and an i hop a turn."""
        t = self.t
        tf = self.tf
        rel = self.rel
        trail = self.trail
        queue = [(col, a, b)]
        while queue:
            i, c, d = queue.pop()
            ti = t[i]
            x = ti[c]
            if x != UNDEF:
                if x != d:
                    return False
                continue
            if ti[d] != UNDEF or (c == d and tf):
                return False
            ti[c] = d
            ti[d] = c
            trail.append((i, c, d))
            for j, L in rel[i]:
                tj = t[j]
                # y ends as the entry read last, at end_d: UNDEF, end_d
                # itself (a reflection end) or c (the chain closed)
                end_d, hops_d = d, 0
                while True:
                    y = tj[end_d]
                    if y == UNDEF or y == end_d or y == c:
                        break
                    z = ti[y]
                    if z == UNDEF or z == y:
                        end_d, hops_d, y = y, hops_d + 1, z
                        break
                    end_d, hops_d = z, hops_d + 2
                loop_d = y == end_d
                if y == c and not loop_d:
                    # closed after a j hop: (ri rj) has a cycle of length half
                    half = hops_d // 2 + 1
                    if half != L if tf else L % half:
                        return False
                    continue
                if c == d:
                    # c is a reflection end; the path has hops_d + 1 points
                    loop_c, edges = True, hops_d
                else:
                    end_c, hops_c = c, 0
                    while True:
                        y = tj[end_c]
                        if y == UNDEF or y == end_c:
                            break
                        z = ti[y]
                        if z == UNDEF or z == y:
                            end_c, hops_c, y = y, hops_c + 1, z
                            break
                        end_c, hops_c = z, hops_c + 2
                    loop_c = y == end_c
                    edges = hops_c + hops_d + 1
                if loop_c or loop_d:
                    if loop_c and loop_d:
                        if L % (edges + 1):
                            return False
                    elif edges >= L:
                        return False
                elif edges >= 2 * L - 1:
                    if edges >= 2 * L:
                        return False
                    # both ends miss the same column: the hop counts share
                    # their parity
                    queue.append((i if hops_c & 1 else j, end_c, end_d))
        return True

    def _undo(self, mark: int) -> None:
        t = self.t
        while len(self.trail) > mark:
            col, a, b = self.trail.pop()
            t[col][a] = UNDEF
            t[col][b] = UNDEF

    def _ties(self, live: list[list]) -> list[list] | None:
        """The starts of live whose BFS code ties with 0's (the table
        itself) up to the first undecided entry on either side, or None if
        one reads smaller: every completion keeps that prefix.

        A start is [order, seq, i, j]: its numbering of the points, the
        points in that order, and the code position (point i, column j)
        where its comparison stopped.  The entries before it stay decided
        below this node, so the comparison resumes there; _search_generic
        rewinds the starts when it leaves the node."""
        t = self.t
        out = []
        for st in live:
            order, seq, i, j = st
            sign = 0
            while i < len(seq):
                x = seq[i]
                while j < 3:
                    col = t[j]
                    want = col[i]
                    y = col[x]
                    if want == UNDEF or y == UNDEF:
                        break
                    o = order[y]
                    if o < 0:
                        o = order[y] = len(seq)
                        seq.append(y)
                    if o != want:
                        sign = o - want
                        break
                    j += 1
                else:
                    i, j = i + 1, 0
                    continue
                break
            st[2], st[3] = i, j
            if sign < 0:
                self.prunes += 1
                return None
            if sign == 0:
                out.append(st)
        return out

    @staticmethod
    def _rewind(saved) -> None:
        """Return each start to its saved (len(seq), i, j)."""
        for st, n, i, j in saved:
            seq = st[1]
            if len(seq) > n:
                order = st[0]
                for y in seq[n:]:
                    order[y] = UNDEF
                del seq[n:]
            st[2], st[3] = i, j

    # -- search drivers ---------------------------------------------------

    def solutions(self):
        """Yield complete tables as generator permutations, in DFS order."""
        if self.impossible:
            return
        if self.tf:
            yield from self._search_prefilled(0, 1)
        else:
            yield from self._search_generic(0, 0, [])

    def _emit(self):
        return tuple(tuple(col) for col in self.t)

    def _search_prefilled(self, c: int, opened: int):
        """opened: the blocks t1 has entered, 0 to opened - 1.  The blocks
        not entered are alike, so an entry may enter only the next one, at
        its first point; propagation follows decided entries alone and
        enters none, so blocks open in order."""
        m = self.m
        t0, t1, t2 = self.t
        while c < m and t1[c] != UNDEF:
            c += 1
        if c == m:
            yield self._emit()
            return
        fresh = opened * self.block
        q2 = 2 * self.q
        # the room test: c <-> d joins the open (r1 r2) paths at c and d,
        # and _assign rejects it when d's has room or more edges (_path)
        end_c, edges_c = _path(t1, t2, c)
        room = q2 - 1 - edges_c
        # for p = 2, c <-> d forces t0 c <-> t0 d, tested the same way
        # (_partner_fails) when r1 leaves both open
        a = t0[c]
        partner = self.p == 2 and t1[a] == UNDEF
        path_a = _path(t1, t2, a) if partner else None
        for d in range(c, min(fresh + 1, m)):
            if t1[d] != UNDEF:
                continue
            end_d, edges_d = _path(t1, t2, d)
            if edges_d >= room or (
                partner and d != end_c and d != a and t1[t0[d]] == UNDEF
                and _partner_fails(t1, t2, q2, end_c, end_d, edges_c + edges_d + 1, a, path_a, t0[d])
            ):
                self._skip(c, d)
                continue
            mark = len(self.trail)
            self.nodes += 1
            if self._assign(1, c, d) and self._least_first(mark):
                yield from self._search_prefilled(c + 1, opened + (d == fresh))
            self._undo(mark)

    def _skip(self, c: int, d: int) -> None:
        """Count the entry c <-> d of r1, which the room test skips."""
        self.skips += 1

    def _least_first(self, mark: int) -> bool:
        """False, counting a prune, if a flag decided since mark reads a
        first block-order entry (_first) below t1[0], 0's own."""
        t1, blk = self.t[1], self.block
        for _, c, d in self.trail[mark:]:
            if _first(c, d, blk) < t1[0] or _first(d, c, blk) < t1[0]:
                self.prunes += 1
                return False
        return True

    def _search_generic(self, c: int, col: int, live: list[list]):
        """live: the starts whose codes still tie with 0's (_ties).  The
        candidates for the first undecided entry (point c, column col) are
        the points in use, then, while the table has room, the new point
        count, which opens its own start and is the last one tried."""
        m = self.m
        count = self.count
        while True:
            if c == count:
                if count == m:
                    yield self._emit()
                return
            if self.t[col][c] == UNDEF:
                break
            col += 1
            if col == 3:
                col = 0
                c += 1
        saved = [(st, len(st[1]), st[2], st[3]) for st in live]
        for d in range(min(count + 1, m)):
            if self.t[col][d] != UNDEF:
                continue
            starts = live
            if d == count:
                self.count += 1
                order = [UNDEF] * m
                order[d] = 0
                starts = live + [[order, [d], 0, 0]]
            mark = len(self.trail)
            self.nodes += 1
            if self._assign(col, c, d):
                ties = self._ties(starts)
                if ties is not None:
                    yield from self._search_generic(c, col, ties)
                self._rewind(saved)
            self._undo(mark)
        self.count = count


def low_index_subgroups(
    p: int,
    q: int,
    r: int,
    index: int,
    *,
    torsion_free: bool = False,
    proper: bool | None = None,
    max_count: int | None = None,
) -> list[SubgroupRecord]:
    """Subgroups of the extended (p, q, r) triangle group of exactly the
    given index, up to conjugacy, classified.

    torsion_free restricts the search itself, which then completes only
    torsion-free tables (any other is an InvariantError); proper=True
    keeps the subgroups with a non-orientable quotient, proper=False
    those with an orientable one.  max_count (>= 1) stops the search
    after that many records, preserving the deterministic DFS order.

    Without torsion_free, each record is its class's least-code table
    (complexes.least_code), in code order.  With it, each record is the
    first table found in its class, its least in block order, standardized;
    a later table of the class is a renumbering of it, which a flag that
    ties with 0 on the first entry (_first) reads lower, and is dropped
    (_least_in_block_order).  The counters go to the "extpack.trigroup"
    logger at DEBUG.
    """
    _check_params(p, q, r)
    if index < 1:
        raise ValueError("need index >= 1")
    if max_count is not None and max_count < 1:
        raise ValueError("need max_count >= 1, got %d" % max_count)
    search = _TriangleSearch(p, q, r, index, torsion_free)
    records: list[SubgroupRecord] = []
    tables = 0
    for perms in search.solutions():
        tables += 1
        if torsion_free:
            if not _least_in_block_order(perms[1], 2 * r):
                continue
            perms = standardize(perms)
        rec = classify(perms, p, q, r)
        if torsion_free and not rec.torsion_free:
            raise InvariantError(
                "low_index_subgroups: the torsion-free search of (%d, %d, %d) at index %d"
                " completed table %d, %s, which has torsion" % (p, q, r, index, tables, perms)
            )
        if proper is not None and rec.proper != proper:
            continue
        records.append(rec)
        if max_count is not None and len(records) >= max_count:
            break
    # unimported, logging could show no record; its import stays off the
    # CLI's cold start
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("extpack.trigroup").debug(
            "low_index_subgroups(%d, %d, %d) at index %d: %d nodes, %d canonicity prunes,"
            " %d complete tables, %d records, %d room skips",
            p, q, r, index, search.nodes, search.prunes, tables, len(records), search.skips,
        )
    return records


def _first(f: int, y: int, blk: int) -> int:
    """The first t1 entry of the block-order code from flag f, t1[f] = y:
    y's place on the walk f, t0 f, t2 t0 f, ... round f's block, else blk."""
    return (y - f if f % 2 == 0 else f - y) % blk if f // blk == y // blk else blk


def _path(t1, t2, x: int) -> tuple[int, int]:
    """The other end of the open path of r2 and r1 edges that starts at x,
    where r1 is undecided, and its number of edges.  r2 is complete and
    fixes no point, so the path is open and ends after an r2 edge.

    An entry x <-> d of r1 joins the paths at x and d.  When theirs and the
    new edge make 2q or more, _assign rejects it: the joined path is open
    and too long, or, when d ends x's own path, the cycle it closes is
    shorter than 2q (a path of 2q - 1 edges is closed as soon as it forms),
    or d is x, a fixed point."""
    edges = 1
    y = t2[x]
    while t1[y] != UNDEF:
        y = t2[t1[y]]
        edges += 2
    return y, edges


def _partner_fails(t1, t2, q2: int, end_c: int, end_d: int, joined: int, a: int, path_a, b: int) -> bool:
    """For p = 2, whether _assign rejects c <-> d for the entry a <-> b,
    a = t0 c and b = t0 d, that c <-> d forces when r1 leaves a and b open.

    c <-> d joins the paths at c and d (_path) into one of `joined` edges
    from end_c to end_d; path_a is a's path before.  a <-> b then closes
    a's path, which must make a cycle of q2 = 2q edges, when it ends at b,
    and else joins two paths, which must make fewer than 2q edges.  Entries
    only add edges, so the component of a <-> b that _assign would complete
    contains this one: a cycle stays as it is, and an open path of 2q or
    more edges lies in no cycle of 2q edges.
    """
    end_a, edges_a = (end_d, joined) if a == end_c else (end_c, joined) if a == end_d else path_a
    if end_a == b:
        return edges_a + 1 != q2
    edges_b = joined if b == end_c or b == end_d else _path(t1, t2, b)[1]
    return edges_a + edges_b + 1 >= q2


def _least_in_block_order(t1, blk: int) -> bool:
    """Whether a complete table of the torsion-free search, given by its
    r1, is the least of its class in block order.

    The other tables of the class are its block-order codes from the other
    flags: blocks numbered as r1 enters them, each walked f, t0 f, t2 t0 f,
    ... from the flag it is entered at.  A flag whose first entry (_first)
    is above t1[0] reads higher, and the search leaves none below it, so
    only the flags that tie there are read, each up to its first
    difference; the table is the least exactly when none reads lower.  A
    table not made of whole blocks, which the search never completes, is
    kept for classify to judge.
    """
    m, head = len(t1), t1[0]
    if m % blk:
        return True
    for f in range(1, m):
        if _first(f, t1[f], blk) != head:
            continue
        rank = [-1] * (m // blk)  # block -> its number in f's code
        rank[f // blk] = 0
        entry = [f]  # the flag each numbered block is entered at
        for i in range(m):
            e, k = entry[i // blk], i % blk
            # point i of f's code: place k on the walk round e's block
            x = e - e % blk + ((e + k) % blk if e % 2 == 0 else (e - k) % blk)
            y = t1[x]
            b = y // blk
            n = rank[b]
            o = len(entry) * blk if n < 0 else n * blk + _first(entry[n], y, blk)
            if o != t1[i]:
                if o < t1[i]:
                    return False
                break
            if n < 0:
                rank[b] = len(entry)
                entry.append(y)
    return True


# ---------------------------------------------------------------------------
# subgroups <-> polygon complexes


def complex_to_subgroup(c: complexes.PolygonComplex) -> SubgroupRecord:
    """Flag action of a certified extremal complex inside its (2, 3, N) group."""
    from . import complexes

    rep = complexes.verify_extremal(c)
    if not rep.ok:
        raise ValueError("complex is not extremal: %s" % (rep.failures,))
    rec = classify(standardize(complexes.flag_action(c)), 2, 3, rep.n)
    if not (rec.torsion_free and rec.proper and rec.genus == rep.g):
        raise InvariantError(
            "complex_to_subgroup: record of %r is not torsion-free proper of genus %d" % (c, rep.g)
        )
    if rec.index != 2 * rep.k * rep.n:
        raise InvariantError(
            "complex_to_subgroup: record of %r has index %d, expected 2kN = %d"
            % (c, rec.index, 2 * rep.k * rep.n)
        )
    return rec


def subgroup_to_complex(rec: SubgroupRecord) -> complexes.PolygonComplex:
    """Quotient surface of a torsion-free proper (2, 3, N) subgroup.

    Cosets are flags: polygons are the <r0, r2> orbits, edges the <r0, r1>
    orbits, and the pairing signs come from which end of the partner side
    the edge reflection reaches (complexes.read_polygons).  The words are
    read in coset order; serialize writes the canonical form.
    """
    from . import complexes

    p, q, N = rec.params
    if (p, q) != (2, 3):
        raise ValueError("complex reconstruction needs a (2, 3, N) record")
    if not (rec.torsion_free and rec.proper):
        raise ValueError("complex reconstruction needs a torsion-free proper record")
    out = complexes.PolygonComplex(complexes.read_polygons(rec.perms))
    check = complexes.verify_extremal(out)
    if not (check.ok and check.g == rec.genus and check.n == N):
        raise InvariantError(
            "subgroup_to_complex: quotient %r certifies as %s, expected genus %s and N = %d"
            % (out, (check.ok, check.g, check.n), rec.genus, N)
        )
    return out


def canonical_fuchsian(rec: SubgroupRecord) -> SubgroupRecord:
    """The orientation-preserving half K+ = K intersect PSL(2, R).

    Cosets double with a parity sheet flipped by every reflection; the
    quotient becomes orientable and, for a genus-g non-orientable surface
    record, the genus drops to g - 1.
    """
    if not rec.proper:
        raise ValueError("record is not proper: it has no smaller Fuchsian half")
    m = rec.index
    doubled = []
    for perm in rec.perms:
        new = [0] * (2 * m)
        for c in range(m):
            img = perm[c]
            new[2 * c] = 2 * img + 1
            new[2 * c + 1] = 2 * img
        doubled.append(new)
    return classify(standardize(doubled), *rec.params)


def induced_action(rec: SubgroupRecord) -> SubgroupRecord:
    """A subgroup K of the (3, 3, n) group, acting on its cosets in (2, 3, 2n).

    (3, 3, n) is the index-2 subgroup <r2, r1, r0 r2 r0> of (2, 3, 2n), so K
    has 2m cosets there: point x is Kx and point m + x is Kx r0.  r0 swaps
    the two sheets; r1 commutes with r0 and acts by s2 on both; r2 acts by
    s1 on the first sheet and by s3 = r0 r2 r0 on the second.  classify
    checks that the result is an action of (2, 3, 2n).
    """
    p, q, n = rec.params
    if (p, q) != (3, 3):
        raise ValueError("induced action needs a (3, 3, n) record")
    s1, s2, s3 = rec.perms
    m = rec.index
    r0 = [m + x for x in range(m)] + list(range(m))
    r1 = list(s2) + [m + x for x in s2]
    r2 = list(s1) + [m + x for x in s3]
    return classify(standardize((r0, r1, r2)), 2, 3, 2 * n)
