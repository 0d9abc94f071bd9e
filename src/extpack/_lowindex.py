"""The low-index search kernel of `trigroup`: a backtracking search over
the coset tables of an extended triangle group, with its canonicity and
block-order tests.

`trigroup.iter_low_index_subgroups` is its one caller.  It imports this
module inside its body, so the commands that never search (`to-group`,
`from-group` and the rest) do not load or compile it.  The search yields
complete tables; the driver keeps those least in block order,
standardizes and classifies them, and logs the counters kept here.
"""

from __future__ import annotations

UNDEF = -1


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
