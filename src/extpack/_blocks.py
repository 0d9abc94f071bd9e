"""The helpers of the torsion-free block search in _lowindex: the first
block-order entry of a flag (_first), the room test's open paths (_path,
_partner_fails), and the test that a complete table is the least of its
class in block order (_least_in_block_order), which
trigroup.iter_low_index_subgroups applies.

They moved out of _lowindex so that no compile of a cold command is
large, and a generic search, which prunes by least code alone, never
loads them: _TriangleSearch imports this module when it is built for a
torsion-free search.
"""

from __future__ import annotations

from ._lowindex import UNDEF


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
