"""Permutation actions read by a BFS from one point: the two-coloring and
the BFS code that complexes (flag actions) and trigroup (coset tables)
both use.  It imports nothing, so a coset-table command loads no polygon
layer."""


def two_color(perms) -> tuple[bool, bool]:
    """Color points by a BFS from 0 in which every permutation flips the color.

    Returns (transitive, bipartite): whether every point is reached, and
    whether no permutation maps a point to one of its own color.  For a
    lifted flag action these are connectivity and orientability; for a
    subgroup's coset table bipartite means the subgroup avoids every
    orientation-reversing word.
    """
    color = [-1] * len(perms[0])
    color[0] = 0
    queue = [0]
    bipartite = True
    for x in queue:
        flip = 1 - color[x]
        for perm in perms:
            y = perm[x]
            cy = color[y]
            if cy < 0:
                color[y] = flip
                queue.append(y)
            elif cy != flip:
                bipartite = False
    return len(queue) == len(color), bipartite


def bfs_code(perms, start: int) -> tuple[int, ...]:
    """The action renumbered by a BFS from start, read point by point.

    Points are numbered in the order the BFS first reaches them, scanning
    the permutations in order; entry k*i + j of the code (k = len(perms))
    is the number of perms[j] applied to point number i.  Two pointed
    transitive actions are isomorphic exactly when their codes are equal.
    """
    return tuple(_read(perms, start, [-1] * len(perms[0]))[0])


def _read(perms, start: int, order: list[int]) -> tuple[list[int], list[int]]:
    """bfs_code's code, as a list, and the points in BFS order; order is -1
    at every point on entry, and numbers the points reached on return."""
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
            code.append(o)
    return code, seq
