"""The least-code pass over a permutation action, the reading of polygon
words off a flag action, and the complex file format on top of them: the
isomorphism key least_code, the automorphism group of a complex read off
the same pass, read_polygons, which canonicalize, the covers and the
subgroup/complex bridge read a complex's words with, and parse and
serialize, which read and write the canonical form.

The canonical form and the file format live here, apart from complexes,
which every command compiles, so that its compile stays small: every
caller of parse or serialize reads the canonical form, and a caller that
only certifies complexes (a census, verify_extremal and the invariants)
never loads this module.  The library reads read_polygons and
FORMAT_HEADER here; complexes.least_code, complexes.automorphisms,
complexes.canonicalize, complexes.parse and complexes.serialize resolve
here on first use.  Calls into the polygon layer go through the
complexes module (complexes.flag_action, complexes.canonicalize), the
names the benchmark tracer wraps.
"""

from __future__ import annotations

from itertools import accumulate

from . import complexes
from ._action import _read
from .errors import ComplexFormatError, InvariantError

FORMAT_HEADER = "# extpack complex format v1"


def least_code(perms) -> tuple[int, ...]:
    """The least BFS code over all start points of a transitive action.

    It is the isomorphism key: equal for two actions exactly when they are
    isomorphic, so for two complexes' flag actions exactly when one is the
    other relabeled, with polygons rotated, reordered or mirrored, and for
    two coset tables exactly when the subgroups are conjugate.  A start is
    read only while it ties the best code (Weinberg's 1966 code for maps,
    with the early abort of a least-code search).  Two starts that tie in
    full give an automorphism, and a start that the automorphisms found
    take to a start read before is skipped (McKay 1981).  An intransitive
    action raises ValueError.
    """
    return _least(perms)[0]


def automorphisms(c: complexes.PolygonComplex) -> list[int]:
    """The automorphism group of c, as the images of flag 0.

    An automorphism of the flag action commutes with t0, t1 and t2, so it
    is fixed by where it sends flag 0.  The group acts freely on the flags,
    so the ties of least_code's pass generate it, and its order, the length
    of the list, divides their number.  The list starts with flag 0 (the
    identity) and is increasing.
    """
    return _least(complexes.flag_action(c))[1]


def _least(perms) -> tuple[tuple[int, ...], list[int]]:
    """least_code's pass on one order buffer: the least code, and point 0's
    orbit under the automorphisms that its ties give."""
    n = len(perms[0])
    order = [-1] * n
    best = [n] * (len(perms) * n)  # above every code, so start 0 reads lower
    parent = None  # from the first full tie: a union-find of the points, rooted at least points

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for start in range(n):
        # a class rooted below start holds a start already read, with the same code
        if parent is not None and find(start) < start:
            continue
        order[start] = 0
        seq = [start]
        i = 0
        for x in seq:
            for perm in perms:
                y = perm[x]
                o = order[y]
                if o < 0:
                    o = order[y] = len(seq)
                    seq.append(y)
                if o != best[i]:
                    break
                i += 1
            else:
                continue
            break
        for y in seq:
            order[y] = -1
        if i == len(best):
            # best_seq[j] -> seq[j] is an automorphism: join its cycles
            parent = parent or list(range(n))
            for a, b in zip(best_seq, seq):
                a, b = find(a), find(b)
                if a != b:
                    parent[max(a, b)] = min(a, b)
        elif o < best[i]:
            best, best_seq = _read(perms, start, order)
            if len(best_seq) < n:
                raise ValueError("least_code: intransitive action, point 0 reaches %d of %d points" % (len(best_seq), n))
            for y in best_seq:
                order[y] = -1
    return tuple(best), [0] if parent is None else [f for f in range(n) if find(f) == 0]


def read_polygons(perms) -> tuple[tuple[int, ...], ...]:
    """The polygon words of a flag action (t0, t1, t2), read flag by flag.

    Each flag x that is not yet on a polygon starts the next polygon, whose
    sides are (a, t0 a) from a = x, stepping a <- t2 t0 a until a returns
    to x.  Labels are numbered 1, 2, ... by first occurrence and positive
    there; the partner of a side (a, b) with label v holds t1 a and t1 b,
    and reads +v if its first flag is t1 b, -v if it is t1 a.  With the
    sign rule of PolygonComplex, the words glue back to the given action,
    up to renumbering of the flags.
    """
    t0, t1, t2 = perms
    side_of = [-1] * len(t0)  # flag -> 2 * (its side's number) + its end
    firsts: list[int] = []  # the first flag of every side
    sizes: list[int] = []
    for x in range(len(t0)):
        if side_of[x] >= 0:
            continue
        a = x
        before = len(firsts)
        while True:
            b = t0[a]
            side_of[a] = 2 * len(firsts)
            side_of[b] = 2 * len(firsts) + 1
            firsts.append(a)
            a = t2[b]
            if a == x:
                break
        sizes.append(len(firsts) - before)
    labels = [0] * len(firsts)
    label = 0
    for s, a in enumerate(firsts):
        if labels[s]:
            continue
        label += 1
        labels[s] = label
        partner = side_of[t1[a]]
        if partner >> 1 == s:
            raise InvariantError("read_polygons: t1 glues side %d to itself" % s)
        labels[partner >> 1] = label if partner & 1 else -label
    ends = list(accumulate(sizes))
    return tuple(tuple(labels[e - n:e]) for n, e in zip(sizes, ends))


def canonicalize(c: complexes.PolygonComplex) -> complexes.PolygonComplex:
    """The canonical form: c read off its least-code flag action.

    least_code renumbers the flags so that t_j of new flag i is entry
    3i + j of the code; read_polygons reads the words off that action.
    Since least_code is the isomorphism key, so is the result: two
    complexes have the same canonical form exactly when one is the other
    relabeled, with polygons rotated, reordered or mirrored.
    """
    code = least_code(complexes.flag_action(c))
    words = read_polygons((code[0::3], code[1::3], code[2::3]))
    return complexes.PolygonComplex(words, name=c.name)


# ---------------------------------------------------------------------------
# file format


def parse(text: str) -> complexes.PolygonComplex:
    """Parse the complex file format and return the canonical complex.

    Lines: ``#`` comments, an optional ``name <string>`` line, and one
    ``polygon <signed ints>`` line per polygon.
    """
    name = None
    polys: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "name":
            if name is not None:
                raise ComplexFormatError("duplicate name line", line=lineno)
            name = line[len("name"):].strip() or None
            continue
        if fields[0] != "polygon":
            raise ComplexFormatError("expected 'polygon' or 'name', got %r" % fields[0], line=lineno)
        word = []
        for tok in fields[1:]:
            try:
                v = int(tok)
            except ValueError:
                raise ComplexFormatError("bad label %r" % tok, line=lineno) from None
            if v == 0:
                raise ComplexFormatError("zero label", line=lineno)
            word.append(v)
        if not word:
            raise ComplexFormatError("empty polygon", line=lineno)
        polys.append(tuple(word))
    if not polys:
        raise ComplexFormatError("no polygon lines found")
    return complexes.canonicalize(complexes.PolygonComplex(tuple(polys), name=name))


def serialize(c: complexes.PolygonComplex) -> str:
    """Write the canonical form of c in the complex file format."""
    canon = complexes.canonicalize(c)
    lines = [FORMAT_HEADER]
    if canon.name:
        lines.append("name %s" % canon.name)
    for word in canon.polygons:
        lines.append("polygon " + " ".join(str(v) for v in word))
    return "\n".join(lines) + "\n"
