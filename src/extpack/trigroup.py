"""Extended triangle groups: presentations, coset tables, low-index
subgroup search, the two index-2 constructions (the orientation-preserving
half and the induced (3, 3, n) < (2, 3, 2n) action), and the bridge between
subgroups and polygon complexes.

The extended triangle group of type (p, q, r) is generated by the three
reflections r0, r1, r2 in the sides of a hyperbolic triangle with angles
pi/p, pi/q, pi/r; relators are the squares of the generators and the
rotation orders (r0 r1)^p, (r1 r2)^q, (r2 r0)^r.  A subgroup of finite
index is stored as its permutation action on right cosets.

For a torsion-free subgroup, cosets are flags of the quotient surface and
every generator acts as a fixed-point-free involution whose pairwise
products have full cycle length.  When the type is (2, 3, N) the flag
action is exactly the flag structure of a polygon complex; the two
conversion directions live here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import complexes
from .complexes import PolygonComplex
from .errors import InvariantError

UNDEF = -1

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# presentations


def _free_reduce(word: Word) -> Word:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _cyclic_reduce(word: Word) -> Word:
    w = list(_free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator count plus relator words.

    Words are tuples of signed 1-based generator numbers; relators are
    stored freely and cyclically reduced.
    """

    ngens: int
    relators: tuple[Word, ...]

    def __post_init__(self):
        rels = []
        for rel in self.relators:
            for x in rel:
                if x == 0 or abs(x) > self.ngens:
                    raise ValueError("bad letter %r in relator" % (x,))
            red = _cyclic_reduce(tuple(rel))
            if red:
                rels.append(red)
        object.__setattr__(self, "relators", tuple(rels))


def triangle_presentation(p: int, q: int, r: int) -> Presentation:
    """Presentation of the extended (p, q, r) triangle group: reflections
    r0, r1, r2 with pairwise rotation orders p, q, r."""
    if min(p, q, r) < 2:
        raise ValueError("triangle parameters must be >= 2")
    rels = [(1, 1), (2, 2), (3, 3), (1, 2) * p, (2, 3) * q, (3, 1) * r]
    return Presentation(3, tuple(rels))


def triangle_type(pres: Presentation) -> tuple[int, int, int] | None:
    """Recover (p, q, r) if pres is an extended triangle presentation."""
    if pres.ngens != 3:
        return None
    invol = set()
    orders: dict[frozenset, int] = {}
    for rel in pres.relators:
        w = tuple(abs(x) for x in rel)
        if len(w) == 2 and w[0] == w[1]:
            invol.add(w[0])
            continue
        if len(w) % 2 == 0 and len(set(w[0::2])) == 1 and len(set(w[1::2])) == 1 and w[0] != w[1]:
            orders[frozenset((w[0], w[1]))] = len(w) // 2
            continue
        return None
    if invol != {1, 2, 3} or set(map(frozenset, [(1, 2), (2, 3), (3, 1)])) != set(orders):
        return None
    return (
        orders[frozenset((1, 2))],
        orders[frozenset((2, 3))],
        orders[frozenset((3, 1))],
    )


# ---------------------------------------------------------------------------
# coset tables


@dataclass(frozen=True)
class CosetTable:
    """A complete transitive right-coset action of a presentation's group."""

    ngens: int
    perms: tuple[tuple[int, ...], ...]
    subgroup_words: tuple[Word, ...] = ()

    @property
    def index(self) -> int:
        return len(self.perms[0])

    def inverse_perms(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for perm in self.perms:
            inv = [0] * len(perm)
            for i, j in enumerate(perm):
                inv[j] = i
            out.append(tuple(inv))
        return tuple(out)

    def apply_word(self, c: int, word: Word) -> int:
        inv = None
        for x in word:
            if x > 0:
                c = self.perms[x - 1][c]
            else:
                if inv is None:
                    inv = self.inverse_perms()
                c = inv[-x - 1][c]
        return c

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "index": self.index,
            "generators": [list(p) for p in self.perms],
            "subgroup_words": [list(w) for w in self.subgroup_words],
        }


def validate_table(pres: Presentation, table: CosetTable) -> None:
    """Check that relators act trivially, the action is transitive, and the
    subgroup words stabilize coset 0."""
    n = table.index
    for rel in pres.relators:
        for c in range(n):
            if table.apply_word(c, rel) != c:
                raise ValueError("relator %s broken at coset %d" % (rel, c))
    if not complexes.two_color(table.perms)[0]:
        raise ValueError("action is not transitive")
    for w in table.subgroup_words:
        if table.apply_word(0, w) != 0:
            raise ValueError("subgroup word %s does not stabilize coset 0" % (w,))


def standardize(perms) -> tuple[tuple[int, ...], ...]:
    """Renumber points in BFS order from 0 (columns scanned in order)."""
    code = complexes.bfs_code(perms, 0)
    k = len(perms)
    return tuple(code[g::k] for g in range(k))


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class SubgroupRecord:
    """A finite-index subgroup of an extended triangle group, classified."""

    table: CosetTable
    params: tuple[int, int, int]
    torsion_free: bool
    proper: bool
    quotient_orientable: bool
    genus: int | None

    @property
    def index(self) -> int:
        return self.table.index

    def to_json_dict(self) -> dict:
        d = self.table.to_json_dict()
        d.update(
            {
                "triangle": list(self.params),
                "extended": True,
                "torsion_free": self.torsion_free,
                "proper": self.proper,
                "quotient_orientable": self.quotient_orientable,
                "genus": self.genus,
            }
        )
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def record_from_json(text: str) -> SubgroupRecord:
    d = json.loads(text)
    table = CosetTable(
        ngens=3,
        perms=tuple(tuple(p) for p in d["generators"]),
        subgroup_words=tuple(tuple(w) for w in d.get("subgroup_words", ())),
    )
    p, q, r = d["triangle"]
    return classify(table, p, q, r)


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


def classify(table: CosetTable, p: int, q: int, r: int) -> SubgroupRecord:
    """Classify a subgroup of the extended (p, q, r) triangle group.

    Torsion-freeness is fixed-point-freeness of the reflections together
    with full cycle length of the three rotations.  Properness is failure
    of the parity coloring.  Genus comes from the area: with
    mu = 1 - 1/p - 1/q - 1/r, a torsion-free subgroup of index m
    uniformizes a surface of Euler characteristic -m*mu/2.
    """
    if table.ngens != 3:
        raise ValueError("expected a 3-generator (reflection) table")
    s0, s1, s2 = table.perms
    m = table.index
    orders = (p, q, r)
    pairs = ((s0, s1), (s1, s2), (s2, s0))
    torsion_free = all(perm[c] != c for perm in table.perms for c in range(m))
    for (a, b), full in zip(pairs, orders):
        lengths = _cycle_lengths(a, b)
        for length in lengths:
            if full % length:
                raise ValueError("rotation relator broken: cycle %d vs order %d" % (length, full))
        if torsion_free and any(length != full for length in lengths):
            torsion_free = False
    proper = not complexes.two_color(table.perms)[1]
    mu = 1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, r)
    genus: int | None = None
    if torsion_free:
        if proper:
            gg = 2 + Fraction(m, 2) * mu
        else:
            gg = 1 + Fraction(m, 4) * mu
        if gg.denominator != 1:
            raise ValueError("classification inconsistency: non-integral genus %s" % (gg,))
        genus = int(gg)
    return SubgroupRecord(
        table=table,
        params=(p, q, r),
        torsion_free=torsion_free,
        proper=proper,
        quotient_orientable=not proper,
        genus=genus,
    )


# ---------------------------------------------------------------------------
# low-index subgroup search


class _TriangleSearch:
    """Backtracking search over transitive actions of an extended triangle
    group in which every generator is an involution.

    Points are filled in a fixed scan order; after each tentative entry the
    alternating chains of both dihedral relators through the new edge are
    walked, rejecting overlong or short cycles and forcing the unique
    closure of nearly-complete ones.  With the torsion-free filter, all
    (r2 r0) orbits are prefilled as polygon blocks of size 2r and only the
    edge-pairing involution r1 is searched.
    """

    def __init__(self, p: int, q: int, r: int, index: int, torsion_free: bool):
        self.orders = (p, q, r)
        self.m = index
        self.tf = torsion_free
        self.t = [[UNDEF] * index for _ in range(3)]
        self.trail: list[tuple[int, int, int]] = []
        self.pair_of = {
            (0, 1): p, (1, 0): p,
            (1, 2): q, (2, 1): q,
            (2, 0): r, (0, 2): r,
        }
        self.prefilled = False
        if torsion_free:
            blk = 2 * r
            if index % blk:
                self.impossible = True
                return
            self.impossible = False
            self.block = blk
            for base in range(0, index, blk):
                t0, t2 = self.t[0], self.t[2]
                for s in range(0, blk, 2):
                    t0[base + s] = base + s + 1
                    t0[base + s + 1] = base + s
                    t2[base + s + 1] = base + (s + 2) % blk
                    t2[base + (s + 2) % blk] = base + s + 1
            self.prefilled = True
            self.blocks = index // blk
            self.block_hits = [0] * self.blocks
            self.block_hits[0] = 1  # block 0 is the root
        else:
            self.impossible = False
            self.count = 1

    # -- assignment with propagation ------------------------------------

    def _analyze(self, i: int, j: int, c: int, d: int, queue) -> bool:
        L = self.pair_of[(i, j)]
        t = self.t
        if c == d:
            # loop: one reflection end of the chain
            end, col, hops, looped = self._walk(i, j, c, j, None)
            if looped:
                n_points = hops + 1
                return L % n_points == 0
            return hops <= L - 1
        # walk from d; stopping at c with expected column i means the chain
        # closes through the new edge
        end_d, col_d, hops_d, loop_d = self._walk(i, j, d, j, (c, i))
        if end_d is None:  # closed cycle
            edges = hops_d + 1
            if self.tf:
                return edges == 2 * L
            return edges % 2 == 0 and L % (edges // 2) == 0
        end_c, col_c, hops_c, loop_c = self._walk(i, j, c, j, None)
        edges = hops_c + hops_d + 1
        if loop_c and loop_d:
            return L % (edges + 1) == 0
        if loop_c or loop_d:
            return edges <= L - 1
        if edges >= 2 * L:
            return False
        if edges == 2 * L - 1:
            if col_c != col_d:
                return False
            queue.append((col_c, end_c, end_d))
        return True

    def _walk(self, i, j, start, first, stop):
        """Follow the alternating i/j chain from start (first hop `first`).

        Returns (end, missing_col, hops, looped); end is None when the walk
        reached the stop edge, i.e. the chain closes into a cycle.
        """
        t = self.t
        cur = start
        col = first
        hops = 0
        while True:
            if stop is not None and cur == stop[0] and col == stop[1]:
                return None, None, hops, False
            nxt = t[col][cur]
            if nxt == UNDEF:
                return cur, col, hops, False
            if nxt == cur:
                return cur, col, hops, True
            cur = nxt
            hops += 1
            col = i if col == j else j

    def _assign(self, col: int, a: int, b: int) -> bool:
        t = self.t
        queue = [(col, a, b)]
        while queue:
            col, a, b = queue.pop()
            cur = t[col][a]
            if cur != UNDEF:
                if cur != b:
                    return False
                continue
            if t[col][b] != UNDEF:
                return False
            if self.tf and a == b:
                return False
            t[col][a] = b
            t[col][b] = a
            self.trail.append((col, a, b))
            if self.prefilled and col == 1:
                self.block_hits[a // self.block] += 1
                if a != b:
                    self.block_hits[b // self.block] += 1
            for other in range(3):
                if other == col:
                    continue
                if not self._analyze(col, other, a, b, queue):
                    return False
        return True

    def _undo(self, mark: int) -> None:
        t = self.t
        while len(self.trail) > mark:
            col, a, b = self.trail.pop()
            t[col][a] = UNDEF
            t[col][b] = UNDEF
            if self.prefilled and col == 1:
                self.block_hits[a // self.block] -= 1
                if a != b:
                    self.block_hits[b // self.block] -= 1

    # -- search drivers ---------------------------------------------------

    def solutions(self):
        """Yield complete tables as generator permutations, in DFS order."""
        if self.impossible:
            return
        if self.prefilled:
            yield from self._search_prefilled(0)
        else:
            yield from self._search_generic(0, 0)

    def _emit(self):
        return tuple(tuple(col) for col in self.t)

    def _search_prefilled(self, c: int):
        m = self.m
        t1 = self.t[1]
        while c < m and t1[c] != UNDEF:
            c += 1
        if c == m:
            yield self._emit()
            return
        hits = self.block_hits
        fresh = None
        for blk in range(self.blocks):
            if hits[blk] == 0:
                fresh = blk * self.block
                break
        for d in range(c, m):
            if t1[d] != UNDEF:
                continue
            blk_d = d // self.block
            if hits[blk_d] == 0 and d != fresh:
                continue
            mark = len(self.trail)
            if self._assign(1, c, d):
                yield from self._search_prefilled(c + 1)
            self._undo(mark)

    def _search_generic(self, c: int, col: int):
        m = self.m
        while True:
            if c == self.count:
                if self.count == m:
                    yield self._emit()
                return
            if self.t[col][c] == UNDEF:
                break
            col += 1
            if col == 3:
                col = 0
                c += 1
        for d in range(self.count):
            if self.t[col][d] != UNDEF:
                continue
            if self.tf and d == c:
                continue
            mark = len(self.trail)
            if self._assign(col, c, d):
                yield from self._search_generic(c, col)
            self._undo(mark)
        if self.count < m:
            d = self.count
            self.count += 1
            mark = len(self.trail)
            if self._assign(col, c, d):
                yield from self._search_generic(c, col)
            self._undo(mark)
            self.count -= 1


def low_index_subgroups(
    pres: Presentation,
    index: int,
    *,
    torsion_free: bool = False,
    proper: bool | None = None,
    nonorientable: bool | None = None,
    max_count: int | None = None,
) -> list[SubgroupRecord]:
    """Subgroups of exactly the given index, up to conjugacy, classified.

    Only extended triangle presentations are supported; the pair orders are
    read off the relators.  Filters restrict the output (and, for
    torsion_free, prune the search itself).  max_count stops the search
    after that many records, preserving the deterministic DFS order; the
    default enumerates the complete list with conjugates removed by their
    least code (complexes.least_code).
    """
    if index < 1:
        raise ValueError("need index >= 1")
    ptype = triangle_type(pres)
    if ptype is None:
        raise ValueError(
            "low-index search supports extended triangle presentations only"
        )
    p, q, r = ptype
    want_proper = proper
    if nonorientable is not None:
        # the quotient is non-orientable exactly when the subgroup is proper
        want_proper = nonorientable if want_proper is None else want_proper
        if proper is not None and nonorientable != proper:
            return []
    search = _TriangleSearch(p, q, r, index, torsion_free)
    records: list[SubgroupRecord] = []
    seen_keys: set[tuple] = set()
    for perms in search.solutions():
        rec = classify(
            CosetTable(ngens=3, perms=standardize(perms)),
            p, q, r,
        )
        if torsion_free and not rec.torsion_free:
            continue
        if want_proper is not None and rec.proper != want_proper:
            continue
        key = complexes.least_code(rec.table.perms)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        records.append(rec)
        if max_count is not None and len(records) >= max_count:
            break
    return records


# ---------------------------------------------------------------------------
# subgroups <-> polygon complexes


def complex_to_subgroup(c: PolygonComplex) -> SubgroupRecord:
    """Flag action of a certified extremal complex inside its (2, 3, N) group."""
    rep = complexes.verify_extremal(c)
    if not rep.ok:
        raise ValueError("complex is not extremal: %s" % (rep.failures,))
    table = CosetTable(ngens=3, perms=standardize(complexes.flag_action(c)))
    rec = classify(table, 2, 3, rep.n)
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


def subgroup_to_complex(rec: SubgroupRecord) -> PolygonComplex:
    """Quotient surface of a torsion-free proper (2, 3, N) subgroup.

    Cosets are flags: polygons are the <r0, r2> orbits, edges the <r0, r1>
    orbits, and the pairing signs come from which end of the partner side
    the edge reflection reaches.
    """
    p, q, N = rec.params
    if (p, q) != (2, 3):
        raise ValueError("complex reconstruction needs a (2, 3, N) record")
    if not (rec.torsion_free and rec.proper):
        raise ValueError("complex reconstruction needs a torsion-free proper record")
    s0, s1, s2 = rec.table.perms
    m = rec.index
    if m % (2 * N):
        raise ValueError("index %d is not a multiple of 2N = %d" % (m, 2 * N))

    side_of: dict[int, tuple[int, int, int]] = {}  # flag -> (face, side, end)
    faces: list[list[tuple[int, int]]] = []
    visited = [False] * m
    for start in range(m):
        if visited[start]:
            continue
        sides: list[tuple[int, int]] = []
        a = start
        while True:
            b = s0[a]
            side_of[a] = (len(faces), len(sides), 0)
            side_of[b] = (len(faces), len(sides), 1)
            visited[a] = visited[b] = True
            sides.append((a, b))
            a = s2[b]
            if a == start:
                break
        if len(sides) != N:
            raise InvariantError(
                "subgroup_to_complex: the face through coset %d has %d sides, expected N = %d"
                % (start, len(sides), N)
            )
        faces.append(sides)

    words: list[list[int]] = [[0] * N for _ in faces]
    label = 0
    for f, sides in enumerate(faces):
        for i, (a, b) in enumerate(sides):
            if words[f][i]:
                continue
            label += 1
            words[f][i] = label
            f2, i2, end = side_of[s1[a]]
            if (f2, i2) == (f, i):
                raise InvariantError(
                    "subgroup_to_complex: r1 glues side %d of face %d to itself" % (i, f)
                )
            words[f2][i2] = label if end == 1 else -label
    out = complexes.canonicalize(
        PolygonComplex(tuple(tuple(w) for w in words))
    )
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
    for perm in rec.table.perms:
        new = [0] * (2 * m)
        for c in range(m):
            img = perm[c]
            new[2 * c] = 2 * img + 1
            new[2 * c + 1] = 2 * img
        doubled.append(new)
    table = CosetTable(ngens=3, perms=standardize(doubled))
    p, q, r = rec.params
    return classify(table, p, q, r)


def induced_action(rec: SubgroupRecord) -> SubgroupRecord:
    """A subgroup K of the (3, 3, n) group, acting on its cosets in (2, 3, 2n).

    (3, 3, n) is the index-2 subgroup <r2, r1, r0 r2 r0> of (2, 3, 2n), so K
    has 2m cosets there: point x is Kx and point m + x is Kx r0.  r0 swaps
    the two sheets; r1 commutes with r0 and acts by s2 on both; r2 acts by
    s1 on the first sheet and by s3 = r0 r2 r0 on the second.
    """
    p, q, n = rec.params
    if (p, q) != (3, 3):
        raise ValueError("induced action needs a (3, 3, n) record")
    s1, s2, s3 = rec.table.perms
    m = rec.index
    r0 = [m + x for x in range(m)] + list(range(m))
    r1 = list(s2) + [m + x for x in s2]
    r2 = list(s1) + [m + x for x in s3]
    table = CosetTable(ngens=3, perms=standardize((r0, r1, r2)))
    validate_table(triangle_presentation(2, 3, 2 * n), table)
    return classify(table, 2, 3, 2 * n)
