"""Extended triangle groups: low-index subgroup search, classification,
the two index-2 constructions (the orientation-preserving half and the
induced (3, 3, n) < (2, 3, 2n) action), and the bridge between subgroups
and polygon complexes.

`iter_low_index_subgroups` is the search's driver: it checks the
arguments and returns a stream that keeps the tables least in block
order, standardizes and classifies them, filters by properness, yields
each record as the search completes it and logs the counters when it
ends or is closed.  `low_index_subgroups` lists the stream, up to
max_count records.  The backtracking kernel is in the private module
`_lowindex`, which the driver imports when it runs, so the bridge
commands compile no search code.

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

New library capability goes in a new module, not here; a function here
that needs it imports that module inside its body, as
iter_low_index_subgroups imports _lowindex.  A new command is one entry
in _commands.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections.abc import Iterator

from ._action import bfs_code, lift, two_color
from ._record import Record
from .errors import InvariantError

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
    flags are ignored).  A malformed record raises ValueError, and so does
    JSON nested too deeply to decode.
    """
    try:
        d = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
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
# low-index subgroup search (the kernel is in _lowindex)


def iter_low_index_subgroups(
    p: int, q: int, r: int, index: int, *, torsion_free: bool = False, proper: bool | None = None
) -> Iterator[SubgroupRecord]:
    """Subgroups of the extended (p, q, r) triangle group of exactly the
    given index, up to conjugacy, classified: a stream that yields each
    record as soon as the search completes it.  The arguments are checked
    at the call.

    torsion_free restricts the search itself, which then completes only
    torsion-free tables (any other is an InvariantError); proper=True
    keeps the subgroups with a non-orientable quotient, proper=False
    those with an orientable one.

    Without torsion_free, each record is its class's least-code table
    (complexes.least_code), in code order.  With it, each record is the
    first table found in its class, its least in block order, standardized;
    a later table of the class is a renumbering of it, which a flag that
    ties with 0 on the first entry (_blocks._first) reads lower, and is
    dropped (_blocks._least_in_block_order).  When the stream ends or is
    closed, the counters go to the "extpack.trigroup" logger at DEBUG.
    """
    _check_params(p, q, r)
    if index < 1:
        raise ValueError("need index >= 1")
    from . import _lowindex

    search = _lowindex._TriangleSearch(p, q, r, index, torsion_free)

    def stream() -> Iterator[SubgroupRecord]:
        tables = records = 0
        try:
            for perms in search.solutions():
                tables += 1
                if torsion_free:
                    if not search.blocks._least_in_block_order(perms[1], 2 * r):
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
                records += 1
                yield rec
        finally:
            # unimported, logging could show no record; its import stays off
            # the CLI's cold start
            logging = sys.modules.get("logging")
            if logging is not None:
                logging.getLogger("extpack.trigroup").debug(
                    "low_index_subgroups(%d, %d, %d) at index %d: %d nodes, %d canonicity prunes,"
                    " %d complete tables, %d records, %d room skips",
                    p, q, r, index, search.nodes, search.prunes, tables, records, search.skips,
                )

    return stream()


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
    """The records of iter_low_index_subgroups, as a list; max_count
    (>= 1) stops the search after that many, in the same order."""
    stream = iter_low_index_subgroups(p, q, r, index, torsion_free=torsion_free, proper=proper)
    if max_count is not None and max_count < 1:
        raise ValueError("need max_count >= 1, got %d" % max_count)
    records = list(itertools.islice(stream, max_count))
    stream.close()
    return records


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
    """Quotient surface of a torsion-free proper (2, 3, N) subgroup, N >= 7.

    Cosets are flags: polygons are the <r0, r2> orbits, edges the <r0, r1>
    orbits, and the pairing signs come from which end of the partner side
    the edge reflection reaches (_canon.read_polygons).  The words are
    read in coset order; serialize writes the canonical form.
    """
    from . import complexes
    from ._canon import read_polygons

    p, q, N = rec.params
    if (p, q) != (2, 3):
        raise ValueError("complex reconstruction needs a (2, 3, N) record")
    if N < 7:
        raise ValueError("complex reconstruction needs N >= 7, got N = %d" % N)
    if not (rec.torsion_free and rec.proper):
        raise ValueError("complex reconstruction needs a torsion-free proper record")
    out = complexes.PolygonComplex(read_polygons(rec.perms))
    check = complexes.verify_extremal(out)
    if not (check.ok and check.g == rec.genus and check.n == N):
        raise InvariantError(
            "subgroup_to_complex: quotient %r certifies as %s, expected genus %s and N = %d"
            % (out, (check.ok, check.g, check.n), rec.genus, N)
        )
    return out


def canonical_fuchsian(rec: SubgroupRecord) -> SubgroupRecord:
    """The orientation-preserving half K+ = K intersect PSL(2, R).

    Cosets double with a parity sheet that every reflection flips (the
    2-sheet lift with every shift 1); the quotient becomes orientable and,
    for a genus-g non-orientable surface record, the genus drops to g - 1.
    """
    if not rec.proper:
        raise ValueError("record is not proper: it has no smaller Fuchsian half")
    ones = [1] * rec.index
    return classify(standardize(lift(rec.perms, 2, [ones] * len(rec.perms))), *rec.params)


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
