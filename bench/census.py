"""The census workload: one long-lived process certifies a stream of small
complexes, timed in fixed-size batches.

    python3 bench/census.py --src SRC --seed N --batches B [--trace PREFIX]

Each batch is generated from the seed before its timer starts: single
n-gon gluings (n = 10, 12, 14), connected random multi-polygon complexes,
and relabelled, rotated, sign-flipped and reordered copies of the shipped
catalog files.  Inside the timer every complex goes through
``PolygonComplex(...)`` and ``vertex_class_sizes(cap=3)``; the survivors also
through ``verify_extremal`` and ``surface_invariants``.  After the timer the
results are compared, complex by complex, with this benchmark's own
invariants (check.py).  Batch times are scaled to the reference speed
(calib.py).  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import sys
import time

import calib
import check
import launch

#: per batch: (kind, count); a fixed mix so every batch costs about the same
BATCH_MIX = (("ngon10", 160), ("ngon12", 160), ("ngon14", 160), ("multi", 80), ("catalog", 40))
BATCH_SIZE = sum(n for _, n in BATCH_MIX)
#: batches on either side whose kernel times set a batch's speed
CALIB_WINDOW = 2


def _gluing(rng: random.Random, sizes: list[int]) -> list[tuple[int, ...]]:
    slots = [(p, i) for p, n in enumerate(sizes) for i in range(n)]
    rng.shuffle(slots)
    words = [[0] * n for n in sizes]
    for lab in range(1, len(slots) // 2 + 1):
        (p, i), (q, j) = slots[2 * lab - 2], slots[2 * lab - 1]
        words[p][i] = lab
        words[q][j] = lab if rng.random() < 0.5 else -lab
    return [tuple(w) for w in words]


def _connected_gluing(rng: random.Random) -> list[tuple[int, ...]]:
    while True:
        sizes = [rng.randint(5, 9) for _ in range(rng.randint(2, 3))]
        if sum(sizes) % 2:
            sizes[-1] += 1
        polys = _gluing(rng, sizes)
        if check.invariants(polys)["connected"]:
            return polys


def _disguise(rng: random.Random, polys: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Same surface, new presentation: permuted labels, flipped label
    directions, rotated boundary words and shuffled polygon order."""
    labels = sorted({abs(v) for w in polys for v in w})
    image = dict(zip(labels, rng.sample(range(1, len(labels) + 1), len(labels))))
    flip = {a: rng.choice((1, -1)) for a in labels}
    out = []
    for w in polys:
        word = [image[abs(v)] * flip[abs(v)] * (1 if v > 0 else -1) for v in w]
        r = rng.randrange(len(word))
        out.append(tuple(word[r:] + word[:r]))
    rng.shuffle(out)
    return out


def make_batch(rng: random.Random, catalog: list[list[tuple[int, ...]]]):
    batch = []
    for kind, count in BATCH_MIX:
        for _ in range(count):
            if kind == "multi":
                batch.append(_connected_gluing(rng))
            elif kind == "catalog":
                batch.append(_disguise(rng, rng.choice(catalog)))
            else:
                batch.append(_gluing(rng, [int(kind[4:])]))
    rng.shuffle(batch)
    return batch


def expected(polys) -> tuple | None:
    """(certified, chi, orientable) for survivors of the cap-3 filter, else None."""
    inv = check.invariants(polys)
    if inv["class_sizes"][-1] > 3:
        return None
    return check.extremal_kgn(inv) is not None, inv["chi"], inv["orientable"]


def certify(complexes, batch) -> list:
    """The measured loop: one call sequence per complex, through the module
    so that traced runs see every call."""
    out = []
    for polys in batch:
        c = complexes.PolygonComplex(polys)
        if complexes.vertex_class_sizes(c, cap=3) is None:
            out.append(None)
            continue
        rep = complexes.verify_extremal(c)
        inv = complexes.surface_invariants(c)
        out.append((rep.ok, inv.euler_characteristic, inv.orientable))
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batches", type=int, required=True)
    ap.add_argument("--trace", default=None, help="span output prefix")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, args.src)
    from extpack import complexes

    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(skip=("cli.main",))
    files = sorted(glob.glob(os.path.join(args.src, "extpack", "catalog", "*.cmplx")))
    catalog = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            catalog.append(check.parse_complex(fh.read()))

    rng = random.Random(args.seed)
    raw_s, kernel, failed, certified, own_certified, failures = [], [], 0, 0, 0, []
    for b in range(args.batches):
        batch = make_batch(rng, catalog)
        want = [expected(p) for p in batch]
        if tracer:
            tracer.op = b
        before = calib.measure()
        start = time.perf_counter()
        got = certify(complexes, batch)
        raw_s.append(time.perf_counter() - start)
        kernel.append((before, calib.measure()))
        if b == 0 and certify(complexes, batch) != got:
            failed += BATCH_SIZE
            failures.append({"batch": 0, "error": "determinism: second pass differs"})
        for polys, w, g in zip(batch, want, got):
            own_certified += bool(w and w[0])
            certified += bool(g and g[0])
            if w != g:
                failed += 1
                if len(failures) < 10:
                    failures.append({"polygons": polys, "expected": w, "got": g})
    if tracer:
        tracer.write(args.trace, import_s)
    print(json.dumps({
        "batch_size": BATCH_SIZE,
        "batch_s": calib.scaled(raw_s, kernel, CALIB_WINDOW),
        "raw_s": raw_s,
        "attempted": BATCH_SIZE * args.batches,
        "failed": failed,
        "certified": certified,
        "own_certified": own_certified,
        "failures": failures,
        "import_s": import_s,
        "peak_rss_kb": launch.peak_rss_kb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
