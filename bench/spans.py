"""Outside-in tracer for extpack's public functions.

The tracer replaces a fixed list of module attributes with timing wrappers.
Calls inside the package look functions up through their module (``from .
import complexes`` then ``complexes.parse(...)``, or a module-global name),
and dataclasses call ``__post_init__`` through the class, so every call is
caught without editing the library.  Spans (id, parent, name, start, end,
op, raised) are kept in memory and written once the traced process ends,
together with per-name aggregates: calls, total time (outermost activation
only, so recursion is not counted twice) and self time (duration minus the
time covered by child spans).

Run as a script it traces one CLI op in a fresh process:

    python3 bench/spans.py OUT_PREFIX OP_ID SRC_DIR -- <extpack arguments>
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: (module, attribute path, span name); the order is the report order
TARGETS = (
    ("complexes", "PolygonComplex.__post_init__", "complexes.PolygonComplex"),
    ("complexes", "occurrences", "complexes.occurrences"),
    ("complexes", "vertex_class_sizes", "complexes.vertex_class_sizes"),
    ("complexes", "flag_action", "complexes.flag_action"),
    ("complexes", "vertex_cycles_with_crossings", "complexes.vertex_cycles_with_crossings"),
    ("complexes", "is_orientable", "complexes.is_orientable"),
    ("complexes", "is_graftable", "complexes.is_graftable"),
    ("complexes", "verify_extremal", "complexes.verify_extremal"),
    ("complexes", "surface_invariants", "complexes.surface_invariants"),
    ("complexes", "canonicalize", "complexes.canonicalize"),
    ("complexes", "parse", "complexes.parse"),
    ("complexes", "serialize", "complexes.serialize"),
    ("grafting", "build_primitive", "grafting.build_primitive"),
    ("grafting", "eligible_sites", "grafting.eligible_sites"),
    ("grafting", "discover_rewrite", "grafting.discover_rewrite"),
    ("grafting", "apply_rewrite", "grafting.apply_rewrite"),
    ("covers", "realize_spec", "covers.realize_spec"),
    ("covers", "find_voltage", "covers.find_voltage"),
    ("covers", "cyclic_cover", "covers.cyclic_cover"),
    ("trigroup", "low_index_subgroups", "trigroup.low_index_subgroups"),
    ("trigroup", "classify", "trigroup.classify"),
    ("trigroup", "standardize", "trigroup.standardize"),
    ("trigroup", "complex_to_subgroup", "trigroup.complex_to_subgroup"),
    ("trigroup", "subgroup_to_complex", "trigroup.subgroup_to_complex"),
    ("trigroup", "record_from_json", "trigroup.record_from_json"),
    ("geometry", "realize", "geometry.realize"),
    ("geometry", "render_svg", "geometry.render_svg"),
    ("catalog", "load_entry", "catalog.load_entry"),
    ("cli", "main", "cli.main"),
)

SPAN_NAMES = tuple(name for _, _, name in TARGETS)

#: raw spans kept per process; aggregates keep counting past the cap
KEEP_SPANS = 100_000


class Tracer:
    def __init__(self, op: int = 0):
        self.op = op
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        n = len(SPAN_NAMES)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.raised = [0] * n
        self.depth = [0] * n
        self.stack: list[list] = []  # [span id, name id, start, child time]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.voltage_candidates = 0
        self.canon_edges = 0
        self.classify_in_search = 0
        self._orient = self.ids["complexes.is_orientable"]
        self._voltage = self.ids["covers.find_voltage"]
        self._classify = self.ids["trigroup.classify"]
        self._search = self.ids["trigroup.low_index_subgroups"]

    def enter(self, nid: int) -> None:
        depth = self.depth
        if nid == self._orient and depth[self._voltage]:
            self.voltage_candidates += 1
        elif nid == self._classify and depth[self._search]:
            self.classify_in_search += 1
        depth[nid] += 1
        self.stack.append([self.next_id, nid, time.perf_counter(), 0.0])
        self.next_id += 1

    def exit(self, raised: bool) -> None:
        end = time.perf_counter()
        sid, nid, start, child = self.stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.self_time[nid] += dur - child
        self.depth[nid] -= 1
        if not self.depth[nid]:
            self.total[nid] += dur
        if raised:
            self.raised[nid] += 1
        parent = -1
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((sid, parent, nid, start, end, self.op, raised))
        else:
            self.dropped += 1

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        nid = self.ids[name]
        enter, exit_ = self.enter, self.exit
        count_edges = name == "complexes.canonicalize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_edges:
                self.canon_edges += sum(map(len, args[0].polygons)) // 2
            enter(nid)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                exit_(raised)

        setattr(owner, attr, wrapper)

    def install(self, skip: tuple[str, ...] = ()) -> None:
        """Wrap every target (those named in skip excepted)."""
        import importlib

        for modname, path, name in TARGETS:
            if name in skip:
                continue
            owner = importlib.import_module("extpack." + modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self.wrap(owner, attr, name)

    def aggregates(self, import_s: float) -> dict:
        return {
            "calls": self.calls,
            "total": self.total,
            "self": self.self_time,
            "raised": self.raised,
            "voltage_candidates": self.voltage_candidates,
            "canon_edges": self.canon_edges,
            "classify_in_search": self.classify_in_search,
            "import_s": import_s,
            "spans_dropped": self.dropped,
        }

    def write(self, prefix: str, import_s: float) -> None:
        """Write the aggregates (JSON) and the raw spans (TSV) of this process."""
        with open(prefix + ".agg.json", "w", encoding="utf-8") as fh:
            json.dump(self.aggregates(import_s), fh)
        with open(prefix + ".spans.tsv", "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\top\traised\n")
            for sid, parent, nid, start, end, op, raised in self.spans:
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (sid, parent, SPAN_NAMES[nid], start, end, op, raised))


def _main(argv: list[str]) -> int:
    prefix, op, src, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: spans.py OUT_PREFIX OP_ID SRC_DIR -- ARGS...")
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from extpack import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(int(op))
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(prefix, import_s)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
