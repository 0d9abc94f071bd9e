import ast
import atexit
import gc
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import extpack

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def test_span_targets_resolve():
    """Every function the benchmark tracer wraps still exists, so renaming or
    deleting one cannot silently break a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for modname, path, name in spans.TARGETS:
        owner = importlib.import_module("extpack." + modname)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, "%s: extpack.%s has no %s" % (name, modname, path)
        assert callable(owner), name


def test_library_imports_only_the_standard_library():
    """The runtime has no dependencies: every import in the package is a
    standard-library module or a module of the package itself."""
    sources = sorted((ROOT / "src" / "extpack").glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                "%s:%d %s" % (path.name, node.lineno, name)
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, "non-standard imports in the library: %s" % ", ".join(found)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"(?m)^dependencies\s*=.*$", pyproject) == ["dependencies = []"]


def test_library_does_not_import_dataclasses():
    """Records derive from extpack._record.Record: importing dataclasses
    also loads inspect, ast, dis and tokenize, which no command needs."""
    sources = sorted((ROOT / "src" / "extpack").glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += ["%s:%d" % (path.name, node.lineno) for name in names if name == "dataclasses"]
    assert not found, "dataclasses imported in the library: %s" % ", ".join(found)


def test_library_has_no_assert_statements():
    """The library states its checks as explicit raises: ``python -O``
    strips every ``assert`` statement, and a check that can vanish is no
    check."""
    sources = sorted((ROOT / "src" / "extpack").glob("*.py"))
    assert len(sources) >= 10
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the library: %s" % ", ".join(found)


def test_cli_reads_no_private_library_name():
    """The CLI runs on the library's public names: neither cli.py nor its
    command module, _commands.py, reads an underscore-prefixed attribute
    of an extpack module."""
    trees = {name: ast.parse((ROOT / "src" / "extpack" / name).read_text(encoding="utf-8"), filename=name)
             for name in ("cli.py", "_commands.py")}
    modules = {
        alias.asname or alias.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in (None, "extpack")
        for alias in node.names
    }
    assert "grafting" in modules
    found = [
        "%s:%d %s.%s" % (name, node.lineno, node.value.id, node.attr)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(node.value, ast.Name) and node.value.id in modules
    ]
    assert not found, "the CLI reads private library names: %s" % ", ".join(found)


def test_the_cli_declares_its_commands_once():
    """The CLI builds every subparser from one table, _COMMANDS: a second
    add_parser call in cli.py or in its command module, _commands.py,
    would be a second list of the commands."""
    calls = []
    for name in ("cli.py", "_commands.py"):
        path = ROOT / "src" / "extpack" / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls += [
            "%s:%d" % (name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
        ]
    assert len(calls) == 1, "add_parser is called at %s" % calls


def test_the_cli_imports_argparse_in_build_parser_only():
    """The CLI parses a line with argparse on one path: build_parser, in
    cli.py, the only place in it or in its command module, _commands.py,
    that imports it."""
    imports, trees = [], {}
    for name in ("cli.py", "_commands.py"):
        path = ROOT / "src" / "extpack" / name
        trees[name] = tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports += [
            (name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "argparse" in [getattr(node, "module", None)] + [alias.name for alias in node.names]
        ]
    (build,) = [node for node in trees["cli.py"].body if getattr(node, "name", None) == "build_parser"]
    assert len(imports) == 1 and imports[0][0] == "cli.py" and build.lineno < imports[0][1] <= build.end_lineno, (
        "argparse is imported at %s" % imports)


def test_only_complexes_reads_a_complex_s_private_fields():
    """A complex's stored action (its t1, the derived triple and the
    orientability bit) is private to complexes: every other library module
    reads it through flag_action and is_orientable."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "extpack").glob("*.py"))}
    owner = ast.parse(sources.pop("complexes.py"))
    # the fields are the underscore names complexes writes: through
    # object.__setattr__, as keywords of __dict__.update(...), or as keys
    # of __dict__[...] = ...
    names = []
    for node in ast.walk(owner):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "__setattr__" and len(node.args) == 3:
                names.append(node.args[1])
            elif node.func.attr == "update" and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "__dict__":
                names += [ast.Constant(kw.arg) for kw in node.keywords if kw.arg]
        elif isinstance(node, ast.Assign):
            names += [
                target.slice for target in node.targets
                if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Attribute)
                and target.value.attr == "__dict__"
            ]
    fields = {
        name.value for name in names
        if isinstance(name, ast.Constant) and isinstance(name.value, str) and name.value.startswith("_")
    }
    assert fields == {"_t1", "_flags", "_orientable", "_cycles"}
    found = [
        "%s:%d %s" % (name, node.lineno, field)
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text, filename=name))
        for field in [
            node.attr if isinstance(node, ast.Attribute)
            else node.value if isinstance(node, ast.Constant) else None
        ]
        if field in fields
    ]
    assert not found, "modules read a complex's private fields: %s" % ", ".join(found)


def test_the_low_index_search_has_one_entry_point():
    """Every low-index search runs through trigroup.iter_low_index_subgroups,
    the one place that builds the kernel's _TriangleSearch; its list form,
    low_index_subgroups, serves the CLI alone."""
    built, listed = [], []
    for path in sorted((ROOT / "src" / "extpack").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "_TriangleSearch":
                    built.append((path.name, getattr(top, "name", None)))
                elif name == "low_index_subgroups":
                    listed.append(path.name)
    assert built == [("trigroup.py", "iter_low_index_subgroups")], built
    assert listed == ["_commands.py"], listed


#: what each cold command may not load; run in a fresh interpreter, since
#: this process has imported the whole package already; only enumerate
#: runs the low-index search, so only enumerate loads its kernel, _lowindex,
#: and only a torsion-free one its block-search helpers, _blocks; only
#: render draws, so only render loads the reflection group, _reflection;
#: bound and enumerate read no complex, so neither loads the least-code
#: pass, _canon, the vertex-cycle readers, _vertices, or the rewrite
#: search, _rewrite; verify only certifies, so it loads neither of the last
#: two
COLD_COMMANDS = (
    (["bound", "--k", "1", "--g", "3"],
     {"complexes", "trigroup", "geometry", "covers", "grafting", "catalog", "_canon", "_reflection",
      "_vertices", "_rewrite"}),
    (["enumerate", "--p", "2", "--q", "3", "--r", "7", "--index", "28"],
     {"complexes", "geometry", "covers", "grafting", "feasibility", "catalog", "_canon", "_reflection",
      "_vertices", "_rewrite", "_blocks"}),
    (["enumerate", "--p", "2", "--q", "3", "--r", "12", "--index", "24", "--torsion-free", "--proper"],
     {"complexes", "geometry", "covers", "grafting", "feasibility", "catalog", "_canon", "_reflection",
      "_vertices", "_rewrite"}),
    (["verify", "X7"], {"trigroup", "geometry", "covers", "grafting", "_vertices", "_rewrite"}),
    (["double-cover", "X9"], {"grafting", "feasibility", "trigroup", "geometry", "_rewrite"}),
    (["cyclic-cover", "X12", "--n", "2"], {"grafting", "feasibility", "trigroup", "geometry", "_rewrite"}),
    (["build", "--N", "41"], {"trigroup", "geometry", "covers"}),
    (["graft", "X8", "--variant", "EG1"], {"trigroup", "geometry", "covers", "feasibility"}),
    (["realize", "--k", "24", "--g", "10"], {"trigroup", "geometry"}),
    (["render", "X7"], {"trigroup", "covers", "grafting", "feasibility", "_rewrite"}),
)

LOADED = (
    "import contextlib, io, json, sys\n"
    "from extpack.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = main(json.loads(sys.argv[1]))\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('extpack'))]))\n"
)


def _loaded(tmp_path, code, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "argv, unused", COLD_COMMANDS,
    ids=[argv[0] + ("-tf" if "--torsion-free" in argv else "") for argv, _ in COLD_COMMANDS],
)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, unused):
    code, modules = _loaded(tmp_path, LOADED, json.dumps(argv))
    assert code == 0
    assert "extpack.cli" in modules
    assert not {"extpack." + name for name in unused} & set(modules), modules
    assert ("extpack._lowindex" in modules) == (argv[0] == "enumerate"), modules
    assert ("extpack._reflection" in modules) == (argv[0] == "render"), modules
    assert ("extpack._blocks" in modules) == ("--torsion-free" in argv), modules


#: a sitecustomize that lists the package's loaded modules when the
#: interpreter exits
LIST_AT_EXIT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules if m.startswith('extpack'))),\n"
    "                              file=sys.stderr))\n"
)


def test_the_program_run_as_a_module_loads_cli_once(tmp_path):
    # python -m extpack.cli runs cli.py as __main__, and no module imports
    # extpack.cli, so the run does not load and execute the file a second
    # time under its package name
    (tmp_path / "sitecustomize.py").write_text(LIST_AT_EXIT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-m", "extpack.cli", "bound", "--k", "1", "--g", "3"],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.startswith("cosh R = 1.93185"), out.stderr
    modules = json.loads(out.stderr.splitlines()[-1])
    assert "extpack.feasibility" in modules, modules
    assert "extpack.cli" not in modules, modules


def test_a_census_loads_neither_the_least_code_pass_nor_geometry(tmp_path):
    # a census certifies complexes and reads no canonical form, no vertex
    # cycle and no graft, so it compiles neither _canon, _vertices nor
    # _rewrite, nor the disk layer
    code = (
        "import json, sys\n"
        "from extpack import complexes as cx\n"
        "for words in ([(1, 2, -1, 2)], [(1, 2, 3, 4, 5, 6, 7), (-1, -2, -3, -4, -5, -6, -7)]):\n"
        "    c = cx.PolygonComplex(words)\n"
        "    cx.vertex_class_sizes(c, cap=3)\n"
        "    cx.verify_extremal(c)\n"
        "    cx.surface_invariants(c)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('extpack'))))\n"
    )
    modules = _loaded(tmp_path, code)
    assert "extpack.complexes" in modules
    assert not {"extpack._canon", "extpack._vertices", "extpack._rewrite", "extpack.geometry",
                "extpack._reflection"} & set(modules), modules


#: the most memory compiling one module of the package may take, in KiB
COMPILE_BUDGET_KIB = 900

COMPILE_PEAK = (
    "import sys, tracemalloc\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    text = fh.read()\n"
    "tracemalloc.start()\n"
    "compile(text, sys.argv[1], 'exec')\n"
    "print(tracemalloc.get_traced_memory()[1])\n"
)


def test_every_module_compiles_within_the_budget():
    """Compiling any module of the package takes at most
    COMPILE_BUDGET_KIB, by tracemalloc's peak over compile() in a fresh
    CPython 3.11 interpreter, one a module: this process has interned the
    package's names already, and would read low.  The figure is that
    interpreter's, and moves with its version.  Where no bytecode is
    cached, a cold op compiles each module it loads from source.  A
    compile's working memory is freed when it ends and reused by the next
    one, so the op's peak follows its largest single compile, not their
    sum, and the budget bounds it."""
    peaks = {}
    for path in sorted((ROOT / "src" / "extpack").glob("*.py")):
        out = subprocess.run(
            [sys.executable, "-c", COMPILE_PEAK, str(path)], capture_output=True, text=True, check=True,
        )
        peaks[path.name] = int(out.stdout) / 1024
    assert len(peaks) >= 10
    over = {name: round(kib, 1) for name, kib in peaks.items() if kib > COMPILE_BUDGET_KIB}
    assert not over, "modules over the %d KiB compile budget: %s" % (COMPILE_BUDGET_KIB, over)


def test_the_group_bridge_loads_both_layers(tmp_path):
    # the subgroup/complex bridge reads complexes inside trigroup's two
    # conversions, and no search kernel; enumerate, which does not read
    # complexes, loads trigroup and _lowindex alone
    from extpack import catalog, trigroup

    record = tmp_path / "X9.json"
    record.write_text(json.dumps(trigroup.complex_to_subgroup(catalog.load_entry("X9").complex).to_json_dict()))
    for argv in (["to-group", "X9"], ["from-group", str(record)]):
        code, modules = _loaded(tmp_path, LOADED, json.dumps(argv))
        assert code == 0 and {"extpack.trigroup", "extpack.complexes"} <= set(modules), (argv, modules)
        assert "extpack._lowindex" not in modules, (argv, modules)


def test_a_cold_render_loads_neither_decimal_nor_fractions(tmp_path):
    # the exact geometry is integer arithmetic on tuples, and feasibility
    # imports fractions inside the radius bound, which only bound reads
    for argv, loaded in (
        (["render", "X7"], []),
        (["realize", "--k", "24", "--g", "10"], []),
        (["build", "--N", "41"], []),
        (["verify", "X7"], []),
        (["bound", "--k", "1", "--g", "3"], ["decimal", "fractions"]),
    ):
        code, modules = _loaded(
            tmp_path, LOADED.replace("m.startswith('extpack')", "m in ('decimal', 'fractions')"),
            json.dumps(argv),
        )
        assert (code, modules) == (0, loaded), argv


def test_a_canonical_command_line_loads_no_argparse(tmp_path):
    # cli._fast parses a well-formed argv from the command table, and every
    # form bench/run.py issues is one; argparse, and the gettext and locale
    # modules it loads, serve help, errors and other forms only
    parsers = LOADED.replace("m.startswith('extpack')", "m in ('argparse', 'gettext', 'locale')")
    for argv in (
        ["verify", "X7"],
        ["render", "X7"],
        ["build", "--N", "41"],
        ["realize", "--k", "24", "--g", "10"],
        ["enumerate", "--p", "2", "--q", "3", "--r", "7", "--index", "28"],
        ["enumerate", "--p", "2", "--q", "3", "--r", "7", "--index", "84", "--torsion-free", "--proper"],
        ["to-group", "X9"],
        ["bound", "--k", "1", "--g", "3"],
        ["realize", "--k", "24", "--g", "10", "-o", "r0_canon.cmplx"],
        ["verify", "r0_canon.cmplx"],
        ["render", "r0_canon.cmplx", "-o", "r0_canon.svg"],
        ["build", "--N", "41", "-o", "r0_graft.cmplx"],
        ["to-group", "X9", "-o", "r0_X9.json"],
        ["from-group", "r0_X9.json"],
    ):
        assert _loaded(tmp_path, parsers, json.dumps(argv)) == [0, []], argv
    assert {"r0_canon.cmplx", "r0_canon.svg", "r0_graft.cmplx", "r0_X9.json"} <= set(os.listdir(tmp_path))
    assert _loaded(tmp_path, parsers, json.dumps(["bound", "--k=1", "--g", "3"])) == [0, ["argparse", "gettext", "locale"]]
    helped = parsers.replace("    code = main(json.loads(sys.argv[1]))\n",
                             "    try:\n        main(json.loads(sys.argv[1]))\n"
                             "    except SystemExit as stop:\n        code = stop.code\n")
    assert _loaded(tmp_path, helped, json.dumps(["verify", "--help"])) == [0, ["argparse", "gettext", "locale"]]


#: a cold run of each kind of command; every one of them creates records
RECORD_COMMANDS = (
    ["bound", "--k", "1", "--g", "3"],
    ["enumerate", "--p", "2", "--q", "3", "--r", "7", "--index", "28"],
    ["verify", "X7"],
    ["build", "--N", "13"],
    ["realize", "--k", "6", "--g", "3"],
    ["render", "X7"],
    ["to-group", "X9"],
)


@pytest.mark.parametrize("argv", RECORD_COMMANDS, ids=[argv[0] for argv in RECORD_COMMANDS])
def test_a_cold_command_loads_neither_dataclasses_nor_inspect(tmp_path, argv):
    code, modules = _loaded(
        tmp_path, LOADED.replace("m.startswith('extpack')", "m in ('dataclasses', 'inspect')"),
        json.dumps(argv),
    )
    assert (code, modules) == (0, [])


def test_importing_the_package_loads_no_submodule(tmp_path):
    # a submodule is still reached as an attribute, loaded on first use
    bare, after = _loaded(
        tmp_path,
        "import json, sys, extpack\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('extpack'))\n"
        "bare = loaded()\n"
        "extpack.errors.InvariantError\n"
        "print(json.dumps([bare, loaded()]))\n",
    )
    assert bare == ["extpack"]
    assert after == ["extpack", "extpack.errors"]


#: every name the package exported when it imported its modules eagerly
PUBLIC_NAMES = {
    "complexes": (
        "ExtremalityReport", "PolygonComplex", "SurfaceInvariants", "VertexCycle",
        "automorphisms", "canonicalize", "least_code", "parse", "serialize",
        "surface_invariants", "verify_extremal", "vertex_cycles",
    ),
    "covers": (
        "VoltageAssignment", "cyclic_cover", "find_nonorientable_cyclic_cover",
        "orientation_double_cover", "realize_spec",
    ),
    "feasibility": (
        "ARITHMETIC_CELL_SIZES", "ExtremalParams", "Uniqueness", "count_feasible_k",
        "dual_extremal_pairs", "feasible_genus_progression", "is_feasible", "is_primitive",
        "line_ln", "packing_radius_bound", "primitive_pair", "uniqueness_class", "universal_k",
    ),
    "geometry": (
        "DiskLayout", "NgonGeometry", "boroczky_equality_check", "equilateral_angle",
        "holonomy_check", "realize", "regular_ngon", "render_svg",
    ),
    "grafting": (
        "GraftSite", "GraftVariant", "apply_graft", "build_primitive", "discover_rewrite",
        "eligible_sites",
    ),
    "trigroup": (
        "SubgroupRecord", "canonical_fuchsian", "classify", "complex_to_subgroup",
        "low_index_subgroups", "subgroup_to_complex",
    ),
}


def test_public_names_resolve_to_their_modules():
    names = {name: module for module, names in PUBLIC_NAMES.items() for name in names}
    assert sorted(extpack.__all__) == sorted(names)
    assert set(names) <= set(dir(extpack))
    for name, module in names.items():
        owner = importlib.import_module("extpack." + module)
        assert getattr(extpack, name) is getattr(owner, name), name
    star: dict = {}
    exec("from extpack import *", star)
    assert all(star[name] is getattr(extpack, name) for name in names)
    assert extpack.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        extpack.no_such_name
    with pytest.raises(ImportError):
        exec("from extpack import no_such_name", {})


def test_the_least_code_names_resolve_to_canon():
    """least_code and automorphisms live in _canon and are complexes names
    too, read through the module __getattr__; the package name and a
    from-import reach the same function.  The names the library reads from
    _canon and _vertices alone do not resolve on complexes."""
    from extpack import _canon, complexes

    for name in ("least_code", "automorphisms"):
        assert getattr(complexes, name) is getattr(_canon, name), name
        imported: dict = {}
        exec("from extpack.complexes import %s as found" % name, imported)
        assert imported["found"] is getattr(_canon, name), name
    assert extpack.least_code is _canon.least_code
    assert extpack.automorphisms is _canon.automorphisms
    with pytest.raises(AttributeError, match="'extpack.complexes' has no attribute 'no_such_name'"):
        complexes.no_such_name
    for name in ("read_polygons", "FORMAT_HEADER", "flag_sides", "_corners"):
        with pytest.raises(AttributeError, match="has no attribute '%s'" % name):
            getattr(complexes, name)


def _top_level_names(tree) -> set:
    """The names a module defines at its top level: its functions, its
    classes and the targets of its assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return names


#: the names whose code lives in a private module but which the benchmark
#: tracer wraps on complexes: complexes resolves them, and the library
#: calls them through complexes, so that the tracer counts every call
TRACED_ON_COMPLEXES = ("canonicalize", "parse", "serialize", "vertex_cycles_with_crossings", "occurrences")


def test_every_library_name_is_read_from_its_home():
    """A library module reads a name of complexes, grafting or geometry
    only where that module defines it: a name whose code lives elsewhere
    (_canon, _vertices, _action, _rewrite, _reflection) is read from that
    module.  The one exception is a name that the benchmark tracer wraps
    on complexes, which the library calls there so that its calls are
    counted."""
    sources = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
               for path in sorted((ROOT / "src" / "extpack").glob("*.py"))}
    homes = {name: _top_level_names(sources[name]) for name in ("complexes", "grafting", "geometry")}
    homes["complexes"] |= set(TRACED_ON_COMPLEXES)
    found = []
    for module, tree in sources.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reads = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            found += ["%s.py:%d %s.%s" % (module, node.lineno, owner, name)
                      for owner, name in reads
                      if owner in homes and owner != module and name not in homes[owner]]
    assert not found, "names read away from their home module: %s" % ", ".join(found)


def test_split_modules_are_leaves(tmp_path):
    """Every module imports at its top, before its first function or
    class, so none ends on an import that closes a cycle; no module
    imports cli; and the modules split off grafting and cli, _rewrite and
    _commands, load neither."""
    late, importers = [], []
    for path in sorted((ROOT / "src" / "extpack").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=path.name)
        first = next((node.lineno for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))), None)
        late += ["%s:%d" % (path.name, node.lineno) for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom)) and first is not None and node.lineno > first]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # the module imported from, and each name as a submodule of it
                base = node.module if not node.level else "extpack." + node.module if node.module else "extpack"
                names = [base] + ["%s.%s" % (base, alias.name) for alias in node.names]
            else:
                continue
            if "extpack.cli" in names:
                importers.append("%s:%d" % (path.name, node.lineno))
    assert not late, "module-level imports below a def or class: %s" % ", ".join(late)
    assert not importers, "modules that import cli: %s" % ", ".join(importers)
    modules = _loaded(
        tmp_path,
        "import json, sys\n"
        "import extpack._rewrite, extpack._commands\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('extpack'))))\n",
    )
    assert {"extpack._rewrite", "extpack._commands"} <= set(modules)
    assert not {"extpack.grafting", "extpack.cli"} & set(modules), modules


#: a fresh interpreter that registers its own exit handler first, so that
#: it runs last, then runs cli.main on sys.argv as the extpack script does;
#: the feasible handler is swapped for one that raises an error main does
#: not catch
FROZEN_AT_EXIT = (
    "import atexit, gc, json, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
    "sys.argv = ['extpack'] + json.loads(sys.argv[1])\n"
    "from extpack import cli\n"
    "if sys.argv[1] == 'feasible':\n"
    "    def fail(args):\n"
    "        raise TypeError('uncaught')\n"
    "    help, _, arguments = cli._COMMANDS['feasible']\n"
    "    cli._COMMANDS['feasible'] = (help, fail, arguments)\n"
    "sys.exit(cli.main())\n"
)


@pytest.mark.parametrize("argv, exit_code", [
    (["bound", "--k", "1", "--g", "3"], 0),
    (["realize", "--k", "4", "--g", "3"], 2),
    (["bound", "--k", "1"], 1),
    (["feasible", "--k", "4", "--g", "4"], 1),
], ids=["success", "domain-error", "usage-error", "uncaught"])
def test_the_program_freezes_the_collector_at_exit(tmp_path, argv, exit_code):
    # as the process's command, main registers gc.freeze with atexit on
    # every way out of it, so the shutdown collections skip what the run
    # leaves; the handler registered before main runs after gc.freeze
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", FROZEN_AT_EXIT, json.dumps(argv)], cwd=tmp_path,
                         env=env, capture_output=True, text=True)
    assert out.returncode == exit_code, out.stderr
    assert out.stderr.endswith("frozen True\n"), out.stderr
    assert ("TypeError: uncaught" in out.stderr) == (argv[0] == "feasible"), out.stderr


def test_a_caller_of_main_keeps_its_collector(capsys):
    # main(argv) runs inside its caller's process, which goes on: it neither
    # freezes the collector nor registers an exit handler
    from extpack import cli

    before = gc.get_freeze_count(), atexit._ncallbacks()
    for argv in (["bound", "--k", "1", "--g", "3"], ["realize", "--k", "4", "--g", "3"]):
        cli.main(argv)
        assert (gc.get_freeze_count(), atexit._ncallbacks()) == before, argv
    with pytest.raises(SystemExit):
        cli.main(["bound", "--k", "1"])
    assert (gc.get_freeze_count(), atexit._ncallbacks()) == before
    capsys.readouterr()


def test_the_library_never_calls_os_exit():
    # os._exit skips the atexit handlers, which bench/launch.py reads the
    # peak resident set from, and the flush of buffered stdout
    found = []
    for path in sorted((ROOT / "src" / "extpack").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=path.name)):
            if (isinstance(node, ast.Attribute) and node.attr == "_exit"
                    or isinstance(node, ast.ImportFrom) and "_exit" in [alias.name for alias in node.names]):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "os._exit in the library: %s" % ", ".join(found)
