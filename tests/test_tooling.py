import ast
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
    """The CLI runs on the library's public names: it reads no
    underscore-prefixed attribute of an extpack module."""
    path = ROOT / "src" / "extpack" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in (None, "extpack")
        for alias in node.names
    }
    assert "grafting" in modules
    found = [
        "cli.py:%d %s.%s" % (node.lineno, node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(node.value, ast.Name) and node.value.id in modules
    ]
    assert not found, "the CLI reads private library names: %s" % ", ".join(found)


#: what each cold command may not load; run in a fresh interpreter, since
#: this process has imported the whole package already
COLD_COMMANDS = (
    (["bound", "--k", "1", "--g", "3"],
     {"complexes", "trigroup", "geometry", "covers", "grafting", "catalog"}),
    (["enumerate", "--p", "2", "--q", "3", "--r", "7", "--index", "28"],
     {"geometry", "covers", "grafting", "feasibility", "catalog"}),
    (["verify", "X7"], {"trigroup", "geometry", "covers", "grafting"}),
    (["double-cover", "X9"], {"grafting", "feasibility", "trigroup", "geometry"}),
    (["cyclic-cover", "X12", "--n", "2"], {"grafting", "feasibility", "trigroup", "geometry"}),
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


@pytest.mark.parametrize("argv, unused", COLD_COMMANDS, ids=[argv[0] for argv, _ in COLD_COMMANDS])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, unused):
    code, modules = _loaded(tmp_path, LOADED, json.dumps(argv))
    assert code == 0
    assert "extpack.cli" in modules
    assert not {"extpack." + name for name in unused} & set(modules), modules


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
        "DiskLayout", "Isometry", "NgonGeometry", "boroczky_equality_check",
        "equilateral_angle", "holonomy_check", "realize", "regular_ngon", "render_svg",
        "rotation_pi_about",
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
