import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

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
