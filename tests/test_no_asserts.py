"""The library states its checks as explicit raises: ``python -O`` strips
every ``assert`` statement, and a check that can vanish is no check."""

import ast
import pathlib

import extpack


def test_library_has_no_assert_statements():
    sources = sorted(pathlib.Path(extpack.__file__).parent.glob("*.py"))
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
