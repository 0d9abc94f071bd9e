"""The two parsers of an extpack command line, both read from the command
table cli._COMMANDS: _fast, which parses a canonical line without
importing argparse, and build_parser, the one argparse parser, which
parses every other line.  cli.main tries _fast first.

They live apart from cli, which every command compiles, so that no
compile of a cold command is large.  cli imports both names at its top,
and each parser imports cli when it runs, to read the table, the usage
exit code and the description: loading this module loads no module that
imports it.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace


def build_parser() -> argparse.ArgumentParser:
    import argparse

    from . import cli

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print("%s: error: %s" % (self.prog, message), file=sys.stderr)
            raise SystemExit(cli.USAGE_EXIT)

    top = _Parser(prog="extpack", description=cli.__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in cli._COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return top


def _fast(argv: list[str]):
    """build_parser().parse_args(argv)'s namespace, read from cli._COMMANDS,
    when argv is canonical: the command, then its declared options by their
    exact names, each at most once and each followed by its value as its own
    word, its positional and every required option, with values that their
    type and choices accept.  None otherwise, for build_parser's parser to
    parse: help, an abbreviation, '--opt=value', a repeat, any other word or
    value that starts with '-' ('-', '--', a negative number), a missing or
    extra argument, or a rejected value."""
    from . import cli

    if not argv or argv[0] not in cli._COMMANDS:
        return None
    values = {"command": argv[0]}
    options, positionals = {}, []
    for flag, kwargs in [("--output", {})] + cli._COMMANDS[argv[0]][2]:
        dest = flag.lstrip("-").replace("-", "_")
        values[dest] = kwargs.get("default", False if "action" in kwargs else None)
        if flag.startswith("-"):
            options[flag] = dest, kwargs
        else:
            positionals.append((dest, kwargs))
    options["-o"] = options["--output"]
    given, i = set(), 1
    while i < len(argv):
        if not argv[i].startswith("-"):
            if not positionals:
                return None
            values[positionals.pop(0)[0]] = argv[i]
            i += 1
            continue
        dest, kwargs = options.get(argv[i], (None, None))
        if dest is None or dest in given:
            return None
        given.add(dest)
        i += 1
        if "action" in kwargs:
            values[dest] = True
            continue
        if kwargs.get("nargs") == "*":
            end = next((j for j in range(i, len(argv)) if argv[j].startswith("-")), len(argv))
        elif i < len(argv) and not argv[i].startswith("-"):
            end = i + 1
        else:
            return None
        try:
            words = [kwargs.get("type", str)(w) for w in argv[i:end]]
        except ValueError:
            return None
        if "choices" in kwargs and any(w not in kwargs["choices"] for w in words):
            return None
        values[dest] = words if "nargs" in kwargs else words[0]
        i = end
    if any("nargs" not in kwargs for _, kwargs in positionals) or any(
            kwargs.get("required") and dest not in given for dest, kwargs in options.values()):
        return None
    return SimpleNamespace(**values)
