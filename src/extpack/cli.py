"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 infeasible or malformed input, a failed
certificate, or a file that cannot be read or written, 3 exhausted
resource caps, 4 internal error (a failed library invariant, any other
RuntimeError, or an arithmetic or lookup failure inside the library,
reported without a traceback).  Complex files are read from a path, from
the shipped catalog by name (X7, X12, ...), or from stdin when the
argument is omitted or '-'; results go to stdout unless -o is given, so
commands compose in pipelines.  Each command is declared once, in
_COMMANDS, and imports the library modules it runs inside its handler, so
a cold run loads only those.

Two paths parse a command line, both from _COMMANDS.  _fast parses a
canonical one, as scripts and pipelines write it, without importing
argparse and the gettext and locale modules it loads; the one argparse
parser, from build_parser, parses every other line, so help, usage and
error output are argparse's own.  The handlers, _COMMANDS and the exit
codes live in the private module _commands, which imports no cli, so
`python -m extpack.cli` loads this file once, as __main__.

Run as the process's command (argv None), main registers gc.freeze with
atexit, so the interpreter's shutdown collections skip the objects the
run leaves, which the OS reclaims anyway; atexit handlers and the flush
of stdout still run.  A caller in process passes argv and keeps its
collector, for its process goes on.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from ._commands import _COMMANDS, DOMAIN_EXIT, INTERNAL_EXIT, RESOURCE_EXIT, USAGE_EXIT
from .errors import EnumerationCapError, UnknownCatalogEntryError


def _json_chunks(payload):
    """The payload as indented, key-sorted JSON and a newline, in batches of
    1024 encoder chunks: joining a large payload's chunks at once, as
    json.dumps does, holds all of them in memory.  The payload may hold the
    library's records (SubgroupRecord, ExtremalityReport), each written as
    its to_json_dict() when the encoder reaches it, so no record's dict
    outlives its own chunks."""
    import itertools
    import json

    encoder = json.JSONEncoder(indent=2, sort_keys=True, default=lambda rec: rec.to_json_dict())
    chunks = itertools.chain(encoder.iterencode(payload), "\n")
    return iter(lambda: "".join(itertools.islice(chunks, 1024)), "")


def _write(texts, out: str | None) -> None:
    """Write an iterable of strings to the file out, or to stdout when out
    is None or '-'."""
    if out is None or out == "-":
        sys.stdout.writelines(texts)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(texts)


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print("%s: error: %s" % (self.prog, message), file=sys.stderr)
            raise SystemExit(USAGE_EXIT)

    top = _Parser(prog="extpack", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return top


def _fast(argv: list[str]):
    """build_parser().parse_args(argv)'s namespace, read from _COMMANDS,
    when argv is canonical: the command, then its declared options by their
    exact names, each at most once and each followed by its value as its own
    word, its positional and every required option, with values that their
    type and choices accept.  None otherwise, for build_parser's parser to
    parse: help, an abbreviation, '--opt=value', a repeat, any other word or
    value that starts with '-' ('-', '--', a negative number), a missing or
    extra argument, or a rejected value."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values = {"command": argv[0]}
    options, positionals = {}, []
    for flag, kwargs in [("--output", {})] + _COMMANDS[argv[0]][2]:
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


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.  With argv None it
    is the process's command and freezes the collector at exit; a caller
    that passes argv keeps its own."""
    if argv is None:
        import atexit, gc

        atexit.register(gc.freeze)
        argv = sys.argv[1:]
    args = _fast(argv) or build_parser().parse_args(argv)
    # exit codes by error family: the library's domain errors are ValueErrors
    # but for UnknownCatalogEntryError, a KeyError caught before LookupError;
    # EnumerationCapError, InvariantError and RewriteSearchError are
    # RuntimeErrors, the first caught before the rest
    try:
        code, payload, text = _COMMANDS[args.command][1](args)
        json_out = text is None or getattr(args, "json", False)
        _write(_json_chunks(payload) if json_out else [text], args.output)
        return code
    except (ValueError, OSError, UnknownCatalogEntryError) as err:
        print("error: %s" % err, file=sys.stderr)
        return DOMAIN_EXIT
    except EnumerationCapError as err:
        print("resource limit: %s" % err, file=sys.stderr)
        return RESOURCE_EXIT
    except (RuntimeError, ArithmeticError, LookupError) as err:
        print("internal error: %s" % err, file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
