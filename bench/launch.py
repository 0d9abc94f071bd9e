"""Cold-start entry for one extpack CLI op, standing in for the installed
``extpack`` console script.

    python3 bench/launch.py SRC PEAK_FILE <extpack arguments>

Imports extpack from SRC, runs ``extpack.cli.main`` and, at exit (also
after a traceback), writes the process's peak resident set in KiB to
PEAK_FILE.  The peak is read from /proc because the maxrss that wait4
reports for a child also counts the parent's pages it held between fork
and exec, which would make the harness's own size the measurement.
"""

import atexit
import sys


def peak_rss_kb() -> int:
    """VmHWM of this process image."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _write_peak(path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%d\n" % peak_rss_kb())


if __name__ == "__main__":
    src, peak_file = sys.argv[1:3]
    del sys.argv[1:3]
    atexit.register(_write_peak, peak_file)
    sys.path.insert(0, src)
    from extpack.cli import main

    sys.exit(main())
