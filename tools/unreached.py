"""List the lines of src/bilinid that no tier-1 test executes.

Runs the tier-1 suite under the standard library's trace module (the
package does not depend on coverage), with the stdlib and site-packages
ignored and the reports written to a temporary directory, and prints
each library line that trace marks as never executed, as
`module:line: source`.  pytest's own output goes to stderr.  Run from
anywhere:

    python3 tools/unreached.py

It takes about three times as long as tier-1 alone.  It exits 1 when it
lists a line and 0 when every library line ran, whatever the tests do.
trace counts lines, not branches, and it does not see the code that the
CLI subprocess tests run.  pytest loads this file as a plugin, whose
hooks put trace's function back before a test if an earlier one lost it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the prefix trace --missing gives a line that is executable but never ran
MISSING = ">>>>>> "


def unreached(cover_text: str) -> list[tuple[int, str]]:
    """(line number, source) of every line that a trace --missing report
    (a .cover file) marks as never executed."""
    return [(number, line[len(MISSING):].strip())
            for number, line in enumerate(cover_text.splitlines(), 1)
            if line.startswith(MISSING)]


def report(coverdir: Path) -> int:
    """Print every unreached line of the package's .cover files in
    coverdir; 1 if it printed one, else 0."""
    listed = 0
    # a report is named by the module's dotted path from the nearest
    # sys.path entry: bilinid.cli.cover, or src.bilinid.cli.cover
    for cover in sorted(coverdir.glob("*bilinid.*.cover")):
        module = cover.stem.rpartition("bilinid.")[2]
        for number, source in unreached(cover.read_text()):
            print(f"{module}:{number}: {source}")
            listed += 1
    return 1 if listed else 0


# the trace function that trace installed, kept by pytest_configure
_tracer: dict = {}


def pytest_configure(config) -> None:
    """pytest hook: keep the trace function that trace installed."""
    _tracer["function"] = sys.gettrace()


def pytest_runtest_setup(item) -> None:
    """pytest hook: install trace's function again if an earlier test lost
    it.  CPython drops a trace function that raises, and trace's raises
    RecursionError when a garbage collection runs a finalizer at the
    recursion limit, as in the config test that nests 100,000 JSON arrays;
    trace would then count no later test."""
    if sys.gettrace() is None:
        sys.settrace(_tracer["function"])


def main() -> int:
    ignore = os.pathsep.join(sorted({sysconfig.get_path(name)
                                     for name in ("stdlib", "platstdlib", "purelib", "platlib")}))
    # pytest imports this file as the plugin "unreached"
    path = os.pathsep.join(filter(None, [str(ROOT / "tools"), os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as coverdir:
        subprocess.run([sys.executable, "-m", "trace", "--count", "--missing",
                        "--coverdir", coverdir, "--ignore-dir", ignore,
                        "--module", "pytest", "-q", "-p", "no:cacheprovider", "-p", "unreached"],
                       cwd=ROOT, stdout=sys.stderr, check=False,
                       env={**os.environ, "PYTHONPATH": path})
        return report(Path(coverdir))


if __name__ == "__main__":
    sys.exit(main())
