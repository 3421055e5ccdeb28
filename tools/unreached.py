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
CLI subprocess tests run.
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


def main() -> int:
    ignore = os.pathsep.join(sorted({sysconfig.get_path(name)
                                     for name in ("stdlib", "platstdlib", "purelib", "platlib")}))
    with tempfile.TemporaryDirectory() as coverdir:
        subprocess.run([sys.executable, "-m", "trace", "--count", "--missing",
                        "--coverdir", coverdir, "--ignore-dir", ignore,
                        "--module", "pytest", "-q", "-p", "no:cacheprovider"],
                       cwd=ROOT, stdout=sys.stderr, check=False)
        return report(Path(coverdir))


if __name__ == "__main__":
    sys.exit(main())
