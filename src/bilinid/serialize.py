"""Write-only flat files: CSV for matrices, trajectories, sweeps and
reports, JSON for reports.

Every CSV line is written by save_csv, and every cell by one rule: a float
is its shortest round-trip repr, which np.loadtxt and float() read back
bitwise, NaN and infinities included, and anything else is str().  So
identical data yields identical bytes.

- Matrix CSV (save_matrix): a single comment header `# rows=<r> cols=<c>`
  followed by comma-separated rows.
- Trajectory CSV (save_trajectory): a column-name header `t,u_1..u_p,y`
  plus optional diagnostic columns `x_1..x_n,w_1..w_n,z`.
- Sweep CSVs (the CLI's `exp` commands): one row per trial under
  experiments.TRIAL_COLUMNS, and one per cell under
  experiments.AGG_COLUMNS, plus `at_threshold` for double-descent.
- Report CSV (save_report with fmt "csv"): `key,value` rows of a nested
  report, its keys joined by "." in sorted order.

write_text writes all.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np

from .exceptions import NumericalError
from .sysmodel import Trajectory


def write_text(path, text: str) -> None:
    """Write text to path, replacing an existing regular file.

    A regular file is unlinked first and the text goes to a new file of
    the same name.  On ext4 (default auto_da_alloc), closing a file that
    was truncated over existing data forces a flush of tens of
    milliseconds, and so does renaming over one; unlinking first makes a
    rewrite cost what a first write costs.  Anything else is written
    through as it stands: a missing path is created, a symlink updates
    its target and stays a link, and a device or FIFO receives the text.
    A regular file that may not be unlinked (in a directory the user
    cannot write, say) is truncated and rewritten in place.

    Because the file is a new inode, a hard link to the old output and a
    reader that holds it open keep the old bytes, and the new file takes
    its permissions from the umask.  Nothing is flushed: a system crash
    soon after a rewrite can leave the file empty or missing, as one soon
    after a first write can.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except (FileNotFoundError, PermissionError):
        pass
    Path(path).write_text(text)


def _cell(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def save_csv(path, columns, rows) -> None:
    """Write the header line of columns and one line per row, every cell by
    the one cell rule (module docstring)."""
    lines = [",".join(columns)]
    lines += [",".join(map(_cell, row)) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def save_matrix(path, M: np.ndarray) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    # the header line is the one comment cell
    save_csv(path, [f"# rows={M.shape[0]} cols={M.shape[1]}"], M.tolist())


def save_trajectory(path, traj: Trajectory) -> None:
    """Write traj; a u, y, x, w or z value that is not finite raises NumericalError first."""
    p = traj.p
    cols = ["t"] + [f"u_{i+1}" for i in range(p)] + ["y"]
    diag = traj.has_diagnostics
    arrays = (traj.u, traj.y, traj.x, traj.w, traj.z) if diag else (traj.u, traj.y)
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"{path}: the trajectory holds a value that is not finite")
    blocks = [traj.u, traj.y[:, None]]
    if diag:
        n = traj.x.shape[1]
        cols += [f"x_{i+1}" for i in range(n)] + [f"w_{i+1}" for i in range(n)] + ["z"]
        # w has T entries; the final row has no process-noise draw
        w = np.vstack([traj.w, np.full((1, n), np.nan)])
        blocks += [traj.x, w, traj.z[:, None]]
    values = np.hstack(blocks).tolist()
    save_csv(path, cols, ([t, *row] for t, row in enumerate(values)))


def save_json(path, obj: dict) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def save_report(path, report: dict, fmt: str) -> None:
    """Write a (possibly nested) report as JSON, or with fmt "csv" as
    key,value rows."""
    if fmt != "csv":
        save_json(path, report)
        return
    rows = []

    def walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        else:
            rows.append((prefix.rstrip("."), obj))

    walk("", report)
    save_csv(path, ("key", "value"), rows)
