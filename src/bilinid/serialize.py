"""Write-only flat files: CSV for matrices and trajectories, JSON for reports.

Matrix CSV carries a single comment header `# rows=<r> cols=<c>` followed
by comma-separated rows.  Trajectory CSV has a column-name header
`t,u_1..u_p,y` plus optional diagnostic columns `x_1..x_n,w_1..w_n,z`.
Floats are written with shortest round-trip repr, which np.loadtxt reads
bitwise, so identical data yields identical bytes.  write_text writes all.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np

from .exceptions import NumericalError
from .sysmodel import Trajectory


def _fmt(x: float) -> str:
    return repr(float(x))


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


def matrix_to_lines(M: np.ndarray) -> list[str]:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"# rows={M.shape[0]} cols={M.shape[1]}"]
    for row in M:
        lines.append(",".join(_fmt(x) for x in row))
    return lines


def save_matrix(path, M: np.ndarray) -> None:
    write_text(path, "\n".join(matrix_to_lines(M)) + "\n")


def save_trajectory(path, traj: Trajectory) -> None:
    """Write traj; a u, y, x, w or z value that is not finite raises NumericalError first."""
    p = traj.p
    cols = ["t"] + [f"u_{i+1}" for i in range(p)] + ["y"]
    diag = traj.has_diagnostics
    arrays = (traj.u, traj.y, traj.x, traj.w, traj.z) if diag else (traj.u, traj.y)
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"{path}: the trajectory holds a value that is not finite")
    if diag:
        n = traj.x.shape[1]
        cols += [f"x_{i+1}" for i in range(n)] + [f"w_{i+1}" for i in range(n)] + ["z"]
    lines = [",".join(cols)]
    for t in range(traj.T + 1):
        row = [str(t)] + [_fmt(v) for v in traj.u[t]] + [_fmt(traj.y[t])]
        if diag:
            row += [_fmt(v) for v in traj.x[t]]
            # w has T entries; the final row has no process-noise draw
            w_t = traj.w[t] if t < traj.T else np.full(traj.w.shape[1], np.nan)
            row += [_fmt(v) for v in w_t]
            row += [_fmt(traj.z[t])]
        lines.append(",".join(row))
    write_text(path, "\n".join(lines) + "\n")


def save_json(path, obj: dict) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def report_to_flat_csv(report: dict) -> str:
    """Two-column key,value rendering of a (possibly nested) report dict."""
    lines = ["key,value"]

    def walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk(f"{prefix}{k}.", obj[k])
        else:
            lines.append(f"{prefix.rstrip('.')},{obj}")

    walk("", report)
    return "\n".join(lines) + "\n"
