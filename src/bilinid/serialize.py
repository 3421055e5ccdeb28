"""Flat-file formats: CSV for matrices and trajectories, JSON for reports.

Matrix CSV carries a single comment header `# rows=<r> cols=<c>` followed
by comma-separated rows.  Trajectory CSV has a column-name header
`t,u_1..u_p,y` plus optional diagnostic columns `x_1..x_n,w_1..w_n,z`.
Floats are written with shortest round-trip repr, so rewriting identical
data yields byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .exceptions import ParameterError
from .sysmodel import Trajectory


def _fmt(x: float) -> str:
    return repr(float(x))


def matrix_to_lines(M: np.ndarray) -> list[str]:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"# rows={M.shape[0]} cols={M.shape[1]}"]
    for row in M:
        lines.append(",".join(_fmt(x) for x in row))
    return lines


def save_matrix(path, M: np.ndarray) -> None:
    Path(path).write_text("\n".join(matrix_to_lines(M)) + "\n")


def load_matrix(path) -> np.ndarray:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ParameterError(f"{path}: missing '# rows=<r> cols=<c>' header")
    header = lines[0].lstrip("#").split()
    fields = dict(kv.split("=") for kv in header)
    rows, cols = int(fields["rows"]), int(fields["cols"])
    data = [[float(x) for x in line.split(",")] for line in lines[1:] if line.strip()]
    M = np.asarray(data, dtype=float)
    if M.size == 0:
        M = M.reshape(rows, cols)
    if M.shape != (rows, cols):
        raise ParameterError(f"{path}: header says {(rows, cols)}, data is {M.shape}")
    return M


def save_trajectory(path, traj: Trajectory) -> None:
    p = traj.p
    cols = ["t"] + [f"u_{i+1}" for i in range(p)] + ["y"]
    diag = traj.has_diagnostics
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
    Path(path).write_text("\n".join(lines) + "\n")


def load_trajectory(path) -> Trajectory:
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ParameterError(f"{path}: empty trajectory file")
    header = lines[0].split(",")
    if header[0] != "t" or "y" not in header:
        raise ParameterError(f"{path}: not a trajectory CSV")
    p = sum(1 for h in header if h.startswith("u_"))
    n = sum(1 for h in header if h.startswith("x_"))
    diag = n > 0
    data = np.asarray([[float(x) for x in line.split(",")] for line in lines[1:]])
    T = data.shape[0] - 1
    u = data[:, 1:1 + p]
    y = data[:, 1 + p]
    if not diag:
        return Trajectory(u=u, y=y, T=T)
    x = data[:, 2 + p:2 + p + n]
    w = data[:T, 2 + p + n:2 + p + 2 * n]
    z = data[:, 2 + p + 2 * n]
    return Trajectory(u=u, y=y, T=T, x=x, w=w, z=z)


def save_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
