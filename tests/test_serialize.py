"""The one output writer, serialize.write_text, the one CSV writer,
serialize.save_csv, and the CLI outputs they write.

A regular file is replaced (unlinked, then created), anything else is
written through; every file the package writes goes through this writer,
and every CSV line and cell through save_csv.
"""

import ast
import math
import os
import stat
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bilinid import serialize
from bilinid.cli import main

SRC = Path(serialize.__file__).resolve().parent


def test_write_text_creates_missing_path(tmp_path):
    path = tmp_path / "new.csv"
    serialize.write_text(path, "a,b\n")
    assert path.read_text() == "a,b\n"


def test_write_text_rewrites_in_place_a_file_it_may_not_unlink(tmp_path, monkeypatch):
    out, old = tmp_path / "out.csv", tmp_path / "old.csv"
    serialize.write_text(out, "first\n")
    os.link(out, old)

    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(os, "unlink", refuse)
    serialize.write_text(out, "second\n")
    assert os.path.samefile(out, old)
    assert old.read_text() == "second\n"


@given(arrays(float, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4),
              elements=st.floats(width=64)))
def test_save_load_save_matrix_is_byte_identical(tmp_path_factory, M):
    # the format is write-only; np.loadtxt reads it back, NaN and inf included
    first, second = (tmp_path_factory.getbasetemp() / f"{name}.csv"
                     for name in ("first", "second"))
    serialize.save_matrix(first, M)
    rows, cols = (int(field.split("=")[1]) for field in
                  first.read_text().splitlines()[0].lstrip("# ").split())
    with warnings.catch_warnings():
        # a matrix with no entries has no data line, which loadtxt warns about
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        loaded = np.loadtxt(first, delimiter=",", ndmin=2).reshape(rows, cols)
    serialize.save_matrix(second, loaded)
    assert second.read_bytes() == first.read_bytes()
    assert np.array_equal(loaded, M, equal_nan=True)


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["pe-check"],
    ["pe-check", "--format", "csv"],
    ["pe-campaign"],
    ["validate"],
], ids=["simulate", "pe-check json", "pe-check csv", "pe-campaign", "validate"])
def test_cli_out_dev_null(config_file, command):
    assert main([*command, "--config", str(config_file), "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_cli_symlinked_out_writes_through_the_link(config_file, tmp_path):
    target, link, direct = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "direct.json"
    target.write_text("stale\n")
    link.symlink_to(target)
    assert main(["pe-check", "--config", str(config_file), "--out", str(link)]) == 0
    assert main(["pe-check", "--config", str(config_file), "--out", str(direct)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == direct.read_bytes()


def test_cli_rerun_leaves_a_hard_link_to_the_previous_output(config_file, tmp_path):
    # the output is replaced, not truncated in place: the link keeps the old inode
    out, old = tmp_path / "cert.json", tmp_path / "old.json"
    assert main(["pe-check", "--config", str(config_file), "--out", str(out)]) == 0
    first = out.read_bytes()
    os.link(out, old)
    assert main(["pe-check", "--config", str(config_file), "--seed", "4",
                 "--out", str(out)]) == 0
    assert old.read_bytes() == first
    assert out.read_bytes() != first


def test_cli_out_naming_a_directory_exits_3(config_file, tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    assert main(["pe-check", "--config", str(config_file), "--out", str(target)]) == 3
    assert target.is_dir()
    assert "i/o failure" in capsys.readouterr().err


# Calls that write a file other than through serialize.write_text.
WRITE_METHODS = {"write_text", "write_bytes", "tofile", "savetxt"}


def _is_writer(func: ast.expr) -> bool:
    """serialize.write_text itself: write_text(...) or serialize.write_text(...)."""
    if isinstance(func, ast.Name):
        return func.id == "write_text"
    return (isinstance(func, ast.Attribute) and func.attr == "write_text"
            and isinstance(func.value, ast.Name) and func.value.id == "serialize")


def _open_mode(call: ast.Call) -> ast.expr | None:
    # open(path, mode) as a function; path.open(mode) as a method
    position = 1 if isinstance(call.func, ast.Name) else 0
    if len(call.args) > position:
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg in ("mode", "flags")), None)


def file_writes(tree: ast.AST, exempt=()) -> list[int]:
    """Line of every call in tree that can write a file, outside the nodes in exempt."""
    skip = {id(node) for root in exempt for node in ast.walk(root)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip or _is_writer(node.func):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in WRITE_METHODS:
            lines.append(node.lineno)
        elif name == "open":
            mode = _open_mode(node)
            read_only = mode is None or (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and set(mode.value) <= set("rbt"))
            if not read_only:
                lines.append(node.lineno)
    return sorted(lines)


def test_file_writes_detects_every_way_of_writing():
    tree = ast.parse(
        "Path(p).write_text(s)\n"
        "p.write_bytes(b)\n"
        "open(p, 'w')\n"
        "open(p, mode='a')\n"
        "p.open('x')\n"
        "os.open(p, os.O_WRONLY)\n"
        "arr.tofile(p)\n"
        "open(p)\n"
        "open(p, 'rb')\n"
        "serialize.write_text(p, s)\n"
        "write_text(p, s)\n")
    assert file_writes(tree) == [1, 2, 3, 4, 5, 6, 7]


def test_only_serialize_write_text_writes_files():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = []
        if path.name == "serialize.py":
            exempt = [node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "write_text"]
            assert len(exempt) == 1
        lines = file_writes(tree, exempt)
        if lines:
            found[path.name] = lines
    assert found == {}


def csv_formatting(tree: ast.AST) -> list[int]:
    """Line of every call in tree that joins cells with "," or takes a repr."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        joins_cells = (isinstance(func, ast.Attribute) and func.attr == "join"
                       and isinstance(func.value, ast.Constant) and func.value.value == ",")
        if joins_cells or (isinstance(func, ast.Name) and func.id == "repr"):
            lines.append(node.lineno)
    return sorted(lines)


def test_csv_formatting_detects_joins_and_reprs():
    tree = ast.parse(
        '",".join(cells)\n'
        "repr(x)\n"
        '", ".join(names)\n'
        '"\\n".join(lines)\n'
        "f'{x!r}'\n")
    assert csv_formatting(tree) == [1, 2]


def test_only_serialize_formats_csv_cells():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = csv_formatting(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            found[path.name] = lines
    assert set(found) == {"serialize.py"}


def _same_float(a: float, b: float) -> bool:
    """a and b are the same float bitwise, or both NaN (repr keeps no NaN payload)."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


_floats = st.floats(width=64, allow_subnormal=True)
_cells = st.one_of(
    _floats,
    _floats.map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-308]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=","),
            max_size=8))


@given(st.lists(st.lists(_cells, min_size=1, max_size=5), max_size=5))
def test_save_csv_floats_read_back_bitwise_and_the_rest_as_str(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    serialize.save_csv(path, ("a", "b"), rows)
    lines = path.read_text().split("\n")
    assert lines[0] == "a,b" and lines[-1] == ""
    assert len(lines) == len(rows) + 2
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        assert len(cells) == len(row)
        for value, cell in zip(row, cells):
            if isinstance(value, float):
                assert _same_float(float(cell), value)
            else:
                assert cell == str(value)
