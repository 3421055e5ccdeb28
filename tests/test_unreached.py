"""tools/unreached.py reads the lines a trace report marks as never run,
and fails when it finds one."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unreached.py"
spec = importlib.util.spec_from_file_location("unreached", TOOL)
unreached = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unreached)


def test_unreached_lists_only_the_marked_lines():
    # trace --missing prefixes a run line with its count, a line that never
    # ran with >>>>>>, and a line that holds no code with blanks
    cover = ('       """Doc."""\n'
             "    3: def f(x):\n"
             "    3:     if x < 0:\n"
             '>>>>>>         raise ValueError("x < 0")\n'
             "    3:     return x\n"
             "       \n"
             ">>>>>> g = f(1) if False else 0\n")
    assert unreached.unreached(cover) == [(4, 'raise ValueError("x < 0")'),
                                          (7, "g = f(1) if False else 0")]


def test_report_exits_1_exactly_when_it_lists_a_line(tmp_path, capsys):
    (tmp_path / "src.bilinid.cli.cover").write_text("    2: x = 1\n")
    (tmp_path / "numpy.core.cover").write_text(">>>>>> y = 2\n")  # not the package
    assert unreached.report(tmp_path) == 0
    assert capsys.readouterr().out == ""
    (tmp_path / "bilinid.sysmodel.cover").write_text("    1: a = 1\n>>>>>> raise E\n")
    assert unreached.report(tmp_path) == 1
    assert capsys.readouterr().out == "sysmodel:2: raise E\n"
