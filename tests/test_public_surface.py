"""Every public name of the package has a caller or a place in README.

A public module-level function, class or constant of src/bilinid (the
root __init__ excepted) must be referenced, as a name or an attribute,
somewhere in src/, perfbench/ or tools/ outside its own definition, or be
named in README.md.  A name that only the tests reach is surface no caller
uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bilinid"


def _public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Public module-level names of tree, each with its defining statement."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        defs.update((name, node) for name in names if not name.startswith("_"))
    return defs


def _references(tree: ast.AST) -> set[str]:
    """Names and attribute names used anywhere in tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def uncalled_public_names() -> list[str]:
    """module.name of every public name with neither a caller nor a README mention."""
    trees = {path: ast.parse(path.read_text())
             for directory in ("src", "perfbench", "tools")
             for path in sorted((ROOT / directory).rglob("*.py"))}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        elsewhere = set().union(*(_references(tree) for p, tree in trees.items() if p != path))
        statements = [(node, _references(node)) for node in trees[path].body]
        for name, own in _public_definitions(trees[path]).items():
            used = name in elsewhere or any(name in refs for node, refs in statements
                                            if node is not own)
            if not used and name not in readme:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_caller_or_a_readme_entry():
    assert uncalled_public_names() == []


def test_a_name_used_only_in_its_own_definition_is_flagged(tmp_path, monkeypatch):
    # a recursive function refers to itself, which is not a caller
    package = tmp_path / "src" / "bilinid"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "LIMIT = 3\n\n"
        "def used(k):\n    return LIMIT + k\n\n"
        "def lonely(k):\n    return lonely(k - 1) if k else used(0)\n\n"
        "class Shown:\n    pass\n")
    (tmp_path / "README.md").write_text("`Shown` is documented.\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text("from bilinid import mod\nmod.used(1)\n")
    (tmp_path / "perfbench").mkdir()
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "PACKAGE", package)
    assert uncalled_public_names() == ["mod.lonely"]
