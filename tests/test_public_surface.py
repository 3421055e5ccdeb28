"""Every public name of the package has a caller or a place in README.

A public module-level function, class or constant of src/bilinid (the
root __init__ excepted) must be referenced, as a name or an attribute,
somewhere in src/, perfbench/ or tools/ outside its own definition, or be
named in README.md.  So must every public method, classmethod or property
of a public class, outside its own body, or README must name it as
`Class.member`.  A name that only the tests reach is surface no caller
uses.  README is also the registry of the package root: the root exports
exactly the names README calls as `b.<name>`, so every other name has one
import path, from the module that defines it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bilinid"


def _public_definitions(body: list[ast.stmt]) -> dict[str, ast.stmt]:
    """Public names defined by the statements of a module or class body,
    each with its defining statement."""
    defs = {}
    for node in body:
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


def _references(tree: ast.AST) -> Counter:
    """How often each name or attribute name is used in tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def uncalled_public_names() -> list[str]:
    """module.name and module.Class.member of every public name with
    neither a caller outside its own definition nor a README mention."""
    trees = {path: ast.parse(path.read_text())
             for directory in ("src", "perfbench", "tools")
             for path in sorted((ROOT / directory).rglob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    readme = (ROOT / "README.md").read_text()
    readme_words = set(re.findall(r"\w+", readme))

    def called(name: str, node: ast.stmt) -> bool:
        return used[name] > _references(node)[name]

    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, node in _public_definitions(trees[path].body).items():
            if not called(name, node) and name not in readme_words:
                unused.append(f"{path.stem}.{name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member, own in _public_definitions(node.body).items():
                if (isinstance(own, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not called(member, own)
                        and not re.search(rf"\b{name}\.{member}\b", readme)):
                    unused.append(f"{path.stem}.{name}.{member}")
    return unused


def root_exports() -> set[str]:
    """Public names the package root imports or defines."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {name for name in names | set(_public_definitions(tree.body))
            if not name.startswith("_")}


def test_every_public_name_has_a_caller_or_a_readme_entry():
    assert uncalled_public_names() == []


def test_the_root_exports_exactly_the_names_readme_calls_through_it():
    readme = set(re.findall(r"\bb\.(\w+)", (ROOT / "README.md").read_text()))
    assert sorted(root_exports()) == sorted(readme)


def test_a_name_used_only_in_its_own_definition_is_flagged(tmp_path, monkeypatch):
    # a recursive function or method refers to itself, which is not a caller
    package = tmp_path / "src" / "bilinid"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "LIMIT = 3\n\n"
        "def used(k):\n    return LIMIT + k\n\n"
        "def lonely(k):\n    return lonely(k - 1) if k else used(0)\n\n"
        "class Shown:\n"
        "    size: int = 0\n\n"
        "    def _private(self):\n        return 0\n\n"
        "    def shown(self):\n        return 1\n\n"
        "    def called(self):\n        return 2\n\n"
        "    def loop(self, k):\n        return self.loop(k - 1) if k else 0\n\n"
        "    @property\n    def width(self):\n        return 0\n")
    (tmp_path / "README.md").write_text("`Shown` is documented, and so is `Shown.shown()`.\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(
        "from bilinid import mod\nmod.used(1)\nmod.Shown().called()\n")
    (tmp_path / "perfbench").mkdir()
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    monkeypatch.setitem(globals(), "PACKAGE", package)
    assert uncalled_public_names() == ["mod.lonely", "mod.Shown.loop", "mod.Shown.width"]
