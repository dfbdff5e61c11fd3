"""Every function, class and public method in the package is reached by
the package itself, a demo or the benchmark, not by tests alone.

The check is by name: a definition counts as reached when its name
appears as a word somewhere in src/, demos/ or bench/ outside its own
definition and outside the lines of an ``__all__`` list. Dunder methods
are exempt, since Python calls them.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    """(name, first line, last line) of each top-level function or class
    and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno


def all_list_lines(tree):
    """The line numbers an ``__all__ = [...]`` assignment spans."""
    lines = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def searched_lines(root):
    """(path, line number, text) of every line that can reach a name."""
    for folder in ("src", "demos", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            skip = all_list_lines(ast.parse(text))
            for no, line in enumerate(text.splitlines(), 1):
                if no not in skip:
                    yield path, no, line


def unreached(root):
    """"path:line name" of each definition under src/ledgergraph that no
    searched line names."""
    lines = list(searched_lines(root))
    found = []
    for path in sorted((root / "src" / "ledgergraph").rglob("*.py")):
        for name, first, last in definitions(ast.parse(path.read_text(encoding="utf-8"))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for where, no, line in lines
                       if not (where == path and first <= no <= last)):
                found.append(f"{path.relative_to(root)}:{first} {name}")
    return found


def test_every_definition_is_reached_outside_tests():
    assert unreached(ROOT) == []


def test_the_scan_finds_an_unreached_definition(tmp_path):
    package = tmp_path / "src" / "ledgergraph"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '__all__ = ["used", "orphan"]\n\n\n'
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan()\n\n\n"
        "class Box:\n    def open(self):\n        return used()\n\n"
        "    def __len__(self):\n        return 0\n")
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text("print(Box().open())\n")
    assert unreached(tmp_path) == ["src/ledgergraph/mod.py:8 orphan"]
