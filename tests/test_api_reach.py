"""Every function, class and public method in the package is reached by
the package itself, a demo or the benchmark, not by tests alone.

The check reads code, not text: a definition counts as reached when its
name is used in src/, demos/ or bench/ outside its own definition, as a
name, an attribute, an imported name or inside an f-string expression.
A word in a comment, a docstring or any other string (an ``__all__``
entry included) does not count. Dunder methods are exempt, since Python
calls them.
"""

import ast
import pathlib

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


def used_names(tree):
    """(name, line) of every name the code uses: each Name, Attribute and
    imported name. f-string expressions are nodes like any other."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def searched_uses(root):
    """(path, line, name) of every use that can reach a definition."""
    for folder in ("src", "demos", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, line in used_names(tree):
                yield path, line, name


def unreached(root):
    """"path:line name" of each definition under src/ledgergraph that no
    searched use names."""
    uses: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path, line, name in searched_uses(root):
        uses.setdefault(name, []).append((path, line))
    found = []
    for path in sorted((root / "src" / "ledgergraph").rglob("*.py")):
        for name, first, last in definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if not any(where != path or not first <= line <= last
                       for where, line in uses.get(name, ())):
                found.append(f"{path.relative_to(root)}:{first} {name}")
    return found


def test_every_definition_is_reached_outside_tests():
    assert unreached(ROOT) == []


def test_the_scan_finds_an_unreached_definition(tmp_path):
    package = tmp_path / "src" / "ledgergraph"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '__all__ = ["used", "orphan", "quoted"]\n\n\n'
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan()\n\n\n"
        "class Box:\n    def open(self):\n        return used()\n\n"
        "    def __len__(self):\n        return 0\n\n\n"
        "def quoted():\n    return 2\n\n\n"
        "def reader():\n"
        '    """Calls quoted()."""\n'
        "    # quoted\n"
        '    return "quoted", f"{used()} quoted"\n')
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text(
        "from ledgergraph.mod import reader\n\nprint(Box().open(), reader())\n")
    assert unreached(tmp_path) == ["src/ledgergraph/mod.py:8 orphan",
                                   "src/ledgergraph/mod.py:20 quoted"]
