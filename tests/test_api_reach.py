"""Every function, class and public method in the package is reached by
the package itself, a demo or the benchmark, not by tests alone, and so
is every dataclass field: that code reads it, and gives it a value when
it has a default.

The check reads code, not text: a definition counts as reached when its
name is used in src/, demos/ or bench/ outside its own definition, as a
name, an attribute, an imported name or inside an f-string expression.
A word in a comment, a docstring or any other string (an ``__all__``
entry included) does not count. Dunder methods are exempt, since Python
calls them.

A field counts as given a value by a keyword in a call to its class, a
positional argument to its class, a store to an attribute of its name,
or a mutating call (``add``, ``update``, ...) on such an attribute. A
keyword counts only for the class called, so ``dataclass(frozen=True)``
does not set a field named ``frozen``.

A field counts as read by a load of an attribute of its name. This
matches by name alone, so it cannot see a field that nothing reads when
another class has a field of the same name that is read: a block's
``timestamp`` went unseen that way while transactions' were read.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parent.parent

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop",
            "remove", "setdefault", "update"}

# Fields that only tests set, to shape the input of other rules. Every
# run the package, a demo or the benchmark makes uses their defaults.
TEST_SHAPED = {"RunConfig.window", "RunConfig.subsidy", "UtxoSpec.txs_per_block",
               "TangleSpec.bundles_per_cycle", "TangleSpec.tip_strategy",
               "TangleSpec.difficulty"}

# Fields no code reads, and why each stays.
UNREAD = {
    "TokenContract.decimals": "a token script's deploy record sets it, and the "
                              "format keeps it",
    "KChainlet.address_nodes": "tests check on it that a k=1 chainlet lists each "
                               "address once",
}


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


def searched_trees(root):
    """(path, tree) of every module in src/, demos/ and bench/."""
    for folder in ("src", "demos", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def searched_uses(root):
    """(path, line, name) of every use that can reach a definition."""
    for path, tree in searched_trees(root):
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


def _name_of(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def dataclass_fields(tree):
    """(class, field, position, line, has a default) of each dataclass
    field; the position counts every field of the class."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
                _name_of(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in node.decorator_list):
            continue
        annotated = [item for item in node.body if isinstance(item, ast.AnnAssign)
                     and isinstance(item.target, ast.Name)]
        for position, item in enumerate(annotated):
            yield node.name, item.target.id, position, item.lineno, item.value is not None


def unset_fields(root):
    """"path:line Class.field" of each defaulted dataclass field under
    src/ledgergraph that no searched code gives a value."""
    keywords: set[tuple[str, str]] = set()  # (class called, keyword)
    positional: dict[str, int] = {}  # class called -> most positional args
    stored: set[str] = set()  # attribute names stored to or mutated
    for _path, tree in searched_trees(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
            if not isinstance(node, ast.Call):
                continue
            called = _name_of(node.func)
            keywords.update((called, kw.arg) for kw in node.keywords if kw.arg)
            count = next((i for i, arg in enumerate(node.args)
                          if isinstance(arg, ast.Starred)), len(node.args))
            positional[called] = max(positional.get(called, 0), count)
            if isinstance(node.func, ast.Attribute) and called in MUTATORS \
                    and isinstance(node.func.value, ast.Attribute):
                stored.add(node.func.value.attr)
    found = []
    for path in sorted((root / "src" / "ledgergraph").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls, name, position, line, default in dataclass_fields(tree):
            if default and (cls, name) not in keywords and name not in stored \
                    and positional.get(cls, 0) <= position:
                found.append(f"{path.relative_to(root)}:{line} {cls}.{name}")
    return found


def unread_fields(root):
    """"path:line Class.field" of each dataclass field under
    src/ledgergraph whose name no searched code loads as an attribute."""
    read = {node.attr for _path, tree in searched_trees(root)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for path in sorted((root / "src" / "ledgergraph").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls, name, _position, line, _default in dataclass_fields(tree):
            if name not in read:
                found.append(f"{path.relative_to(root)}:{line} {cls}.{name}")
    return found


def test_every_field_is_read_outside_tests():
    assert {entry.split()[1] for entry in unread_fields(ROOT)} == set(UNREAD)


def test_the_scan_finds_an_unread_field(tmp_path):
    package = tmp_path / "src" / "ledgergraph"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\n"
        "class Chain:\n"
        "    k: int\n"
        "    nodes: tuple\n"
        "    note: str = ''\n\n\n"
        "def build(nodes):\n"
        "    chain = Chain(len(nodes), nodes, note='n')\n"
        "    chain.k = 2\n"
        "    return chain\n")
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text(
        "from ledgergraph.mod import build\n\nprint(build((1,)).nodes, 'note')\n")
    assert unread_fields(tmp_path) == ["src/ledgergraph/mod.py:6 Chain.k",
                                       "src/ledgergraph/mod.py:8 Chain.note"]


def test_every_defaulted_field_is_set_outside_tests():
    assert {entry.split()[1] for entry in unset_fields(ROOT)} == TEST_SHAPED


def test_the_scan_finds_an_unset_field(tmp_path):
    package = tmp_path / "src" / "ledgergraph"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    name: str\n"
        "    size: int = 1\n"
        "    frozen: bool = False\n"
        "    tags: set = field(default_factory=set)\n"
        "    label: str = ''\n"
        "    mode: str = 'a'\n"
        "    level: int = 0\n\n\n"
        "@dataclass\n"
        "class Other:\n"
        "    mode: str = 'b'\n")
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "demo.py").write_text(
        "from ledgergraph.mod import Other, Spec\n\n"
        "spec = Spec('n', 2, label='x')\n"
        "spec.tags.add(1)\n"
        "box = Other(mode='c')\n"
        "box.level = 3\n")
    assert unset_fields(tmp_path) == ["src/ledgergraph/mod.py:8 Spec.frozen",
                                      "src/ledgergraph/mod.py:11 Spec.mode"]
