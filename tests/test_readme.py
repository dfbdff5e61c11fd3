"""README's error codes are the package's: every code that a class under
src/ledgergraph sets (``code = "..."``, read with ast) appears in README
in backticks, and every code in the first column of README's code table
is one of them, or io-failure, which the CLI prints for an OSError."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent


def package_codes():
    codes = set()
    for path in (ROOT / "src" / "ledgergraph").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) \
                    and [getattr(t, "id", None) for t in node.targets] == ["code"]:
                codes.add(node.value.value)
    return codes


def table_codes(readme):
    """The backticked codes in the first column of the table whose header
    is '| Code | Meaning |'."""
    lines = readme.splitlines()
    start = lines.index("| Code | Meaning |") + 2  # past the header rule
    codes = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        codes.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return codes


def test_readme_lists_every_error_code_and_no_other():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    codes = package_codes()
    assert len(codes) > 40  # the scan found the error classes
    assert sorted(c for c in codes if f"`{c}`" not in readme) == []
    assert sorted(table_codes(readme) - codes - {"io-failure"}) == []
