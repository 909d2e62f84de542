"""No ``synergy`` module imports another's private (underscore-prefixed)
name: a rule one module shares is public in the module that owns it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "synergy"


def private_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "synergy":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [line for path in modules for line in private_imports(path)]
    assert found == []
