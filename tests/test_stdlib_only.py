"""The package imports nothing but the standard library and itself."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nonmono"


def test_package_imports_only_stdlib():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [
                f"{path.relative_to(PACKAGE)}: {m}" for m in modules
                if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "nonmono"
            ]
    assert foreign == []
