"""The tests' brute force, perfbench/oracle.py, stays independent of fracpack."""

import ast
import sys
from pathlib import Path

import oracle

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def test_oracle_imports_only_the_standard_library():
    assert Path(oracle.__file__).resolve() == ORACLE
    tree = ast.parse(ORACLE.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            # A relative import names no top-level module: "" is outside.
            imported.add("" if node.level else node.module)
        # A module named at run time escapes the import statements.
        assert not (isinstance(node, ast.Name) and node.id == "__import__")
        assert not (isinstance(node, ast.Attribute) and node.attr == "import_module")
    outside = {name for name in imported
               if name.partition(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"oracle.py imports {sorted(outside)}"
