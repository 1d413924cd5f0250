"""Static checks on the package source, using only the standard library."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import fairsched

PACKAGE_DIR = Path(fairsched.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no expression in the module reads."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_helper_sees_annotations_and_attributes():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom pathlib import Path\nfrom x import y as z\n"
        "def f(p: Path) -> None:\n    return os.path.join(p)\n"
    )
    assert unused_imports(source) == ["json", "z"]


def test_every_top_level_import_is_used():
    modules = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_importing_the_package_leaves_element_tree_unloaded():
    """Only DAX reading needs ElementTree, which costs every process that
    imports it; a fresh interpreter shows what the import itself loads."""
    code = "import sys, fairsched, fairsched.cli; print(sorted(m for m in sys.modules if m.startswith('xml')))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"
