"""Every module-level import of a package module is used in that module,
and importing the package loads no `dataclasses`.

`__init__` is left out of the first check: its imports are the package's
exports.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tsocbmc"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == ["os", "b"]
    assert unused_imports("import os.path\nos.path.join()\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_package_imports_without_dataclasses():
    # a fresh interpreter, so no other test's imports count; `dataclasses`
    # pulls in inspect, ast, dis and tokenize, and builds each class with
    # exec, which every tsocbmc process would pay at start-up
    modules = ["tsocbmc"] + [f"tsocbmc.{m[:-3]}" for m in MODULES]
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
            f"import {', '.join(modules)}; "
            "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"
