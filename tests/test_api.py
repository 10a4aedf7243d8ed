"""The public surface: what `feqlab.__all__` exports, and the names the
benchmark harness and the README library example import from it.

The benchmark lives outside `tests/`, so a library name it imports can
vanish with no other failing test. These checks read its sources with
`ast` and never import or run them.
"""

from __future__ import annotations

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import feqlab

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def feqlab_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) for each `from feqlab... import name`, and
    (module, None) for each `import feqlab...`."""
    out: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "feqlab":
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "feqlab"]
    return out


def readme_library_example() -> str:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    return next(b for b in blocks if "from feqlab import" in b)


def test_all_holds_no_modules():
    modules = [name for name in feqlab.__all__ if isinstance(getattr(feqlab, name), types.ModuleType)]
    assert modules == []


def test_perfbench_is_present():
    assert len(PERFBENCH) >= 4
    assert any(feqlab_imports(p.read_text()) for p in PERFBENCH)


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_perfbench_imports_resolve(path):
    for module, name in feqlab_imports(path.read_text()):
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path.name}: from {module} import {name}"


def test_readme_example_imports_are_exported():
    names = [name for _, name in feqlab_imports(readme_library_example())]
    assert names
    missing = [name for name in names if name not in feqlab.__all__]
    assert missing == []
