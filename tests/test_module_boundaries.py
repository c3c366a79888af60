"""One module owns a decision: no module under ``src/repro`` imports an
underscore-prefixed name from another ``repro`` module.

A private name is something its module is free to change; importing it
elsewhere makes two modules know how the same thing is done.  Aliasing
a public name to a private one (``from repro.autograd.ops import sum as
_sum``) is fine: the imported name itself is public.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _module_and_package(path, root):
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
        return ".".join(parts), ".".join(parts)
    return ".".join(parts), ".".join(parts[:-1])


def private_cross_module_imports(root):
    """``path:line: from source import name`` for every import, in the
    ``repro`` package under ``root``, of another module's private name."""
    found = []
    for path in sorted((root / "repro").rglob("*.py")):
        module, package = _module_and_package(path, root)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = package.split(".")[:len(package.split("."))
                                          - node.level + 1]
                source = ".".join(base + ([node.module] if node.module
                                          else []))
            else:
                source = node.module or ""
            if source.split(".")[0] != "repro" or source == module:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{path.relative_to(root)}:{node.lineno}: "
                                 f"from {source} import {alias.name}")
    return found


def test_no_module_imports_another_modules_private_names():
    assert private_cross_module_imports(SRC) == []


def test_checker_flags_private_imports_only(tmp_path):
    package = tmp_path / "repro" / "serve"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("from .service import _helper\n")
    (package / "service.py").write_text(
        "from __future__ import annotations\n"
        "from repro.autograd.ops import sum as _sum\n"
        "from repro.eval.metrics import __all__, top_k_indices\n"
        "def f():\n"
        "    from repro.eval.full_ranking import _score_block\n"
        "def _helper():\n"
        "    pass\n")
    assert private_cross_module_imports(tmp_path) == [
        "repro/serve/__init__.py:1: from repro.serve.service import _helper",
        "repro/serve/service.py:5: "
        "from repro.eval.full_ranking import _score_block",
    ]
