"""Every import in ``src/``, ``scripts/`` and ``tests/`` is used, and the
CLI imports at start only what every subcommand needs.

Deleting a parameter or a field often leaves the import of its type behind.
This check needs only the stdlib ``ast``: a name bound by an import counts
as used when it appears as a name anywhere in the module, in a quoted
annotation, or in ``__all__``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "scripts", "tests")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            every = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            every += [arg for arg in (node.args.vararg, node.args.kwarg) if arg is not None]
            yield from (arg.annotation for arg in every)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_unused_imports():
    paths = sorted(path for folder in CHECKED for path in (ROOT / folder).rglob("*.py"))
    assert len(paths) > 20
    assert [finding for path in paths for finding in unused_imports(path)] == []


def test_check_finds_an_unused_import(tmp_path, monkeypatch):
    monkeypatch.setattr(f"{__name__}.ROOT", tmp_path)
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Any, Mapping, Optional\n"
        "import json\n"
        "__all__ = ['json']\n"
        "def f(x: 'Mapping[str, Any]') -> None:\n"
        "    return osp\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["module.py:2: os", "module.py:3: Optional"]


def test_cli_imports_the_evaluation_harness_only_for_eval():
    # A child process, since this one has imported every module already.
    probe = "import sys, reviewlens.cli; print('reviewlens.evaluation' in sys.modules)"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout == "False\n"
