import ast
import re
import sys
from pathlib import Path

import pytest

import qduality

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(qduality.__file__).resolve().parent


def _declared() -> set:
    """Import names of the runtime dependencies in pyproject.toml."""
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_") for d in deps}


def test_every_runtime_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"qduality"} | _declared()
    undeclared = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert undeclared == []
