"""Every name a `ccmax` module imports is used in that module."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ccmax"
# (module, name) imported but never used: curves and rounding keep gamma_rho
# in their namespaces because perfbench's probe test reads it there
ALLOWED = {("curves", "gamma_rho"), ("rounding", "gamma_rho")}
# the test that pins each ALLOWED name; read here, never edited
PIN_TEST = ROOT / "perfbench" / "tests" / "test_perfbench.py"


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_imports_catches_a_leftover():
    assert unused_imports("from typing import Mapping, NamedTuple\n"
                          "import numpy as np\nx: NamedTuple = np.zeros(1)\n") == {"Mapping"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    allowed = {name for module, name in ALLOWED if module == path.stem}
    assert unused_imports(path.read_text(encoding="utf-8")) - allowed == set()


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_every_allowed_import_has_a_live_pin(module, name):
    # an exception lasts only as long as the perfbench line that needs it
    pin = re.compile(rf"\bccmax\.{module}\.{name}\b")
    assert pin.search(PIN_TEST.read_text(encoding="utf-8"))
