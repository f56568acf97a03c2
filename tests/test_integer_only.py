"""The package computes with integers and bits only.

Every reported number is exact, so the source may not divide with `/`, write
a float literal, call float(), or import fractions or decimal.  The check
reads the syntax tree of each module in src/dpmod2.  The package also needs
nothing beyond the standard library: importing it loads no numpy, and
none of the heavier standard modules it has no use for.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dpmod2"
BANNED_MODULES = {"fractions", "decimal"}


def _violations(source):
    """(line, what) for each non-integer construct in a module's source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append((node.lineno, "float literal"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            out.append((node.lineno, "float() call"))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, f"import {a.name}") for a in node.names
                    if a.name.split(".")[0] in BANNED_MODULES]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] in BANNED_MODULES):
            out.append((node.lineno, f"import from {node.module}"))
    return out


def test_sources_found():
    assert {p.name for p in SRC.glob("*.py")} >= {"lattice.py", "f2.py", "groups.py"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_is_integer_only(path):
    assert _violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "x = a / b",
    "x /= 2",
    "x = 0.5",
    "x = 1e3",
    "x = float(y)",
    "import fractions",
    "import decimal as d",
    "from fractions import Fraction",
    "from decimal import Decimal",
])
def test_each_banned_construct_is_caught(snippet):
    assert len(_violations(snippet)) == 1


def test_integer_constructs_pass():
    assert _violations("x = a // b\nx //= 2\ny = 2 ** 63\nimport math") == []


def test_import_loads_no_numpy():
    """A fresh interpreter imports the command line without numpy,
    dataclasses (which pulls in inspect) or traceback.  -S skips the site
    hooks, which could load any of them first."""
    code = ("import sys, dpmod2.cli; print(sorted(m for m in "
            "('numpy', 'dataclasses', 'inspect', 'traceback') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
