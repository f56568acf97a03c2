"""Every function in src/dpmod2 is reached by a command, or listed in
UNREACHED with the reason it stays.

Four commands run in-process under sys.setprofile; they reach every
function that the commands of tests/pinned_outputs.json reach.  The defs
they never call, listed with ast, must be exactly UNREACHED's keys: an
unreached def that the table does not list fails, and so does an entry that
a command now reaches or that names no def.  Of the reasons, two are
checked: "public" (no part of the name is private, and its owner is in
dpmod2.__all__) and "bench" (the benchmark's trace plan calls it, so it
goes when the plan stops naming it).  A name is the module, then the
enclosing classes and defs, then the def: groups.PermGroup.extend.
"""

import ast
import sys
from pathlib import Path

import dpmod2
from dpmod2 import cli

from bench_plan import bench_module, plan_functions

SRC = Path(dpmod2.__file__).resolve().parent

COMMANDS = (["verify", "--n", "all", "--format", "json"], ["table"],
            ["remark2", "--rank", "5", "--format", "json"],
            ["roots", "--n", "8", "--format", "json"])

UNREACHED = {
    "bridge.reduce_root": "public",
    "bridge.reduce_isometry": "public",
    "groups.PermGroup.extend": "public",
    "groups.PermGroup.contains": "public",
    "groups.PermGroup.base": "public",
    "groups.PermGroup._check_perm": "only through extend and contains",
    "bridge.aut_group": "bench",
    "bridge.oL2_group": "bench",
    "groups._then": "only through bridge.oL2_group, on more than 256 points (bench)",
    "groups._tuple_inverse": "only through bridge.oL2_group, on more than 256 points (bench)",
    "lattice.Lattice.__reduce__": "the pickle contract (tests/test_lattice.py)",
    "cli.main": "the console script's entry point",
    "groups._memo": "runs at import",
}


def compare(defs, reached, table):
    """(unlisted, stale), each sorted: the names of the defs outside reached
    that the table does not list, and the table's names that are not such a
    def, as a command reaches them or no def has them."""
    unreached = {name for key, name in defs.items() if key not in reached}
    return sorted(unreached - table.keys()), sorted(table.keys() - unreached)


def _defs():
    """{(path, first line): name} for every def in src/dpmod2, the first line
    counting decorators, as a code object's co_firstlineno does."""
    defs = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, prefix, path)
                continue
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                defs[path, min(d.lineno for d in [child, *child.decorator_list])] = name
            walk(child, name, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path))
    return defs


def _reached(commands, capsys):
    """The (path, first line) of every function the commands call, each
    command run by cli.run, which must return 0."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        returned = [cli.run(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert returned == [0] * len(commands)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def test_every_unreached_function_is_listed(capsys):
    defs = _defs()
    assert len(set(defs.values())) == len(defs)
    assert compare(defs, _reached(COMMANDS, capsys), UNREACHED) == ([], [])


def test_compare_fails_both_ways():
    """An unreached def missing from the table is unlisted; an entry for a
    reached def, or for no def, is stale."""
    defs = {("m.py", 1): "m.f", ("m.py", 4): "m.g", ("m.py", 9): "m.C.h"}
    table = {"m.g": "public", "m.C.h": "bench"}
    assert compare(defs, {("m.py", 1)}, table) == ([], [])
    assert compare(defs, {("m.py", 1)}, {"m.g": "public"}) == (["m.C.h"], [])
    assert compare(defs, {("m.py", 1), ("m.py", 4)}, {**table, "m.gone": "public"}) == (
        [], ["m.g", "m.gone"])


def test_public_and_bench_reasons_hold(monkeypatch):
    layers, functions = plan_functions(bench_module("workloads", monkeypatch))
    plan = {f"{module}.{name}" for module, name, *_ in (*layers, *functions)}
    for name, reason in UNREACHED.items():
        module, *parts = name.split(".")
        if reason == "public":
            assert not any(part.startswith("_") for part in parts), name
            assert parts[0] in dpmod2.__all__, name
            assert getattr(dpmod2, parts[0]).__module__ == f"dpmod2.{module}", name
        elif reason == "bench":
            assert name in plan, name
