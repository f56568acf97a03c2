"""The benchmark's trace plan, read from bench/ without changing it.

bench/workloads.py and bench/trace_child.py are imported under names of
their own; neither imports numpy at module level.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name, monkeypatch):
    """bench/<name>.py, imported under a name of its own; the dataclasses
    of workloads.py look their module up in sys.modules."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def plan_functions(workloads):
    """(layers, functions): the (module, name, argument) layers of every
    workload's trace plan, and the (module, name) of every lattice builder,
    statement check and cli.run that it resolves."""
    plans = [w.trace_plan() for w in workloads.WORKLOADS.values()]
    lattices = [lat for plan in plans for lat in plan["lattices"]]
    layers = dict.fromkeys(tuple(layer) for lat in lattices for layer in lat["layers"])
    statements = {*workloads.STATEMENTS,
                  *(s[0] for plan in plans for s in plan["statements"])}
    return layers, ({("lattice", lat["build"][0]) for lat in lattices}
                    | {("bridge", name) for name in statements} | {("cli", "run")})
