"""The benchmark's trace plan resolves against the package.

CI's traced benchmark runs report every function of the plan they cannot
find, or whose result they cannot measure, as "missing", but only on the
Python that has numpy.  This is the same check on the standard library:
bench/workloads.py and bench/trace_child.py are read, not changed; neither
imports numpy at module level.
"""

import importlib.util
import sys
from pathlib import Path

from dpmod2 import f2
from dpmod2.lattice import build_del_pezzo

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name, monkeypatch):
    """bench/<name>.py, imported under a name of its own; the dataclasses
    of workloads.py look their module up in sys.modules."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_trace_plan_finds_and_measures_every_function(monkeypatch):
    """Every layer of every workload's plan is called on dP4, or on its
    mod-2 space, and measured as the traced run measures it; every builder,
    statement check and cli.run must resolve."""
    workloads = _bench_module("workloads", monkeypatch)
    trace_child = _bench_module("trace_child", monkeypatch)
    tracer = trace_child.Tracer()
    plans = [w.trace_plan() for w in workloads.WORKLOADS.values()]
    lattices = [lat for plan in plans for lat in plan["lattices"]]
    layers = dict.fromkeys(tuple(layer) for lat in lattices for layer in lat["layers"])
    L = build_del_pezzo(4)
    values = {"L": L, "S": f2.reduce(L)}
    for module, name, arg in layers:
        fn = tracer.resolve(module, name)
        if fn is not None:
            tracer.count(name, fn(values[arg]))
    for builder in {lat["build"][0] for lat in lattices}:
        tracer.resolve("lattice", builder)
    for name in {*workloads.STATEMENTS, *(s[0] for plan in plans for s in plan["statements"])}:
        tracer.resolve("bridge", name)
    tracer.resolve("cli", "run")
    assert tracer.missing == set()
    assert tracer.counts.keys() == {trace_child.COUNTS[name][0] for _, name, _ in layers
                                    if name in trace_child.COUNTS}
