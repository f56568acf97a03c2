"""The benchmark's trace plan resolves against the package.

CI's traced benchmark runs report every function of the plan they cannot
find, or whose result they cannot measure, as "missing", but only on the
Python that has numpy.  This is the same check on the standard library:
bench/workloads.py and bench/trace_child.py are read, not changed; neither
imports numpy at module level.
"""

from dpmod2 import f2
from dpmod2.lattice import build_del_pezzo

from bench_plan import bench_module, plan_functions


def test_trace_plan_finds_and_measures_every_function(monkeypatch):
    """Every layer of every workload's plan is called on dP4, or on its
    mod-2 space, and measured as the traced run measures it; every builder,
    statement check and cli.run must resolve."""
    workloads = bench_module("workloads", monkeypatch)
    trace_child = bench_module("trace_child", monkeypatch)
    tracer = trace_child.Tracer()
    layers, functions = plan_functions(workloads)
    L = build_del_pezzo(4)
    values = {"L": L, "S": f2.reduce(L)}
    for module, name, arg in layers:
        fn = tracer.resolve(module, name)
        if fn is not None:
            tracer.count(name, fn(values[arg]))
    for module, name in functions:
        tracer.resolve(module, name)
    assert tracer.missing == set()
    assert tracer.counts.keys() == {trace_child.COUNTS[name][0] for _, name, _ in layers
                                    if name in trace_child.COUNTS}
