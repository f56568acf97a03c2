"""One traced run of a workload, in a fresh interpreter.

Usage: python bench/trace_child.py PLAN_JSON OUTPUT_PATH

Imports numpy and dpmod2.cli, then calls the public functions of the plan
(see workloads.py) in dependency order, recording one span per call, and
finally times `cli.run` with `--output OUTPUT_PATH`.  Functions are resolved
by name; one that no longer exists is reported in "missing" and skipped.
Prints one JSON object: spans, counts, missing names and clock readings.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

ROOT_SPAN = 0        # the parent id of every span: the traced process itself


def _action_images(group):
    return len(group.generators) * group.degree


# function name -> (count name, count of its result)
COUNTS = {
    "automorphism_group": ("lattice.automorphism_group.gens", len),
    "orthogonal_generators": ("f2.orthogonal_generators.gens", len),
    "weyl_group": ("groups.action_images", _action_images),
    "aut_group": ("groups.action_images", _action_images),
    "oL2_group": ("groups.action_images", _action_images),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.missing = set()

    def call(self, name, label, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.spans.append({"id": len(self.spans) + 1, "parent": ROOT_SPAN,
                           "name": name, "label": label,
                           "start": start, "end": end})
        return result

    def resolve(self, module, name):
        """The function dpmod2.<module>.<name>, or None if it is gone."""
        try:
            fn = getattr(importlib.import_module(f"dpmod2.{module}"), name, None)
        except ImportError:
            fn = None
        if fn is None:
            self.missing.add(f"{module}.{name}")
        return fn

    def count(self, name, result):
        if name not in COUNTS:
            return
        key, measure = COUNTS[name]
        try:
            self.counts[key] = self.counts.get(key, 0) + measure(result)
        except (AttributeError, TypeError):
            self.missing.add(key)


def main():
    plan = json.loads(sys.argv[1])
    output = sys.argv[2]
    tr = Tracer()
    tr.call("import.numpy", None, importlib.import_module, "numpy")
    tr.call("import.dpmod2", None, importlib.import_module, "dpmod2.cli")

    built = {}
    for lat in plan["lattices"]:
        label = lat["label"]
        builder, arg = lat["build"]
        build = tr.resolve("lattice", builder)
        if build is None:
            tr.missing.update(f"{m}.{f}" for m, f, _ in lat["layers"])
            continue
        L = built[label] = tr.call("lattice.build", label, build, arg)
        values = {"L": L}
        for module, name, argname in lat["layers"]:
            fn = tr.resolve(module, name)
            if argname not in values:          # its argument could not be made
                tr.missing.add(f"{module}.{name}")
                continue
            if fn is None:
                continue
            result = tr.call(f"{module}.{name}", label, fn, values[argname])
            tr.count(name, result)
            if (module, name) == ("f2", "reduce"):
                values["S"] = result

    for name, arg in plan["statements"]:
        fn = tr.resolve("bridge", name)
        if fn is None or (isinstance(arg, str) and arg not in built):
            tr.missing.add(f"bridge.{name}")
            continue
        lattice_arg = built[arg] if isinstance(arg, str) else arg
        label = arg if isinstance(arg, str) else None
        tr.call(f"bridge.{name}", label, fn, lattice_arg)

    run = tr.resolve("cli", "run")
    code = None
    if run is not None:
        code = tr.call("cli.run", None, run, plan["cli_argv"] + ["--output", output])
    t_end = time.perf_counter()
    print(json.dumps({"t0": T0, "t_end": t_end, "exit_code": code,
                      "spans": tr.spans, "counts": tr.counts,
                      "missing": sorted(tr.missing)}))
    return 0 if code in (0, None) else 1


if __name__ == "__main__":
    sys.exit(main())
