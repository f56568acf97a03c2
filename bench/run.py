"""Cold-process benchmark of the dpmod2 command line.

Run from the repository root:

  python3 bench/run.py --workload verify-all --seed 1 --seconds 35 --trace 0

With --trace 0 every timed sample is a fresh `dpmod2` process (end-to-end
metrics).  With --trace 1 the run alternates untraced processes with traced
ones (bench/trace_child.py) and reports the per-layer metrics.  The seed
shuffles the order of the samples; the program sees only its command line.
Every output is checked against its pinned hash and hand-written numbers.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment.  Exit code is
0 iff every checked output was correct, 2 if the program cannot be run.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import LAYERS, STATEMENTS, WORKLOADS, check_output

ROOT = Path.cwd()
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"

CHILD_TIMEOUT_S = 150
# Timings are scaled to a CPU on which the calibration takes CAL_REF_S; see
# "Scaled timings" in README.md.  The calibration runs in this process, on the
# one CPU the children are pinned to, between consecutive children.
CAL_REF_S = 0.008
CAL_REPEATS = 5
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
MIN_SAMPLES = {"run": TAIL_BEYOND + 1, "setup": 5}
MIN_TRACED_SAMPLES = {"run": 3, "traced": 1}

# What the installed `dpmod2` console script runs, plus a last stderr line
# with the process's peak RSS.  The child's ru_maxrss is no use: a spawned
# process starts with the spawner's peak RSS as its own.
PEAK_TAG = "bench-peak-rss-kb"
CLI = f"""
import atexit, sys
@atexit.register
def _peak_rss():
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_TAG} " + kb + "\\n")
from dpmod2.cli import main
main()
"""
SETUP = "import dpmod2.cli"
PROBE = ("import json, numpy, dpmod2.cli; "
         "print(json.dumps([dpmod2.cli.__file__, numpy.__version__]))")

COUNT_METRICS = ("lattice.automorphism_group.gens",
                 "f2.orthogonal_generators.gens", "groups.action_images")
LAYER_SPANS = (("import.numpy", "import.dpmod2", "lattice.build")
               + tuple(f"{m}.{f}" for m, f, _ in LAYERS)
               + tuple(f"bridge.{s}" for s in STATEMENTS))


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    t_spawn: float
    t_exit: float
    scale: float = 1.0      # CAL_REF_S / CPU speed around this child
    peak_rss_kb: int | None = None


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _cal_arithmetic():
    acc = 0
    for i in range(30_000):
        acc += i * i % 7


_CAL_TUPLES = [tuple(random.Random(i).choices(range(-3, 4), k=11))
               for i in range(3000)]


def _cal_tuples():
    sorted(tuple(-x for x in t) for t in _CAL_TUPLES)


_CAL_ARRAY = np.arange(1023, dtype=np.int32)


def _cal_numpy():
    p = _CAL_ARRAY
    for _ in range(400):
        p = p[::-1].copy()
        p.sort()


def calibrate():
    """Time of fixed integer, tuple and numpy loops on the current CPU.

    The three kinds of work the program does slow down by different factors
    when another tenant loads the CPU, so their sum tracks the program's
    speed better than any one of them.  Each is the median of CAL_REPEATS.
    """
    total = 0.0
    for loop in (_cal_arithmetic, _cal_tuples, _cal_numpy):
        times = []
        for _ in range(CAL_REPEATS):
            t = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t)
        total += statistics.median(times)
    return total


def spawn(argv, env):
    """Run one process to exit: wall time from spawn to exit, and its rusage."""
    err_path = TMP / "stderr.txt"
    with open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(t_exit - t_spawn, usage.ru_utime + usage.ru_stime,
                 proc.returncode, out,
                 err_path.read_bytes(), t_spawn, t_exit)


class Bench:
    """Spawns and checks the processes of one workload and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.traces = []            # (Child, parsed trace) per traced sample
        self.cal = None             # calibration after the last child

    def spawn(self, argv):
        """spawn(), with the scale from the calibrations around the child."""
        before = self.cal if self.cal is not None else calibrate()
        child = spawn(argv, self.env)
        self.cal = calibrate()
        child.scale = CAL_REF_S / ((before + self.cal) / 2)
        return child

    def _record(self, kind, child, errors):
        self.attempted += 1
        if child.exit_code != 0:
            errors = [f"exit code {child.exit_code}: "
                      f"{child.stderr.decode(errors='replace').strip()[-400:]}"]
        if errors:
            self.failed += 1
            print(f"FAIL {self.workload.name} {kind}: {'; '.join(errors)}",
                  file=sys.stderr)
        return child

    def sample(self, kind):
        return getattr(self, kind)()

    def run(self):
        w = self.workload
        child = self.spawn([sys.executable, "-c", CLI, *w.argv])
        errors = check_output(child.stdout, w.sha256, w.expect)
        lines = child.stderr.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith(PEAK_TAG + " "):
            child.peak_rss_kb = int(lines[-1].split()[1])
            child.stderr = "\n".join(lines[:-1]).encode()
        else:
            errors.append("no peak RSS line on stderr")
        return self._record("run", child, errors)

    def setup(self):
        child = self.spawn([sys.executable, "-c", SETUP])
        return self._record("setup", child,
                            ["import printed output"] if child.stdout else [])

    def traced(self):
        w = self.workload
        out = TMP / f"traced-{w.name}.out"
        out.unlink(missing_ok=True)
        child = self.spawn([sys.executable, str(TRACE_CHILD),
                            json.dumps(w.trace_plan()), str(out)])
        errors = []
        if child.exit_code == 0:
            try:
                trace = json.loads(child.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                return self._record("traced", child, ["no trace on stdout"])
            if "cli.run" not in trace["missing"]:
                errors = check_output(out.read_bytes(), w.sha256, w.expect)
            if not errors:
                self.traces.append((child, trace))
        return self._record("traced", child, errors)


def measure(bench, kinds, seed, seconds, minimum):
    """Closed loop, one child at a time, in seed-shuffled blocks of `kinds`."""
    rng = random.Random(seed)
    bench.run()                     # untimed warm-up: .pyc files, page cache
    samples = {k: [] for k in kinds}
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or any(len(samples[k]) < minimum[k] for k in kinds)):
        block = list(kinds)
        rng.shuffle(block)
        for kind in block:
            samples[kind].append(bench.sample(kind))
    return samples


def end_to_end_metrics(bench, samples):
    runs, setups = samples["run"], samples["setup"]
    walls = sorted(c.wall_s * c.scale for c in runs)
    peaks = [c.peak_rss_kb for c in runs if c.peak_rss_kb is not None]
    n = len(walls)
    metrics = {
        "verdict_s": (statistics.median(walls), "s"),
        "verdict_tail_s": (walls[n - TAIL_BEYOND - 1], "s"),
        "cpu_s": (statistics.median(c.cpu_s * c.scale for c in runs), "s"),
        "peak_rss_mb": (statistics.median(peaks) / 1024 if peaks else 0.0, "MB"),
        "setup_s": (statistics.median(c.wall_s * c.scale for c in setups), "s"),
        "pass_ratio": ((bench.attempted - bench.failed) / bench.attempted, "ratio"),
    }
    info = {"run_samples": n, "setup_samples": len(setups),
            "tail_percentile": 100 * (n - TAIL_BEYOND) / n,
            "tail_samples_beyond": TAIL_BEYOND,
            "unscaled_verdict_s": statistics.median(c.wall_s for c in runs),
            "unscaled_setup_s": statistics.median(c.wall_s for c in setups),
            "median_scale": statistics.median(c.scale for c in runs + setups)}
    return metrics, info


def trace_metrics(child, trace, verdict_s):
    """Per-layer metrics of one traced process; absent names are left out.

    Times are scaled like the end-to-end ones, by the child's calibration.
    """
    spans = {}
    for s in trace["spans"]:
        spans[s["name"]] = (spans.get(s["name"], 0.0)
                            + (s["end"] - s["start"]) * child.scale)
    missing = set(trace["missing"])
    m = {f"{name}_s": spans.get(name, 0.0)
         for name in LAYER_SPANS if name not in missing}
    m.update((name, trace["counts"].get(name, 0))
             for name in COUNT_METRICS if name not in missing)
    run_warm = spans.get("cli.run", 0.0)
    if "cli.run" not in missing:
        m["cli.run_warm_s"] = run_warm
        m["cli.self_s"] = run_warm - sum(spans.get(f"bridge.{s}", 0.0)
                                         for s in STATEMENTS)
    start_exit = child.scale * ((trace["t0"] - child.t_spawn)
                                + (child.t_exit - trace["t_end"]))
    total = child.wall_s * child.scale - run_warm
    m["python.start_exit_s"] = start_exit
    m["trace.total_s"] = total
    m["trace.unaccounted_s"] = (total - start_exit - sum(spans.values())
                                + run_warm)
    m["trace.overhead_s"] = total - verdict_s
    return m


def per_layer_metrics(bench, samples):
    verdict_s = statistics.median(c.wall_s * c.scale for c in samples["run"])
    per_trace = [trace_metrics(c, t, verdict_s) for c, t in bench.traces]
    names = per_trace[0] if per_trace else {}
    metrics = {name: (statistics.median(m[name] for m in per_trace),
                      "s" if name.endswith("_s") else "count")
               for name in names}
    if bench.traces:
        _, last = bench.traces[-1]
        (TMP / f"spans-{bench.workload.name}.json").write_text(
            json.dumps(last, indent=1) + "\n")
    info = {"run_samples": len(samples["run"]),
            "traced_samples": len(bench.traces),
            "missing": bench.traces[-1][1]["missing"] if bench.traces else []}
    return metrics, info


def commit():
    """The checked-out commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measuring time; minimum sample counts still apply")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})      # children inherit it; see CAL_REF_S
    if not (SRC / "dpmod2" / "cli.py").is_file():
        print(f"no dpmod2 sources under {SRC}", file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    bench = Bench(WORKLOADS[args.workload])
    probe = spawn([sys.executable, "-c", PROBE], bench.env)
    if probe.exit_code != 0:
        print(f"cannot import dpmod2: {probe.stderr.decode(errors='replace')}",
              file=sys.stderr)
        return 2
    module_file, numpy_version = json.loads(probe.stdout)
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        print(f"dpmod2 imported from {module_file}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        samples = measure(bench, ("run", "traced"), args.seed, args.seconds,
                          MIN_TRACED_SAMPLES)
        metrics, info = per_layer_metrics(bench, samples)
    else:
        samples = measure(bench, ("run", "setup"), args.seed, args.seconds,
                          MIN_SAMPLES)
        metrics, info = end_to_end_metrics(bench, samples)

    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, python=platform.python_version(),
                numpy=numpy_version, nproc=nproc, pinned_cpu=cpu,
                commit=commit(), src_sha256=src_digest())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
