"""Self-test of the benchmark itself.

Run from the repository root:  python3 bench/selftest.py

Checks, in a few seconds of tiny-mode runs on verify-n4, that:
  - BENCHMARK.json names exactly the workloads defined in workloads.py;
  - --trace 0 emits every end_to_end metric of BENCHMARK.json with its unit,
    and --trace 1 every per_layer metric;
  - on every workload a real output passes the checker, while a deliberately
    wrong expected number or hash (altered in the expectation handed to the
    checker, never in the program) is counted as a failed sample;
  - without the program's sources the benchmark exits non-zero and prints
    no result.
Exit code 0 iff every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

from run import ROOT, TMP, Bench
from workloads import WORKLOADS

TIMEOUT_S = 170
TINY = ["--workload", "verify-n4", "--seed", "0", "--seconds", "0"]


def bench_run(args, cwd=ROOT):
    out = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = out.stdout.splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names the workloads of workloads.py")

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = bench_run(TINY + ["--trace", str(trace)])
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"tiny --trace {trace} run is correct")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want, f"--trace {trace} emits every {section} metric "
                           f"with its unit (diff: {set(got.items()) ^ set(want.items())})")

    TMP.mkdir(exist_ok=True)
    print("(the FAIL lines on stderr below come from the deliberate mismatches)")
    for w in WORKLOADS.values():
        bench = Bench(w)
        bench.run()
        check(bench.failed == 0, f"{w.name}: output matches hash and numbers")
        (statement, n, key), value = next(iter(w.expect.items()))
        wrong = w.expect | {(statement, n, key): value + 1}
        for label, bad in (("expected number", dataclasses.replace(w, expect=wrong)),
                           ("hash", dataclasses.replace(w, sha256="0" * 64))):
            bench = Bench(bad)
            bench.run()
            check(bench.attempted == 1 and bench.failed == 1,
                  f"{w.name}: a wrong {label} counts as a failed sample")

    bare = TMP / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = bench_run(TINY + ["--trace", "0"], cwd=bare)
    check(code != 0 and result is None,
          "without src/ the benchmark exits non-zero with no result")
    shutil.rmtree(bare)

    print("SELFTEST", "FAILED" if failures else "PASSED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
