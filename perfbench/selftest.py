"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once untraced and once traced on tiny
inputs, and asserts that each run prints every metric BENCHMARK.json names,
with its unit, and checks its outputs.  Then feeds each workload's oracle a
deliberately wrong expected verdict and asserts that it reports a failure.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

# each workload's expected verdict, made wrong
WRONG = {
    "cli_oneshot": lambda expect: (expect[0] + 1, expect[1]),
    "pipeline_large": lambda expect: "p1" if expect == "valid" else "valid",
    "property_suite": lambda expect: not expect,
}


def run_benchmark(spec, workload, trace):
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
            "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_benchmark(spec, workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, (workload, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0, (workload, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics with units")


def check_oracles():
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(1, workdir, smoke=True)
            op = wl.setup()[0]
            out = op.run()
            assert wl.check(op, out) == [], (name, wl.check(op, out))
            wrong = dataclasses.replace(op, expect=WRONG[name](op.expect))
            kinds = wl.check(wrong, out)
            assert kinds, f"{name}: oracle accepted a wrong expected verdict"
            print(f"ok  {name}: wrong expected verdict reported as {kinds}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    check_oracles()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
