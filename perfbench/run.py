"""adhmkit benchmark: one closed-loop client, three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each is here):

* ``cli_oneshot``: one ``python -m adhmkit.cli`` process per op over every
  subcommand, broken points and malformed files (n <= 3, c <= 6).  What a
  shell user pays per verdict; interpreter and import start-up dominate.
* ``pipeline_large``: loads -> validate_hirz -> chart_support ->
  canonicalize -> dumps per point on n in {1,2,3,5,8} x c in {8,...,32},
  two points per cell, 40 valid and 10 broken.  Revalidation, per-chart SVDs
  and megabyte JSON payloads dominate; broken points take the early reject.
* ``property_suite``: one run_suite(seed, max_n=3, max_c=6, samples=100) pass
  per op.  Thousands of tiny calls where per-call Python overhead dominates.

With ``--trace 0`` whole passes over the ops run untraced until the pass that
ends nearest to ``--seconds`` and the last stdout line holds the end-to-end
metrics: every op is timed once per pass, ``ops_per_s`` and ``suite_s`` use
each op's median over its repetitions, the latency percentiles pool every
repetition, and ``attempted``/``failed`` count each op once; with
``--trace 1`` passes run alternately untraced and traced (tracing.py) and the
last line holds the per-layer metrics, per op.  The line before it is a
report: environment, failures by kind and (n, c), and sample counts.  Every op
output is checked outside its timed interval; failures count in ``failed``,
and ``correct`` is false when a failure is not one of the known library
defects listed in workloads.KNOWN_DEFECTS, or when traced and untraced
outputs differ.

Seeds: any integer.  Claims are developed on seeds 1-10; seed 20261017 is
kept aside to confirm a claim on inputs it was not tuned on.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "adhmkit", "__init__.py")):
    sys.exit(f"perfbench: no adhmkit sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from tracing import CLI_METRICS, Tracer, layer_metric_units  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, child_env  # noqa: E402

SETUP_REPS = 3
SPAWN_REPS = 7
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "peak_rss_mb": "MB", "suite_s": "s"}


class Tally:
    """Op outcomes: failures by kind and (n, c), and whether each is explained.

    An op is one input of the workload.  It is timed many times in a run; it
    counts once in ``attempted`` and, when any of its repetitions gave a wrong
    output, once in ``failed``.  Both counts depend only on the inputs, so runs
    of the same code on the same seed report the same counts.
    """

    def __init__(self, ops):
        self.ops = ops
        self.kinds = [set() for _ in ops]

    def add(self, index, kinds):
        self.kinds[index].update(kinds)

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for kinds in self.kinds if kinds)

    @property
    def unexplained(self):
        return sum(1 for kinds in self.kinds if kinds - KNOWN_DEFECTS.keys())

    def report(self):
        by_kind = {}
        for op, kinds in zip(self.ops, self.kinds):
            for kind in sorted(kinds):
                cells = by_kind.setdefault(kind, {})
                cell = f"n={op.n},c={op.c}"
                cells[cell] = cells.get(cell, 0) + 1
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_ratio": self.failed / self.attempted, "failures": by_kind,
                "attribution": {k: KNOWN_DEFECTS.get(k, "UNEXPLAINED") for k in by_kind}}


def run_pass(ops, tracer=None):
    """Run every op once, in order; returns (latencies in s, outputs, pass seconds)."""
    lat, outs = [], []
    clock = time.perf_counter
    p0 = clock()
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a failed op, not a dead benchmark
            out = exc
        lat.append(clock() - t0)
        outs.append(out)
    return lat, outs, clock() - p0


def check_pass(wl, ops, outs, tally):
    for i, (op, out) in enumerate(zip(ops, outs)):
        try:
            kinds = wl.check(op, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError):
            kinds = [f"{op.label}_output_unreadable"]
        tally.add(i, kinds)


def digest(wl, outs):
    return hashlib.sha256("\n".join(wl.fingerprint(o) for o in outs).encode()).hexdigest()


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(), "seed": seed}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(ref)), None)
    except OSError:
        return None


def timed_run(cls, args, workdir):
    # one set-up: a fresh interpreter importing numpy and adhmkit, then input
    # generation and warm-up in this process
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, adhmkit.cli"], env=child_env(),
                       check=True, timeout=120)
        wl = cls(args.seed, workdir, args.smoke)
        ops = wl.setup()
        wl.warm(ops)
        setups.append(time.perf_counter() - t0)
    tally, rows = Tally(ops), []
    t_start = time.perf_counter()
    while True:
        lat, outs, pass_s = run_pass(ops)
        check_pass(wl, ops, outs, tally)
        rows.append(lat)
        # stop at the pass that ends nearest to the time asked for
        if (len(rows) >= wl.min_passes
                and time.perf_counter() - t_start + pass_s / 2 >= args.seconds):
            break
    # A shared host switches between a fast and a slow state every few
    # seconds, so the fastest repetition of an op says more about the host's
    # state than about the op.  Each op gets the median of its repetitions;
    # ops_per_s and suite_s are one pass over the mix at those medians, and
    # the latency percentiles are taken over every repetition of every op.
    samples = np.array(rows)
    med = np.median(samples, axis=0)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_oneshot" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / float(med.sum()),
        "latency_p50_ms": float(np.percentile(samples, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(samples, 90)) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "suite_s": float(med.sum()),
    }
    counts = {"setup_reps": SETUP_REPS, "passes": len(rows), "ops_per_pass": len(ops),
              "latency_samples": int(samples.size)}
    return tally, True, metrics, E2E_UNITS, counts


def _spawn_ms(code, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    return (time.perf_counter() - t0) * 1e3


def cli_startup(wl, ops, tally):
    """Median start-up of a bare, a numpy and an adhmkit process, and of each command."""
    codes = ("pass", "import numpy", "import adhmkit.cli")
    times = {code: [] for code in codes}
    for _ in range(SPAWN_REPS):
        for code in codes:
            times[code].append(_spawn_ms(code, wl.env))
    start, with_numpy, with_adhmkit = (statistics.median(times[code]) for code in codes)
    lat = []
    for _ in range(2):
        p_lat, outs, _ = run_pass(ops)
        check_pass(wl, ops, outs, tally)
        lat.append(p_lat)
    command_ms = float(np.median(lat, axis=0).mean()) * 1e3
    return {"cli.python_start_ms": start, "cli.numpy_import_ms": with_numpy - start,
            "cli.adhmkit_import_ms": with_adhmkit - with_numpy,
            "cli.unaccounted_ms": command_ms - with_adhmkit}


def traced_run(cls, args, workdir):
    t_start = time.perf_counter()
    wl = cls(args.seed, workdir, args.smoke)
    ops = wl.setup()
    wl.warm(ops)
    tally, tracer = Tally(ops), Tracer()
    metrics = {f"cli.{name}": 0.0 for name in CLI_METRICS}  # no CLI process on the path
    if wl.name == "cli_oneshot":
        metrics.update(cli_startup(wl, ops, tally))
    tops = wl.traced_ops(ops)
    plain_lat, plain_s, traced_s, digests = [], 0.0, 0.0, set()
    while True:
        lat, plain_outs, p_s = run_pass(tops)
        tracer.install()
        try:
            _, traced_outs, t_s = run_pass(tops, tracer)
        finally:
            tracer.uninstall()
        check_pass(wl, tops, plain_outs, tally)
        check_pass(wl, tops, traced_outs, tally)
        digests |= {digest(wl, plain_outs), digest(wl, traced_outs)}
        plain_lat.append(lat)
        plain_s += p_s
        traced_s += t_s
        if time.perf_counter() - t_start >= args.seconds:
            break
    if wl.name == "cli_oneshot":
        # cli.unaccounted_ms so far is command latency minus process start-up
        metrics["cli.main_ms"] = float(np.median(plain_lat, axis=0).mean()) * 1e3
        metrics["cli.unaccounted_ms"] -= metrics["cli.main_ms"]
    n_traced = tracer.op_id + 1
    metrics.update(tracer.layer_metrics(n_traced))
    metrics["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    tracer.save(os.path.join(ROOT, ".perfbench", f"spans-{wl.name}-seed{args.seed}.npz"))
    samples = {"traced_ops": n_traced, "spans": len(tracer.start),
               "output_digests": sorted(digests)}
    return tally, len(digests) == 1, metrics, layer_metric_units(), samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no minimum op count (self-test only)")
    args = parser.parse_args(argv)
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=out_dir)
    try:
        run = traced_run if args.trace else timed_run
        tally, outputs_ok, metrics, units, samples = run(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    report = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed),
              "samples": samples, **tally.report()}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bool(outputs_ok and tally.unexplained == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
