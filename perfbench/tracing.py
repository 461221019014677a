"""Per-layer tracing of adhmkit from outside the package.

``Tracer.install`` wraps the public functions of each adhmkit module and the
``numpy.linalg`` kernels that adhmkit calls, rebinding every module namespace
that imported them; ``uninstall`` puts the originals back.  Spans (name,
start, end, parent span, op id) are kept in flat in-memory arrays and turned
into per-op call counts and self times only after the traced passes end.

Layers are named after the modules.  ``kernel`` is the ``numpy.linalg``
boundary: only calls made through ``numpy.linalg.<fn>`` are seen, so work
that numpy routes internally (the eigenvalue solve inside ``np.roots``, the
SVD inside ``np.linalg.cond``) is not counted.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np
import numpy.linalg

# functions that get a span, by layer (= adhmkit module)
SPANNED = {
    "hirz": ("validate_hirz", "validate_p1", "validate_p2", "validate_p3", "validate_p3_direct",
             "to_chart", "from_chart", "act_gl2", "hirz_adhm", "canonicalize", "orbit_equal",
             "transition_omega", "syst_rank", "jacobian_nullity"),
    "plane": ("validate_plane", "canonical_form", "joint_spectrum", "transition_plane", "act_gl",
              "plane_adhm"),
    "geometry": ("pencil_form", "base_support", "chart_support", "spectrum_vs_pencil_check",
                 "p1_to_tot", "ytilde_to_p1"),
    "linalg": ("rank_tol", "kernel_basis", "eigenvalues", "greedy_match", "binary_form_roots"),
    "sigma": ("sigma_matrix",),
    "serialize": ("loads", "dumps", "decode", "encode"),
}
# functions that are only counted: they are called too often for a span each
COUNTED = {"linalg": ("as_matrix", "freeze"), "sigma": ("angle_pair",)}
# numpy.linalg function -> kernel metric name (eig and eigvals count together)
KERNEL = {"svd": "svd", "det": "det", "eig": "eig", "eigvals": "eig", "solve": "solve",
          "inv": "inv", "qr": "qr"}
CLI_METRICS = ("python_start_ms", "numpy_import_ms", "adhmkit_import_ms", "main_ms",
               "unaccounted_ms")


def property_names():
    from adhmkit.propsuite import PROPERTIES

    return sorted(PROPERTIES)


def layer_metric_units():
    """Every per-layer metric name, in output order, with its unit."""
    out = {f"cli.{name}": "ms" for name in CLI_METRICS}
    out.update({f"serialize.{fn}.self_ms": "ms/op" for fn in SPANNED["serialize"]})
    out["serialize.bytes_per_op"] = "B/op"
    for layer in ("hirz", "plane", "geometry", "linalg", "sigma"):
        for fn in SPANNED[layer]:
            out[f"{layer}.{fn}.calls"] = "calls/op"
            out[f"{layer}.{fn}.self_ms"] = "ms/op"
        for fn in COUNTED.get(layer, ()):
            out[f"{layer}.{fn}.calls"] = "calls/op"
    out.update({f"propsuite.{name}.ms": "ms/op" for name in property_names()})
    out.update({f"kernel.{k}.calls": "calls/op" for k in dict.fromkeys(KERNEL.values())})
    out["kernel.svd.ms"] = "ms/op"
    out["kernel.ms"] = "ms/op"
    out["kernel.svd.flops_est"] = "flop/op"
    out["trace.overhead_pct"] = "%"
    return out


def svd_flops(a, full_matrices=True, compute_uv=True, *args, **kwargs):
    """Flop estimate of one LAPACK SVD, computed from the shape, not measured.

    Real counts from Golub & Van Loan, Matrix Computations (4th ed.), table in
    section 8.6.3, for an m x n matrix with m >= n; a complex flop counts as
    four real ones; stacked matrices multiply the count.
    """
    a = np.asarray(a)
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    if not compute_uv:
        real = 4 * m * n * n - 4 * n**3 / 3
    elif full_matrices:
        real = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        real = 14 * m * n * n + 8 * n**3
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    return batch * real * (4 if np.iscomplexobj(a) else 1)


class Tracer:
    """Spans and counters for one traced run; install/uninstall around passes."""

    def __init__(self):
        self.span_names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.svd_flops = 0.0
        self.io_bytes = 0
        self.op_id = -1
        self._stack = [-1]
        self._saved = []

    # -- wrappers ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def _span(self, fn, name, after=None):
        nid = self._name_id(name)
        names, parents, ops, starts, ends, stack = (self.name, self.parent, self.op, self.start,
                                                    self.end, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add_flops(self, args, kwargs, result):
        self.svd_flops += svd_flops(*args, **kwargs)

    def _add_in(self, args, kwargs, result):
        self.io_bytes += len(args[0] if args else kwargs["text"])

    def _add_out(self, args, kwargs, result):
        self.io_bytes += len(result)

    # -- install / uninstall ------------------------------------------------

    def _bind(self, target, key, value):
        if isinstance(target, dict):
            self._saved.append((target, key, target[key]))
            target[key] = value
        else:
            self._saved.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self):
        import adhmkit.cli  # noqa: F401  (load every module that re-exports functions)
        from adhmkit.propsuite import PROPERTIES

        modules = [m for name, m in sys.modules.items()
                   if name == "adhmkit" or name.startswith("adhmkit.")]
        holders = {}
        for mod in modules:
            for attr, value in vars(mod).items():
                if callable(value):
                    holders.setdefault(id(value), []).append((mod, attr))
        after = {"serialize.loads": self._add_in, "serialize.dumps": self._add_out}

        def rebind(layer, fn_name, make):
            orig = getattr(sys.modules[f"adhmkit.{layer}"], fn_name)
            wrapped = make(orig, f"{layer}.{fn_name}")
            for mod, attr in holders.get(id(orig), ()):
                self._bind(mod, attr, wrapped)

        for layer, fns in SPANNED.items():
            for fn_name in fns:
                rebind(layer, fn_name,
                       lambda orig, name: self._span(orig, name, after.get(name)))
        for layer, fns in COUNTED.items():
            for fn_name in fns:
                rebind(layer, fn_name, self._counter)
        for np_name, kernel in KERNEL.items():
            orig = getattr(numpy.linalg, np_name)
            hook = self._add_flops if np_name == "svd" else None
            self._bind(numpy.linalg, np_name, self._span(orig, f"kernel.{kernel}", hook))
        for prop, fn in list(PROPERTIES.items()):
            self._bind(PROPERTIES, prop, self._span(fn, f"propsuite.{prop}"))

    def uninstall(self):
        while self._saved:
            target, key, value = self._saved.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    # -- results --------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "op": np.frombuffer(self.op, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez(path, span_names=np.array(self.span_names), **self.arrays())

    def layer_metrics(self, n_ops):
        """Per-op counts and times of every spanned and counted function.

        A span's self time is its duration minus the durations of its direct
        children; calls that are only counted stay inside their caller's
        self time.
        """
        sp = self.arrays()
        k = len(self.span_names)
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ms = np.bincount(sp["name"], weights=dur - child, minlength=k) * 1e3 / n_ops
        total_ms = np.bincount(sp["name"], weights=dur, minlength=k) * 1e3 / n_ops
        calls = np.bincount(sp["name"], minlength=k) / n_ops
        ids = self._ids
        out = {}
        for name, unit in layer_metric_units().items():
            base, _, kind = name.rpartition(".")
            if base in ids and kind == "calls":
                out[name] = float(calls[ids[base]])
            elif base in ids and kind == "self_ms":
                out[name] = float(self_ms[ids[base]])
            elif base in ids and kind == "ms":
                out[name] = float(total_ms[ids[base]])
            elif base in self.counts and kind == "calls":
                out[name] = self.counts[base] / n_ops
        kernel_ids = [ids[f"kernel.{x}"] for x in dict.fromkeys(KERNEL.values())
                      if f"kernel.{x}" in ids]
        out["kernel.ms"] = float(total_ms[kernel_ids].sum()) if kernel_ids else 0.0
        out["kernel.svd.flops_est"] = self.svd_flops / n_ops
        out["serialize.bytes_per_op"] = self.io_bytes / n_ops
        return out
