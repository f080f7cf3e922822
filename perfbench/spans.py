"""Span recorder that times sqgci's layers from outside the program.

`Tracer.install()` rebinds the public functions of the layer modules in
every place the package refers to them: the defining module, each
`from .x import y` binding in the other sqgci modules and the package
namespace, the arithmetic and construction methods of `TorusField`, and
the `scipy.fft.rfft2`/`irfft2` attributes that `fields` looks up at call
time. `uninstall()` puts every original back. Nothing in `src/` changes.

A span is `[name, start, end, parent, op, meta]`; spans stay in memory
and `dump()` writes them out when the run ends. A span's self time is
its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager

LAYERS = ("fields", "multipliers", "kernels", "norms", "iteration", "verify", "cli")
FIELD_METHODS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                 "pad_to", "trim")
ARITH = {f"fields.TorusField.{m}" for m in FIELD_METHODS if m != "__init__"}
FFTS = ("rfft2", "irfft2")
STAGES = {
    "iteration.build_f_next": "amplitudes",
    "iteration.q_m1": "qM1",
    "iteration.q_m2": "qM2",
    "iteration.q_m3": "qM3",
    "iteration.q_t": "qT",
    "iteration.q_d": "qD",
}


def _sqf1_bytes(band):
    return 20 + 16 * (2 * band + 1) ** 2


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# Extra facts recorded on a span, computed from the call's arguments
# and result after it returns. Keyed by span name.
_META = {
    "fields.TorusField.__init__": lambda a, k, r: a[0].coeffs.nbytes,
    "fields.to_grid": lambda a, k, r: int(_arg(a, k, 1, "N")),
    "fields.read_sqf1": lambda a, k, r: _sqf1_bytes(r.band),
    "fields.write_sqf1": lambda a, k, r: _sqf1_bytes(_arg(a, k, 0, "f").band),
    "verify.weak_residual": lambda a, k, r: len(r),
    "scipy.fft.rfft2": lambda a, k, r: int(_arg(a, k, 0, "x").shape[0]),
    "scipy.fft.irfft2": lambda a, k, r: int(_arg(a, k, 1, "s")[0]),
}


class Tracer:
    """Collects spans for one process; `op` tags spans with the
    operation they belong to (None outside operations)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.flux_args = []   # (f, g) of each nonlinear_flux call in the op
        self.bindings = []    # (owner, name, original) restored by uninstall
        self.wrapped = {}     # id(original) -> wrapper

    # -- recording ------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    @contextmanager
    def operation(self, op_id):
        """Root span of one operation; every span opened inside carries
        op_id."""
        self.op = op_id
        self.flux_args = []
        try:
            with self.span("op") as idx:
                yield idx
        finally:
            self.op = None

    def _wrap(self, name, fn):
        if id(fn) in self.wrapped:
            return self.wrapped[id(fn)]
        meta = _META.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if meta is not None:
                tracer.spans[idx][5] = meta(args, kwargs, result)
            elif name == "iteration.nonlinear_flux" and tracer.op is not None:
                # keep the arguments alive so their ids stay unique in the op
                tracer.flux_args.append((args[0], args[1]))
            return result

        wrapper.__traced_original__ = fn
        self.wrapped[id(fn)] = wrapper
        return wrapper

    # -- installing -----------------------------------------------------

    def install(self):
        """Wrap every public layer function and rebind it everywhere the
        package holds a reference to it. Returns the number of names
        rebound."""
        if self.bindings:
            raise RuntimeError("tracer already installed")
        import scipy.fft

        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sqgci.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (f"{layer}.{obj.__name__}", obj)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "sqgci" or mod_name.startswith("sqgci.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    self._rebind(mod, attr, self._wrap(originals[id(obj)][0], obj))
        field_cls = importlib.import_module("sqgci.fields").TorusField
        for meth in FIELD_METHODS:
            fn = field_cls.__dict__[meth]
            self._rebind(field_cls, meth, self._wrap(f"fields.TorusField.{fn.__name__}", fn))
        for name in FFTS:
            fn = getattr(scipy.fft, name)
            self._rebind(scipy.fft, name, self._wrap(f"scipy.fft.{name}", fn))
        return len(self.bindings)

    def _rebind(self, owner, attr, wrapper):
        self.bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.bindings):
            setattr(owner, attr, original)
        self.bindings = []
        self.wrapped = {}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# -- per-operation layer metrics -----------------------------------------

def _children(spans, lo, hi):
    kids = {i: [] for i in range(lo, hi)}
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent is not None and parent in kids:
            kids[parent].append(i)
    return kids


def op_metrics(tracer, root, extra=None):
    """Layer metrics of the operation whose root span index is `root`.

    Times named after a module (`fields.*`, `multipliers.*`, `kernels.*`,
    `norms.*`) are self times; stage times (`iteration.*`, `verify.*`,
    `cli.*`) are inclusive times of the stage's span.
    """
    spans = tracer.spans
    hi = next((i for i in range(root + 1, len(spans)) if spans[i][4] != spans[root][4]),
              len(spans))
    kids = _children(spans, root, hi)
    dur = {i: spans[i][2] - spans[i][1] for i in range(root, hi)}
    selft = {i: dur[i] - sum(dur[c] for c in kids[i]) for i in range(root, hi)}

    m = {k: 0.0 for k in METRICS}
    fft_grid_max = norms_grid_max = 0
    for i in range(root + 1, hi):
        name, meta = spans[i][0], spans[i][5]
        parent = spans[spans[i][3]][0]
        layer = name.split(".", 1)[0]
        if name == "fields.TorusField.__init__":
            m["fields.construct_calls"] += 1
            m["fields.construct_s"] += selft[i]
            m["fields.construct_bytes"] += meta or 0
        elif name in ARITH:
            m["fields.arith_s"] += selft[i]
        elif name.startswith("scipy.fft."):
            n = meta
            m["fields.fft_calls"] += 1
            m["fields.fft_s"] += selft[i]
            m["fields.fft_points"] += n * n
            m["fields.fft_flops"] += 2.5 * n * n * math.log2(n * n)
            m["fields.fft_bytes"] += n * n * 8 + n * (n // 2 + 1) * 16
            fft_grid_max = max(fft_grid_max, n)
        elif name in ("fields.to_grid", "fields.from_grid"):
            m["fields.transfer_s"] += selft[i]
            if name == "fields.to_grid" and parent.startswith("norms."):
                norms_grid_max = max(norms_grid_max, meta)
        elif name in ("fields.read_sqf1", "fields.write_sqf1"):
            m["fields.io_s"] += selft[i]
            m["fields.io_bytes"] += meta
        elif name == "fields.multiply":
            m["fields.multiply_calls"] += 1
        elif name == "multipliers.modulate":
            m["multipliers.modulate_calls"] += 1
            m["multipliers.modulate_s"] += selft[i]
        elif name == "multipliers.inv_div":
            m["multipliers.inv_div_s"] += selft[i]
        elif name in ("multipliers.riesz_commutator", "multipliers.rperp_grad_commutator"):
            m["multipliers.commutator_s"] += selft[i]
        elif layer == "multipliers":
            m["multipliers.symbol_s"] += selft[i]
        elif layer == "kernels":
            m["kernels.calls"] += 1
            m["kernels.s"] += selft[i]
            if name.startswith("kernels.hermitian_violation"):
                m["fields.hermitian_scans"] += 1
        elif name == "norms.linf":
            m["norms.linf_calls"] += 1
            m["norms.linf_s"] += selft[i]
        elif name in ("norms.holder_besov", "norms.holder_quotient", "norms.dyadic_blocks"):
            m["norms.holder_s"] += selft[i]
        elif name == "iteration.nonlinear_flux":
            m["iteration.flux_calls"] += 1
        elif name == "iteration.step":
            staged = 0.0
            for c in kids[i]:
                stage = STAGES.get(spans[c][0])
                if stage is None and spans[c][0].startswith("norms."):
                    stage = "norms"
                if stage is not None:
                    m[f"iteration.{stage}_s"] += dur[c]
                    staged += dur[c]
            m["iteration.checks_s"] += dur[i] - staged
        elif name == "verify.weak_residual":
            m["verify.pairings"] += meta
            m["verify.pairing_s"] += dur[i]
        elif layer == "verify" and not parent.startswith("verify."):
            m["verify.checks_s"] += dur[i]
        if name in LADDER_STAGES:
            m[LADDER_STAGES[name]] += dur[i]
            if name == "ladder.resume":
                # spans that start inside this one are its descendants;
                # meta holds the steps the resumed run asks for
                m["cli.steps_computed"] += sum(
                    1 for j in range(i + 1, hi)
                    if spans[j][0] == "iteration.step" and spans[j][1] < spans[i][2]) / meta
    m["fields.fft_grid_max"] = fft_grid_max
    m["norms.grid_max"] = norms_grid_max
    pairs = {(id(f), id(g)) for f, g in tracer.flux_args}
    calls = len(tracer.flux_args)
    m["iteration.flux_useful_ratio"] = len(pairs) / calls if calls else 0.0
    m["trace.op_s"] = dur[root]
    m["trace.unattributed_s"] = selft[root]
    for k, v in (extra or {}).items():
        m[k] = v
    return m


LADDER_STAGES = {
    "ladder.run": "cli.run_s",
    "ladder.resume": "cli.resume_s",
    "ladder.export": "cli.export_s",
    "ladder.verify": "cli.verify_s",
}

# Per-operation layer metrics and their units; BENCHMARK.json lists
# the same names.
METRICS = {
    "fields.construct_calls": "count", "fields.construct_s": "s",
    "fields.construct_bytes": "B", "fields.hermitian_scans": "count",
    "fields.arith_s": "s",
    "fields.fft_calls": "count", "fields.fft_s": "s", "fields.fft_points": "count",
    "fields.fft_flops": "flop", "fields.fft_bytes": "B", "fields.fft_grid_max": "points",
    "fields.transfer_s": "s", "fields.multiply_calls": "count",
    "fields.io_s": "s", "fields.io_bytes": "B", "fields.fill_ratio": "ratio",
    "multipliers.modulate_calls": "count", "multipliers.modulate_s": "s",
    "multipliers.inv_div_s": "s", "multipliers.symbol_s": "s",
    "multipliers.commutator_s": "s",
    "kernels.calls": "count", "kernels.s": "s",
    "norms.linf_calls": "count", "norms.linf_s": "s", "norms.grid_max": "points",
    "norms.holder_s": "s",
    "iteration.amplitudes_s": "s", "iteration.qM1_s": "s", "iteration.qM2_s": "s",
    "iteration.qM3_s": "s", "iteration.qT_s": "s", "iteration.qD_s": "s",
    "iteration.norms_s": "s", "iteration.checks_s": "s",
    "iteration.flux_calls": "count", "iteration.flux_useful_ratio": "ratio",
    "verify.pairings": "count", "verify.pairing_s": "s", "verify.checks_s": "s",
    "cli.run_s": "s", "cli.resume_s": "s", "cli.export_s": "s", "cli.verify_s": "s",
    "cli.files_written": "count", "cli.bytes_written": "B", "cli.steps_computed": "ratio",
    "trace.op_s": "s", "trace.unattributed_s": "s",
}
# Figures derived from array sizes and the FFT flop estimate, not from
# hardware counters.
COMPUTED = {"fields.construct_bytes", "fields.fft_flops", "fields.fft_bytes",
            "fields.io_bytes"}
