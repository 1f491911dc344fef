"""Span tracing for the benchmark, done entirely from outside ``ynetr``.

:class:`Tracer` wraps the public functions of the ``ynetr`` modules
(rebinding every module attribute that refers to them), a few class
methods (``Tensor.backward``, ``AdamW.step``) and the ``forward`` of
chosen model instances. Each wrapped call records a span; spans nest
through a stack, so every name gets a total and a self time (its total
minus the part its child spans cover). Convolution kernel calls are
attributed to the module that owns the weight by the identity of ``w``
against ``param.data`` from ``named_parameters()``.

Nothing is patched until :meth:`Tracer.install`, and :meth:`Tracer.remove`
puts every original back, so an untraced run executes the program as is.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# FLOPs of one kernel call, from shapes. Backward computes both the input
# and the weight gradient, so it costs two forward passes.
def _conv_fwd_flop(x, w, stride, pad):
    cout, cin, k = w.shape[0], w.shape[1], w.shape[2]
    out = [(n + 2 * pad - k) // stride + 1 for n in x.shape[1:]]
    return 2.0 * cout * cin * k**3 * out[0] * out[1] * out[2]


def _conv_bwd_flop(x, w, g, stride, pad):
    cout, cin, k = w.shape[0], w.shape[1], w.shape[2]
    return 4.0 * cout * cin * k**3 * g[0].size


def _convt_fwd_flop(x, w, stride, pad):
    cin, cout, k = w.shape[0], w.shape[1], w.shape[2]
    return 2.0 * cin * cout * k**3 * x[0].size


def _convt_bwd_flop(x, w, g, stride, pad):
    return 2.0 * _convt_fwd_flop(x, w, stride, pad)


KERNELS = {
    "conv3d_forward": ("fwd", _conv_fwd_flop),
    "conv3d_backward": ("bwd", _conv_bwd_flop),
    "convt3d_forward": ("fwd", _convt_fwd_flop),
    "convt3d_backward": ("bwd", _convt_bwd_flop),
}

# span name of each wrapped module-level function
FUNCTIONS = {
    ("ynetr.phantom", "generate_phantom"): "phantom.generate",
    ("ynetr.volume", "normalize_intensity"): "volume.normalize",
    ("ynetr.wavelet", "split_frequency"): "wavelet.split",
    ("ynetr.sampling", "sample_window"): "sampling.draw",
    ("ynetr.sampling", "sample_any_window"): "sampling.draw",
    ("ynetr.losses", "segmentation_loss"): "losses.loss",
    ("ynetr.checkpoint", "save_checkpoint"): "checkpoint.save",
    ("ynetr.checkpoint", "load_checkpoint"): "checkpoint.load",
    ("ynetr.checkpoint", "restore_model"): "checkpoint.restore",
    ("ynetr.inference", "infer_volume"): "inference.infer_volume",
}

# model submodules whose forward gets its own span
MODEL_PARTS = (
    "lf_branch",
    "lf_branch.encoder",
    "lf_branch.stem",
    "hf_branch",
    "hf_branch.encoder",
    "hf_branch.stem",
    "decoder",
)


def conv_paths(model):
    """Map ``id(weight array)`` to the module path of every (transposed) conv."""
    return {
        id(p.data): name.rsplit(".", 1)[0]
        for name, p in model.named_parameters()
        if p.data.ndim == 5
    }


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self._stack = []
        self._undo = []
        self._weights = {}
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self):
        """Drop everything recorded so far."""
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.gflop = defaultdict(float)
        self.fallbacks = 0

    def open(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def close(self):
        name, t0, child = self._stack.pop()
        dur = time.perf_counter() - t0
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def abandon(self):
        """Drop the spans left open by an exception, unrecorded."""
        self._stack.clear()

    @contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch the loaded ``ynetr`` package; undone by :meth:`remove`."""
        ck = sys.modules["ynetr._convkernels"]
        for kname, (direction, flop) in KERNELS.items():
            fn = getattr(ck, kname)
            self._rebind(fn, self._kernel(kname, direction, flop, fn))
        for (modname, attr), name in FUNCTIONS.items():
            fn = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, fn)
            if attr == "sample_window":
                wrapped = self._count_fallbacks(wrapped)
            self._rebind(fn, wrapped)
        self._patch(sys.modules["ynetr.autograd"].Tensor, "backward", "autograd.backward")
        self._patch(sys.modules["ynetr.optim"].AdamW, "step", "optim.step")
        self._patch(sys.modules["ynetr.model"].YNetr, "forward", "model.fwd")

    def watch_model(self, model):
        """Attribute conv calls to ``model``'s modules and span its parts."""
        self._weights = conv_paths(model)
        for path in MODEL_PARTS:
            mod = model
            for part in path.split("."):
                mod = getattr(mod, part)
            mod.__dict__["forward"] = self._wrap(f"model.{path}.fwd", mod.forward)
            self._undo.append(lambda mod=mod: mod.__dict__.pop("forward"))

    def remove(self):
        while self._undo:
            self._undo.pop()()
        self._weights = {}

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "ynetr" and not modname.startswith("ynetr."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append(lambda m=mod, a=attr: setattr(m, a, original))

    def _patch(self, cls, attr, name):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original))
        self._undo.append(lambda: setattr(cls, attr, original))

    def _count_fallbacks(self, fn):
        from ynetr.sampling import NoBackgroundError, NoForegroundError

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except (NoForegroundError, NoBackgroundError):
                self.fallbacks += 1
                raise

        return counted

    def _kernel(self, kname, direction, flop, fn):
        @functools.wraps(fn)
        def traced(x, w, *args):
            path = self._weights.get(id(w), "unattributed")
            name = f"conv.{path}.{direction}"
            self.open(name)
            try:
                return fn(x, w, *args)
            finally:
                dur = self.close()
                self.total[f"convkernels.{kname}"] += dur
                self.calls[f"convkernels.{kname}"] += 1
                self.gflop[kname] += flop(x, w, *args) / 1e9

        return traced


def table_rows(total, self_time, calls, ops, reference_s):
    """Rows (span, calls, total, self, self share of ``reference_s``) per op,
    largest self time first. Kernel totals, which have no span, are left out."""
    rows = [
        (name, calls[name] / ops, tot / ops, self_time[name] / ops,
         self_time[name] / ops / reference_s if reference_s else float("nan"))
        for name, tot in total.items()
        if name in self_time
    ]
    return sorted(rows, key=lambda r: -r[3])


def format_table(rows, unit):
    lines = [f"{'span':<42} {'calls/' + unit:>10} {'total s':>10} {'self s':>10} {'self %':>7}"]
    for name, calls, tot, self_s, share in rows:
        lines.append(f"{name:<42} {calls:>10.2f} {tot:>10.4f} {self_s:>10.4f} {100 * share:>6.1f}%")
    return lines


def percentile_tail(values):
    """Highest of p99/p90/p75 with at least ten samples beyond it, or None."""
    n = len(values)
    for q in (0.99, 0.90, 0.75):
        if n * (1.0 - q) >= 10:
            return q, float(np.quantile(values, q))
    return None
