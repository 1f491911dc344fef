"""AdamW with decoupled weight decay.

The moment decay rates ``BETA1`` = 0.9 and ``BETA2`` = 0.999 and the
denominator guard ``EPS`` = 1e-8 are AdamW's published defaults
(Loshchilov & Hutter, arXiv 1711.05101). They are module constants, not
options: no run sets another value, so the learning rate and the weight
decay, both from ``TrainConfig``, are the only hyperparameters, and the
step count ``t`` with the moments is all the state a resumed run needs.

Moments are bias-corrected with the step count incremented before the
correction; decay is applied to the parameter directly rather than mixed
into the moment estimates.

The step is bitwise equal to the per-tensor formula

    m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
    p -= lr * (m/c1) / (sqrt(v/c2) + eps);  p -= (lr*wd) * p

(b1, b2 and eps being ``BETA1``, ``BETA2`` and ``EPS`` in float32)
evaluated one whole-tensor float32 operation at a time. Instead of a
dozen passes over each tensor, each allocating a temporary, it views
parameters, gradients and moments as flat arrays and runs the same
operations, in the same order, on chunks of ``_CHUNK`` elements, in
place and through two work buffers of one chunk each: the six
streams of a chunk stay in one core's L2 cache. Every operation is one
exactly rounded IEEE float32 operation on the same operands as in the
per-tensor formula, so the chunking changes no bit.

Every gradient is checked before anything is written: a gradient whose
shape differs from its parameter's raises ValueError, and a non-finite
global gradient norm raises FloatingPointError, both with every
parameter, moment and the step count unchanged. The norm is the square
root of a fixed-order sum: each chunk's float32 self-dot, added as a
Python float in chunk order.

One worker thread per usable core takes chunks from a shared queue, so a
worker that another process slows down takes fewer of them. numpy
releases the GIL inside its elementwise loops, so the workers run in
parallel; chunks are disjoint and no element depends on another, so the
result does not depend on how the threads are scheduled. The check phase
runs on the same workers, which each store a chunk's self-dot in that
chunk's slot of a list.

Before the workers start, the step stops OpenBLAS's helper threads with
the library's own ``blas_thread_shutdown_``. After a threaded GEMM the
helper keeps spinning on a core, and the step begins right after the
backward's last GEMM, so the helper would take a core from the two
workers for the whole step. Measured on a 2-core host with 2 BLAS
threads, medians over steps 5-14 of the bench's ``train_encoder`` model
(47M parameters): with the helper spinning, the check phase took 22-25
ms, the update 169-173 ms and the whole step 466-493 ms; with it
stopped, 13-14, 124-127 and 399-406 ms, every bit of the result the
same. Setting one BLAS thread around the step does not stop the helper
(update 170 ms), and one BLAS thread for the whole run gives an update
of 133 ms but slows the forward and backward as much (step 475 ms).
The stop takes about 0.03 ms, and the next BLAS call that uses more than
one thread starts the helper again, about 0.05 ms slower than usual; the
check phase's chunk self-dots do not. Each step looks the function up
in each OpenBLAS library that ``/proc/self/maps`` names (numpy's, and
scipy's where scipy is loaded), so a library mapped after the first step
has its helper stopped too. A lookup takes about 0.2 ms with one library
mapped, against about 0.3 s for a step of the bench's ``train_encoder``.
Where there is none (another BLAS, or not Linux) the step stops nothing,
and with one BLAS thread there is no helper to stop. No other thread may
be inside a BLAS call while a step runs; ``train`` and the bench call it
from their one thread.
"""

from __future__ import annotations

import ctypes
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# elements per chunk: 256 KB per float32 stream
_CHUNK = 65536

_ZEROS = np.zeros(_CHUNK, dtype=np.float32)  # the gradient of a parameter without one
_ZEROS.flags.writeable = False

_pool = None  # (pid, workers, executor or None), made by the first step of a process


def _executor():
    """(worker count, executor); no executor on a 1-core host."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():  # a forked child needs its own threads
        if hasattr(os, "sched_getaffinity"):
            n = len(os.sched_getaffinity(0))
        else:
            n = os.cpu_count() or 1
        _pool = (os.getpid(), n, ThreadPoolExecutor(n, "adamw") if n > 1 else None)
    return _pool[1], _pool[2]


def _blas_thread_shutdowns():
    """``blas_thread_shutdown_`` of each OpenBLAS library this process has
    mapped; none where there is none."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:  # not Linux
        return ()
    stops = []
    for path in paths:
        try:
            stop = getattr(ctypes.CDLL(path), "blas_thread_shutdown_", None)
        except OSError:
            continue
        if stop is not None:
            stops.append(stop)
    return tuple(stops)


def _flat_data(p):
    if p.data.dtype != np.float32 or not p.data.flags.c_contiguous:
        raise ValueError(
            f"AdamW needs C-contiguous float32 parameters, got {p.data.dtype} "
            f"with shape {p.data.shape}"
        )
    return p.data.reshape(-1)


def _run(work, items, *args):
    """``work(items, *args)``, with ``items`` shared out among the workers."""
    n, executor = _executor()
    if executor is None:
        work(items, *args)
        return
    # one end marker per worker; each worker stops at the first it takes
    todo = queue.SimpleQueue()
    for item in items + [None] * n:
        todo.put(item)
    shares = [executor.submit(work, iter(todo.get, None), *args) for _ in range(n)]
    for share in shares:
        share.result()


def _self_dots(items, dots):
    """``dots[i] = g . g`` in float32 for each ``(i, g)`` of ``items``."""
    for i, g in items:
        dots[i] = float(np.dot(g, g))


def _update(chunks, c1, c2, lr, lr_wd):
    """Run the AdamW update on ``chunks`` of (p, g, m, v) flat slices."""
    a = np.empty(_CHUNK, dtype=np.float32)
    b = np.empty(_CHUNK, dtype=np.float32)
    b1, b2, eps = np.float32(BETA1), np.float32(BETA2), np.float32(EPS)
    one_b1 = np.float32(1.0) - b1
    one_b2 = np.float32(1.0) - b2
    for p, g, m, v in chunks:
        n = p.size
        a_, b_ = a[:n], b[:n]
        m *= b1
        np.multiply(one_b1, g, out=a_)
        m += a_
        np.multiply(g, g, out=a_)
        np.multiply(one_b2, a_, out=a_)
        v *= b2
        v += a_
        np.divide(m, c1, out=a_)
        np.multiply(lr, a_, out=a_)
        np.divide(v, c2, out=b_)
        np.sqrt(b_, out=b_)
        b_ += eps
        a_ /= b_
        p -= a_
        if lr_wd is not None:
            np.multiply(lr_wd, p, out=a_)
            p -= a_


class AdamW:
    """AdamW over ``params``. ``lr`` and ``weight_decay`` have no defaults
    here: a run takes them from its ``TrainConfig``, which holds the only
    ones. ``lr`` 0, which moves no parameter, is allowed."""

    def __init__(self, params, lr, weight_decay):
        if lr < 0:
            raise ValueError(f"learning rate must be nonnegative, got {lr}")
        self.params = list(params)
        for p in self.params:
            _flat_data(p)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        # np.zeros, unlike zeros_like, leaves the pages untouched until the
        # first step, so moments that restore_optimizer replaces cost no memory
        self.m = [np.zeros(p.data.shape, dtype=np.float32) for p in self.params]
        self.v = [np.zeros(p.data.shape, dtype=np.float32) for p in self.params]

    def step(self):
        """One AdamW update of every parameter from its ``grad``. No other
        thread may be inside a BLAS call while it runs: it stops OpenBLAS's
        helper threads under any such call (see the module docstring)."""
        # every parameter is checked before the first one is touched
        chunks = []
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is not None:
                if g.shape != p.data.shape:
                    raise ValueError(
                        f"gradient shape {g.shape} does not match parameter shape {p.data.shape}"
                    )
                g = np.ascontiguousarray(g, dtype=np.float32).reshape(-1)
            p, m, v = _flat_data(p), m.reshape(-1), v.reshape(-1)
            for i in range(0, p.size, _CHUNK):
                j = min(i + _CHUNK, p.size)
                chunks.append((p[i:j], _ZEROS[: j - i] if g is None else g[i:j], m[i:j], v[i:j]))
        if _executor()[1] is not None:
            for stop in _blas_thread_shutdowns():
                stop()
        dots = [0.0] * len(chunks)
        _run(_self_dots, [(i, chunk[1]) for i, chunk in enumerate(chunks)], dots)
        norm = math.sqrt(sum(dots))
        if not math.isfinite(norm):
            err = FloatingPointError(f"non-finite gradient norm {norm!r}")
            err.norm = norm
            raise err
        self.t += 1
        c1 = np.float32(1.0 - BETA1**self.t)
        c2 = np.float32(1.0 - BETA2**self.t)
        lr = np.float32(self.lr)
        wd = np.float32(self.weight_decay)
        _run(_update, chunks, c1, c2, lr, lr * wd if wd != 0.0 else None)
