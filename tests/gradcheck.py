"""Central finite-difference gradient checks for every tensor primitive.

Each case builds small random inputs, runs the op, reduces the output to
a scalar with a fixed random weighting, and compares tape gradients to
central differences taken through the same float32 forward path.
"""

import numpy as np

from ynetr.autograd import Tensor, conv3d, conv_transpose3d, layer_norm

FD_H = 1e-3
FD_RTOL = 1e-2


def _loss(out, w):
    return (out * Tensor(w)).sum()


def fd_gradient(build, arrays, idx, w, h=FD_H):
    """Central differences of the weighted-sum loss w.r.t. arrays[idx]."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[idx])
    flat = grad.ravel()
    for j in range(flat.size):
        for sign in (+1.0, -1.0):
            probe = [a.copy() for a in base]
            probe[idx].ravel()[j] += sign * h
            out = build(*[Tensor(p) for p in probe])
            val = float((out.data * w).sum(dtype=np.float64))
            flat[j] += sign * val
    return grad / (2.0 * h)


def check_op(build, arrays, h=FD_H):
    """Worst relative FD-vs-tape error over all inputs of one op.

    Relative error of a gradient vector is measured against its own
    magnitude, max|fd - analytic| / max(|fd|_inf, |analytic|_inf, 1e-3),
    so float32 forward noise on near-zero entries does not swamp ops
    whose gradients span orders of magnitude.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    w = np.random.default_rng(1234).standard_normal(out.data.shape).astype(np.float32)
    _loss(out, w).backward()
    worst = 0.0
    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = fd_gradient(build, arrays, i, w, h=h)
        scale = max(float(np.abs(numeric).max()), float(np.abs(analytic).max()), 1e-3)
        rel = float(np.abs(numeric - analytic).max()) / scale
        worst = max(worst, rel)
    return worst


def _away_from_kinks(arr, margin=0.05):
    """Shift samples off relu/abs kinks so finite differences stay valid."""
    arr = arr.copy()
    small = np.abs(arr) < margin
    arr[small] += np.sign(arr[small] + 1e-6) * margin
    return arr


def primitive_cases(rng):
    """(name, builder, input arrays) for every differentiable primitive."""
    r = lambda *s: rng.standard_normal(s).astype(np.float32)
    rp = lambda *s: (rng.random(s).astype(np.float32) + 0.5)  # positive inputs

    cases = [
        ("add", lambda a, b: a + b, [r(3, 4), r(3, 4)]),
        ("add_broadcast", lambda a, b: a + b, [r(3, 1, 4), r(5, 1)]),
        ("sub", lambda a, b: a - b, [r(2, 5), r(2, 5)]),
        ("mul", lambda a, b: a * b, [r(4, 4), r(4, 4)]),
        ("mul_scalar", lambda a: a * 2.5, [r(3, 3)]),
        ("div", lambda a, b: a / b, [r(3, 4), rp(3, 4)]),
        ("neg", lambda a: -a, [r(6,)]),
        ("matmul", lambda a, b: a @ b, [r(5, 7), r(7, 3)]),
        ("matmul_batched", lambda a, b: a @ b, [r(2, 3, 4), r(2, 4, 3)]),
        ("reshape", lambda a: a.reshape(6, 2), [r(3, 4)]),
        ("permute", lambda a: a.permute(2, 0, 1), [r(2, 3, 4)]),
        ("slice", lambda a: a[1:3, ::2], [r(4, 6)]),
        ("sum_all", lambda a: a.sum(), [r(3, 4)]),
        ("sum_axis", lambda a: a.sum(axis=1), [r(3, 4)]),
        ("sum_keepdims", lambda a: a.sum(axis=0, keepdims=True), [r(3, 4)]),
        ("mean_all", lambda a: a.mean(), [r(3, 4)]),
        ("mean_axis", lambda a: a.mean(axis=-1), [r(2, 3, 4)]),
        ("sqrt", lambda a: a.sqrt(), [rp(3, 4)]),
        ("relu", lambda a: a.relu(), [_away_from_kinks(r(4, 4))]),
        ("gelu", lambda a: a.gelu(), [r(4, 4)]),
        ("softmax", lambda a: a.softmax(axis=-1), [r(4, 5)]),
        ("softmax_axis0", lambda a: a.softmax(axis=0), [r(3, 4)]),
        ("log_softmax", lambda a: a.log_softmax(axis=-1), [r(4, 5)]),
        (
            "layer_norm",
            lambda a, w, b: layer_norm(a, w, b, axis=-1),
            [r(4, 6), rp(6,), r(6,)],
        ),
        ("conv3d", lambda x, w: conv3d(x, w), [r(2, 3, 3, 3), r(2, 2, 3, 3, 3)]),
        ("conv3d_noncubic", lambda x, w: conv3d(x, w), [r(2, 5, 4, 3), r(3, 2, 3, 3, 3)]),
        ("conv3d_k1", lambda x, w: conv3d(x, w), [r(3, 3, 4, 2), r(2, 3, 1, 1, 1)]),
        (
            "conv_transpose3d",
            lambda x, w: conv_transpose3d(x, w),
            [r(2, 2, 2, 2), r(2, 1, 2, 2, 2)],
        ),
        (
            "conv_transpose3d_k3",
            lambda x, w: conv_transpose3d(x, w),
            [r(2, 2, 1, 2), r(2, 1, 3, 3, 3)],
        ),
    ]
    return cases


def run_battery(seed):
    """All primitive checks for one seed; returns {name: max rel error}."""
    rng = np.random.default_rng(seed)
    return {name: check_op(build, arrays) for name, build, arrays in primitive_cases(rng)}
