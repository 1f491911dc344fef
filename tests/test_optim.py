import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import ynetr.optim as optim
from adamw_reference import ReferenceAdamW
from ynetr.autograd import Tensor
from ynetr.optim import _CHUNK, AdamW


def _param(value):
    p = Tensor(np.asarray(value, dtype=np.float32), requires_grad=True)
    return p


def test_first_step_bias_corrected():
    # with g=1 from fresh state, m_hat = v_hat = 1 exactly
    p = _param([1.0])
    opt = AdamW([p], lr=1e-4, weight_decay=0.0)
    p.grad = np.ones(1, dtype=np.float32)
    opt.step()
    expected = 1.0 - 1e-4 * (1.0 / (1.0 + 1e-8))
    np.testing.assert_allclose(p.data, expected, rtol=1e-6)
    assert opt.t == 1


def test_zero_grad_zero_decay_is_identity():
    p = _param([0.5, -2.0, 3.0])
    before = p.data.copy()
    opt = AdamW([p], lr=1e-2, weight_decay=0.0)
    for _ in range(5):
        p.grad = np.zeros(3, dtype=np.float32)
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_pure_decoupled_decay():
    p = _param([1.0])
    opt = AdamW([p], lr=1e-4, weight_decay=0.01)
    p.grad = np.zeros(1, dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p.data, 1.0 - 1e-6, rtol=1e-6)


def test_none_grad_treated_as_zero():
    p = _param([2.0])
    opt = AdamW([p], lr=1e-3, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, [2.0])


def test_shape_mismatch_rejected():
    p = _param([1.0, 2.0])
    opt = AdamW([p], lr=1e-3)
    p.grad = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        opt.step()


def test_moment_invariants_random_steps():
    rng = np.random.default_rng(0)
    p = _param(rng.standard_normal(8))
    opt = AdamW([p], lr=1e-3, weight_decay=0.01)
    for t in range(1, 21):
        p.grad = rng.standard_normal(8).astype(np.float32)
        opt.step()
        assert opt.t == t
        assert (opt.v[0] >= 0).all()
        assert opt.m[0].shape == p.data.shape
        assert np.isfinite(p.data).all()


# -- the chunked step against the per-tensor formula ------------------------

SHAPES = [(1,), (_CHUNK - 1,), (_CHUNK,), (_CHUNK + 1,), (2 * _CHUNK + 3,), (16, 8, 3, 3, 3)]


def _twin_params(seed):
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(s).astype(np.float32) for s in SHAPES]
    return [_param(v) for v in values], [_param(v.copy()) for v in values]


def _state_bytes(params, opt):
    return [a.tobytes() for a in [p.data for p in params] + opt.m + opt.v]


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_step_bitwise_equals_per_tensor_formula(weight_decay):
    params, ref_params = _twin_params(3)
    opt = AdamW(params, lr=1e-2, weight_decay=weight_decay)
    ref = ReferenceAdamW(ref_params, lr=1e-2, weight_decay=weight_decay)
    rng = np.random.default_rng(4)
    for step in range(10):
        for i, (p, q) in enumerate(zip(params, ref_params)):
            if i == 2 and step % 3 == 0:
                p.grad = q.grad = None  # a parameter without a gradient this step
            else:
                g = (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)).astype(np.float32)
                p.grad, q.grad = g, g.copy()
        opt.step()
        ref.step()
    assert opt.t == ref.t == 10
    assert _state_bytes(params, opt) == _state_bytes(ref_params, ref)


def test_step_bitwise_with_one_none_grad():
    params, ref_params = _twin_params(5)
    opt = AdamW(params, lr=1e-3)
    ref = ReferenceAdamW(ref_params, lr=1e-3)
    rng = np.random.default_rng(6)
    for _ in range(10):
        for p, q in zip(params, ref_params):
            g = rng.standard_normal(p.shape).astype(np.float32)
            p.grad, q.grad = g, g.copy()
        params[4].grad = ref_params[4].grad = None
        opt.step()
        ref.step()
    assert _state_bytes(params, opt) == _state_bytes(ref_params, ref)


def test_non_contiguous_parameter_rejected():
    p = Tensor(np.ones((4, 6), dtype=np.float32).T, requires_grad=True)
    with pytest.raises(ValueError, match="C-contiguous float32"):
        AdamW([p])


def test_shape_mismatch_leaves_every_parameter_untouched():
    a, b = _param([1.0, 2.0]), _param([3.0])
    opt = AdamW([a, b], lr=1e-1)
    a.grad = np.ones(2, dtype=np.float32)
    b.grad = np.ones(2, dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        opt.step()
    np.testing.assert_array_equal(a.data, [1.0, 2.0])
    np.testing.assert_array_equal(opt.m[0], [0.0, 0.0])
    assert opt.t == 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_leaves_every_parameter_untouched(monkeypatch, workers, bad):
    params, _ = _twin_params(9)
    rng = np.random.default_rng(10)
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(optim, "_pool", (os.getpid(), workers, pool if workers > 1 else None))
        opt = AdamW(params, lr=1e-3)
        for p in params:
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        opt.step()  # nonzero moments, so that any update would show
        for p in params:
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        params[4].grad[-1] = bad  # in the last chunk of a three-chunk parameter
        before = _state_bytes(params, opt)
        with pytest.raises(FloatingPointError, match=f"non-finite gradient norm {bad!r}") as err:
            opt.step()
    assert repr(err.value.norm) == repr(bad)
    assert _state_bytes(params, opt) == before
    assert opt.t == 1


@pytest.mark.parametrize("workers", [1, 5])
def test_step_independent_of_worker_count(monkeypatch, workers):
    # more workers than cores and a short switch interval: a chunk handled
    # twice or not at all would break the bitwise equality
    params, ref_params = _twin_params(7)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(optim, "_pool", (os.getpid(), workers, pool))
            opt = AdamW(params, lr=1e-3)
            ref = ReferenceAdamW(ref_params, lr=1e-3)
            rng = np.random.default_rng(8)
            for _ in range(3):
                for p, q in zip(params, ref_params):
                    g = rng.standard_normal(p.shape).astype(np.float32)
                    p.grad, q.grad = g, g.copy()
                opt.step()
                ref.step()
    finally:
        sys.setswitchinterval(switch)
    assert _state_bytes(params, opt) == _state_bytes(ref_params, ref)
