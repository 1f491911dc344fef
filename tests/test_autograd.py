import weakref

import numpy as np
import pytest

import ynetr._convkernels as ck
import ynetr.autograd as autograd
from gradcheck import FD_RTOL, run_battery
from ynetr.autograd import (
    Tensor,
    conv3d,
    conv_transpose3d,
    layer_norm,
    no_grad,
)
from ynetr.model import ModelConfig


def ensure_grads(params):
    """Give every parameter a gradient buffer; untouched ones get zeros."""
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


def conv3d_oracle(x, w, stride, pad):
    """Six nested loops, the definitional convolution."""
    cout, cin, k = w.shape[0], w.shape[1], w.shape[2]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad))).astype(np.float64)
    ox, oy, oz = ((n + 2 * pad - k) // stride + 1 for n in x.shape[1:])
    y = np.zeros((cout, ox, oy, oz))
    for o in range(cout):
        for i in range(cin):
            for a in range(ox):
                for b in range(oy):
                    for c in range(oz):
                        patch = xp[
                            i,
                            a * stride : a * stride + k,
                            b * stride : b * stride + k,
                            c * stride : c * stride + k,
                        ]
                        y[o, a, b, c] += (patch * w[o, i]).sum()
    return y


def convt3d_oracle(x, w, stride, pad):
    """Definitional scatter for the transposed convolution."""
    cin, cout, k = w.shape[0], w.shape[1], w.shape[2]
    dims = [(n - 1) * stride + k for n in x.shape[1:]]
    yp = np.zeros((cout, *dims))
    for i in range(cin):
        for o in range(cout):
            for a in range(x.shape[1]):
                for b in range(x.shape[2]):
                    for c in range(x.shape[3]):
                        yp[
                            o,
                            a * stride : a * stride + k,
                            b * stride : b * stride + k,
                            c * stride : c * stride + k,
                        ] += x[i, a, b, c] * w[i, o]
    if pad:
        return yp[:, pad:-pad, pad:-pad, pad:-pad]
    return yp


def convt3d_depth_to_space(x, w):
    """The up-step as one GEMM and one 7-D transposed depth-to-space copy,
    the bitwise oracle of the kernel's copy one offset at a time."""
    cin, cout, s = w.shape[:3]
    _, X, Y, Z = x.shape
    y = w.reshape(cin, -1).T @ x.reshape(cin, -1)
    y = y.reshape(cout, s, s, s, X, Y, Z).transpose(0, 4, 1, 5, 2, 6, 3)
    return y.reshape(cout, X * s, Y * s, Z * s)


def up_steps(cfg):
    """(cin, cout, input grid) of every up-step of a YNetr with ModelConfig
    ``cfg``: the tap projections of a branch, then the decoder's."""
    e, c = cfg.embed_dim, cfg.decoder_channels

    def at(n):  # the grid after n up-steps
        return tuple(g << n for g in cfg.grid)

    return [
        (e, c[1], at(0)),
        (e, c[2], at(0)), (c[2], c[2], at(1)),
        (e, c[3], at(0)), (c[3], c[3], at(1)), (c[3], c[3], at(2)),
        (c[0], c[1], at(0)), (c[1], c[2], at(1)), (c[2], c[3], at(2)), (c[3], c[4], at(3)),
    ]


TINY = ModelConfig(input_dims=(16, 16, 16), embed_dim=32, num_heads=4,
                   decoder_channels=(16, 16, 8, 8, 4))
# the bench's MID and ENCODER models (bench/workloads.py)
MID = ModelConfig(input_dims=(64, 64, 64), embed_dim=192, decoder_channels=(128, 128, 64, 32, 16))
ENCODER = ModelConfig(input_dims=(32, 32, 32), embed_dim=384, decoder_channels=(32, 32, 16, 8, 4))


def _up_step_cases():
    """Every distinct up-step of the tiny, MID, ENCODER and paper-default
    models. Of the paper default's, those on grids up to 16^3, which include
    every K = 768 step; the two on 32^3 and 64^3 grids would need 0.5 and
    2 GB for the kernel and the oracle together."""
    cases = {}
    for name, cfg in (("tiny", TINY), ("mid", MID), ("encoder", ENCODER), ("paper", ModelConfig())):
        for cin, cout, grid in up_steps(cfg):
            if name != "paper" or max(grid) <= 16:
                cases.setdefault((cin, cout, grid), f"{name}-{cin}-{cout}-{grid[0]}")
    return [pytest.param(*shape, id=name) for shape, name in cases.items()]


def _window(stride, k, a, b, c):
    return (
        slice(None),
        slice(a * stride, a * stride + k),
        slice(b * stride, b * stride + k),
        slice(c * stride, c * stride + k),
    )


def conv3d_grad_oracle(x, w, g, stride, pad):
    """(gx, gw) of <conv3d(x, w), g>, one output voxel at a time in float64."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad))).astype(np.float64)
    w64, g64 = w.astype(np.float64), g.astype(np.float64)
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape)
    for a, b, c in np.ndindex(*g.shape[1:]):
        win = _window(stride, k, a, b, c)
        gxp[win] += np.einsum("o,oixyz->ixyz", g64[:, a, b, c], w64)
        gw += np.einsum("o,ixyz->oixyz", g64[:, a, b, c], xp[win])
    nx, ny, nz = x.shape[1:]
    return gxp[:, pad : pad + nx, pad : pad + ny, pad : pad + nz], gw


def convt3d_grad_oracle(x, w, g, stride, pad):
    """(gx, gw) of <conv_transpose3d(x, w), g>, one input voxel at a time."""
    k = w.shape[2]
    gp = np.pad(g, ((0, 0), (pad, pad), (pad, pad), (pad, pad))).astype(np.float64)
    x64, w64 = x.astype(np.float64), w.astype(np.float64)
    gx = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    for a, b, c in np.ndindex(*x.shape[1:]):
        win = _window(stride, k, a, b, c)
        gx[:, a, b, c] = np.einsum("ioxyz,oxyz->i", w64, gp[win])
        gw += np.einsum("i,oxyz->ioxyz", x64[:, a, b, c], gp[win])
    return gx, gw


# (k, stride, pad) of transposed convs. Only k == stride without padding
# is served; the others must be rejected.
CONVT_CASES = [
    (2, 2, 0), (3, 3, 0), (1, 1, 0), (2, 1, 0), (3, 1, 1), (3, 1, 2), (2, 2, 1), (3, 2, 0),
    (3, 2, 1), (2, 3, 0), (4, 2, 1), (1, 2, 0),
]
UP_STEPS = [(k, s, p) for k, s, p in CONVT_CASES if (s, p) == (k, 0)]

REJECTED = r"got stride \d+, padding \d+"


def tape_grads(op, x, w, g):
    """(gx, gw) of <op(x, w), g> through the tape."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    (op(xt, wt) * Tensor(g)).sum().backward()
    return xt.grad, wt.grad


class TestForwardValues:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = a @ Tensor(np.eye(2, dtype=np.float32))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_matmul_against_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        want = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    want[i, j] += float(a[i, k]) * float(b[k, j])
        got = (Tensor(a) @ Tensor(b)).data
        np.testing.assert_allclose(got, want, rtol=1e-5)

    def test_softmax_symmetry(self):
        out = Tensor([0.0, 0.0, 0.0]).softmax(axis=0)
        np.testing.assert_allclose(out.data, 1.0 / 3.0, atol=1e-7)

    def test_conv_delta_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 4, 4, 4)).astype(np.float32)
        k = np.zeros((1, 1, 3, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1, 1] = 1.0
        out = conv3d(Tensor(x), Tensor(k))
        np.testing.assert_array_equal(out.data, x)

    def test_conv_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for k in (1, 3, 5):
            x = rng.standard_normal((2, 6, 5, 7)).astype(np.float32)
            w = rng.standard_normal((3, 2, k, k, k)).astype(np.float32)
            got = conv3d(Tensor(x), Tensor(w)).data
            want = conv3d_oracle(x, w, 1, k // 2)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_conv_transpose_matches_scatter_oracle(self):
        rng = np.random.default_rng(4)
        for s in (1, 2, 3):
            x = rng.standard_normal((2, 3, 4, 3)).astype(np.float32)
            w = rng.standard_normal((2, 3, s, s, s)).astype(np.float32)
            got = conv_transpose3d(Tensor(x), Tensor(w)).data
            want = convt3d_oracle(x, w, s, 0)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_relu_is_bitwise_where(self):
        f32 = np.finfo(np.float32)
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, f32.smallest_subnormal,
                   -f32.smallest_subnormal, 3 * f32.smallest_subnormal, -f32.tiny / 2,
                   f32.tiny, -f32.tiny, f32.max, -f32.max]
        rng = np.random.default_rng(6)
        x = np.concatenate([np.array(special, dtype=np.float32),
                            rng.standard_normal(4096).astype(np.float32)])
        xt = Tensor(x, requires_grad=True)
        out = xt.relu()
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == np.where(x > 0, x, np.float32(0.0)).tobytes()
        # the closure keeps the output, no mask
        saved = [c.cell_contents for c in out._node.backward.__closure__]
        assert [a for a in saved if isinstance(a, np.ndarray) and a is not out.data] == []
        g = rng.standard_normal(x.shape).astype(np.float32)
        (gx,) = out._node.backward(g)
        assert gx.tobytes() == (g * (x > 0)).tobytes()

    def test_up_steps_match_the_tiny_model(self, monkeypatch):
        calls = []
        original = ck.convt3d_forward

        def recorded(x, w, stride, pad):
            calls.append((x.shape[0], w.shape[1], x.shape[1:]))
            return original(x, w, stride, pad)

        monkeypatch.setattr(ck, "convt3d_forward", recorded)
        tiny_model_step()
        # two branches of six tap up-steps, then the decoder's four
        assert len(calls) == 16
        assert sorted(set(calls)) == sorted(set(up_steps(TINY)))

    @pytest.mark.parametrize("cin, cout, grid", _up_step_cases())
    def test_conv_transpose_is_bitwise_depth_to_space(self, cin, cout, grid):
        rng = np.random.default_rng(cin * 7 + cout + grid[0])
        x = rng.standard_normal((cin, *grid), dtype=np.float32)
        w = (rng.standard_normal((cin, cout, 2, 2, 2), dtype=np.float32)
             / np.float32(np.sqrt(cin * 8)))
        got = ck.convt3d_forward(x, w, 2, 0)
        assert got.flags.c_contiguous
        assert got.tobytes() == convt3d_depth_to_space(x, w).tobytes()

    def test_conv_shape_errors(self):
        x = Tensor(np.zeros((2, 4, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="channels"):
            conv3d(x, Tensor(np.zeros((1, 3, 3, 3, 3), dtype=np.float32)))
        with pytest.raises(ValueError, match="channels"):
            conv_transpose3d(x, Tensor(np.zeros((3, 1, 2, 2, 2), dtype=np.float32)))

    def test_conv3d_rejects_an_even_kernel(self):
        x = Tensor(np.zeros((2, 4, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="odd kernel, got 2"):
            conv3d(x, Tensor(np.zeros((1, 2, 2, 2, 2), dtype=np.float32)))

    @pytest.mark.parametrize("kernel, k, stride, pad", [
        ("conv3d_forward", 3, 2, 1), ("conv3d_forward", 3, 1, 0),
        ("conv3d_backward", 3, 2, 1), ("conv3d_backward", 3, 1, 0),
        ("convt3d_forward", 2, 1, 0), ("convt3d_forward", 2, 2, 1),
        ("convt3d_backward", 2, 1, 0), ("convt3d_backward", 2, 2, 1),
    ])
    def test_kernels_reject_a_stride_or_pad_they_do_not_serve(self, kernel, k, stride, pad):
        # shapes the kernel would accept if it served (stride, pad)
        x = np.zeros((2, 4, 4, 4), dtype=np.float32)
        if kernel.startswith("conv3d"):
            w = np.zeros((3, 2, k, k, k), dtype=np.float32)
            out = conv3d_oracle(x, w, stride, pad).astype(np.float32)
        else:
            w = np.zeros((2, 3, k, k, k), dtype=np.float32)
            out = convt3d_oracle(x, w, stride, pad).astype(np.float32)
        args = (x, w, out, stride, pad) if kernel.endswith("backward") else (x, w, stride, pad)
        with pytest.raises(ValueError, match=REJECTED):
            getattr(ck, kernel)(*args)


class TestConvBackwardOracles:
    """Kernel gradients against loop oracles on non-cubic volumes, where a
    shift or wrap-around slip in the flat padded layout would show."""

    # channel pairs whose forward picks every split a of the kernels at k = 3
    SPLITS = {(1, 16): 0, (2, 3): 1, (1, 8): 1, (2, 1): 2, (8, 1): 3}

    def test_channel_pairs_reach_every_split(self):
        picks = {(cin, cout): ck._split(3, cout, cin) for cin, cout in self.SPLITS}
        assert picks == self.SPLITS
        assert set(picks.values()) == {0, 1, 2, 3}

    def test_mid_model_convs_pick_their_split(self):
        # stem.conv2 and decoder.final_conv (16 -> 16), stem.conv1 (1 -> 16)
        # and the input gradient of stem.conv1 (16 -> 1); _split takes cout first
        assert ck._split(3, 16, 16) == 2
        assert ck._split(3, 16, 1) == 0
        assert ck._split(3, 1, 16) == 3

    @pytest.mark.parametrize("cin, cout", list(SPLITS))
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_conv_grads_match_loop_oracle(self, k, pad, stride, cin, cout):
        # same-size convs (odd k, stride 1, pad k // 2) match the oracle;
        # both kernels reject every other (k, stride, pad)
        rng = np.random.default_rng(100 + 9 * k + 3 * pad + stride + cout)
        x = rng.standard_normal((cin, 5, 4, 6)).astype(np.float32)
        w = rng.standard_normal((cout, cin, k, k, k)).astype(np.float32)
        if (k % 2, stride, pad) != (1, 1, k // 2):
            with pytest.raises(ValueError, match="conv3d"):
                ck.conv3d_forward(x, w, stride, pad)
            with pytest.raises(ValueError, match="conv3d"):
                ck.conv3d_backward(x, w, x, stride, pad)
            return
        out = conv3d(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(out, conv3d_oracle(x, w, 1, pad), rtol=1e-5, atol=1e-5)
        g = rng.standard_normal(out.shape).astype(np.float32)
        gx, gw = tape_grads(conv3d, x, w, g)
        want_gx, want_gw = conv3d_grad_oracle(x, w, g, 1, pad)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-5, atol=1e-4)
        np.testing.assert_allclose(gw, want_gw, rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("cin, cout", [(1, 8), (8, 8), (8, 1), (1, 16)])
    def test_conv_grads_match_loop_oracle_over_many_blocks(self, cin, cout):
        # large enough that the kernels split every pass into several blocks
        rng = np.random.default_rng(300 + cin)
        x = rng.standard_normal((cin, 20, 22, 24)).astype(np.float32)
        w = rng.standard_normal((cout, cin, 3, 3, 3)).astype(np.float32)
        out = conv3d(Tensor(x), Tensor(w)).data
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1))).astype(np.float64)
        windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3, 3), axis=(1, 2, 3))
        want = np.einsum("ixyzabc,oiabc->oxyz", windows, w.astype(np.float64))
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-4)
        g = rng.standard_normal(out.shape).astype(np.float32)
        gx, gw = tape_grads(conv3d, x, w, g)
        want_gx, want_gw = conv3d_grad_oracle(x, w, g, 1, 1)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-5, atol=1e-4)
        np.testing.assert_allclose(gw, want_gw, rtol=1e-5, atol=1e-3)

    @pytest.mark.parametrize("cout", [3, 1])
    @pytest.mark.parametrize("k, stride, pad", CONVT_CASES)
    def test_conv_transpose_grads_match_loop_oracle(self, k, stride, pad, cout):
        # up-steps (k == stride, no padding) match the oracle; both kernels
        # reject every other (k, stride, pad)
        rng = np.random.default_rng(200 + 9 * k + 3 * pad + stride + cout)
        x = rng.standard_normal((2, 5, 4, 6)).astype(np.float32)
        w = rng.standard_normal((2, cout, k, k, k)).astype(np.float32)
        if (stride, pad) != (k, 0):
            with pytest.raises(ValueError, match="conv_transpose3d"):
                ck.convt3d_forward(x, w, stride, pad)
            with pytest.raises(ValueError, match="conv_transpose3d"):
                ck.convt3d_backward(x, w, x, stride, pad)
            return
        out = conv_transpose3d(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(out, convt3d_oracle(x, w, k, 0), rtol=1e-5, atol=1e-5)
        g = rng.standard_normal(out.shape).astype(np.float32)
        gx, gw = tape_grads(conv_transpose3d, x, w, g)
        want_gx, want_gw = convt3d_grad_oracle(x, w, g, stride, pad)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-5, atol=1e-4)
        np.testing.assert_allclose(gw, want_gw, rtol=1e-5, atol=1e-4)


class TestBackwardBasics:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_square_sum(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-6)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 5.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [8.0], atol=1e-6)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_backward_on_detached(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        with pytest.raises(ValueError, match="detached"):
            x.sum().backward()

    def test_untouched_params_get_zero(self):
        used = Tensor([1.0], requires_grad=True)
        unused = Tensor([1.0, 2.0], requires_grad=True)
        (used * 2.0).sum().backward()
        ensure_grads([used, unused])
        np.testing.assert_array_equal(unused.grad, np.zeros(2, dtype=np.float32))
        np.testing.assert_allclose(used.grad, [2.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad


class TestFiniteDifferences:
    def test_every_primitive_two_seeds(self):
        for seed in (0, 1):
            report = run_battery(seed)
            bad = {k: v for k, v in report.items() if v > FD_RTOL}
            assert not bad, f"seed {seed}: gradient mismatches {bad}"


class TestOperatorProperties:
    def test_softmax_rows(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 9)).astype(np.float32)
        s = Tensor(x).softmax(axis=-1).data
        assert (s >= 0).all()
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)
        shifted = Tensor(x + 3.7).softmax(axis=-1).data
        np.testing.assert_allclose(s, shifted, atol=1e-6)

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((5, 32)).astype(np.float32) * 4 + 2)
        w = Tensor(np.ones(32, dtype=np.float32))
        b = Tensor(np.zeros(32, dtype=np.float32))
        out = layer_norm(x, w, b, axis=-1).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_conv_adjoint_identity(self):
        # the up-step is the adjoint of the stride-s conv without padding,
        # here the float64 loop oracle
        rng = np.random.default_rng(10)
        for s, _, _ in UP_STEPS:
            y = rng.standard_normal((3, 3, 4, 5)).astype(np.float32)
            w = rng.standard_normal((3, 2, s, s, s)).astype(np.float32)
            x = rng.standard_normal((2, *(n * s for n in y.shape[1:]))).astype(np.float32)
            cx = conv3d_oracle(x, w, s, 0)
            cty = conv_transpose3d(Tensor(y), Tensor(w)).data
            lhs = float((cx * y).sum(dtype=np.float64))
            rhs = float((x * cty).sum(dtype=np.float64))
            assert abs(lhs - rhs) <= 1e-4 * max(abs(lhs), abs(rhs), 1e-6)

    def test_deterministic_outputs(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 8, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3, 3)).astype(np.float32)
        a = conv3d(Tensor(x), Tensor(w)).data
        b = conv3d(Tensor(x), Tensor(w)).data
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cin, cout, pad",
                             [(2, 6, 1), (6, 2, 1), (3, 4, 2), (2, 1, 1), (8, 1, 1), (1, 16, 1)])
    def test_deterministic_backward(self, cin, cout, pad):
        k = 2 * pad + 1
        rng = np.random.default_rng(12)
        x = rng.standard_normal((cin, 12, 10, 14)).astype(np.float32)
        w = rng.standard_normal((cout, cin, k, k, k)).astype(np.float32)
        out = conv3d(Tensor(x), Tensor(w)).data
        g = rng.standard_normal(out.shape).astype(np.float32)
        gx1, gw1 = tape_grads(conv3d, x, w, g)
        gx2, gw2 = tape_grads(conv3d, x, w, g)
        assert gx1.tobytes() == gx2.tobytes()
        assert gw1.tobytes() == gw2.tobytes()


def tiny_model_step():
    """One Dice-CE forward of a tiny model on seeded inputs; returns
    (loss, logits, parameters) with the graph not yet run backward."""
    from ynetr.losses import LossConfig, segmentation_loss
    from ynetr.model import ModelConfig, YNetr

    model = YNetr(ModelConfig(input_dims=(16, 16, 16), embed_dim=32, num_heads=4,
                              decoder_channels=(16, 16, 8, 8, 4), init_seed=2,
                              zero_init_head=False))
    rng = np.random.default_rng(0)
    lf, hf = (Tensor(rng.standard_normal((1, 16, 16, 16)).astype(np.float32))
              for _ in range(2))
    labels = (rng.random((16, 16, 16)) < 0.2).astype(np.float32)
    logits = model(lf, hf)
    total, _, _ = segmentation_loss(LossConfig(), labels, logits)
    return total, logits, model.parameters()


class TestOwnedGradients:
    """A sink owns the first gradient it receives as it comes, views of
    other gradients included; copying it first, in its own memory order,
    must not change any gradient bit."""

    @staticmethod
    def _grads(monkeypatch, always_copy, run):
        if always_copy:
            original = autograd._accum

            def copying(sink, g):
                original(sink, np.copy(g, order="K") if sink.grad is None else g)

            monkeypatch.setattr(autograd, "_accum", copying)
        params = run()
        monkeypatch.undo()
        return [p.grad.tobytes() for p in params]

    def _check(self, monkeypatch, run):
        assert self._grads(monkeypatch, False, run) == self._grads(monkeypatch, True, run)

    def test_tiny_model_backward(self, monkeypatch):
        def run():
            total, _, params = tiny_model_step()
            total.backward()
            return params

        self._check(monkeypatch, run)

    def test_residual_and_reused_tensor(self, monkeypatch):
        def run():
            rng = np.random.default_rng(1)
            x = Tensor(rng.standard_normal((3, 5)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.standard_normal((5, 5)).astype(np.float32), requires_grad=True)
            a = x @ w
            b = a.gelu()
            h = a + b  # residual whose operands have other consumers too
            ((h * h).sum() + (b * a).mean() + (x * x).sum()).backward()  # reused tensors
            return [x, w]

        self._check(monkeypatch, run)

    def test_shared_gradient_is_never_written_through(self):
        # a and b adopt the same array from the add; a's second gradient must
        # not be added into it
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        s = a + b
        (s.sum() + (a * 3.0).sum()).backward()
        np.testing.assert_array_equal(a.grad, [4.0, 4.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])

    def test_sum_keeps_the_first_gradients_layout(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        first = np.arange(12, dtype=np.float32).reshape(4, 3).T  # transposed, F-ordered
        autograd._accum(x, first)  # a leaf is its own sink
        autograd._accum(x, np.ones((3, 4), dtype=np.float32))
        assert x.grad.strides == first.strides
        np.testing.assert_array_equal(x.grad, first + 1.0)
        np.testing.assert_array_equal(first, np.arange(12).reshape(4, 3).T)


class TestGraphRelease:
    """The graph holds no values: a value lives while its tensor or a
    closure that reads it does, and backward() frees each intermediate
    gradient and saved value once the node's closure has run."""

    def test_pre_bias_conv_outputs_die_with_the_layer(self, monkeypatch):
        outputs = []

        def recorded(fn):
            def call(*args):
                out = fn(*args)
                outputs.append(weakref.ref(out))
                return out

            return call

        for name in ("conv3d_forward", "convt3d_forward"):
            monkeypatch.setattr(ck, name, recorded(getattr(ck, name)))
        total, logits, _ = tiny_model_step()  # both stay alive to the end
        assert len(outputs) > 0
        assert [r for r in outputs if r() is not None] == []

    def test_intermediate_gradients_die_in_backward(self, monkeypatch):
        grads = []
        original = autograd._accum

        def recorded(sink, g):
            original(sink, g)
            if not isinstance(sink, Tensor) and isinstance(sink.grad, np.ndarray):
                grads.append(weakref.ref(sink.grad))  # numpy scalars take no weakref

        monkeypatch.setattr(autograd, "_accum", recorded)
        total, logits, params = tiny_model_step()
        total.backward()
        assert len(grads) > 0
        assert all(p.grad is not None for p in params)
        assert total.grad.tobytes() == np.ones((), dtype=np.float32).tobytes()
        # adopted views keep alive only the gradients of the leaves and the
        # loss, and the memory under them
        kept = {id(a) for a in [total.grad] + [p.grad for p in params]}
        kept |= {id(a.base) for a in [total.grad] + [p.grad for p in params]}
        alive = [r() for r in grads if r() is not None]
        assert [a.shape for a in alive if id(a) not in kept] == []

    def test_release_changes_no_bit(self, monkeypatch):
        def run():
            total, logits, params = tiny_model_step()
            total.backward()
            return [total.data.tobytes(), logits.data.tobytes()] + [p.grad.tobytes() for p in params]

        kept = run()
        monkeypatch.setattr(autograd, "_release", lambda node: None)
        assert run() == kept

    def test_second_backward_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(ValueError, match="released"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_backward_through_a_released_subgraph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        y.sum().backward()
        with pytest.raises(ValueError, match="released"):
            (y * 3.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
