import operator
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import special as scipy_special

import ynetr._convkernels as ck
import ynetr.autograd as autograd
from gradcheck import FD_RTOL, run_battery
from ynetr.autograd import (
    Tensor,
    conv3d,
    conv_transpose3d,
    layer_norm,
    no_grad,
    stem,
)
from ynetr.model import ModelConfig


def ensure_grads(params):
    """Give every parameter a gradient buffer; untouched ones get zeros."""
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


def saved_arrays(closure):
    """The arrays a backward closure reads: those in its cells, those in the
    lists of saved arrays that it pops from, and those of the closures in
    its cells (such as the gradient functions of a binary op)."""
    found = []
    for cell in closure.__closure__ or ():
        v = cell.cell_contents
        if callable(v) and getattr(v, "__closure__", None):
            found += saved_arrays(v)
        else:
            found += [a for a in (v if isinstance(v, list) else [v]) if isinstance(a, np.ndarray)]
    return found


def conv(x, w):
    """conv3d with a zero bias: the convolution alone."""
    return conv3d(x, w, np.zeros(w.shape[0], np.float32))


def convt(x, w):
    """conv_transpose3d with a zero bias: the convolution alone."""
    return conv_transpose3d(x, w, np.zeros(w.shape[1], np.float32))


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
    the bitwise oracle of the kernel's GEMM and copy one offset at a time."""
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


def conv_shapes(cfg):
    """(cin, cout, k, grid, relu) of every same-size conv of a YNetr with
    ModelConfig ``cfg``: a branch's stem and proj_deep, then the decoder's."""
    e, c = cfg.embed_dim, cfg.decoder_channels

    def at(n):  # the grid after n up-steps
        return tuple(g << n for g in cfg.grid)

    return [
        (1, c[4], 3, at(4), True), (c[4], c[4], 3, at(4), False), (e, c[0], 3, at(0), False),
        (c[1], c[1], 3, at(1), True), (c[2], c[2], 3, at(2), True), (c[3], c[3], 3, at(3), True),
        (c[4], c[4], 3, at(4), True), (c[4], 2, 1, at(4), False),
    ]


def _conv_cases(relu):
    """Every distinct same-size conv of the tiny, MID and ENCODER models,
    with the model's ReLU flag if ``relu``."""
    cases = {}
    for name, cfg in (("tiny", TINY), ("mid", MID), ("encoder", ENCODER)):
        for *shape, r in conv_shapes(cfg):
            key = (*shape, r) if relu else tuple(shape)
            cin, cout, k, grid = shape
            tag = "-relu" if relu and r else ""
            cases.setdefault(key, f"{name}-{cin}-{cout}-k{k}-{grid[0]}{tag}")
    return [pytest.param(*key, id=name) for key, name in cases.items()]


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
        out = conv(Tensor(x), Tensor(k))
        np.testing.assert_array_equal(out.data, x)

    def test_conv_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        for k in (1, 3, 5):
            x = rng.standard_normal((2, 6, 5, 7)).astype(np.float32)
            w = rng.standard_normal((3, 2, k, k, k)).astype(np.float32)
            got = conv(Tensor(x), Tensor(w)).data
            want = conv3d_oracle(x, w, 1, k // 2)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_conv_transpose_matches_scatter_oracle(self):
        rng = np.random.default_rng(4)
        for s in (1, 2, 3):
            x = rng.standard_normal((2, 3, 4, 3)).astype(np.float32)
            w = rng.standard_normal((2, 3, s, s, s)).astype(np.float32)
            got = convt(Tensor(x), Tensor(w)).data
            want = convt3d_oracle(x, w, s, 0)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_relu_is_bitwise_where(self):
        # the conv's ReLU, here after a 1x1x1 identity conv with a zero bias
        f32 = np.finfo(np.float32)
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, f32.smallest_subnormal,
                   -f32.smallest_subnormal, 3 * f32.smallest_subnormal, -f32.tiny / 2,
                   f32.tiny, -f32.tiny, f32.max, -f32.max]
        rng = np.random.default_rng(6)
        x = np.concatenate([np.array(special, dtype=np.float32),
                            rng.standard_normal(4096).astype(np.float32)]).reshape(1, -1, 1, 1)
        xt = Tensor(x, requires_grad=True)
        w, b = np.ones((1, 1, 1, 1, 1), np.float32), np.zeros(1, np.float32)
        out = conv3d(xt, Tensor(w), Tensor(b), relu=True)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == np.where(x > 0, x, np.float32(0.0)).tobytes()
        # the closure keeps the input, the weight, the bias and, for the
        # mask, the output; no mask
        arrays = {id(a) for a in saved_arrays(out._node.backward)}
        assert arrays == {id(xt.data), id(w), id(b), id(out.data)}
        g = rng.standard_normal(x.shape).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):  # gw of inf and NaN
            gx, gw, _ = out._node.backward(g)
            want_gx, want_gw = ck.conv3d_backward(x, w, g * (x > 0), 1, 0)
        assert gx.tobytes() == want_gx.tobytes()
        assert gw.tobytes() == want_gw.tobytes()

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

    def test_conv_transpose_holds_one_offset_of_its_product(self):
        # one GEMM per offset: next to the output lie one offset's (Cout, N)
        # product and the offset-major weight, not the whole (Cout*8, N)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((16, 16, 16, 16), dtype=np.float32)
        w = rng.standard_normal((16, 16, 2, 2, 2), dtype=np.float32)
        tracemalloc.start()
        try:
            out = ck.convt3d_forward(x, w, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + out.nbytes // 8 + w.nbytes + 2**12

    def test_conv_shape_errors(self):
        x = Tensor(np.zeros((2, 4, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="channels"):
            conv(x, Tensor(np.zeros((1, 3, 3, 3, 3), dtype=np.float32)))
        with pytest.raises(ValueError, match="channels"):
            convt(x, Tensor(np.zeros((3, 1, 2, 2, 2), dtype=np.float32)))

    def test_conv3d_rejects_an_even_kernel(self):
        x = Tensor(np.zeros((2, 4, 4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="odd kernel, got 2"):
            conv(x, Tensor(np.zeros((1, 2, 2, 2, 2), dtype=np.float32)))

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
        if (kernel, stride, pad) == ("conv3d_forward", 1, 0):  # an input padded already
            np.testing.assert_allclose(ck.conv3d_forward(*args), out)
            return
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
        # same-size convs (odd k, stride 1, pad k // 2) match the oracle, and
        # so does the forward of an input padded already (odd k, stride 1,
        # pad 0); both kernels reject every other (k, stride, pad)
        rng = np.random.default_rng(100 + 9 * k + 3 * pad + stride + cout)
        x = rng.standard_normal((cin, 5, 4, 6)).astype(np.float32)
        w = rng.standard_normal((cout, cin, k, k, k)).astype(np.float32)
        if (k % 2, stride, pad) != (1, 1, k // 2):
            if (k % 2, stride, pad) == (1, 1, 0):
                np.testing.assert_allclose(ck.conv3d_forward(x, w, 1, 0), conv3d_oracle(x, w, 1, 0),
                                           rtol=1e-5, atol=1e-5)
            else:
                with pytest.raises(ValueError, match="conv3d"):
                    ck.conv3d_forward(x, w, stride, pad)
            with pytest.raises(ValueError, match="conv3d"):
                ck.conv3d_backward(x, w, x, stride, pad)
            return
        out = conv(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(out, conv3d_oracle(x, w, 1, pad), rtol=1e-5, atol=1e-5)
        g = rng.standard_normal(out.shape).astype(np.float32)
        gx, gw = tape_grads(conv, x, w, g)
        want_gx, want_gw = conv3d_grad_oracle(x, w, g, 1, pad)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-5, atol=1e-4)
        np.testing.assert_allclose(gw, want_gw, rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("cin, cout", [(1, 8), (8, 8), (8, 1), (1, 16)])
    def test_conv_grads_match_loop_oracle_over_many_blocks(self, cin, cout):
        # large enough that the kernels split every pass into several blocks
        rng = np.random.default_rng(300 + cin)
        x = rng.standard_normal((cin, 20, 22, 24)).astype(np.float32)
        w = rng.standard_normal((cout, cin, 3, 3, 3)).astype(np.float32)
        out = conv(Tensor(x), Tensor(w)).data
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1))).astype(np.float64)
        windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3, 3), axis=(1, 2, 3))
        want = np.einsum("ixyzabc,oiabc->oxyz", windows, w.astype(np.float64))
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-4)
        g = rng.standard_normal(out.shape).astype(np.float32)
        gx, gw = tape_grads(conv, x, w, g)
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
        out = convt(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(out, convt3d_oracle(x, w, k, 0), rtol=1e-5, atol=1e-5)
        g = rng.standard_normal(out.shape).astype(np.float32)
        gx, gw = tape_grads(convt, x, w, g)
        want_gx, want_gw = convt3d_grad_oracle(x, w, g, stride, pad)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-5, atol=1e-4)
        np.testing.assert_allclose(gw, want_gw, rtol=1e-5, atol=1e-4)


def conv3d_backward_composed(x, w, g, pad):
    """``ck.conv3d_backward`` as it ran before its input gradient overwrote
    the padded ``g``: gx into a buffer of its own first, then gw from the
    untouched padded ``g``."""
    k = w.shape[2]
    gflat, grid = ck._flat_padded(g, pad, k)
    gx = np.ascontiguousarray(ck._corr1(gflat.copy(), grid, ck._flip(w)))
    flat, _ = ck._flat_padded(x, pad, k)
    _, yp, zp = grid
    q = (pad * yp + pad) * zp + pad
    return gx, ck._weight_grad1(gflat[:, q : q + g.shape[1] * yp * zp], flat, grid, k)


class TestInPlaceConvBitwise:
    """Each conv output overwrites its own padded copy, and bias, ReLU and
    skip adds run in place; every byte must equal that of the composed ops
    with buffers of their own, on every conv shape of the tiny, MID and
    ENCODER models."""

    @pytest.mark.parametrize("cin, cout, k, grid", _conv_cases(relu=False))
    def test_kernels(self, cin, cout, k, grid):
        rng = np.random.default_rng(cin * 31 + cout + grid[0])
        x = rng.standard_normal((cin, *grid), dtype=np.float32)
        w = rng.standard_normal((cout, cin, k, k, k), dtype=np.float32) / np.float32(cin * k**3)
        pad = k // 2
        flat, pgrid = ck._flat_padded(x, pad, k)
        want = ck._corr1(flat.copy(), pgrid, w)
        assert ck.conv3d_forward(x, w, 1, pad).tobytes() == want.tobytes()
        g = rng.standard_normal((cout, *grid), dtype=np.float32)
        got = ck.conv3d_backward(x, w, g, 1, pad)
        for a, b in zip(got, conv3d_backward_composed(x, w, g, pad)):
            assert a.flags.c_contiguous and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cin, cout, k, grid, relu", _conv_cases(relu=True))
    def test_bias_and_relu(self, cin, cout, k, grid, relu):
        rng = np.random.default_rng(cin * 37 + cout + grid[0])
        x = rng.standard_normal((cin, *grid), dtype=np.float32)
        w = rng.standard_normal((cout, cin, k, k, k), dtype=np.float32) / np.float32(cin * k**3)
        b = rng.standard_normal(cout, dtype=np.float32)
        g = rng.standard_normal((cout, *grid), dtype=np.float32)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv3d(xt, wt, bt, relu)
        # the composed ops: the conv, then ``+ b``, then ``.relu()``
        pad = k // 2
        flat, pgrid = ck._flat_padded(x, pad, k)
        y = ck._corr1(flat.copy(), pgrid, w) + b.reshape(-1, 1, 1, 1)
        if relu:
            y = np.where(y > 0, y, np.float32(0.0))
        assert out.data.tobytes() == y.tobytes()
        (out * Tensor(g)).sum().backward()
        gz = g * (y > 0) if relu else g
        gb = gz.sum(axis=(1, 2, 3), keepdims=True).reshape(cout)
        want = (*conv3d_backward_composed(x, w, gz, pad), gb)
        assert [t.grad.tobytes() for t in (xt, wt, bt)] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("cin, cout, grid", _up_step_cases())
    def test_up_step_bias(self, cin, cout, grid):
        rng = np.random.default_rng(cin * 41 + cout + grid[0])
        x = rng.standard_normal((cin, *grid), dtype=np.float32)
        w = rng.standard_normal((cin, cout, 2, 2, 2), dtype=np.float32) / np.float32(cin * 8)
        b = rng.standard_normal(cout, dtype=np.float32)
        g = rng.standard_normal((cout, *(2 * n for n in grid)), dtype=np.float32)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv_transpose3d(xt, wt, bt)
        assert out.data.tobytes() == (ck.convt3d_forward(x, w, 2, 0) + b.reshape(-1, 1, 1, 1)).tobytes()
        (out * Tensor(g)).sum().backward()
        gb = g.sum(axis=(1, 2, 3), keepdims=True).reshape(cout)
        want = (*ck.convt3d_backward(x, w, g, 2, 0), gb)
        assert [t.grad.tobytes() for t in (xt, wt, bt)] == [a.tobytes() for a in want]

    def test_skip_add_in_place(self):
        rng = np.random.default_rng(7)
        a, b = (rng.standard_normal((4, 6, 5, 3), dtype=np.float32) for _ in range(2))
        at, bt = Tensor(a.copy(), requires_grad=True), Tensor(b, requires_grad=True)
        data = at.data
        out = at.add_(bt)
        assert out.data is data and out.data.tobytes() == (a + b).tobytes()
        g = rng.standard_normal(a.shape, dtype=np.float32)
        (out * Tensor(g)).sum().backward()
        assert at.grad.tobytes() == bt.grad.tobytes() == g.tobytes()

    def test_add_of_a_crop_goes_into_the_contiguous_operand(self):
        # a cropped conv output plus a contiguous map of its shape, as the
        # fused stem level plus final_up's output: the sum lands in the
        # contiguous array, and the crop stays the left operand
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 6, 5, 4), dtype=np.float32)
        w = rng.standard_normal((3, 3, 3, 3, 3), dtype=np.float32)
        a = ck.conv3d_forward(x, w, 1, 1)
        b = rng.standard_normal(a.shape, dtype=np.float32)
        assert not a.flags.c_contiguous
        want = (a + b).tobytes()
        at, bt = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = at.add_(bt)
        assert np.shares_memory(out.data, b) and out.data.tobytes() == want
        assert out._node.parents[0] is at and out._node.parents[1] is bt
        g = rng.standard_normal(a.shape, dtype=np.float32)
        (out * Tensor(g)).sum().backward()
        assert at.grad.tobytes() == bt.grad.tobytes() == g.tobytes()

    def test_add_of_two_conv_outputs_runs_over_the_left_rows(self):
        # both lie in rows of one grid: the left one's whole rows, wrap-around
        # columns included, take the sum, with no temporary of the map
        rng = np.random.default_rng(9)
        w = rng.standard_normal((3, 3, 3, 3, 3), dtype=np.float32)
        a, b = (ck.conv3d_forward(rng.standard_normal((3, 6, 5, 4), dtype=np.float32), w, 1, 1)
                for _ in range(2))
        (ra, grid), (rb, _) = ck._whole_rows(a), ck._whole_rows(b)
        assert grid == (6, 7, 6) and np.shares_memory(ra, a) and np.shares_memory(rb, b)
        want, rows = (a + b).tobytes(), (ra + rb).tobytes()
        out = Tensor(a).add_(Tensor(b))
        assert out.data is a and out.data.tobytes() == want
        assert ck._whole_rows(a)[0].tobytes() == rows


def _head_cases():
    """(channels, grid) of the k = 1 head of the tiny, MID and ENCODER models."""
    cases = {(cfg.decoder_channels[4], cfg.input_dims): name
             for name, cfg in (("tiny", TINY), ("mid", MID), ("encoder", ENCODER))}
    return [pytest.param(*key, id=name) for key, name in cases.items()]


class TestHeadReadsWholeRows:
    """The k = 1 head runs its GEMM over the whole rows under a conv
    output, wrap-around columns included, and copies out the crop: every
    byte equals that of the head over a contiguous copy of its input."""

    @pytest.mark.parametrize("c, grid", _head_cases())
    def test_equals_the_head_over_a_copy(self, c, grid):
        rng = np.random.default_rng(c + grid[0])
        x = rng.standard_normal((c, *grid), dtype=np.float32)
        w = rng.standard_normal((c, c, 3, 3, 3), dtype=np.float32) / np.float32(c * 27)
        head = rng.standard_normal((2, c, 1, 1, 1), dtype=np.float32)
        y = ck.conv3d_forward(x, w, 1, 1)  # decoder.final_conv's output, a crop
        flat, _ = ck._whole_rows(y)
        assert not y.flags.c_contiguous and np.shares_memory(flat, y)
        tracemalloc.start()
        try:
            got = ck.conv3d_forward(y, head, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the GEMM's output over the whole rows and the crop: no copy of y
        assert peak <= 2 * flat[:2].nbytes + 2**12
        assert got.flags.c_contiguous and ck._whole_rows(got)[0].shape == (2, np.prod(grid))
        assert got.tobytes() == ck.conv3d_forward(np.ascontiguousarray(y), head, 1, 0).tobytes()

    @pytest.mark.parametrize("crop", [np.s_[:, :, 1:5, 2:6], np.s_[:, :, :, ::2], np.s_[::-1, :, :, :3]],
                             ids=["rows-past-the-end", "strided-z", "reversed-channels"])
    def test_other_views_are_copied(self, crop):
        # a view whose whole rows would leave its array, or that is not a
        # crop of contiguous rows, is copied as before
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5, 6, 7), dtype=np.float32)[crop]
        flat, grid = ck._whole_rows(x)
        assert not np.shares_memory(flat, x) and grid == x.shape[1:]
        head = rng.standard_normal((2, 3, 1, 1, 1), dtype=np.float32)
        assert (ck.conv3d_forward(x, head, 1, 0).tobytes()
                == ck.conv3d_forward(np.ascontiguousarray(x), head, 1, 0).tobytes())


class TestPaddedInputInPlace:
    """A same-size conv's own output buffer is laid out as the padded input
    of the next same-size conv, and ``conv3d_forward(.., 1, 0)`` reads such
    an input in place and writes its output over it."""

    def test_valid_conv_reads_and_overwrites_the_padded_buffer(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 64, 64, 64), dtype=np.float32)
        w1 = rng.standard_normal((8, 1, 3, 3, 3), dtype=np.float32)
        w2 = rng.standard_normal((8, 8, 3, 3, 3), dtype=np.float32)
        h = ck.conv3d_forward(x, w1, 1, 1)  # 1 -> 8: a buffer of its own
        want = ck.conv3d_forward(np.ascontiguousarray(h), w2, 1, 1)
        hp = ck._padded_input(h, 3)
        assert np.shares_memory(hp, h)
        assert hp.tobytes() == np.pad(h, ((0, 0),) + ((1, 1),) * 3).tobytes()
        tracemalloc.start()
        try:
            got = ck.conv3d_forward(hp, w2, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(got, hp.base)
        assert peak < hp.base.nbytes / 2  # column blocks only, no padded copy
        assert got.tobytes() == want.tobytes()

    def test_other_inputs_are_copied(self):
        rng = np.random.default_rng(10)
        h = rng.standard_normal((3, 5, 4, 6), dtype=np.float32)
        hp = ck._padded_input(h, 3)
        assert not np.shares_memory(hp, h)
        assert hp.tobytes() == np.pad(h, ((0, 0),) + ((1, 1),) * 3).tobytes()
        w = rng.standard_normal((2, 3, 3, 3, 3), dtype=np.float32)
        got = ck.conv3d_forward(np.ascontiguousarray(hp), w, 1, 0)
        assert got.tobytes() == ck.conv3d_forward(h, w, 1, 1).tobytes()


def composed_stem(x, w1, b1, w2, b2):
    """The stem as the two conv3d ops ``autograd.stem`` stands for."""
    return conv3d(conv3d(x, w1, b1, relu=True), w2, b2)


class TestStemBitwise:
    """``autograd.stem`` keeps no middle map and recomputes it in the
    backward; its value and all five gradients must equal those of the two
    conv3d ops byte for byte. 1 -> 4 -> 4 runs splits a = 1 and a = 2, and
    1 -> 16 -> 16 a = 0 and a = 2; the larger grid spans several column
    blocks."""

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "no-x-grad"])
    @pytest.mark.parametrize("cout, grid", [(4, (7, 6, 5)), (16, (7, 6, 5)), (16, (20, 18, 17))])
    def test_equals_the_composed_convs(self, cout, grid, x_grad):
        rng = np.random.default_rng(cout + grid[0])
        x = rng.standard_normal((1, *grid), dtype=np.float32)
        w1 = rng.standard_normal((cout, 1, 3, 3, 3), dtype=np.float32) / np.float32(27)
        w2 = rng.standard_normal((cout, cout, 3, 3, 3), dtype=np.float32) / np.float32(cout * 27)
        b1, b2 = (rng.standard_normal(cout, dtype=np.float32) for _ in range(2))
        g = rng.standard_normal((cout, *grid), dtype=np.float32)

        def run(op):
            ts = [Tensor(x, requires_grad=x_grad)]
            ts += [Tensor(a, requires_grad=True) for a in (w1, b1, w2, b2)]
            out = op(*ts)
            (out * Tensor(g)).sum().backward()
            return [out.data.tobytes()] + [None if t.grad is None else t.grad.tobytes() for t in ts]

        got = run(stem)
        assert (got[1] is None) != x_grad
        assert got == run(composed_stem)

    def test_closure_keeps_only_the_inputs(self):
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(s, dtype=np.float32)
                  for s in ((1, 6, 5, 4), (4, 1, 3, 3, 3), (4,), (4, 4, 3, 3, 3), (4,))]
        out = stem(*(Tensor(a, requires_grad=True) for a in arrays))
        saved = saved_arrays(out._node.backward)
        assert sorted(id(a) for a in saved) == sorted(id(a) for a in arrays)


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
        out = layer_norm(x, w, b).data
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
            cty = convt(Tensor(y), Tensor(w)).data
            lhs = float((cx * y).sum(dtype=np.float64))
            rhs = float((x * cty).sum(dtype=np.float64))
            assert abs(lhs - rhs) <= 1e-4 * max(abs(lhs), abs(rhs), 1e-6)

    def test_deterministic_outputs(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 8, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3, 3)).astype(np.float32)
        a = conv(Tensor(x), Tensor(w)).data
        b = conv(Tensor(x), Tensor(w)).data
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cin, cout, pad",
                             [(2, 6, 1), (6, 2, 1), (3, 4, 2), (2, 1, 1), (8, 1, 1), (1, 16, 1)])
    def test_deterministic_backward(self, cin, cout, pad):
        k = 2 * pad + 1
        rng = np.random.default_rng(12)
        x = rng.standard_normal((cin, 12, 10, 14)).astype(np.float32)
        w = rng.standard_normal((cout, cin, k, k, k)).astype(np.float32)
        out = conv(Tensor(x), Tensor(w)).data
        g = rng.standard_normal(out.shape).astype(np.float32)
        gx1, gw1 = tape_grads(conv, x, w, g)
        gx2, gw2 = tape_grads(conv, x, w, g)
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
            ((h * h).sum() + (b * a).mean().sum() + (x * x).sum()).backward()  # reused tensors
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


# each binary op and the operands that its two sides' gradients read
BINARY_READS = {
    "+": (operator.add, (), ()),
    "-": (operator.sub, (), ()),
    "*": (operator.mul, ("b",), ("a",)),
    "/": (operator.truediv, ("b",), ("a", "b")),
    "@": (operator.matmul, ("b",), ("a",)),
}


class TestBinaryOpsKeepWhatTheirSidesRead:
    @pytest.mark.parametrize("need_a, need_b", [(True, True), (True, False), (False, True),
                                                (False, False)])
    @pytest.mark.parametrize("op", list(BINARY_READS))
    def test_closure_keeps_the_operands_its_needed_sides_read(self, op, need_a, need_b):
        fn, reads_a, reads_b = BINARY_READS[op]
        rng = np.random.default_rng(0)
        arrays = {"a": rng.standard_normal((3, 4), dtype=np.float32),
                  "b": rng.standard_normal((4, 5) if op == "@" else (1, 4), dtype=np.float32)}
        out = fn(Tensor(arrays["a"], requires_grad=need_a), Tensor(arrays["b"], requires_grad=need_b))
        if not (need_a or need_b):
            assert out._node is None
            return
        want = {id(arrays[n]) for n in (reads_a if need_a else ()) + (reads_b if need_b else ())}
        assert {id(a) for a in saved_arrays(out._node.backward)} == want
        grads = out._node.backward(np.ones(out.shape, np.float32))
        assert [g is not None for g in grads] == [need_a, need_b]
        assert [g.shape for g in grads if g is not None] == [
            arrays[n].shape for n, need in (("a", need_a), ("b", need_b)) if need]


class TestGraphRelease:
    """The graph holds no values: a value lives while its tensor or a
    closure that reads it does, and backward() frees each intermediate
    gradient and saved value once the node's closure has run."""

    def test_conv_outputs_live_only_while_a_closure_reads_them(self, monkeypatch):
        # the bias and the ReLU run in place, so a kernel's output is its
        # layer's output: after the forward it lives only where a closure
        # reads it (the next conv's input, or a ReLU's mask), or as the logits
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
        read = {id(logits.data)}
        for node in autograd._build_tape(autograd._sink(total)):
            if isinstance(node, autograd._Node):
                read |= {id(a) for a in saved_arrays(node.backward)}
        alive = [r() for r in outputs if r() is not None]
        assert [a.shape for a in alive if id(a) not in read] == []
        # each stem's conv1 output dies inside the stem op, which recomputes
        # it; the five levels of the hf pyramid (stem.conv2, proj_deep and
        # the last up-step of each other projection) are added into the lf
        # pyramid's arrays, and those feed only decoder adds, except the
        # fused proj_deep level, which decoder.ups.0 reads; the decoder's
        # last add goes into final_up's output, final_conv's input
        assert len(outputs) - len(alive) == 2 + 5 + 4

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

    def test_callers_that_hold_the_arguments_change_no_bit(self, monkeypatch):
        # a wrapper that keeps the kernel's arguments until it returns, as the
        # bench's tracer does, keeps the early frees from freeing anything; no
        # value may change
        def run():
            total, logits, params = tiny_model_step()
            total.backward()
            return [total.data.tobytes(), logits.data.tobytes()] + [p.grad.tobytes() for p in params]

        def holding(fn):
            def call(*args):
                return fn(*args)

            return call

        freed = run()
        for name in ("conv3d_forward", "conv3d_backward"):
            monkeypatch.setattr(ck, name, holding(getattr(ck, name)))
        assert run() == freed

    def test_a_node_lets_go_of_its_gradient_before_its_closure_runs(self):
        total, _, _ = tiny_model_step()
        seen = []

        def watched(node):
            closure = node.backward

            def call(g):
                seen.append(node.grad is None and g is not None)
                return closure(g)

            return call

        nodes = [n for n in autograd._build_tape(autograd._sink(total))
                 if isinstance(n, autograd._Node)]
        for node in nodes:
            node.backward = watched(node)
        total.backward()
        assert seen == [True] * len(nodes)

    def test_relu_conv_drops_its_output_before_the_masked_gradient(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 6, 5, 4), dtype=np.float32), requires_grad=True)
        w, b = (Tensor(rng.standard_normal(s, dtype=np.float32)) for s in ((4, 4, 3, 3, 3), (4,)))
        out = conv3d(x, w, b, relu=True)
        buffer = weakref.ref(out.data.base)  # the kernel's padded buffer under the output
        loss = (out * Tensor(rng.standard_normal(out.shape, dtype=np.float32))).sum()
        del out  # the product keeps only its other operand
        alive = []
        original = ck.conv3d_backward

        def watched(*args):
            alive.append(buffer() is not None)
            return original(*args)

        monkeypatch.setattr(ck, "conv3d_backward", watched)
        loss.backward()
        assert alive == [False]

    @pytest.mark.parametrize("op", ["conv3d", "relu", "stem"])
    def test_closures_hand_x_and_g_to_the_kernel(self, monkeypatch, op):
        # the x and g of every conv3d_backward call, the arrays it pads, are
        # dead by the time it forms the weight gradient
        rng = np.random.default_rng(4)
        cin = 1 if op == "stem" else 4
        shapes = [(4, cin, 3, 3, 3), (4,)] + ([(4, 4, 3, 3, 3), (4,)] if op == "stem" else [])
        params = [Tensor(rng.standard_normal(s, dtype=np.float32), requires_grad=True)
                  for s in shapes]
        x = Tensor(rng.standard_normal((cin, 6, 5, 4), dtype=np.float32))
        out = stem(x, *params) if op == "stem" else conv3d(x, *params, relu=op == "relu")
        loss = (out * Tensor(rng.standard_normal(out.shape, dtype=np.float32))).sum()
        del x, out
        padded, alive = [], []
        pad, weight_grad = ck._flat_padded, ck._weight_grad1

        def padding(a, *args):
            padded.append(weakref.ref(a))
            return pad(a, *args)

        def weight_gradient(*args):
            alive.append([r() is not None for r in padded[-2:]])
            return weight_grad(*args)

        monkeypatch.setattr(ck, "_flat_padded", padding)
        monkeypatch.setattr(ck, "_weight_grad1", weight_gradient)
        loss.backward()
        assert alive == [[False, False]] * (2 if op == "stem" else 1)

    def test_conv_backward_pads_and_drops_x_before_g(self):
        # called with x and g as temporaries, the kernel holds the only
        # references and frees x once padded, before it pads g: at 8 x 64^3
        # the call peaked at 3.19 maps by tracemalloc, against 4.29 when it
        # held both to the end and 4.19 when it padded g first
        rng = np.random.default_rng(0)
        shape = (8, 64, 64, 64)
        w = rng.standard_normal((8, 8, 3, 3, 3), dtype=np.float32)
        ck.conv3d_backward(rng.standard_normal(shape, dtype=np.float32), w,
                           rng.standard_normal(shape, dtype=np.float32), 1, 1)
        tracemalloc.start()
        try:
            ck.conv3d_backward(rng.standard_normal(shape, dtype=np.float32), w,
                               rng.standard_normal(shape, dtype=np.float32), 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (4 * np.prod(shape)) <= (3.19 + 4.19) / 2

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


def float32_run(center, half_width):
    """The 2 * half_width consecutive float32 values around ``center``."""
    bits = int(np.float32(center).view(np.int32))
    run = np.arange(bits - half_width, bits + half_width, dtype=np.int64)
    return run.astype(np.int32).view(np.float32)


# the smallest float32 whose float32 erf is 1
ERF_REACHES_ONE = np.float32(3.919206)


class TestErfOracle:
    """``autograd.erf`` against ``scipy.special.erf``, bit for bit."""

    @staticmethod
    def assert_bitwise(x):
        got, want = autograd.erf(x), scipy_special.erf(x)
        assert got.dtype == np.float32 and got.shape == x.shape
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        bad = np.flatnonzero((got.view(np.int32) != want.view(np.int32)) & ~nan)
        assert bad.size == 0, (x[bad[:5]], got[bad[:5]], want[bad[:5]])

    def test_seeded_sample(self):
        rng = np.random.default_rng(0)
        normal = rng.standard_normal(500_000).astype(np.float32) * np.float32(2.5)
        # uniform bit patterns reach every exponent, inf and NaN included
        bits = rng.integers(0, 2**32, size=500_000, dtype=np.uint32).view(np.float32)
        self.assert_bitwise(np.concatenate([normal, bits]).reshape(1000, 1000))

    @pytest.mark.parametrize("center", [1.0, -1.0, 6.0, -6.0, ERF_REACHES_ONE, -ERF_REACHES_ONE])
    def test_dense_ulp_sweep(self, center):
        self.assert_bitwise(float32_run(center, 1 << 16))

    def test_where_erf_reaches_one(self):
        below = np.nextafter(ERF_REACHES_ONE, np.float32(0.0))
        assert scipy_special.erf(below) < 1.0 and scipy_special.erf(ERF_REACHES_ONE) == 1.0
        x = np.array([below, ERF_REACHES_ONE], np.float32)
        np.testing.assert_array_equal(autograd.erf(x), [scipy_special.erf(below), 1.0])

    def test_special_values(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 1e-39, -1e-39, np.inf, -np.inf, np.nan],
                     np.float32)
        got = autograd.erf(x)
        assert np.signbit(got[:2]).tolist() == [False, True]
        np.testing.assert_array_equal(got[6:8], [1.0, -1.0])
        assert np.isnan(got[8])
        self.assert_bitwise(x)

    def test_empty_and_strided(self):
        assert autograd.erf(np.zeros((0, 3), np.float32)).shape == (0, 3)
        x = np.random.default_rng(1).standard_normal((40, 30)).astype(np.float32).T
        self.assert_bitwise(x)
