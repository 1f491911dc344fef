"""Print SHA-256 prefixes of seeded ynetr outputs, to show that two trees
(or two BLAS thread counts) compute the same bits.

    python3 tools/step_digest.py
    OPENBLAS_NUM_THREADS=1 python3 tools/step_digest.py

It imports ``ynetr`` from the ``src/`` next to this directory, so that run
in two checkouts it compares their sources. Each line is ``<name>
<first 16 hex digits of a SHA-256>`` over the shapes and bytes of:

* ``mid.step``: a recorded Dice-CE step of the mid model (64^3 window,
  embed 192, depth 12, 12 heads, decoder (128, 128, 64, 32, 16), drawn
  head) on standard-normal inputs: its logits, its loss and the gradient
  of every parameter, in parameter order;
* ``mid.adamw``: every parameter after one AdamW step (lr 1e-4, weight
  decay 0.01) from those gradients;
* ``mid.predict``: a ``predict`` of the stepped model on new inputs;
* ``tiny.step``: a recorded Dice-CE step of a 16^3-window model, whose
  up-steps start from a one-voxel grid: its logits, its loss and the
  gradient of every parameter;
* ``tiny.biased``: such a step with every bias (conv, linear and norm)
  drawn from N(0, 0.1^2) first, so that a bias or ReLU lost to a copy of
  a conv output shows (every other step runs with zero-initialised
  biases);
* ``tiny.infer``: ``infer_volume`` (overlap 0.5) of a 32^3 phantom with a
  16^3-window model: the probabilities and the mask;
* ``odd.infer``: the same on a 33x47x29 phantom, whose odd in-plane dims
  are reflect-padded by the split and whose last window start is odd on
  every axis (17, 31, 13), so each window's LF/HF pair is cut at an odd
  block offset;
* ``phantom``: the voxels and labels of ``generate_phantom`` at the
  bench's 128x128x96 for seeds 1-3 and at an odd 33x47x29 shape.

Outputs that differ in any bit give another line; equal lines on two runs
mean equal outputs. It uses the standard library, numpy and ynetr alone.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import ynetr  # noqa: E402

MID = {"input_dims": (64, 64, 64), "embed_dim": 192, "depth": 12, "num_heads": 12,
       "decoder_channels": (128, 128, 64, 32, 16)}
TINY = {"input_dims": (16, 16, 16), "embed_dim": 32, "num_heads": 4,
        "decoder_channels": (16, 16, 8, 8, 4)}


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def step(model, dims, rng):
    """The digest of a recorded Dice-CE step on standard-normal inputs."""
    lf, hf = (rng.standard_normal((1, *dims), dtype=np.float32) for _ in range(2))
    labels = (rng.random(dims) < 0.1).astype(np.float32)
    logits = model(ynetr.Tensor(lf), ynetr.Tensor(hf))
    total = ynetr.segmentation_loss(ynetr.LossConfig(), labels, logits)[0]
    total.backward()
    return digest([logits.data, total.data] + [p.grad for p in model.parameters()])


def mid_runs():
    model = ynetr.YNetr(ynetr.ModelConfig(init_seed=1, zero_init_head=False, **MID))
    params = model.parameters()
    rng = np.random.default_rng(5)
    yield "mid.step", step(model, MID["input_dims"], rng)
    ynetr.AdamW(params, lr=1e-4, weight_decay=0.01).step()
    yield "mid.adamw", digest([p.data for p in params])
    lf, hf = (rng.standard_normal(MID["input_dims"], dtype=np.float32) for _ in range(2))
    yield "mid.predict", digest([model.predict(lf, hf)])


def tiny_step():
    model = ynetr.YNetr(ynetr.ModelConfig(init_seed=3, zero_init_head=False, **TINY))
    return "tiny.step", step(model, TINY["input_dims"], np.random.default_rng(6))


def tiny_biased():
    model = ynetr.YNetr(ynetr.ModelConfig(init_seed=3, zero_init_head=False, **TINY))
    rng = np.random.default_rng(8)
    for name, p in model.named_parameters():
        if name.endswith("bias"):
            p.data = rng.normal(0.0, 0.1, p.shape).astype(np.float32)
    return "tiny.biased", step(model, TINY["input_dims"], rng)


def tiny_infer(name, spec):
    vol, _ = ynetr.generate_phantom(spec)
    model = ynetr.YNetr(ynetr.ModelConfig(init_seed=2, zero_init_head=False, **TINY))
    prob, mask = ynetr.infer_volume(model.predict, ynetr.normalize_intensity(vol),
                                    TINY["input_dims"], ynetr.InferenceConfig(overlap=0.5))
    return name, digest([prob.voxels, mask.labels])


def phantoms():
    specs = [ynetr.PhantomSpec(shape=(128, 128, 96), seed=s) for s in (1, 2, 3)]
    specs.append(ynetr.PhantomSpec(shape=(33, 47, 29), tumor_volume_cm3=(0.3, 1.0), seed=4))
    arrays = []
    for spec in specs:
        vol, lbl = ynetr.generate_phantom(spec)
        arrays += [vol.voxels, lbl.labels]
    return "phantom", digest(arrays)


def main():
    cube = ynetr.PhantomSpec(shape=(32, 32, 32), tumor_count=(1, 1),
                             tumor_volume_cm3=(0.3, 1.0), seed=7)
    odd = ynetr.PhantomSpec(shape=(33, 47, 29), tumor_volume_cm3=(0.3, 1.0), seed=4)
    lines = [*mid_runs(), tiny_step(), tiny_biased(), tiny_infer("tiny.infer", cube),
             tiny_infer("odd.infer", odd), phantoms()]
    for name, value in lines:
        print(f"{name}  {value}", flush=True)


if __name__ == "__main__":
    main()
