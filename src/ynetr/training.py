"""Training loop: balanced window draws and Dice-CE descent.

Each optimizer step uses its own counter-keyed random stream, so a run
is bitwise reproducible and resuming from a checkpoint at step k replays
exactly the draws an uninterrupted run would have made.
"""

from __future__ import annotations

import ctypes
import logging
import math
import platform
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .losses import LossConfig, segmentation_loss
from .optim import AdamW
from .sampling import (
    NoBackgroundError,
    NoForegroundError,
    SamplerConfig,
    pad_to_window,
    sample_any_window,
    sample_window,
)
from .volume import LabelVolume, Volume3D, check_finite, normalize_intensity
from .wavelet import split_frequency

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    def __init__(self, step, value, what="loss"):
        super().__init__(f"non-finite {what} {value!r} at step {step}")
        self.step = step
        self.value = value


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 300
    steps_per_epoch: int = 100
    batch_size: int = 1
    weight_decay: float = 0.01
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def validate(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1 or self.steps_per_epoch < 1 or self.batch_size < 1:
            raise ValueError("epochs, steps_per_epoch and batch_size must be >= 1")
        self.loss.validate()
        return self

    @property
    def total_steps(self):
        return self.epochs * self.steps_per_epoch


@dataclass
class TrainingCase:
    """One volume with its precomputed frequency pair, padded to window."""

    name: str
    lf: np.ndarray
    hf: np.ndarray
    label: np.ndarray
    fg_coords: np.ndarray


@dataclass
class StepRecord:
    step: int
    loss: float
    dice: float
    ce: float


def prepare_case(name, volume: Volume3D, label: LabelVolume, window,
                 hu_window=(-175.0, 250.0)) -> TrainingCase:
    """Normalize, pad to the sampling window, and split frequencies once.

    A volume with NaN or inf voxels raises ValueError.
    """
    check_finite(volume.voxels, f"case {name}")
    norm = normalize_intensity(volume, *hu_window)
    vox = pad_to_window(norm.voxels, window)
    lab = pad_to_window(label.labels, window)
    pair = split_frequency(Volume3D(vox, volume.spacing_mm))
    return TrainingCase(
        name=name,
        lf=pair.lf.voxels,
        hf=pair.hf.voxels,
        label=lab,
        fg_coords=np.argwhere(lab > 0),
    )


def _draw(case, want_positive, rng, sampler_cfg, warned):
    """One window of the wanted polarity, or a fallback when the case has
    none; each (case, fallback) pair is logged once per ``warned`` set."""
    try:
        return sample_window(
            case.lf, case.hf, case.label, want_positive, rng, sampler_cfg,
            fg_coords=case.fg_coords,
        )
    except NoForegroundError:
        reason = "has no tumor voxels; substituting a negative window"
        sample = sample_window(case.lf, case.hf, case.label, False, rng, sampler_cfg)
    except NoBackgroundError:
        reason = "has no tumor-free window; substituting an unconstrained window"
        sample = sample_any_window(case.lf, case.hf, case.label, rng, sampler_cfg)
    if (case.name, reason) not in warned:
        warned.add((case.name, reason))
        log.warning("case %s %s", case.name, reason)
    return sample


def grad_norm(params):
    """Global L2 norm of the parameter gradients (``None`` counts as zero):
    one float32 dot product per gradient, summed as Python floats."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            flat = p.grad.reshape(-1)
            total += float(np.dot(flat, flat))
    return math.sqrt(total)


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap():
    """Have glibc keep the memory a training step frees for the next step
    instead of returning it to the OS; elsewhere this does nothing.

    ``backward()`` frees saved values and intermediate gradients as it
    goes. By default glibc unmaps freed blocks above its mmap threshold
    and trims a free heap top above its trim threshold, and the next step
    faults the pages in again. Measured on a 2-core host, medians of steps
    3-12 of the bench models, seed 1:

    * ``train_encoder`` without these settings: 65k-72k minor page faults
      per step, backward 0.215 s and the step 0.507 s. With them: median
      18 faults, backward 0.123 s and the step 0.402 s, the same as before
      backward released anything (8 faults, 0.120 s, 0.407 s).
    * A 64 MiB trim threshold still left 52k faults per step.
    * The trim threshold alone left ``train_mid`` at 12k faults per step:
      its 16 MiB activations came from mmap until the mmap threshold was
      raised above them.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def step_rng(seed, step):
    """Counter-keyed stream: deterministic and resume-safe."""
    return np.random.default_rng([seed, step])


def train(model, cases, cfg: TrainConfig, sampler_cfg: SamplerConfig,
          optimizer: AdamW | None = None, start_step: int = 0, progress=None):
    """Run (or resume) the optimization; returns (history, optimizer).

    ``start_step`` is the number of steps already taken; the loop runs
    until ``cfg.total_steps``.
    """
    cfg.validate()
    sampler_cfg.validate()
    if not cases:
        raise ValueError("training needs at least one case")
    _keep_freed_heap()
    if optimizer is None:
        optimizer = AdamW(
            model.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay
        )
    history = []
    warned = set()
    inv_batch = 1.0 / cfg.batch_size
    for step in range(start_step + 1, cfg.total_steps + 1):
        rng = step_rng(cfg.seed, step)
        optimizer.zero_grad()
        loss_sum = dice_sum = ce_sum = 0.0
        for b in range(cfg.batch_size):
            draw_index = (step - 1) * cfg.batch_size + b
            want_positive = draw_index % 2 == 0
            case = cases[int(rng.integers(len(cases)))]
            sample = _draw(case, want_positive, rng, sampler_cfg, warned)
            logits = model(Tensor(sample.lf[None]), Tensor(sample.hf[None]))
            total, d, c = segmentation_loss(cfg.loss, sample.label.astype(np.float32), logits)
            loss_val = total.item()
            if not math.isfinite(loss_val):
                raise TrainingDiverged(step, loss_val)
            loss_sum += loss_val
            dice_sum += d.item()
            ce_sum += c.item()
            scaled = total * inv_batch if cfg.batch_size > 1 else total
            scaled.backward()
            # free this draw's logits before the next forward; backward() freed the graph
            del logits, total, d, c, scaled
        norm = grad_norm(optimizer.params)
        if not math.isfinite(norm):
            raise TrainingDiverged(step, norm, "gradient norm")
        optimizer.step()
        rec = StepRecord(step, loss_sum * inv_batch, dice_sum * inv_batch, ce_sum * inv_batch)
        history.append(rec)
        if progress is not None:
            progress(rec)
    return history, optimizer


def write_history_csv(history, path):
    with open(path, "w") as fh:
        fh.write("step,loss,dice_component,ce_component\n")
        for rec in history:
            fh.write(f"{rec.step},{rec.loss!r},{rec.dice!r},{rec.ce!r}\n")
