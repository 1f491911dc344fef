"""Training loop: balanced window draws and Dice-CE descent.

Each optimizer step uses its own counter-keyed random stream, so a run
is bitwise reproducible and resuming from a checkpoint whose optimizer
has taken k steps replays exactly the draws an uninterrupted run would
have made.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, keep_freed_heap
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
from .volume import IntensityConfig, LabelVolume, Volume3D, check_finite, normalize_intensity
from .wavelet import split_frequency

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    def __init__(self, step, value, what="loss"):
        super().__init__(f"non-finite {what} {value!r} at step {step}")
        self.step = step
        self.value = value


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 300
    steps_per_epoch: int = 100
    weight_decay: float = 0.01
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ValueError("epochs and steps_per_epoch must be >= 1")

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
                 intensity: IntensityConfig = IntensityConfig()) -> TrainingCase:
    """Normalize with the ``intensity`` window, pad to the sampling window,
    and split frequencies once.

    A volume with NaN or inf voxels, or whose shape or spacing differs
    from the label's, raises ValueError.
    """
    if volume.shape != label.shape:
        raise ValueError(
            f"case {name}: volume shape {volume.shape} differs from label shape {label.shape}"
        )
    if volume.spacing_mm != label.spacing_mm:
        raise ValueError(f"case {name}: volume spacing {volume.spacing_mm} mm differs from "
                         f"label spacing {label.spacing_mm} mm")
    check_finite(volume.voxels, f"case {name}")
    norm = normalize_intensity(volume, intensity)
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


def _draw(case, want_positive, rng, sampler_cfg):
    """(window, fallback): a window of the wanted polarity and None, or,
    when the case has none, a stand-in window and why it was drawn."""
    try:
        sample = sample_window(
            case.lf, case.hf, case.label, want_positive, rng, sampler_cfg,
            fg_coords=case.fg_coords,
        )
        return sample, None
    except NoForegroundError:
        sample = sample_window(case.lf, case.hf, case.label, False, rng, sampler_cfg)
        return sample, "no tumor voxels (negative windows drawn)"
    except NoBackgroundError:
        sample = sample_any_window(case.lf, case.hf, case.label, rng, sampler_cfg)
        return sample, "no tumor-free window (unconstrained windows drawn)"


def step_rng(seed, step):
    """Counter-keyed stream: deterministic and resume-safe."""
    return np.random.default_rng([seed, step])


def train(model, cases, cfg: TrainConfig, sampler_cfg: SamplerConfig,
          optimizer: AdamW | None = None, progress=None):
    """Run (or resume) the optimization; returns (history, optimizer).

    The run resumes after the ``optimizer.t`` steps the optimizer has
    already taken (none for a new one) and goes on until
    ``cfg.total_steps``, one window per step, positive on odd steps. An
    optimizer returned by one call, or restored from its checkpoint,
    continues where that run stopped.

    Without an ``optimizer``, the one it makes is built after the first
    step's backward, so that its moments take heap space the backward has
    freed instead of lying under it (see ``keep_freed_heap``).

    Windows drawn in place of one the case cannot supply are counted per
    case and reason and summed up in one warning when ``train`` returns.
    """
    if not cases:
        raise ValueError("training needs at least one case")
    keep_freed_heap()
    params = model.parameters()
    history = []
    fallbacks = Counter()
    for step in range((0 if optimizer is None else optimizer.t) + 1, cfg.total_steps + 1):
        rng = step_rng(cfg.seed, step)
        for p in params:
            p.grad = None
        case = cases[int(rng.integers(len(cases)))]
        sample, fallback = _draw(case, step % 2 == 1, rng, sampler_cfg)
        if fallback is not None:
            fallbacks[case.name, fallback] += 1
        logits = model(Tensor(sample.lf[None]), Tensor(sample.hf[None]))
        total, d, c = segmentation_loss(cfg.loss, sample.label.astype(np.float32), logits)
        rec = StepRecord(step, total.item(), d.item(), c.item())
        if not math.isfinite(rec.loss):
            raise TrainingDiverged(step, rec.loss)
        total.backward()
        # free the logits before the next forward; backward() freed the graph
        del logits, total, d, c
        if optimizer is None:
            optimizer = AdamW(params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        try:
            optimizer.step()
        except FloatingPointError as exc:
            raise TrainingDiverged(step, exc.norm, "gradient norm") from exc
        history.append(rec)
        if progress is not None:
            progress(rec)
    if fallbacks:
        counts = sorted(fallbacks.items())
        log.warning("sampler fell back in %d of %d draws: %s", fallbacks.total(), len(history),
                    "; ".join(f"case {name} x{n}, {why}" for (name, why), n in counts))
    return history, optimizer


def write_history_csv(history, path):
    with open(path, "w") as fh:
        fh.write("step,loss,dice_component,ce_component\n")
        for rec in history:
            fh.write(f"{rec.step},{rec.loss!r},{rec.dice!r},{rec.ce!r}\n")
