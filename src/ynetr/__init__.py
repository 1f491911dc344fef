"""Dual-encoder wavelet-frequency volumetric segmentation, CPU-only.

The pipeline: split a CT volume into low/high-frequency images with a
single-level Haar transform, encode each image with its own transformer
branch, fuse the per-scale features by addition, decode to voxel logits,
train with a blended Dice + cross-entropy loss, and predict whole volumes
with overlapping sliding windows.
"""

from .autograd import Tensor, conv3d, conv_transpose3d, layer_norm, no_grad
from .inference import InferenceConfig, TilingPlan, build_tiling_plan, infer_volume, tile_positions
from .losses import (
    LossConfig,
    cross_entropy_loss,
    dice_loss,
    label_onehot,
    segmentation_loss,
)
from .metrics import ConfusionCounts, confusion, dice_coefficient, evaluate
from .model import (
    ModelConfig,
    YNetr,
    fuse_add,
    patchify,
)
from .optim import AdamW
from .phantom import PhantomError, PhantomSpec, generate_phantom
from .sampling import (
    NoBackgroundError,
    NoForegroundError,
    SamplerConfig,
    WindowSample,
    pad_to_window,
    sample_window,
)
from .training import (
    TrainConfig,
    TrainingCase,
    TrainingDiverged,
    prepare_case,
    train,
)
from .volume import (
    LabelVolume,
    Volume3D,
    VvolError,
    normalize_intensity,
    read_vvol,
    write_vvol,
)
from .wavelet import FrequencyPair, split_frequency

__version__ = "0.1.0"
