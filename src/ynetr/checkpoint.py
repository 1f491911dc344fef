"""Checkpoint files, in the file layout that ``volume.py`` describes: the
magic line ``ynetr-checkpoint 1``, the manifest as the header lines, then
the raw little-endian float32 payload.

The manifest's meta line is one JSON object that holds what only the
checkpoint knows:

* ``model_config``: the ``ModelConfig`` fields the model was built with;
* ``optimizer``: ``{"t": <steps taken>}``, or null in a model-only
  checkpoint. The learning rate and weight decay come from the
  ``TrainConfig`` of the run that loads it;
* ``extra``: a JSON object of run settings, such as the intensity window
  and inference config that ``ynetr infer`` reads.

Then every tensor is listed with its shape and byte length: the parameters
as ``param:<name>``, then the AdamW moments as ``adamw.m:<i>`` and
``adamw.v:<i>``. The payload is the concatenation of the listed buffers in
order. Reading back a checkpoint written from the same state is bitwise
exact. A top-level meta key other than these is ignored.

Each tensor moves once each way. ``save_checkpoint`` writes every array's
own buffer, with no intermediate bytes object. ``load_checkpoint`` checks
each tensor's length against what is left of the file, then reads its
bytes straight into the C-contiguous float32 array that keeps it. Restoring
draws nothing and copies nothing: ``restore_model`` builds the model with
placeholder weights and ``restore_optimizer`` replaces the moments, both
adopting the loaded arrays. A ``Checkpoint`` therefore shares its arrays
with what was restored from it: training a restored model or optimizer
changes ``ckpt.arrays``, and two models restored from one ``Checkpoint``
share their parameters. Load the file again for an independent copy.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .config import ConfigError, build_config
from .model import ModelConfig, YNetr
from .optim import AdamW
from .volume import read_header, write_layout

MAGIC = "ynetr-checkpoint 1"


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    meta: dict
    arrays: dict
    model_config: ModelConfig


def save_checkpoint(path, model: YNetr, optimizer: AdamW | None = None, extra: dict | None = None):
    entries = [(f"param:{name}", p.data) for name, p in model.named_parameters()]
    if optimizer is not None:
        entries += [(f"adamw.m:{i}", m) for i, m in enumerate(optimizer.m)]
        entries += [(f"adamw.v:{i}", v) for i, v in enumerate(optimizer.v)]
    meta = {
        "model_config": asdict(model.cfg),
        "optimizer": None if optimizer is None else {"t": optimizer.t},
        "extra": extra or {},
    }
    lines = ["meta " + json.dumps(meta, sort_keys=True)]
    for name, arr in entries:
        shape = " ".join(str(n) for n in arr.shape)
        lines.append(f"tensor {name} {arr.ndim} {shape} {arr.nbytes}")
    write_layout(path, MAGIC, lines, (np.ascontiguousarray(a, dtype="<f4") for _, a in entries))


def _tensor_entry(line):
    """(name, shape, nbytes) of a ``tensor <name> <ndim> <dims...> <nbytes>`` line."""
    parts = line.split()
    try:
        name, ndim = parts[1], int(parts[2])
        shape = tuple(int(x) for x in parts[3 : 3 + ndim])
        nbytes = int(parts[3 + ndim])
    except (IndexError, ValueError):
        raise CheckpointError(f"malformed tensor line {line!r}") from None
    if len(parts) != 4 + ndim or min(shape, default=0) < 0 or nbytes != 4 * math.prod(shape):
        raise CheckpointError(f"tensor line {line!r}: shape does not match the byte count")
    return name, shape, nbytes


def _parse_manifest(lines):
    """(meta, model config, tensor directory) of the manifest lines between
    magic and ``end``."""
    meta, directory = None, []
    for line in lines:
        if line.startswith("meta "):
            try:
                meta = json.loads(line[5:])
            except json.JSONDecodeError as exc:
                raise CheckpointError(f"meta line is not valid JSON ({exc})") from None
        elif line.startswith("tensor "):
            directory.append(_tensor_entry(line))
        else:
            raise CheckpointError(f"unexpected manifest line {line!r}")
    if not isinstance(meta, dict):
        raise CheckpointError("manifest has no meta object")
    try:
        model_cfg = build_config(ModelConfig, meta.get("model_config"), "model_config")
    except ConfigError as exc:
        raise CheckpointError(f"invalid model config: {exc}") from exc
    if not isinstance(meta.get("extra", {}), dict):
        raise CheckpointError("meta 'extra' is not a JSON object")
    return meta, model_cfg, directory


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; malformed content raises CheckpointError naming ``path``."""
    with open(path, "rb") as fh:
        lines = read_header(fh, MAGIC, CheckpointError)
        try:
            meta, model_cfg, directory = _parse_manifest(lines)
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        pos, size = fh.tell(), os.fstat(fh.fileno()).st_size
        arrays = {}
        for name, shape, nbytes in directory:
            # checked before the array is allocated: a manifest cannot make
            # the reader allocate more than the file holds
            if size - pos < nbytes:
                raise CheckpointError(f"{path}: truncated payload at tensor {name}")
            arr = np.empty(shape, dtype="<f4")
            if fh.readinto(arr) != nbytes:
                raise CheckpointError(f"{path}: file shrank while reading tensor {name}")
            arrays[name] = arr.astype(np.float32, copy=False)  # no copy on little-endian hosts
            pos += nbytes
        if pos != size:
            raise CheckpointError(f"{path}: {size - pos} trailing bytes after payload")
    return Checkpoint(meta=meta, arrays=arrays, model_config=model_cfg)


def restore_model(ckpt: Checkpoint) -> YNetr:
    """Build a model from the stored config that adopts the stored parameters.

    The model is built without drawing an initialisation, and each of its
    parameters takes the checkpoint's array itself as its data, so the two
    share memory. A parameter that is missing or has another shape raises
    CheckpointError.
    """
    model = YNetr(ckpt.model_config, _draw=False)
    for name, p in model.named_parameters():
        arr = ckpt.arrays.get(f"param:{name}")
        if arr is None:
            raise CheckpointError(f"checkpoint is missing parameter {name}")
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"parameter {name}: checkpoint shape {arr.shape} vs model {p.data.shape}"
            )
        p.data = arr
    return model


def restore_optimizer(optimizer: AdamW, ckpt: Checkpoint):
    """Load the moments and the step count ``t`` of ``ckpt`` into ``optimizer``,
    which keeps the learning rate and weight decay it was built with.

    The optimizer adopts the checkpoint's moment arrays in place of its own,
    with no copy, so the two share memory. Every check runs before any
    moment is adopted, and ``t`` is set last.
    """
    meta = ckpt.meta.get("optimizer")
    if meta is None:
        raise CheckpointError("checkpoint carries no optimizer state")
    if not isinstance(meta, dict):
        raise CheckpointError("optimizer meta is not a JSON object")
    unknown = sorted(set(meta) - {"t"})
    if unknown:
        raise CheckpointError(f"optimizer meta: unknown keys {unknown}")
    t = meta.get("t")
    if isinstance(t, bool) or not isinstance(t, int) or t < 0:
        raise CheckpointError(f"optimizer meta 't' must be a non-negative integer, got {t!r}")
    moments = []
    for key, buffers in (("m", optimizer.m), ("v", optimizer.v)):
        for i, dst in enumerate(buffers):
            name = f"adamw.{key}:{i}"
            src = ckpt.arrays.get(name)
            if src is None:
                raise CheckpointError(f"optimizer state incomplete: no {name}")
            if src.shape != dst.shape:
                raise CheckpointError(
                    f"optimizer moment {name} shape {src.shape} does not match {dst.shape}"
                )
            moments.append((buffers, i, src))
    for buffers, i, src in moments:
        buffers[i] = src
    optimizer.t = t
