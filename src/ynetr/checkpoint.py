"""Checkpoint files: text manifest plus raw little-endian float32 payload.

The manifest echoes the model configuration and optimizer hyperparameters
as one JSON line, then lists every tensor with its shape and byte length;
the payload is the concatenation of the listed buffers in order. Reading
back a checkpoint written from the same state is bitwise exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import ConfigError, build_config
from .model import ModelConfig, YNetr
from .optim import AdamW

MAGIC = "ynetr-checkpoint 1"


class CheckpointError(Exception):
    pass


def model_config_from_dict(d) -> ModelConfig:
    try:
        return build_config(ModelConfig, d, "model_config")
    except ConfigError as exc:
        raise CheckpointError(f"invalid model config: {exc}") from exc


@dataclass
class Checkpoint:
    meta: dict
    arrays: dict


def save_checkpoint(path, model: YNetr, optimizer: AdamW | None = None, step: int = 0,
                    extra: dict | None = None):
    entries = [(f"param:{name}", p.data) for name, p in model.named_parameters()]
    opt_meta = None
    if optimizer is not None:
        state = optimizer.state_arrays()
        entries += [(f"adamw.m:{i}", m) for i, m in enumerate(state["m"])]
        entries += [(f"adamw.v:{i}", v) for i, v in enumerate(state["v"])]
        opt_meta = {
            "lr": optimizer.lr,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "weight_decay": optimizer.weight_decay,
            "t": state["t"],
        }
    meta = {
        "step": int(step),
        "model_config": asdict(model.cfg),
        "optimizer": opt_meta,
        "extra": extra or {},
    }
    lines = [MAGIC, "meta " + json.dumps(meta, sort_keys=True)]
    for name, arr in entries:
        shape = " ".join(str(n) for n in arr.shape)
        lines.append(f"tensor {name} {arr.ndim} {shape} {arr.nbytes}")
    lines.append("end")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


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


def _parse_manifest(text: bytes):
    """(meta, tensor directory) of the manifest lines between magic and ``end``."""
    try:
        lines = text.decode("ascii").split("\n")
    except UnicodeDecodeError:
        raise CheckpointError("manifest is not ASCII text") from None
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
    model_config_from_dict(meta.get("model_config"))
    if not isinstance(meta.get("extra", {}), dict):
        raise CheckpointError("meta 'extra' is not a JSON object")
    return meta, directory


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; malformed content raises CheckpointError naming ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(MAGIC.encode() + b"\n"):
        raise CheckpointError(f"{path}: not a checkpoint file")
    stop = raw.find(b"\nend\n")
    if stop < 0:
        raise CheckpointError(f"{path}: manifest not terminated")
    try:
        meta, directory = _parse_manifest(raw[len(MAGIC) + 1 : stop])
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    pos = stop + len(b"\nend\n")
    arrays = {}
    for name, shape, nbytes in directory:
        chunk = raw[pos : pos + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: truncated payload at tensor {name}")
        arrays[name] = np.frombuffer(chunk, dtype="<f4").reshape(shape).copy()
        pos += nbytes
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes after payload")
    return Checkpoint(meta=meta, arrays=arrays)


def restore_model(ckpt: Checkpoint) -> YNetr:
    """Build a model from the stored config and load its parameters; a
    parameter that is missing or has another shape raises CheckpointError."""
    model = YNetr(model_config_from_dict(ckpt.meta["model_config"]))
    for name, p in model.named_parameters():
        arr = ckpt.arrays.get(f"param:{name}")
        if arr is None:
            raise CheckpointError(f"checkpoint is missing parameter {name}")
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"parameter {name}: checkpoint shape {arr.shape} vs model {p.data.shape}"
            )
        p.data[...] = arr
    return model


def _optimizer_meta(opt_meta):
    """Validated AdamW hyperparameters and step count from the checkpoint meta."""
    if opt_meta is None:
        raise CheckpointError("checkpoint carries no optimizer state")
    if not isinstance(opt_meta, dict):
        raise CheckpointError("optimizer meta is not a JSON object")
    out = {}
    for key in ("t", "lr", "beta1", "beta2", "eps", "weight_decay"):
        value = opt_meta.get(key)
        kinds, what = (int, "an integer") if key == "t" else ((int, float), "a finite number")
        if isinstance(value, bool) or not isinstance(value, kinds) or not math.isfinite(value):
            raise CheckpointError(f"optimizer meta {key!r} must be {what}, got {value!r}")
        out[key] = value
    if out["t"] < 0:
        raise CheckpointError(f"optimizer step count t is negative: {out['t']}")
    for key in ("beta1", "beta2"):
        if not 0 <= out[key] < 1:
            raise CheckpointError(f"optimizer {key} {out[key]!r} is outside [0, 1)")
    return out


def restore_optimizer(optimizer: AdamW, ckpt: Checkpoint):
    meta = _optimizer_meta(ckpt.meta.get("optimizer"))
    n = len(optimizer.params)
    try:
        m = [ckpt.arrays[f"adamw.m:{i}"] for i in range(n)]
        v = [ckpt.arrays[f"adamw.v:{i}"] for i in range(n)]
    except KeyError as exc:
        raise CheckpointError(f"optimizer state incomplete: {exc}") from exc
    try:
        optimizer.load_state_arrays({"m": m, "v": v, "t": meta["t"]})
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    for key in ("lr", "beta1", "beta2", "eps", "weight_decay"):
        setattr(optimizer, key, float(meta[key]))
