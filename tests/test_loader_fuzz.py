"""Fuzz the three file/document loaders: only their typed errors may escape."""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ynetr.checkpoint import CheckpointError, load_checkpoint, restore_model, save_checkpoint
from ynetr.config import ConfigError, RunConfig, run_config_from_dict, run_config_to_dict
from ynetr.model import ModelConfig, YNetr
from ynetr.volume import LabelVolume, Volume3D, VvolError, read_vvol, write_vvol

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))
        yield prefix + (key,)


DEFAULT_DOC = run_config_to_dict(RunConfig())
PATHS = sorted(_key_paths(DEFAULT_DOC))


@st.composite
def config_documents(draw):
    """The default document with a few keys replaced, deleted or added."""
    doc = json.loads(json.dumps(DEFAULT_DOC))
    for path in draw(st.lists(st.sampled_from(PATHS), min_size=1, max_size=3)):
        parent = doc
        for key in path[:-1]:
            if not isinstance(parent.get(key), dict):
                break
            parent = parent[key]
        else:
            action = draw(st.sampled_from(["set", "delete", "add"]))
            if action == "set":
                parent[path[-1]] = draw(json_values)
            elif action == "delete":
                parent.pop(path[-1], None)
            else:
                parent[draw(st.text(max_size=6))] = draw(json_values)
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=config_documents() | json_values)
def test_run_config_raises_only_config_error(doc):
    try:
        cfg = run_config_from_dict(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@st.composite
def mutations(draw, raw, head_len):
    """``raw`` with 1-4 byte edits, half of them inside the first ``head_len`` bytes."""
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        limit = min(head_len, len(data)) if draw(st.booleans()) else len(data)
        if limit == 0:
            break
        i = draw(st.integers(0, limit - 1))
        op = draw(st.sampled_from(["set", "delete", "insert", "truncate"]))
        if op == "set":
            data[i] = draw(st.integers(0, 255))
        elif op == "delete":
            del data[i]
        elif op == "insert":
            data.insert(i, draw(st.integers(0, 255)))
        else:
            del data[i:]
    return bytes(data)


def _written_bytes(write):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f")
        write(path)
        with open(path, "rb") as fh:
            return fh.read()


def _load_bytes(read, raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f")
        with open(path, "wb") as fh:
            fh.write(raw)
        return read(path)


_MODEL = YNetr(ModelConfig(input_dims=(16, 16, 16), embed_dim=16, num_heads=2, depth=4,
                           decoder_channels=(4, 4, 4, 4, 2)))
CKPT = _written_bytes(
    lambda path: save_checkpoint(path, _MODEL, extra={"inference": {"overlap": 0.5}})
)
CKPT_HEAD = CKPT.find(b"\nend\n") + 5


@settings(max_examples=100, deadline=None)
@given(raw=mutations(CKPT, CKPT_HEAD))
def test_checkpoint_raises_only_checkpoint_error(raw):
    try:
        restore_model(_load_bytes(load_checkpoint, raw))
    except CheckpointError:
        pass


_rng = np.random.default_rng(0)
VVOLS = [
    _written_bytes(lambda path: write_vvol(vol, path))
    for vol in (
        Volume3D(_rng.standard_normal((4, 3, 2)), (1.0, 0.5, 2.0)),
        LabelVolume(_rng.random((4, 3, 2)) < 0.5, (1.0, 1.0, 1.0)),
    )
]


@settings(max_examples=100, deadline=None)
@given(raw=st.sampled_from(VVOLS).flatmap(lambda raw: mutations(raw, raw.find(b"\nend\n") + 5)))
def test_vvol_raises_only_vvol_error(raw):
    try:
        _load_bytes(read_vvol, raw)
    except VvolError:
        pass
