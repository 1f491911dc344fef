import json
import logging
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from click.testing import CliRunner

import ynetr.inference
import ynetr.training
from ynetr import nn
from ynetr.autograd import Tensor
from ynetr.checkpoint import (
    CheckpointError,
    MAGIC,
    load_checkpoint,
    restore_model,
    restore_optimizer,
    save_checkpoint,
)
from ynetr.cli import cli
from ynetr.losses import LossConfig
from ynetr.model import ModelConfig, YNetr
from ynetr.optim import AdamW
from ynetr.phantom import PhantomSpec, generate_phantom
from ynetr.sampling import SamplerConfig
from ynetr.training import (
    StepRecord,
    TrainConfig,
    TrainingDiverged,
    prepare_case,
    train,
    write_history_csv,
)
from ynetr.volume import LabelVolume, Volume3D, write_vvol

WINDOW = (16, 16, 16)


def read_history_csv(path):
    records = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            s, l, d, c = line.strip().split(",")
            records.append(StepRecord(int(s), float(l), float(d), float(c)))
    return records


def tiny_model(seed=0, zero_head=True):
    return YNetr(
        ModelConfig(
            input_dims=WINDOW,
            embed_dim=32,
            num_heads=4,
            depth=12,
            decoder_channels=(16, 16, 8, 8, 4),
            init_seed=seed,
            zero_init_head=zero_head,
        )
    )


def tiny_cases(n=1):
    cases = []
    for i in range(n):
        spec = PhantomSpec(
            shape=WINDOW,
            tumor_count=(1, 1),
            tumor_volume_cm3=(0.15, 0.3),
            seed=100 + i,
        )
        vol, lbl = generate_phantom(spec)
        cases.append(prepare_case(f"case_{i}", vol, lbl, WINDOW))
    return cases


def train_cfg(**overrides):
    base = dict(
        learning_rate=1e-3,
        epochs=1,
        steps_per_epoch=4,
        weight_decay=0.0,
        loss=LossConfig(alpha=0.5),
        seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


def param_bytes(model):
    return b"".join(p.data.tobytes() for p in model.parameters())


class TestPrepareCase:
    def test_pads_and_splits(self):
        spec = PhantomSpec(shape=(12, 12, 10), tumor_count=(1, 1),
                           tumor_volume_cm3=(0.05, 0.1), seed=3)
        vol, lbl = generate_phantom(spec)
        case = prepare_case("c", vol, lbl, WINDOW)
        assert case.lf.shape == WINDOW
        assert case.hf.shape == WINDOW
        assert case.label.shape == WINDOW
        assert len(case.fg_coords) >= 1
        # lf + hf reconstructs the padded normalized volume
        recon = case.lf + case.hf
        assert recon.shape == WINDOW
        assert np.isfinite(recon).all()

    def test_rejects_nonfinite_volume(self):
        vol, lbl = generate_phantom(PhantomSpec(shape=WINDOW, tumor_count=(1, 1),
                                                tumor_volume_cm3=(0.15, 0.3), seed=100))
        vol.voxels[1, 2, 3] = np.nan
        vol.voxels[4, 5, 6] = np.inf
        with pytest.raises(ValueError, match="case c: 2 non-finite voxels"):
            prepare_case("c", vol, lbl, WINDOW)


class TestTrainLoop:
    def test_zero_lr_keeps_params(self):
        model = tiny_model()
        before = param_bytes(model)
        opt = AdamW(model.parameters(), lr=0.0, weight_decay=0.0)
        train(model, tiny_cases(), train_cfg(steps_per_epoch=3),
              SamplerConfig(window=WINDOW, jitter_max=4), optimizer=opt)
        assert param_bytes(model) == before

    def test_loss_history_recorded(self):
        model = tiny_model()
        history, _ = train(
            model, tiny_cases(), train_cfg(), SamplerConfig(window=WINDOW, jitter_max=4)
        )
        assert [r.step for r in history] == [1, 2, 3, 4]
        assert all(np.isfinite(r.loss) for r in history)
        assert all(np.isfinite(r.dice) and np.isfinite(r.ce) for r in history)

    def test_train_and_infer_keep_the_freed_heap(self, monkeypatch):
        assert ynetr.training.keep_freed_heap is ynetr.inference.keep_freed_heap
        calls = []
        for mod in (ynetr.training, ynetr.inference):
            monkeypatch.setattr(mod, "keep_freed_heap", lambda name=mod.__name__: calls.append(name))
        model = tiny_model()
        train(model, tiny_cases(), train_cfg(steps_per_epoch=1),
              SamplerConfig(window=WINDOW, jitter_max=4))
        assert calls == ["ynetr.training"]
        vol = Volume3D(np.random.default_rng(0).random(WINDOW).astype(np.float32), (1.0, 1.0, 1.0))
        ynetr.inference.infer_volume(model.predict, vol, WINDOW)
        assert calls == ["ynetr.training", "ynetr.inference"]

    def test_deterministic_runs_bitwise(self, tmp_path):
        results = []
        for _ in range(2):
            model = tiny_model()
            history, _ = train(
                model, tiny_cases(), train_cfg(steps_per_epoch=6),
                SamplerConfig(window=WINDOW, jitter_max=4),
            )
            path = tmp_path / "h.csv"
            write_history_csv(history, path)
            results.append((param_bytes(model), path.read_bytes()))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]

    def test_divergence_detected(self):
        model = tiny_model()
        model.decoder.head.weight.data[...] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            train(model, tiny_cases(), train_cfg(),
                  SamplerConfig(window=WINDOW, jitter_max=4))
        assert err.value.step == 1

    def test_loss_falls(self):
        # step 1's loss is closed-form under the zero-init head; a model that
        # learns roughly halves it within 80 steps on four tiny phantoms
        history, _ = train(tiny_model(), tiny_cases(4), train_cfg(steps_per_epoch=80),
                           SamplerConfig(window=WINDOW, jitter_max=4))
        late = np.mean([r.loss for r in history[60:80]])
        assert late < 0.5 * history[0].loss, (history[0].loss, late)

    def test_fallback_warned_once_per_case_and_reason(self, caplog):
        # a 16^3 window on a 16^3 phantom has no tumor-free crop, and an
        # all-background label has no positive one: every other draw falls back
        vol, lbl = generate_phantom(PhantomSpec(shape=WINDOW, tumor_count=(1, 1),
                                                tumor_volume_cm3=(0.15, 0.3), seed=100))
        empty = LabelVolume(np.zeros_like(lbl.labels), lbl.spacing_mm)
        cases = [prepare_case("tumor", vol, lbl, WINDOW), prepare_case("empty", vol, empty, WINDOW)]
        # seed 7 draws "empty" on steps 1, 3, 5, 9 and 11 (positive) and "tumor" on step 2
        want = [
            "sampler fell back in 6 of 12 draws: "
            "case empty x5, no tumor voxels (negative windows drawn); "
            "case tumor x1, no tumor-free window (unconstrained windows drawn)"
        ]
        sampler = SamplerConfig(window=WINDOW, jitter_max=4)
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="ynetr.training"):
                train(tiny_model(), cases, train_cfg(steps_per_epoch=12), sampler)
            assert [r.getMessage() for r in caplog.records] == want

    def test_history_csv_roundtrip(self, tmp_path):
        model = tiny_model()
        history, _ = train(model, tiny_cases(), train_cfg(steps_per_epoch=2),
                           SamplerConfig(window=WINDOW, jitter_max=4))
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        header = path.read_text().splitlines()[0]
        assert header == "step,loss,dice_component,ce_component"
        back = read_history_csv(path)
        assert [(r.step, r.loss) for r in back] == [(r.step, r.loss) for r in history]


def checkpoint_file_oracle(model, optimizer=None, extra=None):
    """The bytes of a checkpoint file by the earlier writer's formula: the
    manifest, then each tensor as ``np.ascontiguousarray(arr, "<f4").tobytes()``."""
    entries = [(f"param:{name}", p.data) for name, p in model.named_parameters()]
    if optimizer is not None:
        entries += [(f"adamw.m:{i}", m) for i, m in enumerate(optimizer.m)]
        entries += [(f"adamw.v:{i}", v) for i, v in enumerate(optimizer.v)]
    meta = {
        "model_config": asdict(model.cfg),
        "optimizer": None if optimizer is None else {"t": optimizer.t},
        "extra": extra or {},
    }
    lines = [MAGIC, "meta " + json.dumps(meta, sort_keys=True)]
    for name, arr in entries:
        shape = " ".join(str(n) for n in arr.shape)
        lines.append(f"tensor {name} {arr.ndim} {shape} {arr.nbytes}")
    lines.append("end")
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f4").tobytes() for _, arr in entries)
    return ("\n".join(lines) + "\n").encode("ascii") + payload


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        model = tiny_model(seed=1, zero_head=False)
        opt = AdamW(model.parameters(), lr=1e-3)
        path = tmp_path / "ck.ynck"
        save_checkpoint(path, model, opt, extra={"name": "t"})
        ckpt = load_checkpoint(path)
        assert set(ckpt.meta) == {"model_config", "optimizer", "extra"}
        assert ckpt.meta["optimizer"] == {"t": 0}
        assert ckpt.meta["extra"]["name"] == "t"
        assert ckpt.model_config == model.cfg
        restored = restore_model(ckpt)
        assert param_bytes(restored) == param_bytes(model)
        path2 = tmp_path / "ck2.ynck"
        opt2 = AdamW(restored.parameters(), lr=1e-3)
        restore_optimizer(opt2, ckpt)
        save_checkpoint(path2, restored, opt2, extra={"name": "t"})
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("with_optimizer", [False, True], ids=["model", "optimizer"])
    def test_file_matches_writer_oracle(self, tmp_path, with_optimizer):
        model = tiny_model(seed=2, zero_head=False)
        opt = None
        if with_optimizer:  # two steps on random gradients: every moment is nonzero
            opt = AdamW(model.parameters(), lr=1e-3)
            rng = np.random.default_rng(1)
            for _ in range(2):
                for p in opt.params:
                    p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
                opt.step()
        path = tmp_path / "ck.ynck"
        save_checkpoint(path, model, opt, extra={"name": "t"})
        assert path.read_bytes() == checkpoint_file_oracle(model, opt, extra={"name": "t"})

    def test_restore_draws_nothing(self, tmp_path, monkeypatch):
        model = tiny_model(seed=1, zero_head=False)
        path = tmp_path / "ck.ynck"
        save_checkpoint(path, model)
        for helper in ("trunc_normal", "fanin_uniform"):
            def refuse(rng, *args, draw=getattr(nn, helper)):
                if rng is not None:
                    raise AssertionError("restore drew an initialisation it overwrites")
                return draw(rng, *args)
            monkeypatch.setattr(nn, helper, refuse)
        restored = restore_model(load_checkpoint(path))
        assert param_bytes(restored) == param_bytes(model)

    def test_restore_peak_memory_is_one_payload(self, tmp_path):
        # every tensor is held once: no whole-file bytes, no copy into the
        # model, and no initialisation drawn for the model to overwrite
        model = YNetr(ModelConfig(input_dims=WINDOW, embed_dim=64, num_heads=4, depth=4,
                                  decoder_channels=(16, 16, 8, 8, 4)))
        payload = sum(p.data.nbytes for p in model.parameters())
        path = tmp_path / "ck.ynck"
        save_checkpoint(path, model)
        tracemalloc.start()
        try:
            restored = restore_model(load_checkpoint(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert param_bytes(restored) == param_bytes(model)
        assert peak <= 1.25 * payload, f"peak {peak} B for a payload of {payload} B"

    def test_old_step_key_ignored(self, tmp_path):
        # checkpoints of earlier versions carry a top-level step; the model still loads
        model = tiny_model(seed=1, zero_head=False)
        path = tmp_path / "ck.ynck"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        assert raw.count(b', "optimizer": null}') == 1
        path.write_bytes(raw.replace(b', "optimizer": null}', b', "optimizer": null, "step": 0}'))
        assert param_bytes(restore_model(load_checkpoint(path))) == param_bytes(model)

    @pytest.mark.parametrize("fault, message", [
        ("missing", "checkpoint is missing parameter {name}"),
        ("misshapen", r"parameter {name}: checkpoint shape \(1, 2\) vs model \(2,\)"),
    ], ids=["missing", "misshapen"])
    def test_parameter_missing_or_misshapen(self, tmp_path, fault, message):
        # hand-made files can pass the manifest checks and still not fit the model
        model = tiny_model()
        path = tmp_path / "ck.ynck"
        save_checkpoint(path, model)
        name, last = list(model.named_parameters())[-1]
        assert last.data.shape == (2,)
        raw = path.read_bytes()
        line = f"tensor param:{name} 1 2 8\n".encode()
        assert raw.count(line) == 1
        if fault == "missing":  # the last tensor's bytes end the payload
            raw = raw.replace(line, b"")[: -last.data.nbytes]
        else:
            raw = raw.replace(line, f"tensor param:{name} 2 1 2 8\n".encode())
        path.write_bytes(raw)
        message = message.format(name=name)
        with pytest.raises(CheckpointError, match=f"^{message}$"):
            restore_model(load_checkpoint(path))
        write_vvol(Volume3D(np.zeros(WINDOW, dtype=np.float32), (1, 1, 1)), tmp_path / "x.vvol")
        res = CliRunner().invoke(cli, ["infer", "--checkpoint", str(path),
                                       "--out", str(tmp_path / "pred"), str(tmp_path / "x.vvol")])
        assert res.exit_code == 3
        lines = res.output.splitlines()
        assert len(lines) == 1 and re.fullmatch(f"io-error: {message}", lines[0])

    def test_removed_model_key_rejected(self, tmp_path):
        # checkpoints written while the CNN ablation branch existed carry lf_branch
        path = tmp_path / "ck.ynck"
        save_checkpoint(path, tiny_model())
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"model_config": {',
                                     b'"model_config": {"lf_branch": "transformer", ', 1))
        with pytest.raises(CheckpointError, match=r"unknown keys \['lf_branch'\]"):
            load_checkpoint(path)

    def test_resume_equals_uninterrupted(self, tmp_path):
        sampler = SamplerConfig(window=WINDOW, jitter_max=4)
        cases = tiny_cases()

        straight = tiny_model()
        train(straight, cases, train_cfg(steps_per_epoch=6), sampler)

        resumed = tiny_model()
        _, opt = train(resumed, cases, train_cfg(steps_per_epoch=3), sampler)
        path = tmp_path / "mid.ynck"
        save_checkpoint(path, resumed, opt)

        # the resumed run builds its optimizer from its own config
        cfg = train_cfg(steps_per_epoch=6)
        ckpt = load_checkpoint(path)
        fresh = restore_model(ckpt)
        opt2 = AdamW(fresh.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        restore_optimizer(opt2, ckpt)
        assert opt2.t == 3
        history, _ = train(fresh, cases, cfg, sampler, optimizer=opt2)

        assert [r.step for r in history] == [4, 5, 6]
        assert opt2.t == 6
        assert param_bytes(fresh) == param_bytes(straight)

    def test_returned_optimizer_continues(self):
        sampler = SamplerConfig(window=WINDOW, jitter_max=4)
        cases = tiny_cases()
        straight = tiny_model()
        train(straight, cases, train_cfg(steps_per_epoch=6), sampler)

        model = tiny_model()
        _, opt = train(model, cases, train_cfg(steps_per_epoch=2), sampler)
        history, _ = train(model, cases, train_cfg(steps_per_epoch=6), sampler, optimizer=opt)
        assert [r.step for r in history] == [3, 4, 5, 6]
        assert param_bytes(model) == param_bytes(straight)
        # a run that has already reached total_steps takes no further step
        history, _ = train(model, cases, train_cfg(steps_per_epoch=6), sampler, optimizer=opt)
        assert history == [] and opt.t == 6


class TestNonFiniteGradient:
    def test_nan_gradient_stops_before_the_update(self, monkeypatch):
        backward = Tensor.backward

        def poisoned(self):
            backward(self)
            model.decoder.head.weight.grad.reshape(-1)[0] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned)
        model = tiny_model()
        before = param_bytes(model)
        opt = AdamW(model.parameters(), lr=1e-3)
        with pytest.raises(TrainingDiverged, match="gradient") as err:
            train(model, tiny_cases(), train_cfg(), SamplerConfig(window=WINDOW, jitter_max=4),
                  optimizer=opt)
        assert err.value.step == 1
        assert "step 1" in str(err.value)
        assert param_bytes(model) == before
        assert opt.t == 0
        assert not any(m.any() for m in opt.m + opt.v)


def assert_untouched(opt):
    """A fresh optimizer after a refused restore: no moment written, t still 0."""
    assert opt.t == 0
    assert not any(a.any() for a in opt.m + opt.v)


class TestRestoreOptimizerValidation:
    # hyperparameters that earlier versions stored in the optimizer meta
    STORED_BEFORE = ["lr", "beta1", "beta2", "eps", "weight_decay"]

    @pytest.fixture()
    def saved(self, tmp_path):
        # two steps on random gradients, so that every saved moment is nonzero
        model = tiny_model(seed=1)
        opt = AdamW(model.parameters(), lr=1e-3)
        rng = np.random.default_rng(0)
        for _ in range(2):
            for p in opt.params:
                p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            opt.step()
        path = tmp_path / "ck.ynck"
        save_checkpoint(path, model, opt)
        return model, path

    def test_moments_and_step_loaded_hyperparameters_kept(self, saved):
        model, path = saved
        ckpt = load_checkpoint(path)
        opt = AdamW(model.parameters(), lr=5e-4, weight_decay=0.0)
        restore_optimizer(opt, ckpt)
        assert (opt.lr, opt.weight_decay) == (5e-4, 0.0)
        assert opt.t == 2
        for i in range(len(opt.params)):
            assert opt.m[i].tobytes() == ckpt.arrays[f"adamw.m:{i}"].tobytes()
            assert opt.v[i].tobytes() == ckpt.arrays[f"adamw.v:{i}"].tobytes()
        assert all(a.any() for a in opt.m + opt.v)

    @pytest.mark.parametrize("key", ["t", *STORED_BEFORE])
    @pytest.mark.parametrize("bad", ["missing", "0.5", None, True, float("nan"), 1e-3])
    def test_missing_or_non_numeric_meta(self, saved, key, bad):
        # t must be a non-negative int; a stored hyperparameter, as older
        # checkpoints carry, is refused whatever its value, and its absence
        # is the layout this version writes
        model, path = saved
        ckpt = load_checkpoint(path)
        if bad == "missing":
            ckpt.meta["optimizer"].pop(key, None)
        else:
            ckpt.meta["optimizer"][key] = bad
        opt = AdamW(model.parameters(), lr=5e-4)
        if key != "t" and bad == "missing":
            restore_optimizer(opt, ckpt)
            assert opt.t == 2
            return
        with pytest.raises(CheckpointError, match=key):
            restore_optimizer(opt, ckpt)
        assert opt.lr == 5e-4
        assert_untouched(opt)

    def test_fractional_step_count(self, saved):
        model, path = saved
        ckpt = load_checkpoint(path)
        ckpt.meta["optimizer"]["t"] = 2.5
        with pytest.raises(CheckpointError, match="'t'"):
            restore_optimizer(AdamW(model.parameters()), ckpt)

    def test_negative_step_count(self, saved):
        model, path = saved
        ckpt = load_checkpoint(path)
        ckpt.meta["optimizer"]["t"] = -1
        with pytest.raises(CheckpointError, match="negative"):
            restore_optimizer(AdamW(model.parameters()), ckpt)

    @pytest.mark.parametrize("key", ["beta1", "beta2"])
    @pytest.mark.parametrize("value", [-0.1, 1.0, 1.5])
    def test_beta_outside_unit_interval(self, saved, key, value):
        # the betas are constants now, so a stored beta is refused, in range or not
        model, path = saved
        ckpt = load_checkpoint(path)
        ckpt.meta["optimizer"][key] = value
        with pytest.raises(CheckpointError, match=key):
            restore_optimizer(AdamW(model.parameters()), ckpt)

    def test_non_object_meta(self, saved):
        model, path = saved
        ckpt = load_checkpoint(path)
        ckpt.meta["optimizer"] = [1, 2]
        with pytest.raises(CheckpointError, match="optimizer"):
            restore_optimizer(AdamW(model.parameters()), ckpt)

    def test_model_only_checkpoint(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "ck.ynck"
        save_checkpoint(path, model)
        opt = AdamW(model.parameters())
        with pytest.raises(CheckpointError, match="no optimizer state"):
            restore_optimizer(opt, load_checkpoint(path))
        assert_untouched(opt)

    def test_second_moment_missing(self, saved):
        # the last entry, so that every other moment would be written first
        model, path = saved
        ckpt = load_checkpoint(path)
        name = f"adamw.v:{len(list(model.parameters())) - 1}"
        del ckpt.arrays[name]
        opt = AdamW(model.parameters())
        with pytest.raises(CheckpointError, match=f"^optimizer state incomplete: no {name}$"):
            restore_optimizer(opt, ckpt)
        assert_untouched(opt)

    def test_second_moment_shape_checked(self, saved):
        model, path = saved
        ckpt = load_checkpoint(path)
        ckpt.arrays["adamw.v:0"] = np.zeros(1, dtype=np.float32)
        opt = AdamW(model.parameters())
        with pytest.raises(CheckpointError, match="shape"):
            restore_optimizer(opt, ckpt)
        assert_untouched(opt)
