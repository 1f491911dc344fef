import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ynetr
import ynetr.cli as cli_module
from ynetr.autograd import Tensor, _build_tape
from ynetr.checkpoint import save_checkpoint
from ynetr.cli import cli
from ynetr.config import load_run_config
from ynetr.metrics import confusion
from ynetr.model import ModelConfig, YNetr
from ynetr.volume import LabelVolume, Volume3D, read_vvol, write_vvol

TOY_CONFIG = {
    "model": {
        "input_dims": [16, 16, 16],
        "embed_dim": 32,
        "num_heads": 4,
        "decoder_channels": [16, 16, 8, 8, 4],
    },
    "sampler": {"window": [16, 16, 16], "jitter_max": 4},
    "train": {"epochs": 1, "steps_per_epoch": 2, "learning_rate": 1e-3},
    "phantom": {
        "count": 2,
        "spec": {
            "shape": [16, 16, 16],
            "tumor_count": [1, 1],
            "tumor_volume_cm3": [0.15, 0.3],
            "seed": 5,
        },
    },
}


@pytest.fixture()
def runner():
    return CliRunner()


def _write_config(tmp_path, doc=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc or TOY_CONFIG))
    return path


def test_phantom_is_deterministic(tmp_path, runner):
    cfg = _write_config(tmp_path)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        body = b"".join(
            (out / f"case_{i:03d}{suffix}").read_bytes()
            for i in range(2)
            for suffix in (".vvol", ".label.vvol")
        )
        outs.append(body)
        assert (out / "config.echo.json").exists()
    assert outs[0] == outs[1]


def test_phantom_echo_reproduces(tmp_path, runner):
    cfg = _write_config(tmp_path)
    out1 = tmp_path / "r1"
    res = runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(out1)])
    assert res.exit_code == 0, res.output
    # re-run from the canonical echo: outputs must be bitwise identical
    out2 = tmp_path / "r2"
    res = runner.invoke(
        cli, ["phantom", "--config", str(out1 / "config.echo.json"), "--out", str(out2)]
    )
    assert res.exit_code == 0, res.output
    for i in range(2):
        a = (out1 / f"case_{i:03d}.vvol").read_bytes()
        b = (out2 / f"case_{i:03d}.vvol").read_bytes()
        assert a == b


def test_wavelet_outputs(tmp_path, runner):
    cfg = _write_config(tmp_path)
    data = tmp_path / "data"
    runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(data)])
    res = runner.invoke(
        cli, ["wavelet", str(data / "case_000.vvol"), "--out", str(tmp_path / "w")]
    )
    assert res.exit_code == 0, res.output
    lf = read_vvol(tmp_path / "w" / "case_000.lf.vvol")
    hf = read_vvol(tmp_path / "w" / "case_000.hf.vvol")
    src = read_vvol(data / "case_000.vvol")
    assert np.abs(lf.voxels + hf.voxels - src.voxels).max() <= 1e-3


def test_full_pipeline(tmp_path, runner):
    cfg = _write_config(tmp_path)
    data = tmp_path / "data"
    run = tmp_path / "run"
    pred = tmp_path / "pred"
    rep = tmp_path / "report"

    assert runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(data)]).exit_code == 0
    res = runner.invoke(
        cli, ["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]
    )
    assert res.exit_code == 0, res.output
    with open(run / "checkpoint.ynck", "rb") as fh:
        fh.readline()
        meta = json.loads(fh.readline().decode()[len("meta "):])
    assert meta["optimizer"] == {"t": 2} and "step" not in meta
    history = (run / "loss_history.csv").read_text().splitlines()
    assert history[0] == "step,loss,dice_component,ce_component"
    assert len(history) == 3

    res = runner.invoke(
        cli,
        ["infer", "--checkpoint", str(run / "checkpoint.ynck"), "--out", str(pred),
         str(data / "case_000.vvol"), str(data / "case_001.vvol")],
    )
    assert res.exit_code == 0, res.output
    assert (pred / "case_000.prob.vvol").exists()
    assert (pred / "case_001.pred.vvol").exists()

    res = runner.invoke(
        cli, ["eval", "--pred", str(pred), "--gt", str(data), "--out", str(rep)]
    )
    assert res.exit_code == 0, res.output
    metrics = json.loads((rep / "metrics.json").read_text())
    assert set(metrics) == {"mean_dice", "per_volume", "confusion"}
    assert 0.0 <= metrics["mean_dice"] <= 1.0
    assert (rep / "report.csv").read_text().startswith("volume,dice,tp,fp,fn,tn")


def _write_cases(data, count, shape=(12, 12, 12)):
    data.mkdir()
    for i in range(count):
        write_vvol(Volume3D(np.zeros(shape, dtype=np.float32), (1, 1, 1)), data / f"c{i}.vvol")
        write_vvol(LabelVolume(np.zeros(shape, dtype=np.uint8), (1, 1, 1)),
                   data / f"c{i}.label.vvol")


def test_train_reads_each_case_after_the_last_is_prepared(tmp_path, monkeypatch):
    # 12^3 cases in a 16^3 window: a prepared case is padded, so it keeps no raw array
    _write_cases(tmp_path / "data", 3)
    real_read, real_prepare = cli_module.read_vvol, cli_module.prepare_case
    events, raw = [], []  # raw: (case, weak reference to a raw object or array it read)

    def read(path):
        case = path.name.split(".")[0]
        assert all(ref() is None for c, ref in raw if c != case), f"reading {path.name}"
        events.append(("read", path.name))
        vol = real_read(path)
        arr = vol.voxels if isinstance(vol, Volume3D) else vol.labels
        raw.extend([(case, weakref.ref(vol)), (case, weakref.ref(arr))])
        return vol

    def prepare(name, *args):
        events.append(("prepare", name))
        return real_prepare(name, *args)

    monkeypatch.setattr(cli_module, "read_vvol", read)
    monkeypatch.setattr(cli_module, "prepare_case", prepare)
    cases = cli_module._load_cases(tmp_path / "data", load_run_config(_write_config(tmp_path)))
    assert [c.name for c in cases] == ["c0", "c1", "c2"]
    assert events == [
        e for i in range(3)
        for e in (("read", f"c{i}.vvol"), ("read", f"c{i}.label.vvol"), ("prepare", f"c{i}"))
    ]


def test_sampler_fallbacks_take_one_stderr_line(tmp_path, runner):
    # a 16^3 window on 16^3 phantoms has no tumor-free crop, so every negative
    # draw falls back; run in a subprocess, where warnings reach stderr
    doc = json.loads(json.dumps(TOY_CONFIG))
    doc["phantom"]["count"] = 4
    doc["train"]["steps_per_epoch"] = 20
    cfg = _write_config(tmp_path, doc)
    data = tmp_path / "data"
    assert runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(data)]).exit_code == 0
    env = dict(os.environ, PYTHONPATH=str(Path(ynetr.__file__).parents[1]))
    res = subprocess.run(
        [sys.executable, "-m", "ynetr.cli", "train", "--config", str(cfg), "--data", str(data),
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and "no tumor-free window" in lines[0], lines


def test_infer_prints_one_line_per_volume(tmp_path, runner):
    # in a subprocess, whose heap settings are those infer_volume applies
    cfg = _write_config(tmp_path)
    data, run, pred = tmp_path / "data", tmp_path / "run", tmp_path / "pred"
    assert runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(data)]).exit_code == 0
    res = runner.invoke(cli, ["train", "--config", str(cfg), "--data", str(data), "--out", str(run)])
    assert res.exit_code == 0, res.output
    env = dict(os.environ, PYTHONPATH=str(Path(ynetr.__file__).parents[1]))
    res = subprocess.run(
        [sys.executable, "-m", "ynetr.cli", "infer", "--checkpoint", str(run / "checkpoint.ynck"),
         "--out", str(pred), str(data / "case_000.vvol")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    fg = int(read_vvol(pred / "case_000.pred.vvol").labels.sum())
    assert res.stdout == f"case_000: foreground voxels {fg}\n"


def test_phantom_runs_on_an_edited_echo(tmp_path, runner):
    # a smaller shape in the default echo needs no other edit: the liver follows it
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    res = runner.invoke(cli, ["phantom", "--config", str(empty), "--out", str(tmp_path / "a")])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "a" / "config.echo.json").read_text())
    doc["phantom"]["spec"].update(shape=[32, 32, 32], tumor_volume_cm3=[0.3, 1.0])
    cfg = _write_config(tmp_path, doc)
    res = runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert res.exit_code == 0, res.output
    assert read_vvol(tmp_path / "b" / "case_000.vvol").voxels.shape == (32, 32, 32)


def test_empty_config_runs(tmp_path, runner):
    data, run = tmp_path / "data", tmp_path / "run"
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    res = runner.invoke(cli, ["phantom", "--config", str(empty), "--out", str(data)])
    assert res.exit_code == 0, res.output
    tiny = {
        "model": {"input_dims": [32, 32, 32], "embed_dim": 32, "num_heads": 4,
                  "decoder_channels": [16, 16, 8, 8, 4]},
        "sampler": {"window": [32, 32, 32]},
        "train": {"epochs": 1, "steps_per_epoch": 2},
        "inference": {"overlap": 0},
    }
    res = runner.invoke(cli, ["train", "--config", str(_write_config(tmp_path, tiny)),
                              "--data", str(data), "--out", str(run)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli, ["infer", "--checkpoint", str(run / "checkpoint.ynck"),
                              "--out", str(tmp_path / "pred"), str(data / "case_000.vvol")])
    assert res.exit_code == 0, res.output


def test_eval_perfect_prediction(tmp_path, runner):
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    rng = np.random.default_rng(0)
    lbl = LabelVolume((rng.random((8, 8, 8)) < 0.3).astype(np.uint8), (1, 1, 1))
    write_vvol(lbl, gt_dir / "case_000.label.vvol")
    write_vvol(lbl, pred_dir / "case_000.pred.vvol")
    res = runner.invoke(
        cli, ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(tmp_path / "r")]
    )
    assert res.exit_code == 0, res.output
    metrics = json.loads((tmp_path / "r" / "metrics.json").read_text())
    assert metrics["mean_dice"] == 1.0


def test_eval_takes_one_confusion_pass_per_volume(tmp_path, runner, monkeypatch):
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    rng = np.random.default_rng(1)
    want = []
    for i in range(3):
        pred, gt = (rng.random((2, 8, 8, 8)) < 0.3).astype(np.uint8)
        write_vvol(LabelVolume(gt, (1, 1, 1)), gt_dir / f"case_{i}.label.vvol")
        write_vvol(LabelVolume(pred, (1, 1, 1)), pred_dir / f"case_{i}.pred.vvol")
        c = confusion(pred, gt)
        want.append(f"{c.tp},{c.fp},{c.fn},{c.tn}")
    calls = []

    def counting(pred, gt):
        calls.append(1)
        return confusion(pred, gt)

    monkeypatch.setattr(ynetr.metrics, "confusion", counting)
    monkeypatch.setattr(cli_module, "confusion", counting, raising=False)
    res = runner.invoke(
        cli, ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(tmp_path / "r")]
    )
    assert res.exit_code == 0, res.output
    assert len(calls) == 3
    rows = (tmp_path / "r" / "report.csv").read_text().splitlines()[1:4]
    assert [row.split(",", 2)[2] for row in rows] == want



def test_eval_reads_one_pair_at_a_time(tmp_path, runner, monkeypatch):
    # each pair is read, checked and scored before the next is read, so when
    # a read returns only the new volume and the previous pair are alive
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    rng = np.random.default_rng(2)
    for i in range(6):
        pred, gt = (rng.random((2, 8, 8, 8)) < 0.3).astype(np.uint8)
        write_vvol(LabelVolume(gt, (1, 1, 1)), gt_dir / f"case_{i}.label.vvol")
        write_vvol(LabelVolume(pred, (1, 1, 1)), pred_dir / f"case_{i}.pred.vvol")
    refs, alive = [], []
    read = cli_module._read

    def tracking(path, cls):
        vol = read(path, cls)
        refs.append(weakref.ref(vol))
        alive.append(sum(r() is not None for r in refs))
        return vol

    monkeypatch.setattr(cli_module, "_read", tracking)
    res = runner.invoke(
        cli, ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(tmp_path / "r")]
    )
    assert res.exit_code == 0, res.output
    assert len(alive) == 12 and max(alive) <= 3, alive

class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, runner):
        bad = dict(TOY_CONFIG)
        bad["mystery"] = 1
        cfg = _write_config(tmp_path, bad)
        res = runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "config-error:" in res.output

    def test_io_error_is_3(self, tmp_path, runner):
        res = runner.invoke(cli, ["wavelet", str(tmp_path / "missing.vvol")])
        assert res.exit_code == 3
        assert "io-error:" in res.output

    def test_train_label_without_volume_is_3_before_any_read(self, tmp_path, runner,
                                                             monkeypatch):
        data = tmp_path / "data"
        _write_cases(data, 2)
        (data / "c1.vvol").unlink()
        reads = []
        monkeypatch.setattr(cli_module, "read_vvol", lambda path: reads.append(path))
        res = runner.invoke(cli, ["train", "--config", str(_write_config(tmp_path)),
                                  "--data", str(data), "--out", str(tmp_path / "r")])
        assert res.exit_code == 3
        assert res.output.splitlines() == [
            f"io-error: label c1 has no matching volume {data / 'c1.vvol'}"
        ]
        assert reads == []

    def test_eval_missing_gt_is_3(self, tmp_path, runner):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        lbl = LabelVolume(np.zeros((4, 4, 4), dtype=np.uint8), (1, 1, 1))
        write_vvol(lbl, pred_dir / "x.pred.vvol")
        res = runner.invoke(
            cli,
            ["eval", "--pred", str(pred_dir), "--gt", str(tmp_path), "--out", str(tmp_path / "r")],
        )
        assert res.exit_code == 3
        assert "io-error:" in res.output

    def test_eval_shape_mismatch_names_the_volume_and_files_is_2(self, tmp_path, runner):
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for stem, pred_shape in (("a", (16, 16, 16)), ("b", (16, 16, 20))):
            write_vvol(LabelVolume(np.zeros(pred_shape, dtype=np.uint8), (1, 1, 1)),
                       pred_dir / f"{stem}.pred.vvol")
            write_vvol(LabelVolume(np.zeros((16, 16, 16), dtype=np.uint8), (1, 1, 1)),
                       gt_dir / f"{stem}.label.vvol")
        res = runner.invoke(
            cli, ["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(tmp_path / "r")]
        )
        assert res.exit_code == 2, res.output
        assert res.output.splitlines() == [
            f"config-error: volume b: prediction {pred_dir / 'b.pred.vvol'} has shape "
            f"(16, 16, 20), ground truth {gt_dir / 'b.label.vvol'} (16, 16, 16)"
        ]

    # each file holds the kind its command reads there, except ``wrong``,
    # which holds the other kind
    @pytest.mark.parametrize(
        "command, wrong",
        [
            ("wavelet", "data/case.vvol"),
            ("infer", "data/case.vvol"),
            ("train", "data/case.vvol"),
            ("train", "data/case.label.vvol"),
            ("eval", "pred/case.pred.vvol"),
            ("eval", "data/case.label.vvol"),
        ],
    )
    def test_file_of_the_wrong_kind_is_3(self, tmp_path, runner, command, wrong):
        volume = Volume3D(np.zeros((16, 16, 16), dtype=np.float32), (1, 1, 1))
        label = LabelVolume(np.zeros((16, 16, 16), dtype=np.uint8), (1, 1, 1))
        files = {"data/case.vvol": volume, "data/case.label.vvol": label,
                 "pred/case.pred.vvol": label}
        for d in ("data", "pred"):
            (tmp_path / d).mkdir()
        right = files[wrong]
        swapped = label if right is volume else volume
        for name, vol in files.items():
            write_vvol(swapped if name == wrong else vol, tmp_path / name)
        ckpt = tmp_path / "model.ynck"
        if command == "infer":
            save_checkpoint(ckpt, YNetr(ModelConfig(**TOY_CONFIG["model"])))
        out = str(tmp_path / "out")
        args = {
            "wavelet": ["wavelet", str(tmp_path / "data/case.vvol"), "--out", out],
            "infer": ["infer", "--checkpoint", str(ckpt), "--out", out,
                      str(tmp_path / "data/case.vvol")],
            "train": ["train", "--config", str(_write_config(tmp_path)),
                      "--data", str(tmp_path / "data"), "--out", out],
            "eval": ["eval", "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "data"),
                     "--out", out],
        }[command]
        res = runner.invoke(cli, args)
        assert res.exit_code == 3, res.output
        assert res.output.splitlines() == [
            f"io-error: {tmp_path / wrong}: expected a {type(right).__name__}, "
            f"got a {type(swapped).__name__}"
        ]

    @pytest.mark.parametrize(
        "vol_shape, lbl_shape",
        [((24, 16, 16), (16, 16, 16)), ((16, 16, 16), (20, 16, 16))],
        ids=["volume-longer", "label-longer"],
    )
    def test_train_volume_and_label_shapes_differ_is_2(self, tmp_path, runner, vol_shape,
                                                        lbl_shape):
        data = tmp_path / "data"
        data.mkdir()
        write_vvol(Volume3D(np.zeros(vol_shape, dtype=np.float32), (1, 1, 1)),
                   data / "case_000.vvol")
        write_vvol(LabelVolume(np.zeros(lbl_shape, dtype=np.uint8), (1, 1, 1)),
                   data / "case_000.label.vvol")
        res = runner.invoke(cli, ["train", "--config", str(_write_config(tmp_path)),
                                  "--data", str(data), "--out", str(tmp_path / "r")])
        assert res.exit_code == 2, res.output
        assert res.output.splitlines() == [
            f"config-error: case case_000: volume shape {vol_shape} differs from label shape "
            f"{lbl_shape}"
        ]

    def test_train_volume_and_label_spacings_differ_is_2(self, tmp_path, runner):
        data = tmp_path / "data"
        data.mkdir()
        write_vvol(Volume3D(np.zeros((16, 16, 16), dtype=np.float32), (1, 1, 1)),
                   data / "case_000.vvol")
        write_vvol(LabelVolume(np.zeros((16, 16, 16), dtype=np.uint8), (1, 1, 2.5)),
                   data / "case_000.label.vvol")
        res = runner.invoke(cli, ["train", "--config", str(_write_config(tmp_path)),
                                  "--data", str(data), "--out", str(tmp_path / "r")])
        assert res.exit_code == 2, res.output
        assert res.output.splitlines() == [
            "config-error: case case_000: volume spacing (1.0, 1.0, 1.0) mm differs from "
            "label spacing (1.0, 1.0, 2.5) mm"
        ]

    def test_infer_nonfinite_volume_is_3(self, tmp_path, runner):
        model = YNetr(ModelConfig(**TOY_CONFIG["model"]))
        ckpt = tmp_path / "model.ynck"
        save_checkpoint(ckpt, model)
        vox = np.zeros((16, 16, 16), dtype=np.float32)
        vox[3, 4, 5] = np.nan
        write_vvol(Volume3D(vox, (1, 1, 1)), tmp_path / "nan.vvol")
        res = runner.invoke(
            cli,
            ["infer", "--checkpoint", str(ckpt), "--out", str(tmp_path / "pred"),
             str(tmp_path / "nan.vvol")],
        )
        assert res.exit_code == 3
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("io-error:")
        assert "1 non-finite voxels" in lines[0]
        assert "Traceback" not in res.output

    def test_train_nonfinite_gradient_is_4(self, tmp_path, runner, monkeypatch):
        cfg = _write_config(tmp_path)
        data = tmp_path / "data"
        assert runner.invoke(
            cli, ["phantom", "--config", str(cfg), "--out", str(data)]
        ).exit_code == 0
        backward = Tensor.backward

        def poisoned(self):
            # the graph is released by backward(), so find a leaf before it runs
            leaf = next(n for n in _build_tape(self._node) if isinstance(n, Tensor))
            backward(self)
            leaf.grad.reshape(-1)[0] = np.nan

        monkeypatch.setattr(Tensor, "backward", poisoned)
        res = runner.invoke(
            cli, ["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "r")]
        )
        assert res.exit_code == 4
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric-error:")
        assert "gradient" in lines[0] and "step 1" in lines[0]
        assert not (tmp_path / "r" / "checkpoint.ynck").exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 512. GiB for an array with shape (4096, 4096, 4096) "
         "and data type float32",
         "config-error: Unable to allocate 512. GiB for an array with shape "
         "(4096, 4096, 4096) and data type float32"),
        ("", "config-error: out of memory"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_2(self, tmp_path, runner, monkeypatch, message, line):
        # a stand-in for a shape too large for the host: a real allocation
        # that size may be granted lazily and then end the process
        def too_large(spec):
            raise MemoryError(message)

        monkeypatch.setattr(cli_module, "generate_phantom", too_large)
        cfg = _write_config(tmp_path)
        res = runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.output.splitlines() == [line]

    def test_wrong_typed_config_value_is_2(self, tmp_path, runner):
        bad = dict(TOY_CONFIG, train={"epochs": "3"})
        cfg = _write_config(tmp_path, bad)
        res = runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.output.splitlines() == ["config-error: train.epochs: expected int, got str"]

    def test_out_of_range_config_value_names_its_section(self, tmp_path, runner):
        cfg = _write_config(tmp_path, {"model": {"depth": 5}})
        res = runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.output.splitlines() == [
            "config-error: model: encoder depth must be divisible by 4, got 5"
        ]

    def test_nonfinite_optional_config_value_is_2(self, tmp_path, runner):
        doc = {"phantom": {"spec": {"tumor_volume_cm3": [float("nan"), 2]}}}
        cfg = _write_config(tmp_path, doc)
        res = runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert res.output.splitlines() == [
            "config-error: phantom.spec.tumor_volume_cm3[0]: expected a finite float, got nan"
        ]

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "lf_branch", "transformer"),
            ("model", "hf_branch", "transformer"),
            ("model", "tap_layers", [3, 6, 9, 12]),
            ("model", "in_channels", 1),
            ("model", "num_classes", 2),
            ("model", "patch", 16),
            ("model", "mlp_ratio", 4),
            ("phantom.spec", "spacing_mm", [1.0, 1.0, 1.0]),
            ("phantom.spec", "liver_center", [7.5, 7.5, 7.5]),
            ("phantom.spec", "liver_semi_axes", [6.72, 6.72, 6.72]),
            ("phantom.spec", "liver_hu", 60.0),
            ("phantom.spec", "texture_sigma_hu", 8.0),
            ("phantom.spec", "background_hu", -70.0),
            ("phantom.spec", "tumor_offset_hu", -35.0),
            ("phantom.spec", "boundary_noise", 0.08),
            ("train", "batch_size", 1),
            ("train.loss", "kind", "dice_ce"),
            ("train.loss", "dice_eps", 1e-5),
            ("inference", "blend", "uniform"),
            ("", "name", "run"),
        ],
    )
    def test_removed_config_key_is_2(self, tmp_path, runner, section, key, value):
        # echoes written before these keys were removed carry them with these values
        doc = json.loads(json.dumps(TOY_CONFIG))
        target = doc
        for part in filter(None, section.split(".")):
            target = target.setdefault(part, {})
        target[key] = value
        cfg = _write_config(tmp_path, doc)
        res = runner.invoke(cli, ["phantom", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        where = f"{section}: unknown keys" if section else "unknown top-level keys"
        assert res.output.splitlines() == [f"config-error: {where} ['{key}']"]

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"inference": {"overlap": 0.5, "mystery": 1}},
             "config-error: extra.inference: unknown keys ['mystery']"),
            ({"inference": {"overlap": "x"}},
             "config-error: extra.inference.overlap: expected float, got str"),
            ({"intensity": {"lo": 300.0, "hi": 250.0}},
             "config-error: extra.intensity: intensity window needs lo < hi, got [300.0, 250.0]"),
            ({"intensity": {"hi": float("inf")}},
             "config-error: extra.intensity.hi: expected a finite float, got inf"),
        ],
    )
    def test_infer_bad_checkpoint_settings_is_2(self, tmp_path, runner, extra, message):
        ckpt = tmp_path / "model.ynck"
        save_checkpoint(ckpt, YNetr(ModelConfig(**TOY_CONFIG["model"])), extra=extra)
        write_vvol(Volume3D(np.zeros((16, 16, 16), dtype=np.float32), (1, 1, 1)),
                   tmp_path / "x.vvol")
        res = runner.invoke(
            cli, ["infer", "--checkpoint", str(ckpt), "--out", str(tmp_path / "pred"),
                  str(tmp_path / "x.vvol")],
        )
        assert res.exit_code == 2
        assert res.output.splitlines() == [message]

    @pytest.mark.parametrize(
        "old, new",
        [
            (b'"embed_dim": 32', b'"embed_dim": "32"'),  # invalid model_config
            (b'"model_config"', b'"model_confix"'),  # missing model_config
            (b"meta {", b"meta ["),  # meta is not valid JSON
            (b"tensor param:", b"tensor \xc3\xa9:"),  # non-ASCII manifest
            (b" 16384\n", b"\n"),  # short tensor line
            (b" 16384\n", b" 16380\n"),  # shape does not match the byte count
            (b'"model_config": {', b'"model_config": {"lf_branch": "transformer", '),  # removed key
            (b'"model_config": {', b'"model_config": {"patch": 16, '),  # removed key
            (b'"model_config": {', b'"model_config": {"mlp_ratio": 4, '),  # removed key
            # a 4 TiB head bias, refused before anything is allocated for it
            (b"head.bias 1 2 8\n", b"head.bias 1 1099511627776 4398046511104\n"),
            # a slice keeps that part of the file and appends new
            pytest.param(slice(None, -1), b"", id="payload one byte short"),
            # the last tensor is the 2-float head bias
            pytest.param(slice(None, -8), b"", id="payload cut at a tensor boundary"),
            pytest.param(slice(None), b"\0", id="trailing byte"),
        ],
    )
    def test_infer_malformed_checkpoint_is_3(self, tmp_path, runner, old, new):
        ckpt = tmp_path / "model.ynck"
        save_checkpoint(ckpt, YNetr(ModelConfig(**TOY_CONFIG["model"])))
        raw = ckpt.read_bytes()
        if isinstance(old, slice):
            raw = raw[old] + new
        else:
            assert old in raw
            raw = raw.replace(old, new, 1)
        ckpt.write_bytes(raw)
        write_vvol(Volume3D(np.zeros((16, 16, 16), dtype=np.float32), (1, 1, 1)),
                   tmp_path / "x.vvol")
        res = runner.invoke(
            cli, ["infer", "--checkpoint", str(ckpt), "--out", str(tmp_path / "pred"),
                  str(tmp_path / "x.vvol")],
        )
        assert res.exit_code == 3
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"io-error: {ckpt}: ")
