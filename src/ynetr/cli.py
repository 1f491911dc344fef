"""Command-line entry point wiring the pipeline into reproducible runs.

Every run-producing subcommand writes a canonical ``config.echo.json``
into its output directory; re-running from that echo reproduces the
outputs bitwise. Failures exit nonzero with a one-line machine-parsable
``<class>-error:`` message (config=2, io=3, numeric=4). A ``.vvol`` file
of the wrong kind (a label where a volume belongs, or the reverse) is an
io-error. Running out of memory, as a phantom or model shape too large
for the host does, is a config-error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from .config import ConfigError, build_config, load_run_config, write_config_echo
from .inference import InferenceConfig, infer_volume
from .metrics import evaluate
from .model import YNetr
from .phantom import PhantomError, generate_phantom
from .training import TrainingDiverged, prepare_case, train, write_history_csv
from .volume import (
    IntensityConfig,
    LabelVolume,
    Volume3D,
    VvolError,
    normalize_intensity,
    read_vvol,
    write_vvol,
)
from .wavelet import split_frequency

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


@contextmanager
def _reporting():
    try:
        yield
    except (ConfigError, PhantomError, ValueError) as exc:
        click.echo(f"config-error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except (VvolError, CheckpointError, OSError) as exc:
        click.echo(f"io-error: {exc}", err=True)
        sys.exit(EXIT_IO)
    except (TrainingDiverged, FloatingPointError) as exc:
        click.echo(f"numeric-error: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    except MemoryError as exc:  # numpy's message names the allocation it could not make
        click.echo(f"config-error: {str(exc) or 'out of memory'}", err=True)
        sys.exit(EXIT_CONFIG)


def _read(path, cls):
    """The ``cls`` (Volume3D or LabelVolume) stored at ``path``; a file of
    the other kind raises VvolError."""
    vol = read_vvol(path)
    if not isinstance(vol, cls):
        raise VvolError(f"{path}: expected a {cls.__name__}, got a {type(vol).__name__}")
    return vol


@click.group()
def cli():
    """Wavelet dual-encoder segmentation pipeline."""


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--out", "out_dir", required=True, type=click.Path())
def phantom(config_path, out_dir):
    """Generate a paired volume/label phantom dataset."""
    with _reporting():
        cfg = load_run_config(config_path)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_config_echo(cfg, out)
        for i in range(cfg.phantom.count):
            case_seed = int(np.random.SeedSequence([cfg.phantom.spec.seed, i]).generate_state(1)[0])
            spec = dataclasses.replace(cfg.phantom.spec, seed=case_seed)
            vol, lbl = generate_phantom(spec)
            write_vvol(vol, out / f"case_{i:03d}.vvol")
            write_vvol(lbl, out / f"case_{i:03d}.label.vvol")
        click.echo(f"wrote {cfg.phantom.count} phantom cases to {out}")


@cli.command()
@click.argument("input_path", type=click.Path(exists=False))
@click.option("--out", "out_dir", default=None, type=click.Path())
def wavelet(input_path, out_dir):
    """Split a volume into its low- and high-frequency images."""
    with _reporting():
        src = Path(input_path)
        out = Path(out_dir) if out_dir else src.parent
        out.mkdir(parents=True, exist_ok=True)
        pair = split_frequency(_read(src, Volume3D))
        stem = src.name[: -len(".vvol")] if src.name.endswith(".vvol") else src.stem
        write_vvol(pair.lf, out / f"{stem}.lf.vvol")
        write_vvol(pair.hf, out / f"{stem}.hf.vvol")
        click.echo(f"wrote {stem}.lf.vvol and {stem}.hf.vvol to {out}")


def _load_cases(data_dir, cfg):
    """The prepared training case of each label in ``data_dir`` and its
    volume. Every label's volume is checked to exist before the first
    read; then each case is read and prepared before the next is read, so
    only one raw volume and label are alive at a time."""
    data = Path(data_dir)
    stems = sorted(
        p.name[: -len(".label.vvol")] for p in data.glob("*.label.vvol")
    )
    if not stems:
        raise VvolError(f"no '*.label.vvol' files found in {data}")
    for stem in stems:
        vol_path = data / f"{stem}.vvol"
        if not vol_path.exists():
            raise VvolError(f"label {stem} has no matching volume {vol_path}")
    return [
        prepare_case(stem, _read(data / f"{stem}.vvol", Volume3D),
                     _read(data / f"{stem}.label.vvol", LabelVolume),
                     cfg.sampler.window, cfg.intensity)
        for stem in stems
    ]


@cli.command("train")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--data", "data_dir", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def train_cmd(config_path, data_dir, out_dir):
    """Train on a dataset directory of paired .vvol files."""
    with _reporting():
        cfg = load_run_config(config_path)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_config_echo(cfg, out)
        cases = _load_cases(data_dir, cfg)
        model = YNetr(cfg.model)
        ckpt_path = out / "checkpoint.ynck"
        extra = {
            "intensity": dataclasses.asdict(cfg.intensity),
            "inference": dataclasses.asdict(cfg.inference),
        }
        history, optimizer = train(model, cases, cfg.train, cfg.sampler)
        save_checkpoint(ckpt_path, model, optimizer, extra=extra)
        write_history_csv(history, out / "loss_history.csv")
        click.echo(
            f"trained {cfg.train.total_steps} steps; final loss {history[-1].loss:.4f}; "
            f"checkpoint at {ckpt_path}"
        )


@cli.command()
@click.option("--checkpoint", "ckpt_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.argument("inputs", nargs=-1, required=True, type=click.Path())
def infer(ckpt_path, out_dir, inputs):
    """Predict probability and mask volumes for each input volume."""
    with _reporting():
        ckpt = load_checkpoint(ckpt_path)
        model = restore_model(ckpt)
        extra = ckpt.meta.get("extra", {})
        intensity = build_config(IntensityConfig, extra.get("intensity", {}), "extra.intensity")
        inf = build_config(InferenceConfig, extra.get("inference", {}), "extra.inference")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        window = model.cfg.input_dims
        for path in inputs:
            src = Path(path)
            norm = normalize_intensity(_read(src, Volume3D), intensity)
            prob, mask = infer_volume(model.predict, norm, window, inf)
            stem = src.name[: -len(".vvol")] if src.name.endswith(".vvol") else src.stem
            write_vvol(prob, out / f"{stem}.prob.vvol")
            write_vvol(mask, out / f"{stem}.pred.vvol")
            click.echo(f"{stem}: foreground voxels {int(mask.labels.sum())}")


def _label_pairs(pred, gt, stems):
    """Each stem's prediction and ground-truth label arrays, read and
    checked one pair at a time."""
    for stem in stems:
        pred_path, gt_path = pred / f"{stem}.pred.vvol", gt / f"{stem}.label.vvol"
        p = _read(pred_path, LabelVolume)
        if not gt_path.exists():
            raise VvolError(f"missing ground truth {gt_path}")
        g = _read(gt_path, LabelVolume)
        if p.shape != g.shape:
            raise ValueError(f"volume {stem}: prediction {pred_path} has shape "
                             f"{p.shape}, ground truth {gt_path} {g.shape}")
        yield p.labels, g.labels


@cli.command("eval")
@click.option("--pred", "pred_dir", required=True, type=click.Path())
@click.option("--gt", "gt_dir", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def eval_cmd(pred_dir, gt_dir, out_dir):
    """Score predicted masks against ground-truth labels."""
    with _reporting():
        pred = Path(pred_dir)
        gt = Path(gt_dir)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stems = sorted(p.name[: -len(".pred.vvol")] for p in pred.glob("*.pred.vvol"))
        if not stems:
            raise VvolError(f"no '*.pred.vvol' files found in {pred}")
        dices, mean, totals, counts = evaluate(_label_pairs(pred, gt, stems))
        with open(out / "report.csv", "w") as fh:
            fh.write("volume,dice,tp,fp,fn,tn\n")
            for stem, d, c in zip(stems, dices, counts):
                fh.write(f"{stem},{d!r},{c.tp},{c.fp},{c.fn},{c.tn}\n")
            fh.write(f"mean,{mean!r},{totals.tp},{totals.fp},{totals.fn},{totals.tn}\n")
        with open(out / "metrics.json", "w") as fh:
            json.dump(
                {
                    "mean_dice": mean,
                    "per_volume": dict(zip(stems, dices)),
                    "confusion": {
                        "tp": totals.tp, "fp": totals.fp, "fn": totals.fn, "tn": totals.tn,
                    },
                },
                fh,
                indent=2,
                sort_keys=True,
            )
        click.echo(f"mean dice {mean:.4f} over {len(stems)} volumes")


def main():
    cli(prog_name="ynetr")


if __name__ == "__main__":
    main()
