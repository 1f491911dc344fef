"""Command-line entry point wiring the pipeline into reproducible runs.

Every run-producing subcommand writes a canonical ``config.echo.json``
into its output directory; re-running from that echo reproduces the
outputs bitwise. Failures exit nonzero with a one-line machine-parsable
``<class>-error:`` message (config=2, io=3, numeric=4).
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
from .config import (
    ConfigError,
    IntensityConfig,
    build_config,
    load_run_config,
    write_config_echo,
)
from .inference import InferenceConfig, infer_volume
from .metrics import evaluate
from .model import YNetr
from .phantom import PhantomError, generate_phantom
from .training import TrainingDiverged, prepare_case, train, write_history_csv
from .volume import VvolError, normalize_intensity, read_vvol, write_vvol
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
        vol = read_vvol(src)
        pair = split_frequency(vol)
        stem = src.name[: -len(".vvol")] if src.name.endswith(".vvol") else src.stem
        write_vvol(pair.lf, out / f"{stem}.lf.vvol")
        write_vvol(pair.hf, out / f"{stem}.hf.vvol")
        click.echo(f"wrote {stem}.lf.vvol and {stem}.hf.vvol to {out}")


def _load_dataset(data_dir):
    data = Path(data_dir)
    stems = sorted(
        p.name[: -len(".label.vvol")] for p in data.glob("*.label.vvol")
    )
    if not stems:
        raise VvolError(f"no '*.label.vvol' files found in {data}")
    pairs = []
    for stem in stems:
        vol_path = data / f"{stem}.vvol"
        if not vol_path.exists():
            raise VvolError(f"label {stem} has no matching volume {vol_path}")
        pairs.append((stem, read_vvol(vol_path), read_vvol(data / f"{stem}.label.vvol")))
    return pairs


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
        hu = (cfg.intensity.lo, cfg.intensity.hi)
        cases = [
            prepare_case(stem, vol, lbl, cfg.sampler.window, hu_window=hu)
            for stem, vol, lbl in _load_dataset(data_dir)
        ]
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
        hu = build_config(IntensityConfig, extra.get("intensity", {}), "extra.intensity")
        inf = build_config(InferenceConfig, extra.get("inference", {}), "extra.inference")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        window = model.cfg.input_dims
        for path in inputs:
            src = Path(path)
            vol = read_vvol(src)
            norm = normalize_intensity(vol, hu.lo, hu.hi)
            prob, mask = infer_volume(model.predict, norm, window, inf)
            stem = src.name[: -len(".vvol")] if src.name.endswith(".vvol") else src.stem
            write_vvol(prob, out / f"{stem}.prob.vvol")
            write_vvol(mask, out / f"{stem}.pred.vvol")
            click.echo(f"{stem}: foreground voxels {int(mask.labels.sum())}")


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
        preds, gts = [], []
        for stem in stems:
            preds.append(read_vvol(pred / f"{stem}.pred.vvol"))
            gt_path = gt / f"{stem}.label.vvol"
            if not gt_path.exists():
                raise VvolError(f"missing ground truth {gt_path}")
            gts.append(read_vvol(gt_path))
        dices, mean, totals, counts = evaluate(preds, gts)
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
