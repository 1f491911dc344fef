"""Workloads, set-up, measurement and correctness checks of the benchmark.

Every workload drives the public ``ynetr`` API in this process on a
seeded synthetic phantom (``PhantomSpec(shape=(128, 128, 96), seed=seed)``,
other fields at their defaults); the same seed also seeds the model
initialisation and the training draws, so a seed fixes every input.

* ``train_mid`` trains the mid model (64^3 window, embed 192, depth 12,
  12 heads, decoder (128, 128, 64, 32, 16)). Full-resolution 16->16 convs
  and the im2col/col2im copies dominate its step: the conv-bound case.
* ``train_encoder`` trains a 47 M-parameter encoder-heavy model (32^3
  window, embed 384, decoder (32, 32, 16, 8, 4)). AdamW, Linear GEMMs and
  gradient accumulation dominate: the parameter-bound case, where a conv
  kernel gain should barely show.
* ``infer_mid`` runs whole-volume ``infer_volume`` (overlap 0.5, 18
  windows) with the mid model restored through a checkpoint round trip:
  forward only, no tape, backward, optimizer or sampler, so a backward or
  optimizer gain must leave it unchanged.

``op_s`` is the median wall time of a workload's unit of work: one
optimizer step (warm-up step excluded) or one whole ``infer_volume`` call.
Per-layer values are per such unit. For ``attempted`` and ``failed`` an
operation is one training step or one inference window; it fails if it
raises, gives a non-finite loss or logits, or fails a check.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import ynetr
import ynetr.checkpoint
import ynetr.training
from tracer import KERNELS, MODEL_PARTS, Tracer, conv_paths, table_rows

SETUPS = 5  # set-ups per run; setup_s is their median
LEARNING_RATE = 1e-4
WEIGHT_DECAY = 0.01
TOL = 1e-5  # float32 tolerance for the closed-form and reconstruction checks
MAX_STEPS = 10**9  # train() runs until the progress callback stops it
NOISE = 0.05  # run-to-run spread of the end-to-end times on a shared 2-core host


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "infer"
    model: dict  # ModelConfig fields
    phantom: dict  # PhantomSpec fields
    overlap: float = 0.5


MID = {"input_dims": (64, 64, 64), "embed_dim": 192, "depth": 12, "num_heads": 12,
       "decoder_channels": (128, 128, 64, 32, 16)}
ENCODER = {"input_dims": (32, 32, 32), "embed_dim": 384, "depth": 12, "num_heads": 12,
           "decoder_channels": (32, 32, 16, 8, 4)}
PHANTOM = {"shape": (128, 128, 96)}

WORKLOADS = {w.name: w for w in (
    Workload("train_mid", "train", MID, PHANTOM),
    Workload("train_encoder", "train", ENCODER, PHANTOM),
    Workload("infer_mid", "infer", {**MID, "zero_init_head": False}, PHANTOM),
)}

# The same workloads at minimal size (same module tree), for the self-tests.
TINY_MODEL = {"input_dims": (16, 16, 16), "embed_dim": 24, "depth": 4, "num_heads": 2,
              "decoder_channels": (8, 8, 8, 8, 4)}
TINY_PHANTOM = {"shape": (32, 32, 24), "tumor_volume_cm3": (0.1, 0.4), "tumor_count": (1, 1)}
SMOKE = {
    name: replace(w, model={**w.model, **TINY_MODEL}, phantom=TINY_PHANTOM)
    for name, w in WORKLOADS.items()
}

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".gflops"):
        return "GFLOP/s"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".calls") or name == "inference.windows":
        return "count"
    return "ratio"


@dataclass
class Setup:
    model: object
    volume: object  # raw phantom for train, normalised for infer
    case: object = None  # TrainingCase (train)
    source: object = None  # the model written to the checkpoint (infer)


@dataclass
class Measured:
    op_s: list  # one sample per measured operation unit
    attempted: int
    failed: int
    checks: list = field(default_factory=list)  # (name, ok, detail)
    record: dict = field(default_factory=dict)  # outputs for determinism checks
    rss_mb: list = field(default_factory=list)  # RSS after each op (traced)
    window_s: list = field(default_factory=list)
    first_step: object = None  # StepRecord of step 1, when finite (train)


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value
    checks: list
    record: dict
    samples: dict  # name -> raw samples behind a median
    tables: list = field(default_factory=list)  # (title, unit, rows)
    notes: list = field(default_factory=list)


class _Budget(Exception):
    """Raised from the progress callback once the run has measured enough."""


def _spent(start, last_op_s, seconds):
    """True once one more op as long as the last would end past ``seconds``;
    a run thus measures at most ``seconds`` (but always one op)."""
    return time.perf_counter() - start + last_op_s > seconds


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def current_rss_mb():
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up -------------------------------------------------------------------


def set_up(w: Workload, seed, scratch: Path, tracer=None) -> Setup:
    """Phantom, model and prepared input: everything before the first op."""
    vol, lbl = ynetr.generate_phantom(ynetr.PhantomSpec(seed=seed, **w.phantom))
    with _span(tracer, "model.build"):
        model = ynetr.YNetr(ynetr.ModelConfig(init_seed=seed, **w.model))
    window = model.cfg.input_dims
    if w.kind == "train":
        return Setup(model, vol, case=ynetr.prepare_case("phantom", vol, lbl, window))
    path = scratch / f"infer-{os.getpid()}.ckpt"
    try:
        ynetr.checkpoint.save_checkpoint(path, model)
        restored = ynetr.checkpoint.restore_model(ynetr.checkpoint.load_checkpoint(path))
    finally:
        path.unlink(missing_ok=True)
    return Setup(restored, ynetr.normalize_intensity(vol), source=model)


# -- training -------------------------------------------------------------------


def measure_train(w: Workload, st: Setup, seed, seconds, tracer=None) -> Measured:
    """One ``train`` call, stopped from its progress callback by ``seconds``.

    The first (warm-up) step is excluded from the timings and the trace.
    """
    sampler = ynetr.SamplerConfig(window=st.model.cfg.input_dims)
    cfg = ynetr.TrainConfig(learning_rate=LEARNING_RATE, weight_decay=WEIGHT_DECAY,
                            epochs=1, steps_per_epoch=MAX_STEPS, seed=seed)
    stamps = [time.perf_counter()]
    records, rss = [], []

    def progress(rec):
        stamps.append(time.perf_counter())
        records.append(rec)
        if tracer:
            tracer.close()
            rss.append(current_rss_mb())
            if len(records) == 1:
                tracer.reset()
        if len(records) > 1 and _spent(stamps[1], stamps[-1] - stamps[-2], seconds):
            raise _Budget
        if tracer:
            tracer.open("train.step")

    if tracer:
        tracer.open("train.step")
    raised = False
    try:
        ynetr.train(st.model, [st.case], cfg, sampler, progress=progress)
    except _Budget:
        pass
    except Exception:  # the step failed: report it, count it, stop measuring
        traceback.print_exc()
        raised = True
    finally:
        if tracer:
            tracer.abandon()

    finite = [all(math.isfinite(v) for v in (r.loss, r.dice, r.ce)) for r in records]
    m = Measured(
        op_s=[b - a for a, b in zip(stamps[1:], stamps[2:])],
        attempted=len(records) + raised,
        failed=finite.count(False) + raised,
        record={"losses": [r.loss for r in records]},
        rss_mb=rss,
    )
    m.checks.append(("losses_finite", all(finite) and not raised,
                     f"{len(records)} steps, {finite.count(False)} non-finite"))
    m.first_step = records[0] if records and finite[0] else None
    return m


def check_train(st: Setup, seed, m: Measured):
    """Checks that call into ``ynetr``, so they run after tracing ends."""
    window = st.model.cfg.input_dims
    if m.first_step is not None and st.model.cfg.zero_init_head:
        m.checks.append(_first_step_check(st, seed, m.first_step))
        m.failed += int(not m.checks[-1][1])
    x = ynetr.pad_to_window(ynetr.normalize_intensity(st.volume).voxels, window)
    m.checks.append(_reconstruction_check(x, st.case.lf, st.case.hf))


def _first_step_check(st: Setup, seed, rec):
    """With the zero-init head the step-1 logits are 0: CE is ln 2 and the
    Dice term follows from the label count of the window drawn at step 1."""
    rng = ynetr.training.step_rng(seed, 1)
    rng.integers(1)  # the case index, drawn first
    case = st.case
    sampler = ynetr.SamplerConfig(window=st.model.cfg.input_dims)
    sample = ynetr.sample_window(case.lf, case.hf, case.label, True, rng, sampler,
                                 fg_coords=case.fg_coords)
    n, n_fg = sample.label.size, float(sample.label.sum())
    alpha = ynetr.LossConfig().alpha
    ce = math.log(2.0)
    dice = 1.0 - n_fg / (n_fg + 0.5 * n + ynetr.losses.DICE_EPS)
    want = (alpha * dice + (1.0 - alpha) * ce, dice, ce)
    got = (rec.loss, rec.dice, rec.ce)
    ok = all(abs(a - b) <= TOL for a, b in zip(want, got))
    return "step1_closed_form", ok, f"loss/dice/ce {got} vs closed form {tuple(round(v, 7) for v in want)}"


def _reconstruction_check(source, lf, hf):
    err = float(np.abs(lf.astype(np.float64) + hf - source).max())
    return ("lf_plus_hf", err <= TOL * max(1.0, float(np.abs(source).max())), f"max |LF+HF-x| {err:.2e}")


# -- inference --------------------------------------------------------------------


def measure_infer(w: Workload, st: Setup, seconds, tracer=None) -> Measured:
    """Whole-volume ``infer_volume`` calls for ``seconds``."""
    model = st.model
    window = model.cfg.input_dims
    cfg = ynetr.InferenceConfig(overlap=w.overlap)
    m = Measured(op_s=[], attempted=0, failed=0)

    # Reference for the corner covered by exactly one window; also the warm-up.
    padded = ynetr.pad_to_window(st.volume.voxels, window)
    pair = ynetr.split_frequency(ynetr.Volume3D(padded, st.volume.spacing_mm))
    first = tuple(slice(0, n) for n in window)
    ref = _softmax_fg(model.predict(pair.lf.voxels[first], pair.hf.voxels[first]))
    m.attempted += 1
    m.failed += int(not np.isfinite(ref).all())
    plan = ynetr.build_tiling_plan(padded.shape, window, cfg.overlap)
    corner = tuple(
        slice(0, min(s[1] if len(s) > 1 else n, size))
        for s, n, size in zip(plan.starts, padded.shape, st.volume.shape)
    )
    if tracer:
        tracer.reset()

    def predict(lf, hf):
        t0 = time.perf_counter()
        with _span(tracer, "inference.predict"):
            logits = model.predict(lf, hf)
        m.window_s.append(time.perf_counter() - t0)
        m.attempted += 1
        if logits.shape != (2,) + lf.shape or not np.isfinite(logits).all():
            m.failed += 1
        if tracer:
            m.rss_mb.append(current_rss_mb())
        return logits

    start = time.perf_counter()
    volume_ok = True
    while True:
        before = m.attempted
        t0 = time.perf_counter()
        try:
            prob, mask = ynetr.infer_volume(predict, st.volume, window, cfg)
        except Exception:  # the window being predicted failed
            traceback.print_exc()
            m.attempted += 1
            m.failed += 1
            volume_ok = False
            break
        m.op_s.append(time.perf_counter() - t0)
        p = prob.voxels
        ok = (
            p.shape == st.volume.shape
            and mask.labels.shape == st.volume.shape
            and bool(np.isfinite(p).all())
            and float(p.min()) >= 0.0
            and float(p.max()) <= 1.0
            and bool(np.array_equal(mask.labels, (p > cfg.threshold).astype(np.uint8)))
        )
        corner_err = float(np.abs(p[corner] - ref[corner]).max())
        if not (ok and corner_err <= 1e-6):
            m.failed += m.attempted - before
            volume_ok = False
        if not m.record:
            m.record = {"prob_sha256": hashlib.sha256(p.tobytes()).hexdigest()}
        if _spent(start, m.op_s[-1], seconds):
            break
    if tracer:
        tracer.abandon()
    m.checks.append(("prob_mask_corner", volume_ok,
                     f"{len(m.op_s)} calls, corner {tuple(s.stop for s in corner)}"))
    m.checks.append(_reconstruction_check(padded, pair.lf.voxels, pair.hf.voxels))
    same = all(
        np.array_equal(a.data, b.data)
        for (_, a), (_, b) in zip(st.source.named_parameters(), model.named_parameters())
    )
    m.checks.append(("checkpoint_round_trip", same, "restored parameters bitwise equal"))
    return m


def _softmax_fg(logits):
    e = np.exp(logits - logits.max(axis=0, keepdims=True))
    return (e / e.sum(axis=0, keepdims=True))[1]


# -- one run -----------------------------------------------------------------------


def run(w: Workload, seed: int, seconds: float, trace: bool, scratch: Path) -> Result:
    """Set up ``SETUPS`` times, then measure for ``seconds``; optionally traced."""
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    setup_s, setup_spans = [], []
    try:
        st = None
        for _ in range(SETUPS):
            st = None  # free the previous set-up before building the next
            if tracer:
                tracer.reset()
            t0 = time.perf_counter()
            with _span(tracer, "setup"):
                st = set_up(w, seed, scratch, tracer)
            setup_s.append(time.perf_counter() - t0)
            if tracer:
                setup_spans.append((dict(tracer.total), dict(tracer.self_time), dict(tracer.calls)))
        if tracer:
            tracer.watch_model(st.model)
            tracer.reset()
        if w.kind == "train":
            m = measure_train(w, st, seed, seconds, tracer)
        else:
            m = measure_infer(w, st, seconds, tracer)
    finally:
        if tracer:
            tracer.remove()
    if w.kind == "train":
        check_train(st, seed, m)

    checks = m.checks
    op_s = statistics.median(m.op_s) if m.op_s else 0.0
    res = Result(
        workload=w.name, seed=seed, trace=trace,
        correct=False, attempted=max(m.attempted, 1), failed=m.failed,
        metrics={}, checks=checks, record=m.record,
        samples={"setup_s": setup_s, "op_s": m.op_s, "window_s": m.window_s},
    )
    if not trace:
        res.metrics = {
            "setup_s": statistics.median(setup_s),
            "op_s": op_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        unattributed = sum(v for k, v in tracer.calls.items() if k.startswith("conv.unattributed."))
        checks.append(("conv_attribution", unattributed == 0, f"{unattributed} unattributed kernel calls"))
        ops = max(len(m.op_s), 1)
        res.metrics = _per_layer(w, st, tracer, ops, setup_spans, m, op_s)
        res.metrics["error_rate"] = res.failed / res.attempted
        base, base_s = ("setup_s", statistics.median(setup_s)) if w.kind == "train" else ("op_s", op_s)
        share = res.metrics["wavelet.split_s"] / base_s
        if share < NOISE:
            res.notes.append(f"wavelet.split_s is {100 * share:.2f}% of {base}, below the run-to-run "
                             f"noise of {base}: a change to it cannot show end to end")
        res.tables = [
            (f"set-up (last of {SETUPS})", "setup", table_rows(*setup_spans[-1], 1, setup_s[-1])),
            ("measured", "op", table_rows(tracer.total, tracer.self_time, tracer.calls, ops, op_s)),
        ]
    res.correct = all(ok for _, ok, _ in checks) and res.failed == 0
    return res


def _per_layer(w, st, tracer, ops, setup_spans, m, op_s):
    """Per-layer values per measured op; set-up layers as the median set-up."""
    total, self_time, calls = tracer.total, tracer.self_time, tracer.calls

    def per_op(name):
        return total.get(name, 0.0) / ops

    def in_setup(name):
        return statistics.median(s[0].get(name, 0.0) for s in setup_spans)

    train = w.kind == "train"
    out = {}
    for k in KERNELS:
        s = total.get(f"convkernels.{k}", 0.0)
        out[f"convkernels.{k}.s"] = s / ops
        out[f"convkernels.{k}.calls"] = calls.get(f"convkernels.{k}", 0) / ops
        out[f"convkernels.{k}.gflop"] = tracer.gflop.get(k, 0.0) / ops
        out[f"convkernels.{k}.gflops"] = tracer.gflop.get(k, 0.0) / s if s else 0.0
    for path in dict.fromkeys(conv_paths(st.model).values()):
        out[f"conv.{path}.fwd_s"] = per_op(f"conv.{path}.fwd")
        out[f"conv.{path}.bwd_s"] = per_op(f"conv.{path}.bwd")
    out["model.fwd_s"] = per_op("model.fwd")
    for part in MODEL_PARTS:
        out[f"model.{part}.fwd_s"] = per_op(f"model.{part}.fwd")
    out["autograd.backward_s"] = per_op("autograd.backward")
    out["autograd.backward_self_s"] = self_time.get("autograd.backward", 0.0) / ops
    out["optim.step_s"] = per_op("optim.step")
    out["optim.state_mb"] = 2 * 4 * st.model.num_parameters() / 2**20 if train else 0.0
    out["mem.rss_growth_mb"] = m.rss_mb[-1] - m.rss_mb[0] if len(m.rss_mb) > 1 else 0.0
    out["sampling.draw_s"] = per_op("sampling.draw")
    out["sampling.fallback_ratio"] = tracer.fallbacks / ops if train else 0.0
    out["losses.loss_s"] = per_op("losses.loss")
    out["wavelet.split_s"] = in_setup("wavelet.split") if train else per_op("wavelet.split")
    out["inference.windows"] = calls.get("inference.predict", 0) / ops
    out["inference.predict_window_s"] = statistics.median(m.window_s) if m.window_s else 0.0
    out["inference.blend_self_s"] = self_time.get("inference.infer_volume", 0.0) / ops
    out["checkpoint.save_s"] = in_setup("checkpoint.save")
    out["checkpoint.load_s"] = in_setup("checkpoint.load")
    out["phantom.generate_s"] = in_setup("phantom.generate")
    out["model.build_s"] = in_setup("model.build")
    out["trace.op_s"] = op_s
    return out
