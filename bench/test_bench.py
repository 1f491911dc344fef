"""Self-tests of the benchmark; run with ``python -m pytest bench`` from the root.

Workloads run here at minimal size (``workloads.SMOKE``): same module
tree, same checks, a fraction of a second each.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench_cli  # noqa: E402
import workloads  # noqa: E402
import ynetr  # noqa: E402
from tracer import FUNCTIONS, KERNELS, conv_paths  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("scratch")
    return {
        (name, trace): workloads.run(w, 0, 0.01, trace, scratch)
        for name, w in workloads.SMOKE.items()
        for trace in (False, True)
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_smoke_runs_pass_every_check(smoke):
    for key, res in smoke.items():
        assert res.correct, (key, res.checks)
        assert res.failed == 0 and res.attempted >= 2, key
        assert all(v == v and v >= 0 for v in res.metrics.values()), key


def test_metric_names_and_units_match_benchmark_json(smoke):
    for (name, trace), res in smoke.items():
        assert list(res.metrics) == (PER_LAYER if trace else END_TO_END), name
    for m in SPEC["end_to_end"]:
        assert workloads.END_TO_END_UNITS[m["name"]] == m["unit"]
    for m in SPEC["per_layer"]:
        assert workloads.unit_of(m["name"]) == m["unit"], m["name"]


def test_end_to_end_metrics_are_never_zero(smoke):
    for (name, trace), res in smoke.items():
        if not trace:
            assert all(v > 0 for v in res.metrics.values()), name


def test_conv_attribution_covers_every_conv_module(smoke):
    w = workloads.SMOKE["train_mid"]
    model = ynetr.YNetr(ynetr.ModelConfig(**w.model))
    paths = set(conv_paths(model).values())
    assert len(paths) == 27
    train = smoke[("train_mid", True)].metrics
    infer = smoke[("infer_mid", True)].metrics
    for path in paths:
        assert train[f"conv.{path}.fwd_s"] > 0 and train[f"conv.{path}.bwd_s"] > 0, path
        assert infer[f"conv.{path}.fwd_s"] > 0 and infer[f"conv.{path}.bwd_s"] == 0, path
    for res in (smoke[("train_mid", True)], smoke[("infer_mid", True)]):
        assert ("conv_attribution", True) in [c[:2] for c in res.checks]


def test_kernel_time_is_split_over_modules(smoke):
    m = smoke[("train_mid", True)].metrics
    for direction, kernels in (("fwd", ("conv3d_forward", "convt3d_forward")),
                               ("bwd", ("conv3d_backward", "convt3d_backward"))):
        by_module = sum(v for k, v in m.items() if k.startswith("conv.") and k.endswith(f".{direction}_s"))
        by_kernel = sum(m[f"convkernels.{k}.s"] for k in kernels)
        assert by_module == pytest.approx(by_kernel, rel=1e-9)


def test_same_seed_gives_bitwise_equal_outputs_traced_or_not(smoke, tmp_path):
    for name, w in workloads.SMOKE.items():
        again = workloads.run(w, 0, 0.01, False, tmp_path)
        first = smoke[(name, False)].record
        assert bench_cli.same_outputs(first, again.record), name
        assert bench_cli.same_outputs(first, smoke[(name, True)].record), name


def test_another_seed_gives_other_outputs(smoke, tmp_path):
    other = workloads.run(workloads.SMOKE["train_mid"], 1, 0.01, False, tmp_path)
    assert not bench_cli.same_outputs(smoke[("train_mid", False)].record, other.record)


def test_tracing_leaves_the_package_unpatched(smoke):
    ck = sys.modules["ynetr._convkernels"]
    for name in KERNELS:
        assert not hasattr(getattr(ck, name), "__wrapped__"), name
    for modname, attr in FUNCTIONS:
        assert not hasattr(getattr(sys.modules[modname], attr), "__wrapped__"), attr
    for cls, attr in ((ynetr.Tensor, "backward"), (ynetr.AdamW, "step"), (ynetr.YNetr, "forward")):
        assert not hasattr(getattr(cls, attr), "__wrapped__"), attr


def test_closed_form_check_rejects_a_wrong_loss(tmp_path):
    w = workloads.SMOKE["train_mid"]
    st = workloads.set_up(w, 0, tmp_path)
    m = workloads.measure_train(w, st, 0, 0.0)
    _, ok, _ = workloads._first_step_check(st, 0, m.first_step)
    assert ok
    wrong = ynetr.training.StepRecord(1, m.first_step.loss + 1e-3, m.first_step.dice, m.first_step.ce)
    _, ok, _ = workloads._first_step_check(st, 0, wrong)
    assert not ok


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train_mid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
