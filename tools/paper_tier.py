"""Run one window ``predict`` of the paper-default model and print its wall
time and memory high-water mark, phase by phase.

    python3 tools/paper_tier.py

The model is ``ModelConfig()``: a 128^3 window, embed 768, depth 12, 12
heads and decoder channels (512, 512, 256, 128, 64), drawn with its default
seed. The inputs are seeded standard-normal 128^3 crops. The process runs
under an address-space limit of ``LIMIT_GB`` (``RLIMIT_AS``), so a run that
would exhaust the host ends in a ``MemoryError`` instead. It prints one line
per phase, after the build and after the predict:

    <phase>  wall_s <s>  vmhwm_mb <MB>  vmrss_mb <MB>

and a last line ``logits <first 16 hex digits of a SHA-256>`` over the
logits' shape and bytes, so that two trees can be shown to compute the same
bits. VmHWM is the process's peak resident set since it started, so the
predict line's is the run's peak. It imports ``ynetr`` from the ``src/``
next to this directory, uses the standard library, numpy and ynetr alone,
and reads ``/proc/self/status`` (Linux). A run takes minutes and several GB,
so it is not part of the tests.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import ynetr  # noqa: E402

LIMIT_GB = 6


def memory_mb():
    """(VmHWM, VmRSS) of this process in MB."""
    fields = {}
    for line in Path("/proc/self/status").read_text().splitlines():
        key, _, value = line.partition(":")
        if key in ("VmHWM", "VmRSS"):
            fields[key] = int(value.split()[0]) / 1024  # kB
    return fields["VmHWM"], fields["VmRSS"]


def report(phase, t0):
    hwm, rss = memory_mb()
    print(f"{phase}  wall_s {time.perf_counter() - t0:.1f}  vmhwm_mb {hwm:.0f}  vmrss_mb {rss:.0f}",
          flush=True)


def main():
    limit = LIMIT_GB << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    t0 = time.perf_counter()
    model = ynetr.YNetr(ynetr.ModelConfig())
    report("build", t0)
    rng = np.random.default_rng(1)
    lf, hf = (rng.standard_normal(model.cfg.input_dims, dtype=np.float32) for _ in range(2))
    t0 = time.perf_counter()
    logits = model.predict(lf, hf)
    report("predict", t0)
    h = hashlib.sha256(f"{logits.dtype}{logits.shape}".encode())
    h.update(np.ascontiguousarray(logits).tobytes())
    print(f"logits  {h.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
