import os
import subprocess
import sys
from pathlib import Path

import ynetr

# imports the package, draws a phantom and runs a GELU forward, then reports
# every scipy module that got loaded on the way
PROBE = """
import sys
import numpy as np
import ynetr
vol, lbl = ynetr.generate_phantom(ynetr.PhantomSpec(
    shape=(16, 16, 16), tumor_count=(1, 1), tumor_volume_cm3=(0.15, 0.3), seed=5))
assert lbl.labels.any()
ynetr.Tensor(np.linspace(-8, 8, 101, dtype=np.float32)).gelu()
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_needs_no_scipy():
    env = dict(os.environ)
    src = str(Path(ynetr.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
