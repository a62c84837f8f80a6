import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC
    if preset is not None:
        env.update({var: preset for var in BLAS_VARS})
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, gloss; print(' '.join(os.environ[v] for v in %r))" % (BLAS_VARS,)],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out == [expected] * len(BLAS_VARS)
