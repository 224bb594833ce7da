"""Smoke tests of the narrative demos: each runs in a fresh interpreter.

Demos 01-03 take a few seconds together on one BLAS thread. Demo 04
(cross-validated prediction) takes about 12 s and is left out.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPECTED = {
    "01_generate_and_fit.py": "planted objective: -1821.2",
    "02_correspondence_and_phenotypes.py": "top-1 medication in the correct block: 12/12",
    "03_diversity_metrics.py": "angular penalty (beta=100, theta=0.1):",
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert EXPECTED[demo] in done.stdout.splitlines()
