"""Import cost: the package and its smooth-problem path load numpy, not scipy.

scipy is imported on first use by the envelope QP path, its Nelder-Mead
fallback and the chi-square suite of ``proxsgm check``.  A serial sweep does
not load ``concurrent.futures`` either; the thread pool is imported only when
``workers`` is above 1.  The probe runs in a fresh interpreter so modules the
test session already loaded do not count.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

PROBE = f"""
import sys
sys.path.insert(0, {SRC!r})

def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")

import proxsgm, proxsgm.cli, proxsgm.checks
print("import", scipy_modules())

from proxsgm.harness import ExperimentConfig, run_sweep
run_sweep(ExperimentConfig(
    problem_id="smooth_ls:60:5:2", horizons=(10, 100), gamma=0.1, n_seeds=2, output=""
))
print("sweep", scipy_modules(), "concurrent.futures" in sys.modules)

from proxsgm.moreau import moreau_prox
from proxsgm.problems import default_x0, problem_from_id
p = problem_from_id("phase_retrieval:20:4:3")
moreau_prox(p, default_x0(p), 0.5 / p.rho, tol=1e-9)
print("qp", "scipy.optimize" in sys.modules)
"""


def test_scipy_is_loaded_on_first_use_only():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == ["import []", "sweep [] False", "qp True"]
