"""Import cost: the package, its sweeps, the envelope QP path and the
invariant suites load numpy, not scipy, and all of them run with scipy
blocked.  None of them loads a module from tests/: the library does not
depend on the references it is checked against.

No solve path imports scipy; ``moreau.lsq_linear`` and ``moreau.minimize``
import it on first call.  A sweep runs its trials one after another on the
calling thread and does not load ``concurrent.futures`` either.  The probe
runs in a fresh interpreter so modules the test session already loaded do
not count.
"""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")

PROBE = f"""
import sys
sys.path.insert(0, {SRC!r})
# the references are importable, so only the library's own imports keep them out
sys.path.insert(1, {str(TESTS)!r})

def scipy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "scipy")

def test_modules():
    return sorted(k for k, m in list(sys.modules.items())
                  if (getattr(m, "__file__", None) or "").startswith({str(TESTS)!r}))

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

from proxsgm.checks import run_all_checks
run_all_checks()
print("checks", scipy_modules())
print("tests", test_modules())
"""


def test_scipy_is_loaded_on_first_use_only():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == ["import []", "sweep [] False", "qp False", "checks []", "tests []"]


BLOCKED = f"""
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
sys.path.insert(0, {SRC!r})

import proxsgm
from proxsgm.cli import main
print("check", main(["check", "--quiet"]))
print("run", main(["run", "sweep.cfg"]))

from proxsgm.moreau import moreau_prox
from proxsgm.problems import default_x0, problem_from_id
p = problem_from_id("phase_retrieval:20:4:3")
pt = moreau_prox(p, default_x0(p), 0.5 / p.rho, tol=1e-9)
print("qp", pt.inner_tol <= 1e-9)
"""

SWEEP = """\
problem_id = phase_retrieval:20:4:3
horizons = 10, 100
gamma = optimal
n_seeds = 2
inner_tol = 1e-6
output = sweep.csv
"""


def test_package_and_cli_run_with_scipy_blocked(tmp_path):
    (tmp_path / "sweep.cfg").write_text(SWEEP)
    out = subprocess.run(
        [sys.executable, "-c", BLOCKED], capture_output=True, text=True, check=True,
        cwd=tmp_path,
    ).stdout.splitlines()
    assert [ln for ln in out if ln.split()[0] in ("check", "run", "qp")] == [
        "check 0", "run 0", "qp True"
    ]
    assert "32/32 checks passed" in out
    assert (tmp_path / "sweep.csv").read_text().count("\n") > 1
