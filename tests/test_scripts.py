"""The checked-in scripts still run against the library they measure."""

import dataclasses
import importlib.util
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from proxsgm.harness import parse_config_file
from proxsgm.problems import problem_from_id
from proxsgm.solver import run_averaged, run_psgm

ROOT = Path(__file__).resolve().parent.parent

DIGEST_AREAS = [
    "run_psgm",
    "moreau_prox",
    "moreau_grid_oracle",
    "run_sweep",
    "boost",
    "check_details",
    "prox_subdiff",
    "oracle_checks",
    "stationarity",
    "problems",
    "bounds",
]


def test_seeded_digest_prints_one_digest_per_area():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "seeded_digest.py")],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == DIGEST_AREAS
    for line in lines:
        assert re.fullmatch(r"[a-z_]+ +[0-9a-f]{16}", line), line


def test_shipped_config_files_parse():
    # the README tells users to run these; every parser key they use must stay
    configs = sorted((ROOT / "scripts").glob("*.cfg"))
    assert configs
    for path in configs:
        config = parse_config_file(path)
        assert config.problem_id and config.horizons, path.name


@pytest.mark.parametrize("run", [run_averaged, run_psgm], ids=["averaged", "psgm"])
def test_step_cost_times_every_step_it_divides_by(monkeypatch, run):
    # the script divides each run's time by its oracle calls: STEPS + 1 for
    # run_averaged, t* for run_psgm, which stops at its drawn output index
    spec = importlib.util.spec_from_file_location("step_cost", ROOT / "scripts" / "step_cost.py")
    step_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(step_cost)
    monkeypatch.setattr(step_cost, "REPEATS", 1)
    # one second of process time per run, so the figure is 1e6 / divisor
    clock = iter([0.0, 1.0])
    monkeypatch.setattr(step_cost, "time", types.SimpleNamespace(process_time=lambda: next(clock)))
    p = problem_from_id("toy1d:abs")
    calls = []

    def sample(x, w):
        calls.append(1)
        return p.g_oracle.sample(x, w)

    traced = dataclasses.replace(p, g_oracle=dataclasses.replace(p.g_oracle, sample=sample))
    (us,) = step_cost.step_us(traced, run)
    assert 1e6 / us == pytest.approx(len(calls), rel=1e-12)
    if run is run_averaged:
        assert len(calls) == step_cost.STEPS + 1
    else:
        assert 0 < len(calls) < step_cost.STEPS + 1
