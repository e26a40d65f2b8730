"""The checked-in scripts still run against the library they measure."""

import re
import subprocess
import sys
from pathlib import Path

from proxsgm.harness import parse_config_file

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
