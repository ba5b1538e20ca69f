"""``scripts/stage_times.py`` runs against the current code and reports every stage."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _small_report(*extra):
    """The report of a small run of the script with ``extra`` flags, checked for every stage."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = [
        sys.executable, str(ROOT / "scripts" / "stage_times.py"),
        "--n", "60", "--permutations", "20", "--repeats", "1", *extra,
    ]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert set(report["stages_s"]) == {"sides", "null", "p_value"}
    stages = {"median", "factoring"}
    assert set(report["split_s"]) == {f"{s}_{side}" for s in stages for side in "xy"} | {"draw"}
    assert report["peak_rss_mb"] > 0.0
    return report


def test_stage_script_runs_small():
    assert _small_report()["null_path"] == "factored"


def test_stage_script_runs_the_dense_path():
    # A Laplace Gram is over the rank cap, so the test takes the dense null.
    assert _small_report("--kernel-y", "laplace:median")["null_path"] == "dense"
