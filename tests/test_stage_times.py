"""``scripts/stage_times.py`` runs against the current code and reports every stage."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_stage_script_runs_small():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = [
        sys.executable, str(ROOT / "scripts" / "stage_times.py"),
        "--n", "60", "--permutations", "20", "--repeats", "1",
    ]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["null_path"] == "factored"
    assert set(report["stages_s"]) == {"sides", "null", "p_value"}
    stages = {"median", "factoring"}
    assert set(report["split_s"]) == {f"{s}_{side}" for s in stages for side in "xy"} | {"draw"}
    assert report["peak_rss_mb"] > 0.0
