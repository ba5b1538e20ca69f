"""``scripts/stage_times.py`` runs against the current code and reports every stage."""

import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from hsictest import testing

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "stage_times.py"


def _small_report(*extra):
    """The report of a small run of the script with ``extra`` flags, checked for every stage."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = [
        sys.executable, str(SCRIPT),
        "--n", "60", "--permutations", "20", "--repeats", "1", *extra,
    ]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert set(report["stages_s"]) == {"sides", "null", "p_value", "read"}
    stages = {"median", "factoring"}
    assert set(report["split_s"]) == {f"{s}_{side}" for s in stages for side in "xy"} | {"draw"}
    assert report["peak_rss_mb"] > 0.0
    return report


def test_stage_script_runs_small():
    assert _small_report()["null_path"] == "factored"


def test_stage_script_runs_the_dense_path():
    # A Laplace Gram is over the rank cap, so the test takes the dense null.
    assert _small_report("--kernel-y", "laplace:median")["null_path"] == "dense"


def test_stage_script_does_not_factor_small_tests():
    # Below the smallest factored n the test builds both Grams and factors
    # nothing, so the factoring split is exactly 0.
    report = _small_report("--n", "30")
    assert report["null_path"] == "dense"
    assert report["split_s"]["factoring_x"] == report["split_s"]["factoring_y"] == 0.0
    assert report["stage_sum_s"] <= report["total_s"]


def _script(monkeypatch):
    """The script, imported as a module, with its directory on sys.path as when it runs."""
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    spec = importlib.util.spec_from_file_location("stage_times", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_draw_split_draws_in_the_blocks_of_the_null(tmp_path, monkeypatch):
    script = _script(monkeypatch)
    blocks = []  # the rows of each block of each draw, the test's and the split's
    threads = []  # the thread each chunk of each draw ran on
    split = []  # where the split's chunks start in those lists
    draw_rows, draw_alone = testing._draw_rows, script.draw_alone

    def recording(seed, n, lo, hi, block):
        blocks.append(len(block))
        threads.append(threading.get_ident())
        return draw_rows(seed, n, lo, hi, block)

    def marked(*args):
        split.append(len(threads))
        return draw_alone(*args)

    monkeypatch.setattr(testing, "_draw_rows", recording)
    monkeypatch.setattr(script, "draw_alone", marked)
    # Two CPUs, so the test's own null runs its two chunks on pool threads.
    monkeypatch.setattr(testing.os, "cpu_count", lambda: 2)
    args = script.parse_args(["--n", "60", "--permutations", "500", "--kernel-y", "laplace:median"])
    run = script.one_run(script.write_ring_csv(tmp_path / "ring.csv", args.n, args.seed), args)
    assert run["null_path"] == "dense"
    assert len(blocks) >= 2 and len(set(blocks)) == 1
    assert sum(run["stages"].values()) <= run["total"]
    (start,) = split
    assert len(threads) == 2 * start == 4
    assert threading.get_ident() not in threads[:start]
    assert threads[start:] == [threading.get_ident()] * start


def test_peak_rss_is_not_floored_by_the_calling_process(tmp_path, monkeypatch):
    # Linux counts a parent's RSS at a spawn as its child's.  100 MB held
    # here, every page written, must not show in the peak of an n = 30 test
    # (about 38 MB).
    script = _script(monkeypatch)
    args = script.parse_args(["--n", "30", "--permutations", "20"])
    csv_path = script.write_ring_csv(tmp_path / "ring.csv", args.n, args.seed)
    ballast = np.ones(100 << 17)
    peak = script.child_peak_rss_mb(csv_path, args)
    assert 0.0 < peak < ballast.nbytes / 2**20


def test_matrix_records_the_host_and_each_cell_at_1_and_2_threads(tmp_path, monkeypatch):
    # One small cell of d = 3 points, written as the matrix's own d = 3 cells are.
    script = _script(monkeypatch)
    monkeypatch.setattr(script, "MATRIX", ((3, 60, "gaussian:median"),))
    path = tmp_path / "matrix.json"
    script.main(["--matrix", str(path), "--permutations", "20", "--repeats", "1"])
    matrix = json.loads(path.read_text())
    digest_host = script.report_digests.host_facts()
    assert set(matrix["host"]) == {*digest_host, "nproc", "OPENBLAS_NUM_THREADS"}
    assert matrix["host"]["nproc"] >= 1
    assert [cell["threads"] for cell in matrix["cells"]] == [1, 2]
    for cell in matrix["cells"]:
        assert (cell["dim"], cell["n"], cell["kernel_y"]) == (3, 60, "gaussian:median")
        assert set(cell["stages_s"]) == {"sides", "null", "p_value", "read"}
        assert cell["stage_sum_s"] <= cell["total_s"]
        assert cell["peak_rss_mb"] > 0.0


def test_power_cell_splits_sides_draw_null_statistics_and_p_values(tmp_path, monkeypatch):
    # One tiny power cell: 3 trials of 8 points, at 1 and 2 threads.
    script = _script(monkeypatch)
    monkeypatch.setattr(script, "MATRIX", (script.Power(8, 3, 20),))
    path = tmp_path / "matrix.json"
    script.main(["--matrix", str(path), "--repeats", "1"])
    cells = json.loads(path.read_text())["cells"]
    assert [cell["threads"] for cell in cells] == [1, 2]
    for cell in cells:
        assert (cell["command"], cell["n"], cell["trials"], cell["permutations"]) == (
            "reproduce-ring", 8, 3, 20,
        )
        assert set(cell["stages_s"]) == {"sample", "sides", "null", "p_value"}
        assert set(cell["split_s"]) == {"draw", "null_statistics"}
        assert cell["split_s"]["draw"] > 0.0 and cell["stages_s"]["sides"] > 0.0
        assert cell["stage_sum_s"] <= cell["total_s"]
        assert cell["peak_rss_mb"] > 0.0
