"""CLI behavior: parsing, JSON reports, exit codes, reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hsictest import GeneratorKind, GeneratorSpec, discrete_ring, kernels, sample
from hsictest.cli import load_csv_columns, main

RING_CSV_SEED = 3

# The parameters echo of each command: every flag it accepts, as parsed.
PARAMETERS = {
    "test": {
        "csv", "x_columns", "y_columns", "kernel_x", "kernel_y",
        "permutations", "alpha", "seed", "threads",
    },
    "reproduce-ring": {
        "n", "trials", "radius", "noise", "permutations", "alpha", "seed", "threads",
    },
    "oracle-sweep": {
        "mx", "my", "resolution", "kernel_x", "kernel_y", "centered_supports", "threads",
    },
}


def write_ring_csv(path, n=200, seed=RING_CSV_SEED):
    data = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=seed), n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for xr, yr in zip(data.x_points, data.y_points):
            fh.write(f"{float(xr[0])!r},{float(yr[0])!r}\n")
    return str(path)


@pytest.fixture(scope="module")
def ring_csv(tmp_path_factory):
    return write_ring_csv(tmp_path_factory.mktemp("data") / "ring.csv")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def report_minus_volatile(report, drop_threads=False):
    out = json.loads(json.dumps(report))
    out.pop("duration_seconds")
    if drop_threads:
        out["parameters"].pop("threads")
    return out


class TestCsvLoading:
    def test_multicolumn_selection(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        x, y = load_csv_columns(str(path), ["a", "c"], ["b"])
        assert np.array_equal(x, [[1.0, 3.0], [4.0, 6.0]])
        assert np.array_equal(y, [[2.0], [5.0]])

    @pytest.mark.parametrize(
        "content,message",
        [
            ("", "empty file"),
            ("x,y\n", "no data rows"),
            ("x,z\n1,2\n", "unknown column"),
            ("x,y\n1\n", "too short"),
            ("x,y\n1,\n", "missing value"),
            ("x,y\n1,abc\n", "non-numeric"),
            ("x,y\n1,inf\n", "non-finite"),
        ],
    )
    def test_bad_inputs_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        code, report, err = run_cli(
            ["test", str(path), "--x-columns", "x", "--y-columns", "y"], capsys
        )
        assert code == 2
        assert report is None
        assert message in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(
            ["test", "/nonexistent.csv", "--x-columns", "x", "--y-columns", "y"],
            capsys,
        )
        assert code == 2
        assert "cannot read" in err


class TestTestCommand:
    REQUIRED_FIELDS = [
        "statistic",
        "statistic_raw",
        "p_value",
        "reject",
        "seed",
        "resolved_bandwidth_x",
        "resolved_bandwidth_y",
        "null_quantile",
        "num_permutations",
        "n",
        "rng",
        "command",
        "version",
        "parameters",
        "duration_seconds",
    ]

    def test_ring_with_linear_y_fails_to_reject(self, ring_csv, capsys):
        code, report, _ = run_cli(
            [
                "test", ring_csv, "--x-columns", "x", "--y-columns", "y",
                "--kernel-y", "linear", "--seed", "1", "--permutations", "300",
            ],
            capsys,
        )
        assert code == 0
        for field in self.REQUIRED_FIELDS:
            assert field in report
        assert report["reject"] is False
        assert report["resolved_bandwidth_y"] is None
        assert report["resolved_bandwidth_x"] > 0.0
        assert report["statistic"] >= 0.0
        assert 0.0 < report["p_value"] <= 1.0
        assert report["n"] == 200
        assert report["num_permutations"] == 300

    def test_ring_with_gaussian_y_rejects(self, ring_csv, capsys):
        code, report, _ = run_cli(
            [
                "test", ring_csv, "--x-columns", "x", "--y-columns", "y",
                "--seed", "1", "--permutations", "300",
            ],
            capsys,
        )
        assert code == 0
        assert report["reject"] is True
        assert report["p_value"] <= 0.05

    def test_two_row_warning(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("x,y\n0,0\n1,1\n")
        code, report, err = run_cli(
            ["test", str(path), "--x-columns", "x", "--y-columns", "y",
             "--permutations", "10"],
            capsys,
        )
        assert code == 0
        assert "n = 2" in err
        assert report["n"] == 2

    def test_rerun_is_bitwise_identical(self, ring_csv, capsys):
        argv = [
            "test", ring_csv, "--x-columns", "x", "--y-columns", "y",
            "--seed", "4", "--permutations", "120",
        ]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert report_minus_volatile(first) == report_minus_volatile(second)

    def test_threads_do_not_touch_numbers(self, ring_csv, capsys):
        argv = [
            "test", ring_csv, "--x-columns", "x", "--y-columns", "y",
            "--seed", "4", "--permutations", "120",
        ]
        _, lone, _ = run_cli(argv + ["--threads", "1"], capsys)
        _, pooled, _ = run_cli(argv + ["--threads", "4"], capsys)
        assert report_minus_volatile(lone, drop_threads=True) == report_minus_volatile(
            pooled, drop_threads=True
        )

    def test_one_distance_pass_per_gaussian_side(self, ring_csv, capsys, monkeypatch):
        # Each median bandwidth comes from the distances its Gram is built
        # from; the command itself resolves nothing.
        calls = []
        pairwise = kernels._pairwise
        monkeypatch.setattr(
            kernels, "_pairwise", lambda pts, squared: calls.append(squared) or pairwise(pts, squared)
        )
        code, report, _ = run_cli(
            [
                "test", ring_csv, "--x-columns", "x", "--y-columns", "y",
                "--kernel-x", "gaussian:median", "--kernel-y", "gaussian:median",
                "--permutations", "20",
            ],
            capsys,
        )
        assert code == 0
        assert calls == [True, True]
        assert report["resolved_bandwidth_x"] > 0.0 and report["resolved_bandwidth_y"] > 0.0

    @pytest.mark.parametrize(
        "extra",
        [
            ["--kernel-x", "cubic"],
            ["--kernel-x", "gaussian:-2"],
            ["--permutations", "0"],
            ["--alpha", "1.5"],
            ["--x-columns", " , "],
            ["--threads", "0"],
        ],
    )
    def test_bad_flags_exit_2(self, ring_csv, capsys, extra):
        code, report, err = run_cli(
            ["test", ring_csv, "--x-columns", "x", "--y-columns", "y"] + extra,
            capsys,
        )
        assert code == 2
        assert report is None
        assert err


class TestReproduceRingCommand:
    def test_small_run_structure(self, capsys):
        code, report, err = run_cli(
            [
                "reproduce-ring", "--n", "24", "--trials", "3",
                "--permutations", "40", "--seed", "5",
            ],
            capsys,
        )
        assert code == 0
        assert report["command"] == "reproduce-ring"
        assert report["parameters"]["n"] == 24
        labels = [row["label"] for row in report["configurations"]]
        assert labels == ["non-characteristic on y", "characteristic on both"]
        blind, seeing = report["configurations"]
        assert blind["kernel_y"] == "linear"
        assert seeing["kernel_y"] == "gaussian:median"
        for row in report["configurations"]:
            assert 0.0 <= row["rejection_rate"] <= 1.0
            assert len(row["p_values"]) == 3

    def test_thread_invariance(self, capsys):
        argv = [
            "reproduce-ring", "--n", "20", "--trials", "2",
            "--permutations", "30", "--seed", "9",
        ]
        _, lone, _ = run_cli(argv + ["--threads", "1"], capsys)
        _, pooled, _ = run_cli(argv + ["--threads", "3"], capsys)
        assert report_minus_volatile(lone, drop_threads=True) == report_minus_volatile(
            pooled, drop_threads=True
        )


class TestOracleSweepCommand:
    def test_gaussian_default_sweep_passes(self, capsys):
        code, report, err = run_cli(["oracle-sweep"], capsys)
        assert code == 0
        assert report["pass"] is True
        assert report["total_distributions"] == 35
        assert report["dependent_distributions"] == 18
        assert report["independent_distributions"] == 17
        assert report["min_hsic_dependent"] > 1e-10
        assert report["max_hsic_independent"] < 1e-12
        assert report["resolved_bandwidth_x"] == 1.0
        assert "counterexamples" not in report

    def test_laplace_sweep_passes(self, capsys):
        code, report, _ = run_cli(
            [
                "oracle-sweep", "--kernel-x", "laplace:0.5",
                "--kernel-y", "laplace:0.5", "--resolution", "5",
            ],
            capsys,
        )
        assert code == 0
        assert report["pass"] is True

    def test_linear_side_surfaces_ring_counterexample(self, capsys):
        code, report, _ = run_cli(
            [
                "oracle-sweep", "--mx", "3", "--my", "3", "--resolution", "4",
                "--kernel-y", "linear", "--centered-supports",
            ],
            capsys,
        )
        assert code == 0
        assert report["pass"] is None
        assert report["counterexamples"]
        ring_pmf = discrete_ring().pmf
        hits = [
            c for c in report["counterexamples"]
            if np.array_equal(np.array(c["pmf"]), ring_pmf)
        ]
        assert hits
        assert all(c["population_hsic"] < 1e-12 for c in report["counterexamples"])

    @pytest.mark.parametrize(
        "extra",
        [
            ["--mx", "5"],
            ["--resolution", "1"],
            ["--kernel-x", "sigmoid"],
            # About 3.2e9 pmfs: refused up front instead of running for hours.
            ["--mx", "4", "--my", "4", "--resolution", "20"],
            ["--threads", "-1"],
        ],
    )
    def test_bad_flags_exit_2(self, capsys, extra):
        code, report, _ = run_cli(["oracle-sweep"] + extra, capsys)
        assert code == 2
        assert report is None

    @pytest.mark.parametrize("flag", ["--seed", "--permutations", "--alpha"])
    def test_calibration_flags_refused(self, capsys, flag):
        # The sweep is exact and draws nothing: it has no null to size,
        # level to test at or seed to draw from.
        with pytest.raises(SystemExit) as exc:
            main(["oracle-sweep", flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--x-columns", "x,y", "--y-columns", "y", "--permutations", "10"],
        ["reproduce-ring", "--n", "8", "--trials", "2", "--permutations", "10"],
        ["oracle-sweep", "--resolution", "2"],
    ],
    ids=["test", "reproduce-ring", "oracle-sweep"],
)
def test_parameters_echo_every_flag(ring_csv, capsys, argv):
    if argv[0] == "test":
        argv = argv[:1] + [ring_csv] + argv[1:]
    code, report, _ = run_cli(argv, capsys)
    assert code == 0
    assert set(report["parameters"]) == PARAMETERS[argv[0]]
    if argv[0] == "test":
        assert report["parameters"]["x_columns"] == ["x", "y"]
        assert report["parameters"]["y_columns"] == ["y"]


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, ring_csv, capsys, monkeypatch):
        import hsictest.cli as cli_module

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("eigensolver did not converge")

        monkeypatch.setattr(cli_module, "permutation_test", boom)
        code, report, err = run_cli(
            ["test", ring_csv, "--x-columns", "x", "--y-columns", "y"], capsys
        )
        assert code == 3
        assert report is None
        assert "numerical failure" in err

    def test_overflowing_statistic_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("x,y\n1e200,1e200\n-1e200,2e200\n3e200,-1e200\n")
        code, report, err = run_cli(
            ["test", str(path), "--x-columns", "x", "--y-columns", "y",
             "--kernel-x", "linear", "--kernel-y", "linear"],
            capsys,
        )
        assert code == 3
        assert report is None
        assert "non-finite" in err


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hsictest.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hsictest", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
