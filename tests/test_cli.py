"""CLI behavior: parsing, JSON reports, exit codes, reproducibility."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hsictest
from hsictest import (
    GeneratorKind, GeneratorSpec, _selection, discrete_ring, hsic, median_heuristic, sample, testing,
)
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
        # Saved as Excel's "CSV UTF-8": a byte order mark and CRLF line ends.
        excel = tmp_path / "excel.csv"
        excel.write_bytes(b"\xef\xbb\xbfa,b,c\r\n1,2,3\r\n4,5,6\r\n")
        xe, ye = load_csv_columns(str(excel), ["a", "c"], ["b"])
        assert xe.tobytes() == x.tobytes() and ye.tobytes() == y.tobytes()

    @pytest.mark.parametrize(
        "content,message",
        [
            ("", "empty file"),
            ("x,y\n", "no data rows"),
            ("x,z\n1,2\n", "unknown column"),
            ("x,y,x\n1,2,80\n", "column 'x' appears more than once in the header, at positions 1, 3"),
            ("x,y\n1\n", "too short"),
            ("x,y\n1,\n", "missing value"),
            ("x,y\n1,abc\n", "non-numeric"),
            ("x,y\n1,inf\n", "non-finite"),
            # The first bad cell is named after good rows: x columns first,
            # then in row order.
            ("x,y\n1,2\n3\n", "row 3 is too short"),
            ("x,y\n1,2\n3, \n", "missing value at row 3, column 'y'"),
            ("x,y\n1,2\n3,4\nx5,6\n", "non-numeric value 'x5' at row 4, column 'x'"),
            ("x,y\n1,nan\n-inf,4\n", "non-finite value '-inf' at row 3, column 'x'"),
            # Blank lines are skipped, and rows keep their numbers in the file.
            ("x,y\n\n\r\n", "no data rows"),
            ("\n\n", "empty file"),
            ("x,y\n1,2\n\n3\n", "row 4 is too short"),
            ("\nx,y\n\n1,2\n\n3,abc\n\n", "non-numeric value 'abc' at row 6, column 'y'"),
            # Bytes that are not UTF-8 name the file, as every read failure does.
            pytest.param(
                "x,y\n1,2\n3,4\n".encode("utf-16"), "cannot read {path}: 'utf-8' codec", id="utf-16"
            ),
            pytest.param(b"\xffx,y\n1,2\n3,4\n", "cannot read {path}: 'utf-8' codec", id="0xff"),
        ],
    )
    def test_bad_inputs_exit_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        code, report, err = run_cli(
            ["test", str(path), "--x-columns", "x", "--y-columns", "y"], capsys
        )
        assert code == 2
        assert report is None
        assert message.replace("{path}", str(path)) in err

    def test_blank_rows_skipped(self, tmp_path, capsys):
        # csv.reader yields [] for a blank line; such a row holds no values,
        # wherever it is, and is skipped rather than read as too short.
        path = tmp_path / "blank.csv"
        path.write_text("x,y\n1,2\n2,3\n3,5\n\n")
        x, y = load_csv_columns(str(path), ["x"], ["y"])
        assert x.tobytes() == np.array([[1.0], [2.0], [3.0]]).tobytes()
        assert y.tobytes() == np.array([[2.0], [3.0], [5.0]]).tobytes()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("\r\nx,y\r\n\r\n1,2\n2,3\n\n\n3,5\n\n")
        xs, ys = load_csv_columns(str(spaced), ["x"], ["y"])
        assert xs.tobytes() == x.tobytes() and ys.tobytes() == y.tobytes()
        argv = ["test", str(path), "--x-columns", "x", "--y-columns", "y"]
        code, report, _ = run_cli(argv, capsys)
        assert code == 0 and report["n"] == 3

    def test_whitespace_padded_cells_read_as_stripped(self, tmp_path):
        # Columns convert whole; a padded cell must give the value of its
        # stripped text, bit for bit.
        cells = ["0.1", "1e-300", "-2.5", "3", "0.30000000000000004"]
        path = tmp_path / "padded.csv"
        path.write_text(
            "x,y\n" + "".join(f" {c}\t,  {c} \n" for c in cells), encoding="utf-8"
        )
        x, y = load_csv_columns(str(path), ["x"], ["y"])
        expected = np.array([[float(c)] for c in cells])
        assert x.tobytes() == expected.tobytes() and y.tobytes() == expected.tobytes()

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

    def test_two_distance_passes_per_median_side(self, ring_csv, capsys, monkeypatch):
        # Each median side of 200 points, built as a centered factor, makes
        # one distance pass for its bandwidth (one block of the upper
        # triangle) and one distance row per pivot column of K, 14 per side;
        # the command itself resolves nothing.  Every distance pass computes
        # its distances by _selection._difference, once per coordinate: once
        # per pass for these 1-D sides.
        calls = []
        difference = _selection._difference
        monkeypatch.setattr(
            _selection,
            "_difference",
            lambda a, b, squared, out: calls.append(squared) or difference(a, b, squared, out),
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
        assert calls == [True] * 2 * (1 + 14)
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
            ["--kernel-y", "linear:0.5"],
            ["--x-columns", "x,x"],
            ["--y-columns", "y, y"],
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


class TestMemoryGuard:
    N, B = 600, 200

    @pytest.fixture(scope="class")
    def big_csv(self, tmp_path_factory):
        return write_ring_csv(tmp_path_factory.mktemp("guard") / "ring.csv", n=self.N)

    def argv(self, csv, kernel_y):
        return [
            "test", csv, "--x-columns", "x", "--y-columns", "y",
            "--kernel-y", kernel_y, "--permutations", str(self.B), "--threads", "1",
        ]

    def estimate(self, grams):
        """Bytes of ``grams`` n x n buffers and the B null statistics."""
        return 8 * grams * self.N**2 + 8 * self.B

    def test_budget_below_one_gram_exits_2_before_allocating(
        self, big_csv, capsys, monkeypatch
    ):
        # A Gaussian y factors, so the test holds no Gram and runs to the
        # report it gives under the full budget; a Laplace y does not factor,
        # and its dense path is refused before it allocates a Gram.
        _, unpatched, _ = run_cli(self.argv(big_csv, "gaussian:median"), capsys)
        monkeypatch.setattr(testing, "MEMORY_BUDGET_BYTES", 8 * self.N**2 - 1)
        tracemalloc.start()
        try:
            code, report, _ = run_cli(self.argv(big_csv, "gaussian:median"), capsys)
            laplace = run_cli(self.argv(big_csv, "laplace:median"), capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and report_minus_volatile(report) == report_minus_volatile(unpatched)
        laplace_code, laplace_report, err = laplace
        assert laplace_code == 2 and laplace_report is None and (
            f"about {self.estimate(4) / 2**20:.1f} MiB" in err and "memory budget" in err
        )
        assert peak < 8 * self.N**2

    def test_budget_for_the_factored_path_refuses_the_dense_fallback(
        self, big_csv, capsys, monkeypatch
    ):
        # Exactly the factored estimate, the null statistics alone: a
        # Gaussian y factors and runs; a Laplace y does not factor, and the
        # dense path's two Grams and one chunk's two take buffers are
        # refused, not met by MemoryError.
        monkeypatch.setattr(testing, "MEMORY_BUDGET_BYTES", self.estimate(0))
        code, report, _ = run_cli(self.argv(big_csv, "gaussian:median"), capsys)
        assert code == 0 and report["n"] == self.N
        code, report, err = run_cli(self.argv(big_csv, "laplace:median"), capsys)
        assert code == 2 and report is None
        assert f"about {self.estimate(4) / 2**20:.1f} MiB" in err

    def test_overflowing_side_exits_3_within_the_factored_budget(
        self, tmp_path, capsys, monkeypatch
    ):
        # A linear y of 1e200 overflows its factor's scale.  Refused where
        # it is built, it exits 3 under a budget that holds the factored
        # path (the null statistics) but not the dense fallback's two Grams
        # and their workspace, which it would otherwise try first.
        data = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=RING_CSV_SEED), self.N)
        pairs = zip(data.x_points[:, 0], data.y_points[:, 0])
        path = tmp_path / "huge.csv"
        path.write_text("x,y\n" + "".join(f"{float(a)!r},{float(b) * 1e200!r}\n" for a, b in pairs))
        monkeypatch.setattr(testing, "MEMORY_BUDGET_BYTES", self.estimate(2))
        code, report, err = run_cli(self.argv(str(path), "linear"), capsys)
        assert code == 3 and report is None
        assert "non-finite" in err and "memory budget" not in err

    def test_overflowing_two_sigma_squared_exits_3_below_one_gram(
        self, big_csv, capsys, monkeypatch
    ):
        # gaussian:1e154 overflows 2 sigma^2.  Refused as its bandwidth is
        # resolved, the test exits 3 under a budget that holds the factored
        # path but not the dense one, which it took before (and at n = 20 000
        # exited 2 for the dense estimate).  The traced peak is taken as
        # TestThreads._traced_peak takes it, on a second run.
        monkeypatch.setattr(testing, "MEMORY_BUDGET_BYTES", self.estimate(2))
        argv = self.argv(big_csv, "gaussian:median") + ["--kernel-x", "gaussian:1e154"]
        run_cli(argv, capsys)
        tracemalloc.start()
        try:
            code, report, err = run_cli(argv, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3 and report is None
        assert "non-finite" in err and "memory budget" not in err
        assert peak < 8 * self.N**2

    def test_permutations_beyond_memory_exit_2(self, ring_csv, capsys):
        # 10^12 permutations of 200 points would take 1.6 PB; the test must
        # refuse them before it allocates them, not fail with MemoryError.
        argv = [
            "test", ring_csv, "--x-columns", "x", "--y-columns", "y",
            "--permutations", str(10**12), "--threads", "1",
        ]
        code, report, err = run_cli(argv, capsys)
        assert code == 2 and report is None
        assert "memory budget" in err

    def test_budget_capped_by_physical_memory(self, monkeypatch):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}
        monkeypatch.setattr(testing.os, "sysconf", pages.__getitem__)
        assert testing._memory_budget() == 4096 * 1000
        monkeypatch.setattr(testing, "MEMORY_BUDGET_BYTES", 4096)
        assert testing._memory_budget() == 4096
        # Where physical memory cannot be read (an unknown name raises
        # ValueError, an unsupported one OSError), the budget is the constant.
        for error in (ValueError, OSError):
            def unreadable(name, error=error):
                raise error(name)

            monkeypatch.setattr(testing.os, "sysconf", unreadable)
            assert testing._memory_budget() == 4096


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

    @pytest.mark.parametrize("ring", [["8"], ["39"], ["45"], ["200", "--noise", "0.1"]])
    def test_reports_equal_for_1_2_3_threads(self, ring, capsys, monkeypatch):
        # The digest corpus's reproduce-ring commands: batched, factored and
        # noisy factored trials, each sharing its draw between both y kernels.
        # Three threads would be capped to the CPU count.
        monkeypatch.setattr(testing.os, "cpu_count", lambda: 8)
        argv = [
            "reproduce-ring", "--n", *ring, "--trials", "6",
            "--permutations", "100", "--seed", "3",
        ]
        reports = [
            report_minus_volatile(run_cli(argv + ["--threads", t], capsys)[1], drop_threads=True)
            for t in ("1", "2", "3")
        ]
        assert reports[0] == reports[1] == reports[2]


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

    def test_each_support_gram_built_once(self, capsys, monkeypatch):
        # Every pmf shares both supports, so a sweep builds two Grams, not
        # two per pmf.
        calls = []
        gram_entries = hsictest.kernels.gram_entries
        counted = lambda *args: calls.append(args) or gram_entries(*args)  # noqa: E731
        for module in (hsictest.kernels, hsic, hsictest.cli):
            monkeypatch.setattr(module, "gram_entries", counted, raising=False)
        code, report, _ = run_cli(["oracle-sweep"], capsys)
        assert code == 0 and report["total_distributions"] == 35
        assert len(calls) == 2

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

    def test_grid_without_dependent_pmfs_passes(self, capsys):
        # With one x support point every pmf is a product, so no dependent
        # pmf can fail the verdict: it holds vacuously.
        code, report, _ = run_cli(
            ["oracle-sweep", "--mx", "1", "--my", "3", "--resolution", "4"], capsys
        )
        assert code == 0
        assert report["dependent_distributions"] == 0
        assert report["min_hsic_dependent"] is None
        assert report["max_hsic_independent"] < 1e-12
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
            ["--kernel-y", "linear:3"],
        ],
    )
    def test_bad_flags_exit_2(self, capsys, extra):
        code, report, _ = run_cli(["oracle-sweep"] + extra, capsys)
        assert code == 2
        assert report is None

    def test_overflowing_two_sigma_squared_exits_3(self, capsys):
        # Resolved with the supports, before any pmf: gaussian:1e154 would
        # make every K 1, and every population HSIC 0.
        code, report, err = run_cli(["oracle-sweep", "--kernel-x", "gaussian:1e154"], capsys)
        assert code == 3 and report is None
        assert "non-finite" in err

    def test_median_bandwidth_on_one_support_point_exits_2(self, capsys):
        code, report, err = run_cli(
            ["oracle-sweep", "--mx", "1", "--kernel-x", "gaussian:median"], capsys
        )
        assert code == 2
        assert report is None
        assert "at least 2 points" in err

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


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--x-columns", "x", "--y-columns", "y"],
        ["reproduce-ring", "--n", "8", "--trials", "2"],
    ],
    ids=["test", "reproduce-ring"],
)
@pytest.mark.parametrize("seed", [2**64, 2**64 + 5])
def test_seed_from_2_to_the_64_exits_2(ring_csv, capsys, argv, seed):
    # Masked to 64 bits, these seeds ran seed 0's and seed 5's draws.
    if argv[0] == "test":
        argv = argv[:1] + [ring_csv] + argv[1:]
    code, report, err = run_cli(argv + ["--seed", str(seed), "--permutations", "10"], capsys)
    assert code == 2
    assert report is None
    assert "2**64" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--x-columns", "x", "--y-columns", "y", "--permutations", "10"],
        ["reproduce-ring", "--n", "8", "--trials", "2", "--permutations", "10"],
        ["oracle-sweep", "--resolution", "2"],
    ],
    ids=["test", "reproduce-ring", "oracle-sweep"],
)
def test_envelope_leads_every_report(ring_csv, capsys, argv):
    if argv[0] == "test":
        argv = argv[:1] + [ring_csv] + argv[1:]
    code, report, _ = run_cli(argv, capsys)
    assert code == 0
    keys = list(report)
    assert keys[:4] == ["command", "version", "parameters", "duration_seconds"]
    assert len(keys) > 4


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

    @pytest.mark.parametrize("n", [3, 60], ids=["dense", "factored"])
    def test_gaussian_bandwidths_at_the_float_limits(self, n, tmp_path, capsys, monkeypatch):
        # 2 sigma^2 overflows from sigma near 9.48e153 on (Python's ** raises
        # from 1.34e154) and rounds to 0 below about 1.57e-162.  Overflowed,
        # it would make K 1 at every finite distance, a kernel that is not
        # characteristic (on dependent u in [0, 1.3e154] it gave p = 1);
        # rounded to 0, it would make K_ii = exp(-0 / 0).  Either way the
        # test exits 3 as the bandwidth is resolved, before any pivot column
        # is built, and warns of nothing.  Just inside both limits K is 1,
        # or the identity, to working precision on these points: p = 1.
        path = tmp_path / "data.csv"
        if n == 3:
            path.write_text("x,y\n1,2\n2,3\n3,5\n")
        else:
            write_ring_csv(path, n=n)
        pivots, pivoted = [], hsic._pivoted_cholesky
        monkeypatch.setattr(
            hsic, "_pivoted_cholesky", lambda *args: pivots.append(args) or pivoted(*args)
        )

        def run(bandwidth):
            argv = [
                "test", str(path), "--x-columns", "x", "--y-columns", "y",
                "--kernel-x", f"gaussian:{bandwidth}", "--permutations", "20",
            ]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run_cli(argv, capsys)
            assert not caught, [str(w.message) for w in caught]
            return result

        finite, tiny = run("9.4e153"), run("2e-162")
        for code, report, _ in (finite, tiny):
            assert code == 0 and report["p_value"] == 1.0
        assert finite[1]["statistic"] == 0.0
        pivots.clear()
        for bandwidth in ("9.5e153", "1.3e154", "1.35e154", "1e-162"):
            code, report, err = run(bandwidth)
            assert code == 3 and report is None
            assert "non-finite" in err and not pivots

    @staticmethod
    def _refused(path, capsys, flags, **columns):
        """Run ``test`` on a CSV of ``columns`` with ``flags``; assert it exits 3 as non-finite."""
        rows = zip(*columns.values())
        lines = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        path.write_text(",".join(columns) + "\n" + lines)
        argv = ["test", str(path), "--y-columns", "y", "--permutations", "50", *flags]
        code, report, err = run_cli(argv, capsys)
        assert code == 3 and report is None
        assert "non-finite" in err

    @pytest.mark.parametrize("n", [30, 60], ids=["dense", "factored"])
    def test_overflowing_two_sigma_squared_exits_3(self, n, tmp_path, capsys):
        # Dependent u in [0, 1.3e154]: every squared distance is finite, but
        # 2 sigma^2 of gaussian:1e154 overflows, which made K 1 everywhere and
        # gave statistic 0 and p = 1.  u / 1.3e154 under gaussian:0.769 gives
        # p = 0.005 at n = 200 with 200 permutations.
        t = np.random.default_rng(n).uniform(size=n)
        y = np.cos(2 * np.pi * t)
        self._refused(
            tmp_path / "u.csv", capsys, ["--x-columns", "x", "--kernel-x", "gaussian:1e154"],
            x=t * 1.3e154, y=y,
        )

    @pytest.mark.parametrize("n", [30, 60], ids=["dense", "factored"])
    def test_overflowing_squared_distances_exit_3(self, n, tmp_path, capsys):
        # x = 1e154 z: the median bandwidth is finite and so is its 2 sigma^2,
        # but the squared distances of the widest pairs overflow, and their
        # K entries came out 0 where the true ones are e^-11 to e^-15.  The
        # factored side then blew up: p = 0.035 for a statistic of 817 at
        # n = 60 with 200 permutations.
        rng = np.random.default_rng(0)
        z = rng.normal(size=n)
        with np.errstate(over="ignore"):
            assert 7e153 < median_heuristic(z * 1e154) < 9.4e153
        self._refused(
            tmp_path / "z.csv", capsys, ["--x-columns", "x"],
            x=z * 1e154, y=z * z + 0.1 * rng.normal(size=n),
        )

    @pytest.mark.parametrize("n", [30, 60], ids=["dense", "factored"])
    def test_overflowing_laplace_range_exits_3(self, n, tmp_path, capsys):
        # The cityblock distances of the widest pairs, up to 3e308, overflow
        # under laplace:1e308, and their K entries came out 0 where the true
        # ones are e^-1.8 to e^-3.
        t = np.random.default_rng(n).uniform(-1.0, 1.0, size=n)
        assert np.ptp(t) * 1.5 > 1.8
        self._refused(
            tmp_path / "laplace.csv", capsys, ["--x-columns", "x", "--kernel-x", "laplace:1e308"],
            x=t * 1.5e308, y=np.abs(t),
        )

    @pytest.mark.parametrize("n", [30, 60], ids=["dense", "factored"])
    def test_two_coordinates_whose_squared_ranges_overflow_exit_3(self, n, tmp_path, capsys):
        # Each coordinate's squared range is finite, about 1.4e308, but their
        # sum is not: the side is refused on that bound, before any distance.
        u = np.random.default_rng(n).uniform(size=(n, 2))
        squares = np.ptp(u, axis=0) ** 2 * 1.44  # in units of 1e308
        assert squares.max() < 1.79 < squares.sum()
        self._refused(
            tmp_path / "plane.csv", capsys,
            ["--x-columns", "x1,x2", "--kernel-x", "gaussian:5e153"],
            x1=u[:, 0] * 1.2e154, x2=u[:, 1] * 1.2e154, y=u[:, 0] * u[:, 1],
        )

    def test_overflowing_median_bandwidth_exits_2(self, tmp_path, capsys):
        # 400 points, more pairs than one block holds: the squared distances
        # of 1e200 overflow, so the median bandwidth is inf, as np.median of
        # scipy's distances is, and is refused.
        x = np.random.default_rng(0).normal(size=400) * 1e200
        rows = "".join(f"{float(a)!r},{b}\n" for b, a in enumerate(x))
        path = tmp_path / "huge.csv"
        path.write_text("x,y\n" + rows)
        with np.errstate(over="ignore"):
            code, report, err = run_cli(
                ["test", str(path), "--x-columns", "x", "--y-columns", "y",
                 "--kernel-x", "gaussian:median", "--permutations", "20"],
                capsys,
            )
        assert code == 2
        assert report is None
        assert "bandwidth must be positive and finite" in err

    def test_zero_median_bandwidth_exits_2(self, tmp_path, capsys):
        # A 0/1 column split 80/20: 3350 of the 4950 pairs coincide, so the
        # median distance is 0, which is no bandwidth.
        path = tmp_path / "binary.csv"
        path.write_text("x,y\n" + "".join(f"{int(i < 20)},{i}\n" for i in range(100)))
        code, report, err = run_cli(
            ["test", str(path), "--x-columns", "x", "--y-columns", "y",
             "--kernel-x", "gaussian:median", "--permutations", "20"],
            capsys,
        )
        assert code == 2
        assert report is None
        assert "median pairwise distance is 0.0" in err
        assert "explicit" in err


def _python(*args, **variables):
    """``python *args`` in a child process that imports the package from this tree's ``src``.

    ``variables`` are set in the child's environment only.
    """
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_identity_gram_ties_on_numpys_avx2_loops():
    # At gaussian:2e-162 the x Gram of the [dense] case is the identity, and
    # its p = 1 holds on any host only as an exact tie: numpy's AVX-512 and
    # AVX2 exp loops round differently, and the replicates once differed
    # from the observed statistic in the last bits on the AVX2 ones (p =
    # 0.714).  The child runs that case with numpy's AVX-512 loops off.
    case = "TestExitCodes::test_gaussian_bandwidths_at_the_float_limits[dense]"
    proc = _python(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{Path(__file__).resolve()}::{case}",
        NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    proc = _python("-c", "import sys, hsictest.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_entry_point_runs():
    proc = _python("-m", "hsictest", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_version_matches_pyproject():
    # Python 3.10 has no tomllib, so the one version line is read by a regex.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert declared == hsictest.__version__
    proc = _python("-m", "hsictest", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == declared
