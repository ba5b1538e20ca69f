"""The benchmark's workloads: inputs made from the seed, the CLI commands of one cycle, and output checks.

Each workload runs a fixed cycle of ``hsictest`` commands; a run repeats the cycle.
The checks compare no stored p-values, so they survive a change of the
permutation RNG scheme: statistics are checked against this file's own dense
numpy reference, p-values only for lying on the add-one lattice.

This module uses numpy only, never ``hsictest``, so the references stay
independent of the code under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA = 0.05
THREADS = 2
STATISTIC_RTOL = 1e-10

# The discrete ring on the centered 3x3 grid: dependent, yet its population
# HSIC is exactly zero under a linear kernel on y.
DISCRETE_RING_PMF = [[0.0, 0.25, 0.0], [0.25, 0.0, 0.25], [0.0, 0.25, 0.0]]


def ring_points(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points uniform on the unit circle, drawn from ``seed``."""
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=n)
    return np.cos(angles), np.sin(angles)


def median_distance(points: np.ndarray) -> float:
    """Median of the pairwise distances of a 1-D sample."""
    i, j = np.triu_indices(len(points), 1)
    return float(np.median(np.abs(points[i] - points[j])))


def gram(kernel: str, points: np.ndarray) -> np.ndarray:
    if kernel == "linear":
        return np.outer(points, points)
    sigma = median_distance(points)
    return np.exp((points[:, None] - points[None, :]) ** 2 / (-2.0 * sigma**2))


def dense_hsic(k: np.ndarray, l: np.ndarray) -> float:
    """Biased HSIC as the dense trace ``tr(K H L H) / n^2``."""
    n = len(k)
    h = np.eye(n) - 1.0 / n
    kh = k @ h
    lh = l @ h
    return float(np.sum(kh * lh.T)) / (n * n)


def on_lattice(p, permutations: int) -> bool:
    """True when p equals (k + 1) / (B + 1) for an integer 0 <= k <= B."""
    if not isinstance(p, float):
        return False
    k = round(p * (permutations + 1))
    return 1 <= k <= permutations + 1 and p == k / (permutations + 1)


@dataclass(frozen=True)
class CsvTest:
    """``hsictest test`` on a ring CSV, alternating a detecting and a blind y kernel."""

    name: str = "csv_test_n1000"
    n: int = 1000
    permutations: int = 500
    why: str = ("exact O(B n^2) permutation null is ~96% of wall time; "
                "Gram, centering and the 32 MB gather batch show, rng is under 1%")

    KERNELS_Y = ("gaussian:median", "linear")

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        x, y = ring_points(seed, self.n)
        path = workdir / "ring.csv"
        lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"csv": str(path)}

    def cycle(self, seed: int, inputs: dict) -> list[list[str]]:
        return [
            ["test", inputs["csv"], "--x-columns", "x", "--y-columns", "y",
             "--permutations", str(self.permutations), "--threads", str(THREADS),
             "--seed", str(seed), "--kernel-x", "gaussian:median", "--kernel-y", ky]
            for ky in self.KERNELS_Y
        ]

    def reference(self, seed: int) -> dict:
        x, y = ring_points(seed, self.n)
        k = gram("gaussian:median", x)
        return {
            "bandwidth_x": median_distance(x),
            "bandwidth_y": median_distance(y),
            "statistic_raw": {ky: dense_hsic(k, gram(ky, y)) for ky in self.KERNELS_Y},
        }

    def check(self, argv: list[str], report: dict, ref: dict) -> list[str]:
        ky = argv[argv.index("--kernel-y") + 1]
        problems = []
        expected = ref["statistic_raw"][ky]
        got = report.get("statistic_raw")
        if not isinstance(got, float) or abs(got - expected) > STATISTIC_RTOL * abs(expected):
            problems.append(f"statistic_raw {got!r} differs from dense reference {expected!r}")
        if report.get("resolved_bandwidth_x") != ref["bandwidth_x"]:
            problems.append(f"resolved_bandwidth_x {report.get('resolved_bandwidth_x')!r} "
                            f"is not the median distance {ref['bandwidth_x']!r}")
        want_y = ref["bandwidth_y"] if ky != "linear" else None
        if report.get("resolved_bandwidth_y") != want_y:
            problems.append(f"resolved_bandwidth_y {report.get('resolved_bandwidth_y')!r} != {want_y!r}")
        p = report.get("p_value")
        if not on_lattice(p, self.permutations):
            problems.append(f"p_value {p!r} is off the 1/(B+1) lattice")
        elif report.get("reject") is not (p <= ALPHA):
            problems.append(f"reject {report.get('reject')!r} disagrees with p_value {p!r}")
        if ky != "linear" and report.get("reject") is not True:
            problems.append("gaussian/gaussian test failed to reject on the ring")
        if report.get("n") != self.n or report.get("num_permutations") != self.permutations:
            problems.append("n or num_permutations differs from the command line")
        return problems

    def work(self, report: dict) -> dict:
        return {"replicates": report["num_permutations"], "pmfs": 0}


@dataclass(frozen=True)
class RingPower:
    """``hsictest reproduce-ring`` at tiny n: many replicates, trivial null."""

    name: str = "ring_power_n8"
    n: int = 8
    trials: int = 40
    permutations: int = 2500
    why: str = ("per-replicate generator set-up is ~70% of wall time and the 8x8 null is "
                "trivial; runs power_experiment's thread pool")

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        return {}

    def cycle(self, seed: int, inputs: dict) -> list[list[str]]:
        return [["reproduce-ring", "--n", str(self.n), "--trials", str(self.trials),
                 "--permutations", str(self.permutations), "--threads", str(THREADS),
                 "--seed", str(seed)]]

    def reference(self, seed: int) -> dict:
        return {}

    def check(self, argv: list[str], report: dict, ref: dict) -> list[str]:
        problems = []
        rows = report.get("configurations", [])
        if [r.get("kernel_y") for r in rows] != ["linear", "gaussian:median"]:
            problems.append("expected a linear-y and a gaussian-y configuration")
        for row in rows:
            p_values = row.get("p_values", [])
            if len(p_values) != self.trials:
                problems.append(f"{row.get('label')}: {len(p_values)} p-values, expected {self.trials}")
            off = [p for p in p_values if not on_lattice(p, self.permutations)]
            if off:
                problems.append(f"{row.get('label')}: p-values off the lattice: {off[:3]}")
            elif row.get("rejection_rate") != sum(p <= ALPHA for p in p_values) / self.trials:
                problems.append(f"{row.get('label')}: rejection_rate disagrees with its p-values")
        return problems

    def work(self, report: dict) -> dict:
        trials = sum(len(r["p_values"]) for r in report["configurations"])
        return {"replicates": trials * report["parameters"]["permutations"], "pmfs": 0}


@dataclass(frozen=True)
class OracleSweep:
    """Two ``hsictest oracle-sweep`` runs: characteristic kernels, then a linear y kernel."""

    name: str = "oracle_sweep_3x3_r8"
    m: int = 3
    resolution: int = 8
    why: str = ("no permutations and no rng: grid enumeration and thousands of tiny "
                "population_hsic/gram_entries calls; inputs do not depend on the seed")

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        return {}

    def cycle(self, seed: int, inputs: dict) -> list[list[str]]:
        base = ["oracle-sweep", "--mx", str(self.m), "--my", str(self.m),
                "--resolution", str(self.resolution), "--threads", str(THREADS),
                "--kernel-x", "gaussian:1.0"]
        return [base + ["--kernel-y", "gaussian:1.0"],
                base + ["--kernel-y", "linear", "--centered-supports"]]

    def reference(self, seed: int) -> dict:
        cells = self.m * self.m
        return {"total": math.comb(self.resolution + cells - 1, cells - 1)}

    def check(self, argv: list[str], report: dict, ref: dict) -> list[str]:
        problems = []
        total = report.get("total_distributions")
        if total != ref["total"]:
            problems.append(f"total_distributions {total!r}, expected {ref['total']}")
        if report.get("dependent_distributions", -1) + report.get("independent_distributions", -1) != total:
            problems.append("dependent + independent distributions do not add up")
        if "linear" in argv:
            pmfs = [c.get("pmf") for c in report.get("counterexamples", [])]
            if self.m == 3 and self.resolution % 4 == 0 and DISCRETE_RING_PMF not in pmfs:
                problems.append("linear sweep lacks the discrete ring counterexample")
        elif report.get("pass") is not True:
            problems.append(f"characteristic sweep pass is {report.get('pass')!r}, expected true")
        return problems

    def work(self, report: dict) -> dict:
        return {"replicates": 0, "pmfs": report["total_distributions"]}


WORKLOADS = {w.name: w for w in (CsvTest(), RingPower(), OracleSweep())}

# Small sizes of the same workloads, for the benchmark's own smoke tests.
TINY = {
    "csv_test_n1000": CsvTest(n=200, permutations=99),
    "ring_power_n8": RingPower(trials=4, permutations=99),
    "oracle_sweep_3x3_r8": OracleSweep(resolution=4),
}


def get(name: str, tiny: bool = False):
    return (TINY if tiny else WORKLOADS)[name]
