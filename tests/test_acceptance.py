"""End-to-end acceptance criteria.

One test per criterion, in order, so `pytest -v tests/test_acceptance.py`
prints exactly one pass/fail line for each. Sizes and tolerances are pinned
here on purpose; loosening them to make a run pass defeats the point of the
file. Runtime is dominated by criterion 3 (a 200-trial, 500-permutation
power experiment at n = 200) and criterion 4 (its level-calibration twin).
"""

import json
import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import oracles
from hsictest import (
    Dataset,
    DiscreteJointDistribution,
    GeneratorKind,
    GeneratorSpec,
    KernelSpec,
    PermutationConfig,
    discrete_ring,
    exhaustive_permutation_test,
    hsic_biased,
    permutation_test,
    population_hsic,
    power_experiment,
    sample,
    theta,
    zero_sum_probe,
)
from hsictest.cli import main
from hsictest.kernels import gram_entries

FAMILIES = ["gaussian", "laplace", "linear"]


def _spec(family, bandwidth):
    return KernelSpec(family) if family == "linear" else KernelSpec(family, bandwidth)


def _run_cli_json(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def _stable(report, drop_threads=False):
    out = json.loads(json.dumps(report))
    out.pop("duration_seconds")
    if drop_threads:
        out["parameters"].pop("threads")
    return out


def _write_ring_csv(path, n, seed):
    data = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=seed), n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for xr, yr in zip(data.x_points, data.y_points):
            fh.write(f"{float(xr[0])!r},{float(yr[0])!r}\n")
    return str(path)


def _separated_points(rng, n, d, min_gap=1e-3):
    while True:
        pts = rng.normal(size=(n, d))
        if n == 1 or pdist(pts).min() >= min_gap:
            return pts


def test_criterion_1_population_sweep_separates_dependence(capsys):
    """Exact population HSIC splits dependent from independent pmfs cleanly.

    Every grid pmf in full 2x2 and 3x3 sweeps (thousands per kernel family)
    must land above 1e-10 when dependent and below 1e-12 when independent,
    for Gaussian and for Laplace kernels, within a 5 minute budget.
    """
    started = time.perf_counter()
    grand_total = 0
    for family in ("gaussian", "laplace"):
        kernel = f"{family}:1.0"
        family_total = 0
        for mx, my, resolution in ((2, 2, 16), (3, 3, 5)):
            report = _run_cli_json(
                [
                    "oracle-sweep", "--mx", str(mx), "--my", str(my),
                    "--resolution", str(resolution),
                    "--kernel-x", kernel, "--kernel-y", kernel,
                ],
                capsys,
            )
            assert report["pass"] is True
            assert report["min_hsic_dependent"] > 1e-10
            assert report["max_hsic_independent"] < 1e-12
            assert report["total_distributions"] == oracles.count_compositions(
                resolution, mx * my
            )
            family_total += report["total_distributions"]
        assert family_total >= 2000
        grand_total += family_total
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"criterion 1: {grand_total} distributions in {elapsed:.1f}s: PASS")


def test_criterion_2_discrete_ring_exact_counterexample():
    """The discrete ring is dependent yet invisible to the linear-y kernel."""
    ring = discrete_ring()
    gauss = KernelSpec("gaussian", 1.0)
    spread = float(np.abs(theta(ring)).max())
    assert spread >= 0.0625
    blind = population_hsic(ring, gauss, KernelSpec("linear"))
    assert blind.value < 1e-12
    seeing = population_hsic(ring, gauss, gauss)
    assert seeing.value > 1e-6
    print(
        f"criterion 2: blind {blind.value!r}, seeing {seeing.value:.3e}, "
        f"spread {spread}: PASS"
    )


def test_criterion_3_sampled_ring_reproduction(capsys):
    """Gaussian/Linear stays near level on ring data; Gaussian/Gaussian detects it."""
    report = _run_cli_json(
        [
            "reproduce-ring", "--n", "200", "--trials", "200",
            "--permutations", "500", "--alpha", "0.05",
            "--noise", "0.0", "--seed", "0",
        ],
        capsys,
    )
    rates = {row["label"]: row["rejection_rate"] for row in report["configurations"]}
    blind = rates["non-characteristic on y"]
    seeing = rates["characteristic on both"]
    assert blind <= 0.10
    assert seeing >= 0.95
    print(f"criterion 3: blind rate {blind}, seeing rate {seeing}: PASS")


def test_criterion_4_level_calibration():
    """On independent data the test rejects at close to its nominal level."""
    cfg = PermutationConfig(500, 0.05, 0)
    spec = GeneratorSpec(GeneratorKind.INDEPENDENT_GAUSSIAN, seed=0)
    gauss = KernelSpec("gaussian")
    (result,) = power_experiment(spec, gauss, [gauss], cfg, num_trials=200, n=200)
    assert 0.02 <= result.rejection_rate <= 0.09
    print(f"criterion 4: level {result.rejection_rate}: PASS")


def test_criterion_5_estimator_oracle_equivalence():
    """Fast estimator paths agree with the slow written-out formulas."""
    rng = np.random.default_rng(2026)
    for i in range(100):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        y = rng.normal(size=(n, int(rng.integers(1, 4))))
        fx, fy = FAMILIES[i % 3], FAMILIES[(i + 1) % 3]
        bx = float(rng.uniform(0.4, 2.5))
        by = float(rng.uniform(0.4, 2.5))
        got = hsic_biased(Dataset(x, y), _spec(fx, bx), _spec(fy, by)).raw
        want = oracles.centered_double_sum_hsic(x, y, (fx, bx), (fy, by))
        assert got == pytest.approx(want, abs=1e-10)
    for i in range(100):
        mx = int(rng.integers(1, 5))
        my = int(rng.integers(1, 5))
        xs = rng.normal(size=(mx, int(rng.integers(1, 3))))
        ys = rng.normal(size=(my, int(rng.integers(1, 3))))
        weights = rng.random(mx * my) + 1e-3
        pmf = (weights / weights.sum()).reshape(mx, my)
        dist = DiscreteJointDistribution(xs, ys, pmf)
        fx, fy = FAMILIES[i % 3], FAMILIES[(i + 2) % 3]
        bx = float(rng.uniform(0.4, 2.5))
        by = float(rng.uniform(0.4, 2.5))
        got = population_hsic(dist, _spec(fx, bx), _spec(fy, by)).raw
        want = oracles.quadruple_sum_hsic(xs, ys, pmf, (fx, bx), (fy, by))
        assert got == pytest.approx(want, abs=1e-10)
    gauss = KernelSpec("gaussian", 1.0)
    two = hsic_biased(Dataset([0.0, 1.0], [0.0, 1.0]), gauss, gauss)
    assert two.value == pytest.approx(oracles.N2_CLOSED_FORM, abs=1e-12)
    print("criterion 5: 200 oracle equivalences plus closed form: PASS")


def test_criterion_6_monte_carlo_matches_exhaustive():
    """Monte Carlo p-values converge to the exact enumeration values."""
    gauss = KernelSpec("gaussian")
    laplace = KernelSpec("laplace")
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(3, 7))
        data = Dataset(rng.normal(size=(n, 1)), rng.normal(size=(n, 1)))
        kx, ky = (gauss, gauss) if i % 2 == 0 else (gauss, laplace)
        exact = exhaustive_permutation_test(data, kx, ky, 0.05)
        mc = permutation_test(data, kx, ky, PermutationConfig(50_000, 0.05, i))
        gap = abs(mc.p_value - exact.p_value)
        worst = max(worst, gap)
        assert gap <= 0.01
    print(f"criterion 6: worst Monte Carlo gap {worst:.5f}: PASS")


def test_criterion_7_cli_reruns_bitwise_identical(tmp_path, capsys):
    """Echoed parameters reproduce every command bitwise, whatever --threads."""
    csv_path = _write_ring_csv(tmp_path / "ring.csv", n=60, seed=3)
    first = _run_cli_json(
        [
            "test", csv_path, "--x-columns", "x", "--y-columns", "y",
            "--kernel-y", "linear", "--seed", "11",
            "--permutations", "150", "--threads", "1",
        ],
        capsys,
    )
    p = first["parameters"]
    second = _run_cli_json(
        [
            "test", p["csv"],
            "--x-columns", ",".join(p["x_columns"]),
            "--y-columns", ",".join(p["y_columns"]),
            "--kernel-x", p["kernel_x"], "--kernel-y", p["kernel_y"],
            "--permutations", str(p["permutations"]),
            "--alpha", repr(p["alpha"]), "--seed", str(p["seed"]),
            "--threads", "2",
        ],
        capsys,
    )
    assert _stable(first, drop_threads=True) == _stable(second, drop_threads=True)

    first = _run_cli_json(
        [
            "reproduce-ring", "--n", "30", "--trials", "4",
            "--permutations", "60", "--seed", "5", "--threads", "1",
        ],
        capsys,
    )
    p = first["parameters"]
    second = _run_cli_json(
        [
            "reproduce-ring", "--n", str(p["n"]), "--trials", str(p["trials"]),
            "--permutations", str(p["permutations"]),
            "--alpha", repr(p["alpha"]), "--seed", str(p["seed"]),
            "--radius", repr(p["radius"]), "--noise", repr(p["noise"]),
            "--threads", "3",
        ],
        capsys,
    )
    assert _stable(first, drop_threads=True) == _stable(second, drop_threads=True)

    first = _run_cli_json(["oracle-sweep", "--threads", "1"], capsys)
    p = first["parameters"]
    argv = [
        "oracle-sweep", "--mx", str(p["mx"]), "--my", str(p["my"]),
        "--resolution", str(p["resolution"]),
        "--kernel-x", p["kernel_x"], "--kernel-y", p["kernel_y"],
        "--threads", "2",
    ]
    if p["centered_supports"]:
        argv.append("--centered-supports")
    second = _run_cli_json(argv, capsys)
    assert _stable(first, drop_threads=True) == _stable(second, drop_threads=True)
    print("criterion 7: all three commands re-ran bitwise identical: PASS")


def test_criterion_8_characteristicness_witness():
    """Zero-sum probe: no witness for Gaussian/Laplace, a zero-sum witness for linear on the line."""
    rng = np.random.default_rng(808)
    for i in range(100):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        pts = _separated_points(rng, n, d)
        # The Gaussian bandwidth is tied to the smallest pairwise gap: with
        # bandwidth far above the point spacing the kernel is characteristic
        # in exact arithmetic but its zero-sum eigenvalues decay below
        # double-precision resolution, which is exactly what the tolerance
        # is there to refuse to certify. Laplace Gram matrices stay well
        # conditioned, so that side uses the median heuristic.
        gauss_bw = float(rng.uniform(0.5, 1.25)) * float(pdist(pts).min())
        for family, spec in (
            ("gaussian", KernelSpec("gaussian", gauss_bw)),
            ("laplace", KernelSpec("laplace")),
        ):
            lam, witness = zero_sum_probe(gram_entries(spec, pts))
            assert witness is None, (family, i, n, d, lam)
    eps = np.finfo(float).eps
    for i in range(100):
        n = int(rng.integers(3, 11))
        pts = _separated_points(rng, n, 1)
        entries = gram_entries(KernelSpec("linear"), pts)
        _, witness = zero_sum_probe(entries)
        assert witness is not None
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-9)
        assert abs(witness.sum()) <= 2 * n * eps
        energy = float(witness @ entries @ witness)
        assert energy <= 8.0 * n * eps * float(np.abs(entries).max())
    print("criterion 8: 200 characteristic probes, 100 linear witnesses: PASS")
