"""Command-line front end: CSV independence tests, the ring reproduction, and the oracle sweep.

Thin orchestration over the library modules: all statistics come from
library calls, the CLI only parses inputs and assembles reports.  One JSON
document goes to stdout; human-readable notes go to stderr.  Exit codes:
0 = ran, 2 = input error, 3 = internal numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .datagen import (
    DEPENDENCE_TOL,
    GeneratorKind,
    GeneratorSpec,
    enumerate_discrete,
    integer_supports,
    theta,
)
from .hsic import Dataset, DiscreteJointDistribution, population_hsic
from .kernels import KernelFamily, KernelSpec, parse_kernel, resolve_bandwidth
from .testing import PermutationConfig, permutation_test, power_experiment

# Sweep verdict thresholds: dependent pmfs must clear the first, independent
# ones must stay under the second.
SWEEP_DEPENDENT_MIN = 1e-10
SWEEP_INDEPENDENT_MAX = 1e-12


class CliInputError(Exception):
    """Bad user input (file, columns, flags): reported on stderr, exit 2."""


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def load_csv_columns(path: str, x_columns: list[str], y_columns: list[str]):
    """Strict CSV reader: header required, selected cells numeric, no gaps."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CliInputError(f"{path}: empty file (a header row is required)")
    header, data_rows = rows[0], rows[1:]
    if not data_rows:
        raise CliInputError(f"{path}: no data rows")
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in x_columns + y_columns if c not in index]
    if missing:
        raise CliInputError(
            f"{path}: unknown column(s) {missing}; available: {header}"
        )

    def pull(columns: list[str]) -> np.ndarray:
        out = np.empty((len(data_rows), len(columns)))
        for r, row in enumerate(data_rows):
            for c, name in enumerate(columns):
                col = index[name]
                if col >= len(row):
                    raise CliInputError(f"{path}: row {r + 2} is too short")
                cell = row[col].strip()
                if not cell:
                    raise CliInputError(
                        f"{path}: missing value at row {r + 2}, column {name!r}"
                    )
                try:
                    value = float(cell)
                except ValueError:
                    raise CliInputError(
                        f"{path}: non-numeric value {cell!r} at row {r + 2}, "
                        f"column {name!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CliInputError(
                        f"{path}: non-finite value {cell!r} at row {r + 2}, "
                        f"column {name!r}"
                    )
                out[r, c] = value
        return out

    return pull(x_columns), pull(y_columns)


def _parse_kernel_flag(text: str) -> KernelSpec:
    try:
        return parse_kernel(text)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _columns_flag(text: str) -> list[str]:
    cols = [c.strip() for c in text.split(",") if c.strip()]
    if not cols:
        raise CliInputError("column list is empty")
    return cols


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _base_report(args, started: float) -> dict:
    """The fields every report shares; ``parameters`` echoes every parsed flag."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
    return {
        "command": args.command,
        "version": __version__,
        "parameters": parameters,
        "duration_seconds": time.perf_counter() - started,
    }


def cmd_test(args) -> dict:
    started = time.perf_counter()
    args.x_columns = _columns_flag(args.x_columns)
    args.y_columns = _columns_flag(args.y_columns)
    x, y = load_csv_columns(args.csv, args.x_columns, args.y_columns)
    data = Dataset(x, y)
    if data.n == 2:
        _say("warning: n = 2 gives a vacuous permutation null (only 2 relabelings)")
    kx = _parse_kernel_flag(args.kernel_x)
    ky = _parse_kernel_flag(args.kernel_y)
    cfg = PermutationConfig(args.permutations, args.alpha, args.seed)
    result = permutation_test(data, kx, ky, cfg, threads=args.threads)
    _say(
        f"n={data.n} statistic={result.statistic.value:.6g} "
        f"p={result.p_value:.4g} reject={result.reject}"
    )
    report = _base_report(args, started)
    report.update(
        {
            "n": data.n,
            "resolved_bandwidth_x": _bandwidth_or_none(result.kernel_x),
            "resolved_bandwidth_y": _bandwidth_or_none(result.kernel_y),
            "statistic": result.statistic.value,
            "statistic_raw": result.statistic.raw,
            "p_value": result.p_value,
            "reject": result.reject,
            "null_quantile": result.null_quantile,
            "num_permutations": result.num_permutations,
            "seed": result.seed,
            "rng": result.rng,
        }
    )
    report["duration_seconds"] = time.perf_counter() - started
    return report


def _bandwidth_or_none(spec: KernelSpec):
    return None if spec.family is KernelFamily.LINEAR else spec.bandwidth


def cmd_reproduce_ring(args) -> dict:
    started = time.perf_counter()
    sampler = GeneratorSpec(
        GeneratorKind.RING_UNIFORM, seed=0, radius=args.radius, noise=args.noise
    )
    cfg = PermutationConfig(args.permutations, args.alpha, args.seed)
    configurations = [
        ("non-characteristic on y", "gaussian:median", "linear"),
        ("characteristic on both", "gaussian:median", "gaussian:median"),
    ]
    rows = []
    for label, kx_text, ky_text in configurations:
        result = power_experiment(
            sampler,
            _parse_kernel_flag(kx_text),
            _parse_kernel_flag(ky_text),
            cfg,
            num_trials=args.trials,
            n=args.n,
            threads=args.threads,
        )
        _say(f"{label}: rejection rate {result.rejection_rate:.3f} over {args.trials} trials")
        rows.append(
            {
                "label": label,
                "kernel_x": kx_text,
                "kernel_y": ky_text,
                "rejection_rate": result.rejection_rate,
                "p_values": list(result.p_values),
            }
        )
    report = _base_report(args, started)
    report["configurations"] = rows
    report["duration_seconds"] = time.perf_counter() - started
    return report


def cmd_oracle_sweep(args) -> dict:
    started = time.perf_counter()
    kx = _parse_kernel_flag(args.kernel_x)
    ky = _parse_kernel_flag(args.kernel_y)
    distributions = enumerate_discrete(
        args.mx, args.my, args.resolution, centered_supports=args.centered_supports
    )
    total = 0
    dependent = 0
    min_dependent = None
    max_independent = None
    counterexamples = []
    both_characteristic = kx.claimed_characteristic and ky.claimed_characteristic
    x_support, y_support = integer_supports(args.mx, args.my, args.centered_supports)
    kx_res = _resolve_on_support(kx, x_support)
    ky_res = _resolve_on_support(ky, y_support)
    for dist in distributions:
        value = population_hsic(dist, kx_res, ky_res).value
        total += 1
        if np.abs(theta(dist)).max() >= DEPENDENCE_TOL:
            dependent += 1
            if min_dependent is None or value < min_dependent:
                min_dependent = value
            if not both_characteristic and value < SWEEP_INDEPENDENT_MAX:
                counterexamples.append(
                    {"pmf": dist.pmf.tolist(), "population_hsic": value}
                )
        else:
            if max_independent is None or value > max_independent:
                max_independent = value
    if both_characteristic:
        verdict = (
            min_dependent is not None
            and min_dependent > SWEEP_DEPENDENT_MIN
            and (max_independent is None or max_independent < SWEEP_INDEPENDENT_MAX)
        )
    else:
        verdict = None
    _say(
        f"{total} distributions ({dependent} dependent); "
        + (
            f"PASS={verdict}"
            if verdict is not None
            else f"{len(counterexamples)} counterexample(s) with HSIC < {SWEEP_INDEPENDENT_MAX}"
        )
    )
    report = _base_report(args, started)
    report.update(
        {
            "resolved_bandwidth_x": _bandwidth_or_none(kx_res),
            "resolved_bandwidth_y": _bandwidth_or_none(ky_res),
            "total_distributions": total,
            "dependent_distributions": dependent,
            "independent_distributions": total - dependent,
            "min_hsic_dependent": min_dependent,
            "max_hsic_independent": max_independent,
            "dependent_threshold": SWEEP_DEPENDENT_MIN,
            "independent_threshold": SWEEP_INDEPENDENT_MAX,
            "pass": verdict,
        }
    )
    if not both_characteristic:
        report["counterexamples"] = counterexamples
    report["duration_seconds"] = time.perf_counter() - started
    return report


def _resolve_on_support(spec: KernelSpec, support) -> KernelSpec:
    if spec.is_resolved:
        return spec
    if support.shape[0] < 2:
        raise CliInputError("median bandwidth needs at least 2 support points")
    return resolve_bandwidth(spec, support)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsictest",
        description="Kernel independence tests (HSIC) with permutation calibration",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def calibration(p):
        p.add_argument("--permutations", type=int, default=500,
                       help="Monte Carlo null size B")
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=0)
        threads(p)

    def threads(p):
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads, at most one per CPU (default: machine "
                            "parallelism); results do not depend on it")

    t = sub.add_parser("test", help="independence test on CSV columns")
    t.add_argument("csv")
    t.add_argument("--x-columns", required=True, help="comma-separated column names")
    t.add_argument("--y-columns", required=True, help="comma-separated column names")
    t.add_argument("--kernel-x", default="gaussian:median",
                   help="family[:bandwidth|:median], e.g. gaussian:0.5, laplace:median, linear")
    t.add_argument("--kernel-y", default="gaussian:median")
    calibration(t)
    t.set_defaults(handler=cmd_test)

    r = sub.add_parser("reproduce-ring",
                       help="ring failure mode: Gaussian/Linear vs Gaussian/Gaussian rejection rates")
    r.add_argument("--n", type=int, default=200)
    r.add_argument("--trials", type=int, default=200)
    r.add_argument("--radius", type=float, default=1.0)
    r.add_argument("--noise", type=float, default=0.0)
    calibration(r)
    r.set_defaults(handler=cmd_reproduce_ring)

    o = sub.add_parser("oracle-sweep",
                       help="exact population HSIC over all grid pmfs: zero iff independent")
    o.add_argument("--mx", type=int, default=2)
    o.add_argument("--my", type=int, default=2)
    o.add_argument("--resolution", type=int, default=4)
    o.add_argument("--kernel-x", default="gaussian:1.0")
    o.add_argument("--kernel-y", default="gaussian:1.0")
    o.add_argument("--centered-supports", action="store_true",
                   help="use supports symmetric about 0 (exposes the +/- cancellation pmfs)")
    threads(o)
    o.set_defaults(handler=cmd_oracle_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is None:
        args.threads = os.cpu_count() or 1
    if args.threads < 1:
        _say("error: --threads must be at least 1")
        return 2
    try:
        report = args.handler(args)
    except CliInputError as exc:
        _say(f"error: {exc}")
        return 2
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        _say(f"numerical failure: {exc}")
        return 3
    except ValueError as exc:
        _say(f"error: {exc}")
        return 2
    _emit(report)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
