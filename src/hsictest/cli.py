"""Command-line front end: CSV independence tests, the ring reproduction, and the oracle sweep.

Thin orchestration over the library modules: all statistics come from
library calls, the CLI only parses inputs and assembles reports.  Each
command's handler returns its own report fields, and :func:`main` wraps them
in the envelope every report shares: ``command``, ``version``, ``parameters``
and ``duration_seconds``, in that order.  One JSON document goes to stdout;
human-readable notes go to stderr.  Exit codes: 0 = ran, 2 = input error,
3 = internal numerical failure.  Bad input raises ``ValueError``, from the
CLI's own checks of files and flags and from the library's checks alike, and
:func:`main` reports each as one ``error: ...`` line with exit 2;
``ArithmeticError`` and ``LinAlgError`` report a numerical failure, exit 3.
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
)
from .hsic import Dataset, theta, theta_product
from .kernels import gram_entries, parse_kernel, resolve_bandwidth
from .testing import PermutationConfig, permutation_test, power_experiment

# Sweep verdict thresholds: dependent pmfs must clear the first, independent
# ones must stay under the second.
SWEEP_DEPENDENT_MIN = 1e-10
SWEEP_INDEPENDENT_MAX = 1e-12


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def load_csv_columns(path: str, x_columns: list[str], y_columns: list[str]):
    """Strict CSV reader: header required, each selected name once in it, cells numeric, no gaps.

    Blank lines, rows with no cells, are skipped wherever they are: they
    hold no values, so no x/y pair can shift.  Messages give the file's own
    row numbers.
    """
    try:
        # utf-8-sig: a leading byte order mark is not part of the first name.
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [(number, row) for number, row in enumerate(csv.reader(fh), 1) if row]
    except (OSError, UnicodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: empty file (a header row is required)")
    (_, header), data_rows = rows[0], rows[1:]
    if not data_rows:
        raise ValueError(f"{path}: no data rows")
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in x_columns + y_columns if c not in index]
    if missing:
        raise ValueError(f"{path}: unknown column(s) {missing}; available: {header}")
    for name in dict.fromkeys(x_columns + y_columns):
        positions = [str(i + 1) for i, cell in enumerate(header) if cell == name]
        if len(positions) > 1:
            raise ValueError(
                f"{path}: column {name!r} appears more than once in the header, "
                f"at positions {', '.join(positions)}"
            )

    def pull(columns: list[str]) -> np.ndarray:
        # Whole columns first: ``float`` ignores the surrounding whitespace
        # that the cell-by-cell pass strips, so the two passes fail on the
        # same cells.  On any failure that pass runs instead and raises,
        # naming the first bad cell.
        out = np.empty((len(data_rows), len(columns)))
        try:
            for c, name in enumerate(columns):
                col = index[name]
                out[:, c] = np.fromiter(
                    (float(row[col]) for _, row in data_rows), float, len(data_rows)
                )
            if np.isfinite(out).all():
                return out
        except (ValueError, IndexError):
            pass
        for number, row in data_rows:
            for name in columns:
                col = index[name]
                if col >= len(row):
                    raise ValueError(f"{path}: row {number} is too short")
                cell = row[col].strip()
                if not cell:
                    raise ValueError(f"{path}: missing value at row {number}, column {name!r}")
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} at row {number}, "
                        f"column {name!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: non-finite value {cell!r} at row {number}, "
                        f"column {name!r}"
                    )

    return pull(x_columns), pull(y_columns)


def _columns_flag(text: str) -> list[str]:
    cols = [c.strip() for c in text.split(",") if c.strip()]
    if not cols or len(set(cols)) < len(cols):
        raise ValueError(f"column list {text!r} is empty or names a column twice")
    return cols


def cmd_test(args) -> dict:
    args.x_columns = _columns_flag(args.x_columns)
    args.y_columns = _columns_flag(args.y_columns)
    x, y = load_csv_columns(args.csv, args.x_columns, args.y_columns)
    data = Dataset(x, y)
    if data.n == 2:
        _say("warning: n = 2 gives a vacuous permutation null (only 2 relabelings)")
    kx = parse_kernel(args.kernel_x)
    ky = parse_kernel(args.kernel_y)
    cfg = PermutationConfig(args.permutations, args.alpha, args.seed)
    result = permutation_test(data, kx, ky, cfg, threads=args.threads)
    _say(
        f"n={data.n} statistic={result.statistic.value:.6g} "
        f"p={result.p_value:.4g} reject={result.reject}"
    )
    return {
        "n": data.n,
        "resolved_bandwidth_x": result.kernel_x.bandwidth,
        "resolved_bandwidth_y": result.kernel_y.bandwidth,
        "statistic": result.statistic.value,
        "statistic_raw": result.statistic.raw,
        "p_value": result.p_value,
        "reject": result.reject,
        "null_quantile": result.null_quantile,
        "num_permutations": result.num_permutations,
        "seed": result.seed,
        "rng": result.rng,
    }


def cmd_reproduce_ring(args) -> dict:
    sampler = GeneratorSpec(
        GeneratorKind.RING_UNIFORM, seed=0, radius=args.radius, noise=args.noise
    )
    cfg = PermutationConfig(args.permutations, args.alpha, args.seed)
    configurations = [
        ("non-characteristic on y", "linear"),
        ("characteristic on both", "gaussian:median"),
    ]
    kx_text = "gaussian:median"
    results = power_experiment(
        sampler,
        parse_kernel(kx_text),
        [parse_kernel(ky_text) for _, ky_text in configurations],
        cfg,
        num_trials=args.trials,
        n=args.n,
        threads=args.threads,
    )
    rows = []
    for (label, ky_text), result in zip(configurations, results):
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
    return {"configurations": rows}


def cmd_oracle_sweep(args) -> dict:
    kx = parse_kernel(args.kernel_x)
    ky = parse_kernel(args.kernel_y)
    distributions = enumerate_discrete(
        args.mx, args.my, args.resolution, centered_supports=args.centered_supports
    )
    total = dependent = 0
    min_dependent = max_independent = None
    counterexamples = []
    both_characteristic = kx.claimed_characteristic and ky.claimed_characteristic
    x_support, y_support = integer_supports(args.mx, args.my, args.centered_supports)
    kx_res = resolve_bandwidth(kx, x_support)
    ky_res = resolve_bandwidth(ky, y_support)
    kx_gram, ky_gram = gram_entries(kx_res, x_support), gram_entries(ky_res, y_support)
    for dist in distributions:
        t = theta(dist)
        value = theta_product(t, kx_gram, ky_gram).value
        total += 1
        if np.abs(t).max() >= DEPENDENCE_TOL:
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
        verdict = (min_dependent is None or min_dependent > SWEEP_DEPENDENT_MIN) and (
            max_independent is None or max_independent < SWEEP_INDEPENDENT_MAX
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
    report = {
        "resolved_bandwidth_x": kx_res.bandwidth,
        "resolved_bandwidth_y": ky_res.bandwidth,
        "total_distributions": total,
        "dependent_distributions": dependent,
        "independent_distributions": total - dependent,
        "min_hsic_dependent": min_dependent,
        "max_hsic_independent": max_independent,
        "dependent_threshold": SWEEP_DEPENDENT_MIN,
        "independent_threshold": SWEEP_INDEPENDENT_MAX,
        "pass": verdict,
    }
    if not both_characteristic:
        report["counterexamples"] = counterexamples
    return report


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

    def threads(p, text="worker threads, at most one per CPU (default: machine "
                        "parallelism); results do not depend on it"):
        p.add_argument("--threads", type=int, default=None, help=text)

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
    threads(o, "accepted and echoed in the report, but unused: the sweep runs on "
               "the calling thread")
    o.set_defaults(handler=cmd_oracle_sweep)
    return parser


def main(argv=None) -> int:
    """Run one command; print its fields in the shared envelope and return the exit code.

    ``parameters`` echoes every parsed flag, as the handler left it.
    """
    args = build_parser().parse_args(argv)
    if args.threads is None:
        args.threads = os.cpu_count() or 1
    if args.threads < 1:
        _say("error: --threads must be at least 1")
        return 2
    started = time.perf_counter()
    try:
        fields = args.handler(args)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        _say(f"numerical failure: {exc}")
        return 3
    except ValueError as exc:
        _say(f"error: {exc}")
        return 2
    report = {
        "command": args.command,
        "version": __version__,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("command", "handler")},
        "duration_seconds": time.perf_counter() - started,
        **fields,
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
