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

A ``test`` CSV is read by :func:`load_csv_columns`: its data rows by one
``np.loadtxt`` pass over the selected columns, and a file that pass cannot
read by a strict cell-by-cell pass that keeps the values and names the first
bad cell.  The argument parser is built once per process (:func:`build_parser`).
"""

from __future__ import annotations

import argparse
import csv
import functools
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
from .kernels import gram_entries, parse_kernel, resolve_bandwidth, zero_sum_probe
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

    The header is read by the ``csv`` module and the data rows by one
    ``np.loadtxt`` pass over the selected columns: numpy's C reader, which
    converts each cell as ``float`` does and holds no Python object per
    row.  Its array is kept when it parsed and every value is finite.  On
    any other outcome, and for data rows holding a quote character, the
    strict pass reads the file again with the ``csv`` module, cell by cell:
    it returns the same values where it accepts the file and names the first
    bad cell where it does not, so neither values nor messages depend on
    which pass read the file.  A record the ``csv`` module refuses, such as
    one with a cell over its field size limit, is refused naming its row, in
    the header and in the strict pass alike.  The two sides are views of one
    array.
    """
    try:
        values = _loadtxt_columns(path, x_columns + y_columns)
    except (OSError, ValueError):
        values = _strict_columns(path, x_columns, y_columns)
    return values[:, : len(x_columns)], values[:, len(x_columns) :]


def _loadtxt_columns(path: str, columns: list[str]) -> np.ndarray:
    """The selected columns from one ``np.loadtxt`` read; ``OSError`` or ``ValueError`` where it fails."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next((row for _, row in _csv_rows(path, fh)), [])
        values = np.loadtxt(
            _data_lines(fh), delimiter=",", usecols=_positions(path, header, columns),
            comments=None, ndmin=2,
        )
    if not np.isfinite(values).all():
        raise ValueError("a non-finite value")
    return values


def _data_lines(lines):
    """``lines`` as they come; raises ``ValueError`` where ``np.loadtxt`` would misread them.

    A quoted cell may hold a comma or a line end, which loadtxt, reading
    without quotes, would split.  Input that is all blank lines raises at
    its end, before loadtxt warns that it holds no data.
    """
    blank = True
    for line in lines:
        if '"' in line:
            raise ValueError("a quoted cell")
        blank = blank and not line.strip("\r\n")
        yield line
    if blank:
        raise ValueError("no data rows")


def _csv_rows(path: str, lines):
    """``(number, row)`` for each record of ``lines`` that holds cells, numbered from 1 in the file.

    A record the ``csv`` module refuses, such as one with a cell over its
    field size limit, raises ``ValueError`` naming the file and its row.
    """
    number = 0
    try:
        for number, row in enumerate(csv.reader(lines), 1):
            if row:
                yield number, row
    except csv.Error as exc:
        raise ValueError(f"{path}: row {number + 1}: {exc}") from None


def _strict_columns(path: str, x_columns: list[str], y_columns: list[str]) -> np.ndarray:
    """The selected columns read cell by cell, x then y; raises naming the first bad cell."""
    try:
        # utf-8-sig: a leading byte order mark is not part of the first name.
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(_csv_rows(path, fh))
    except (OSError, UnicodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: empty file (a header row is required)")
    (_, header), data_rows = rows[0], rows[1:]
    if not data_rows:
        raise ValueError(f"{path}: no data rows")
    columns = x_columns + y_columns
    positions = _positions(path, header, columns)
    out = np.empty((len(data_rows), len(columns)))
    # Every x cell is checked before any y cell, each side in row order.
    for side in (range(len(x_columns)), range(len(x_columns), len(columns))):
        for r, (number, row) in enumerate(data_rows):
            for c in side:
                name, col = columns[c], positions[c]
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
                out[r, c] = value
    return out


def _positions(path: str, header: list[str], columns: list[str]) -> list[int]:
    """Where each selected name sits in ``header``, which must hold it exactly once."""
    index = {name: i for i, name in enumerate(header)}
    missing = [c for c in columns if c not in index]
    if missing:
        raise ValueError(f"{path}: unknown column(s) {missing}; available: {header}")
    for name in dict.fromkeys(columns):
        positions = [str(i + 1) for i, cell in enumerate(header) if cell == name]
        if len(positions) > 1:
            raise ValueError(
                f"{path}: column {name!r} appears more than once in the header, "
                f"at positions {', '.join(positions)}"
            )
    return [index[c] for c in columns]


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
    min_dependent = max_independent = min_theta = None
    counterexamples = []
    x_support, y_support = integer_supports(args.mx, args.my, args.centered_supports)
    kx_res = resolve_bandwidth(kx, x_support)
    ky_res = resolve_bandwidth(ky, y_support)
    kx_gram, ky_gram = gram_entries(kx_res, x_support), gram_entries(ky_res, y_support)
    # The verdict is the paper's: both marginal kernels characteristic on their supports.
    (lam_x, witness_x), (lam_y, witness_y) = zero_sum_probe(kx_gram), zero_sum_probe(ky_gram)
    both_characteristic = witness_x is None and witness_y is None
    for dist in distributions:
        t = theta(dist)
        value = theta_product(t, kx_gram, ky_gram).value
        total += 1
        if np.abs(t).max() >= DEPENDENCE_TOL:
            dependent += 1
            if min_dependent is None or value < min_dependent:
                min_dependent, min_theta = value, t
            if not both_characteristic and value < SWEEP_INDEPENDENT_MAX:
                counterexamples.append(
                    {"pmf": dist.pmf.tolist(), "population_hsic": value}
                )
        else:
            if max_independent is None or value > max_independent:
                max_independent = value
    verdict = None
    if both_characteristic:
        independent_ok = max_independent is None or max_independent < SWEEP_INDEPENDENT_MAX
        dependent_ok = min_dependent is None or min_dependent > SWEEP_DEPENDENT_MIN
        verdict = independent_ok and dependent_ok
        if independent_ok and not dependent_ok:
            # The paper's bound for that pmf is HSIC >= lam_x lam_y ||theta||_F^2.  Where
            # it too is under the threshold, floats cannot tell the HSIC from 0.
            bound = lam_x * lam_y * float(np.sum(min_theta**2))
            if bound <= SWEEP_DEPENDENT_MIN:
                verdict = None
                _say(
                    f"no verdict: the smallest dependent HSIC, {min_dependent:.3g}, and its "
                    f"lower bound lam_x lam_y ||theta||_F^2 = {bound:.3g} are both at most "
                    f"{SWEEP_DEPENDENT_MIN}, so floats cannot decide it"
                )
    _say(
        f"{total} distributions ({dependent} dependent); "
        + (
            f"PASS={verdict}"
            if both_characteristic
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every :func:`main` call.

    Each subcommand's ``handler`` default is bound when the parser is first
    built, so a command handler patched after that is not the one
    :func:`main` calls.  The handlers look up the library functions they
    call, such as ``permutation_test``, when they run.
    """
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
