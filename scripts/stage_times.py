#!/usr/bin/env python3
"""Stage split of one ``hsictest test`` on a ring CSV, printed as one JSON line.

Each stage of a permutation test is timed on its own, in process, and the
median over ``--repeats`` runs is reported:

* ``side_x`` and ``side_y``: ``hsic.centered_side`` (median bandwidth, Gram,
  centering and scale) of each side;
* ``draw``: the B permutations;
* ``factoring``: the choice of null path, with its pivoted Cholesky factors
  when both Grams are low rank;
* ``null``: the B null statistics, chunked over a pool of ``--threads``;
* ``p_value``: the p-value and the null quantile.

``total`` is the median wall time of the whole ``test`` command through
``hsictest.cli.main``, so it is not the sum of the stages: the command also
parses the CSV, copies the data and writes its report, and with
``--threads`` above 1 its pool prepares the two sides and draws the
permutations concurrently.

    PYTHONPATH=src python3 scripts/stage_times.py --n 1000 --permutations 500 --threads 2
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics as stats
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from hsictest import GeneratorKind, GeneratorSpec, cli, p_value_from_null, parse_kernel, sample
from hsictest.hsic import centered_side
from hsictest.testing import TAKE_MIN_N, _draw_permutations, _null_function, _pool_size

KERNEL_X = "gaussian:median"
NULL_PATHS = {"_factored_statistics": "factored", "_permuted_statistics": "dense"}


def write_ring_csv(path: Path, n: int, seed: int):
    """n ring points from the package sampler; returns them and the CSV path."""
    data = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=seed), n)
    pairs = zip(data.x_points[:, 0], data.y_points[:, 0])
    rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in pairs)
    path.write_text("x,y\n" + rows, encoding="utf-8")
    return data, str(path)


def timed(fn):
    """``fn()`` and its wall time in seconds."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def one_split(data, kx, ky, args, pool, workers) -> dict:
    n, b = data.n, args.permutations
    (_, kc, kc_max), side_x = timed(lambda: centered_side(kx, data.x_points))
    (_, lc, lc_max), side_y = timed(lambda: centered_side(ky, data.y_points))
    perms, draw = timed(lambda: _draw_permutations(args.seed, b, n))
    statistics, factoring = timed(lambda: _null_function(kc, lc, kc_max, lc_max))
    observed = statistics(np.arange(n, dtype=np.intp)[None, :])[0]
    null, null_s = timed(lambda: statistics(perms, pool, workers))
    _, p_value = timed(lambda: (p_value_from_null(observed, null), np.quantile(null, 0.95)))
    return {
        "side_x": side_x, "side_y": side_y, "draw": draw, "factoring": factoring,
        "null": null_s, "p_value": p_value,
        "null_path": NULL_PATHS[statistics.func.__name__] if n >= TAKE_MIN_N else "batched",
    }


def command_time(csv_path: str, args) -> float:
    argv = [
        "test", csv_path, "--x-columns", "x", "--y-columns", "y",
        "--kernel-x", KERNEL_X, "--kernel-y", args.kernel_y,
        "--permutations", str(args.permutations), "--seed", str(args.seed),
        "--threads", str(args.threads),
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code, seconds = timed(lambda: cli.main(argv))
    if code != 0:
        raise SystemExit(f"exit {code}: {' '.join(argv)}")
    return seconds


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--permutations", type=int, default=500)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--kernel-y", default="gaussian:median")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    kx, ky = parse_kernel(KERNEL_X), parse_kernel(args.kernel_y)
    workers = _pool_size(args.threads, args.permutations)
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(max_workers=workers) as pool:
        data, csv_path = write_ring_csv(Path(tmp) / "ring.csv", args.n, args.seed)
        splits, totals = [], []
        for _ in range(args.repeats + 1):  # the first round warms up and is dropped
            splits.append(one_split(data, kx, ky, args, pool, workers))
            totals.append(command_time(csv_path, args))
    splits, totals = splits[1:], totals[1:]
    stages = {key: stats.median(s[key] for s in splits) for key in splits[0] if key != "null_path"}
    print(json.dumps({
        "n": args.n, "permutations": args.permutations, "threads": args.threads,
        "kernel_x": KERNEL_X, "kernel_y": args.kernel_y, "seed": args.seed,
        "repeats": args.repeats, "cpus": os.cpu_count(), "numpy": np.__version__,
        "null_path": splits[0]["null_path"],
        "stages_s": {key: round(value, 5) for key, value in stages.items()},
        "stage_sum_s": round(sum(stages.values()), 5),
        "total_s": round(stats.median(totals), 5),
    }))


if __name__ == "__main__":
    main()
