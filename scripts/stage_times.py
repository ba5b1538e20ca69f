#!/usr/bin/env python3
"""Stage split of one ``hsictest test`` on a ring CSV, printed as one JSON line.

Each stage of a permutation test is timed on its own, in process, and the
median over ``--repeats`` runs is reported:

* ``sides``: ``testing._null_function``, which builds both sides as a test
  does and factors them; a side that does not factor sends the test to the
  dense path, which then builds both Grams;
* ``null``: the B null statistics, chunked over the pool of ``--threads``,
  each chunk drawing its own permutations block by block as a test does;
* ``p_value``: the p-value and the null quantile.

``split_s`` splits ``sides`` per side, as a test builds a side as a
centered factor: ``median_x`` (the median bandwidth) and ``factoring_x``
(``hsic.gram_free_side(spec, points)`` with the bandwidth resolved, under
the rank cap it sets itself: the kernel matrix factored, by a pivoted
Cholesky whose pivot columns are rows of it or by the data of a linear
kernel, and the factor centered; for a side that does not factor, the cost
of finding that out), and the same for y.  ``draw`` splits ``null``: the B
permutations drawn alone, in the blocks the factored null draws.  The
splits are left out of ``stage_sum_s``.  No stage holds an n x n array
unless the test takes the dense path, or n <= 362, where the median
bandwidth partitions the full distance matrix.

``total_s`` is the median wall time of the whole ``test`` command through
``hsictest.cli.main``, so it is not the sum of the stages: the command also
parses the CSV, copies the data and writes its report.  ``peak_rss_mb`` is
the peak resident memory of one more ``test`` command, run alone in a child
process.

    PYTHONPATH=src python3 scripts/stage_times.py --n 1000 --permutations 500 --threads 2
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics as stats
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

import hsictest
from hsictest import GeneratorKind, GeneratorSpec, cli, p_value_from_null, parse_kernel, sample
from hsictest.hsic import gram_free_side
from hsictest.kernels import as_points, resolve_bandwidth
from hsictest.testing import (
    _FACTOR_DRAW_BLOCK_WORDS,
    TAKE_MIN_N,
    _draw_rows,
    _null_function,
    _pool_size,
    _Rows,
    _run_chunks,
)

KERNEL_X = "gaussian:median"
NULL_PATHS = {"_factored_statistics": "factored", "_dense_statistics": "dense"}


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


def draw_alone(seed: int, b: int, n: int) -> None:
    """The B permutations, drawn block by block and dropped."""
    block = np.empty((min(b, max(1, _FACTOR_DRAW_BLOCK_WORDS // n)), n), dtype=np.intp)
    for _ in _draw_rows(seed, n, 0, b, block):
        pass


def side_split(spec, points, name: str) -> dict:
    """The stages of one side built as a test builds it, as a centered factor."""
    pts = as_points(points)
    spec, median = timed(lambda: resolve_bandwidth(spec, pts))
    _, factoring = timed(lambda: gram_free_side(spec, pts))
    return {f"median_{name}": median, f"factoring_{name}": factoring}


def one_split(data, kx, ky, args, pool, workers) -> dict:
    n, b = data.n, args.permutations
    split = {**side_split(kx, data.x_points, "x"), **side_split(ky, data.y_points, "y")}
    _, split["draw"] = timed(lambda: draw_alone(args.seed, b, n))
    (*_, nulls), sides = timed(lambda: _null_function(data, kx, [ky], workers, 8 * b))
    observed = _run_chunks(nulls, np.arange(n, dtype=np.intp)[None, :])[0, 0]
    perms = _Rows(b, n, partial(_draw_rows, args.seed, n))
    chunks = workers if n >= TAKE_MIN_N else 1  # below it the null runs on the calling thread
    null, null_s = timed(lambda: _run_chunks(nulls, perms, pool, chunks)[0])
    _, p_value = timed(lambda: (p_value_from_null(observed, null), np.quantile(null, 0.95)))
    return {
        "stages": {"sides": sides, "null": null_s, "p_value": p_value},
        "split": split,
        "null_path": NULL_PATHS[nulls[0].statistics.func.__name__],
    }


def command_argv(csv_path: str, args) -> list[str]:
    return [
        "test", csv_path, "--x-columns", "x", "--y-columns", "y",
        "--kernel-x", KERNEL_X, "--kernel-y", args.kernel_y,
        "--permutations", str(args.permutations), "--seed", str(args.seed),
        "--threads", str(args.threads),
    ]


def command_time(csv_path: str, args) -> float:
    argv = command_argv(csv_path, args)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code, seconds = timed(lambda: cli.main(argv))
    if code != 0:
        raise SystemExit(f"exit {code}: {' '.join(argv)}")
    return seconds


def child_peak_rss_mb(csv_path: str, args) -> float:
    """Peak RSS in MB (2^20 bytes) of one ``test`` command in a child process.

    Must run before any other child, since ``RUSAGE_CHILDREN`` reports the
    largest peak of all the children waited for.
    """
    paths = [str(Path(hsictest.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    subprocess.run(
        [sys.executable, "-m", "hsictest", *command_argv(csv_path, args)],
        check=True, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KB on Linux


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
        peak_rss_mb = child_peak_rss_mb(csv_path, args)
        splits, totals = [], []
        for _ in range(args.repeats + 1):  # the first round warms up and is dropped
            splits.append(one_split(data, kx, ky, args, pool, workers))
            totals.append(command_time(csv_path, args))
    splits, totals = splits[1:], totals[1:]

    def medians(part):
        keys = splits[0][part]
        return {key: round(stats.median(s[part][key] for s in splits), 5) for key in keys}

    stages = medians("stages")
    print(json.dumps({
        "n": args.n, "permutations": args.permutations, "threads": args.threads,
        "kernel_x": KERNEL_X, "kernel_y": args.kernel_y, "seed": args.seed,
        "repeats": args.repeats, "cpus": os.cpu_count(), "numpy": np.__version__,
        "null_path": splits[0]["null_path"],
        "stages_s": stages,
        "split_s": medians("split"),
        "stage_sum_s": round(sum(stages.values()), 5),
        "total_s": round(stats.median(totals), 5),
        "peak_rss_mb": round(peak_rss_mb, 1),
    }))


if __name__ == "__main__":
    main()
