#!/usr/bin/env python3
"""Stage split of one ``hsictest test`` on a ring CSV, or of one power command, printed as one JSON line.

Each repeat runs one ``test`` command through ``hsictest.cli.main``, with
timers patched in, for that call only, around the test's own stage calls:

* ``sides``: ``testing._null_function``, which builds both sides and the
  nulls their ranks choose; a side that does not factor sends the test to
  the dense path, which then builds both Grams;
* ``null``: ``testing._run_chunks``, the B null statistics, each chunk of
  the pool drawing its own permutations (the observed statistic, the
  null's value at the identity permutation, is computed with the sides);
* ``p_value``: ``testing._results``, the p-value and the null quantile;
* ``read``: ``cli.load_csv_columns``, the CSV read.

``split_s`` splits ``sides`` per side, x first: ``median_x`` is the time in
``kernels.median_heuristic``, and ``factoring_x`` the time in
``testing.gram_free_side`` less the median inside it: the kernel matrix
factored and the factor centered or, for a side that does not factor, the
cost of finding that out.  It is 0 where the test does not try to factor,
as at small n.  ``draw`` splits ``null``: the test's own permutation stream
drawn again, alone and on one thread, by ``testing._run_chunks`` in the
chunks and blocks the null drew it in, with no statistics.  The splits are
left out of ``stage_sum_s``.

``total_s`` is the wall time of the same command, so it holds the stages and
also the argument parsing, the data copy and the report.  Of the ``--repeats``
runs (after one warm-up), the one whose ``total_s`` is the median (the lower
middle one for an even count) is reported, so ``stage_sum_s <= total_s``.
``peak_rss_mb`` is the peak resident memory of one more ``test`` command,
run alone in a child process of a small helper process.

    PYTHONPATH=src python3 scripts/stage_times.py --n 1000 --permutations 500 --threads 2

With ``--trials T`` it times ``reproduce-ring --n N --trials T`` instead
(:func:`one_power_run`): the trials' ``sample``, the ``sides``, each trial's
``null`` and ``p_value``, with ``null`` split into ``draw`` and
``null_statistics``:

    PYTHONPATH=src python3 scripts/stage_times.py --n 8 --trials 40 --permutations 2500

With ``--matrix PATH`` it writes the stage matrix to PATH instead, as one
JSON document: ``host``, the facts of this host that the report digests
depend on (``report_digests.host_facts``) with ``nproc`` and
``OPENBLAS_NUM_THREADS``, and ``cells``, one record as above per cell of
``MATRIX`` at each of ``--threads`` 1 and 2, with the other flags as given,
its power cell's ``--permutations`` its own.
Its d = 3 cells hold dependent normal points (:func:`write_normal_csv`) in
place of the ring:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/stage_times.py \
        --permutations 200 --repeats 3 --matrix BENCH_0.24.0.json
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

import hsictest
import report_digests  # scripts/ is sys.path[0] when this runs as a script
from hsictest import GeneratorKind, GeneratorSpec, cli, kernels, sample, testing

KERNEL_X = "gaussian:median"
NULL_PATHS = {"_factored_statistics": "factored", "_dense_statistics": "dense"}

class Power(NamedTuple):
    """A power cell of the matrix: ``reproduce-ring`` with these flags, in place of a ``test``."""

    n: int
    trials: int
    permutations: int


# The cells of the stage matrix, as (dim, n, kernel y): the ring (dim 1),
# factored under a Gaussian or linear y and dense under a Laplace y, and the
# dependent normal points of write_normal_csv, dense under Gaussians.  The
# last is a power cell: a small-n ``reproduce-ring``, whose time is each
# trial's fixed cost and a trivial dense null.
MATRIX = (
    (1, 1000, "gaussian:median"),
    (1, 20_000, "gaussian:median"),
    (1, 100_000, "gaussian:median"),
    (1, 1000, "linear"),
    (1, 1000, "laplace:median"),
    (1, 2000, "laplace:median"),
    (3, 1000, "gaussian:median"),
    (3, 2000, "gaussian:median"),
    Power(8, 40, 2500),
)


def columns(side: str, dim: int) -> list[str]:
    return [f"{side}{j}" for j in range(1, dim + 1)]


def write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> str:
    """Paired points as a CSV, with columns x1, x2, ... then y1, y2, ...; returns its path."""
    header = columns("x", x.shape[1]) + columns("y", y.shape[1])
    rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.hstack((x, y)))
    path.write_text(",".join(header) + "\n" + rows, encoding="utf-8")
    return str(path)


def write_ring_csv(path: Path, n: int, seed: int) -> str:
    """n ring points from the package sampler, as a CSV; returns its path."""
    data = sample(GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=seed), n)
    return write_csv(path, data.x_points, data.y_points)


def write_normal_csv(path: Path, n: int, seed: int, dim: int) -> str:
    """n dependent points of ``dim`` coordinates a side, as a CSV; returns its path.

    x and y are standard normal, except y1 = x1^2 + 0.5 * noise.
    """
    x, y = np.random.default_rng(seed).standard_normal((2, n, dim))
    y[:, 0] = x[:, 0] ** 2 + 0.5 * y[:, 0]
    return write_csv(path, x, y)


def command_argv(csv_path: str, args) -> list[str]:
    return [
        "test", csv_path,
        "--x-columns", ",".join(columns("x", args.dim)),
        "--y-columns", ",".join(columns("y", args.dim)),
        "--kernel-x", KERNEL_X, "--kernel-y", args.kernel_y,
        "--permutations", str(args.permutations), "--seed", str(args.seed),
        "--threads", str(args.threads),
    ]


def draw_alone(nulls, perms, workers: int) -> None:
    """The rows of ``perms`` drawn by ``_run_chunks`` in the null's chunks and blocks, on one thread.

    ``testing._map`` is patched for this call to run every chunk inline, on
    the calling thread, as it runs a lone chunk.
    """
    idle = [null._replace(statistics=lambda rows, out, work: None, floats=lambda size: 0) for null in nulls]
    run = testing._map
    testing._map = lambda fn, tasks, workers: run(fn, tasks, 1)
    try:
        testing._run_chunks(idle, perms, workers)
    finally:
        testing._map = run


def run_patched(argv: list[str], stages) -> tuple[dict, dict, float]:
    """``(spans, calls, total)`` of one command through ``cli.main``, timed at ``stages``.

    ``stages`` holds ``(module, function, stage, less)``: each call of the
    function adds its seconds to ``spans[stage]``, less those of stage
    ``less`` inside it, and its arguments to ``calls[stage]``.
    """
    spans, calls = defaultdict(list), defaultdict(list)  # per stage: seconds and arguments of each call

    def timer(name, fn, less=None):
        """``fn``, its calls' seconds added to ``spans[name]``, less those of ``less`` inside them."""
        def timed(*a, **kw):
            calls[name].append((a, kw))
            inner, start = sum(spans[less]), time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                spans[name].append(time.perf_counter() - start - (sum(spans[less]) - inner))
        return timed

    patches = [
        (module, name, timer(stage, getattr(module, name), less))
        for module, name, stage, less in stages
    ]
    # Patched by hand: importing unittest.mock grew this process past a small
    # test's own peak, which then floored peak_rss_mb (see child_peak_rss_mb).
    with contextlib.ExitStack() as stack:
        for module, name, new in patches:
            stack.callback(setattr, module, name, getattr(module, name))
            setattr(module, name, new)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        start = time.perf_counter()
        code = cli.main(argv)
        total = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"exit {code}: {' '.join(argv)}")
    return spans, calls, total


def redraw(null_calls) -> tuple[float, list]:
    """Seconds to draw again, alone (:func:`draw_alone`), the rows of each recorded ``_run_chunks`` call.

    Also returns the nulls of each call.
    """
    seconds, nulls = 0.0, []
    for a, kw in null_calls:
        null = inspect.signature(testing._run_chunks).bind(*a, **kw)
        null.apply_defaults()
        nulls.append(null.arguments["nulls"])
        start = time.perf_counter()
        draw_alone(nulls[-1], null.arguments["perms"], null.arguments["workers"])
        seconds += time.perf_counter() - start
    return seconds, nulls


def one_run(csv_path: str, args) -> dict:
    """One ``test`` command through ``cli.main``, split into its stages."""
    spans, calls, total = run_patched(command_argv(csv_path, args), [
        (testing, "_null_function", "sides", None),
        (testing, "_run_chunks", "null", None),
        (testing, "_results", "p_value", None),
        (cli, "load_csv_columns", "read", None),
        (kernels, "median_heuristic", "median", None),
        (testing, "gram_free_side", "factoring", "median"),
    ])
    draw, [nulls] = redraw(calls["null"])  # the null's one run
    side = {name: dict(zip("xy", spans[name])) for name in ("median", "factoring")}
    return {
        "stages": {name: sum(spans[name]) for name in ("sides", "null", "p_value", "read")},
        "split": {**{f"{n}_{s}": side[n].get(s, 0.0) for s in "xy" for n in side}, "draw": draw},
        "null_path": NULL_PATHS[nulls[0].statistics.func.__name__],
        "total": total,
    }


def one_power_run(args) -> dict:
    """One ``reproduce-ring`` command through ``cli.main``, split into its stages.

    ``sample`` is the trials' samples, ``sides`` the ``hsic.centered_side``
    calls that build every side (per trial, or per stack of trials), ``null``
    each trial's ``testing._run_chunks`` and ``p_value`` its
    ``testing.p_value_from_null`` calls.  ``draw`` splits ``null`` as for
    ``test``, summed over the trials, and ``null_statistics`` is the rest.
    """
    spans, calls, total = run_patched(power_argv(args), [
        (testing, "sample", "sample", None),
        (testing, "centered_side", "sides", None),
        (testing, "_run_chunks", "null", None),
        (testing, "p_value_from_null", "p_value", None),
    ])
    draw, nulls = redraw(calls["null"])
    stages = {name: sum(spans[name]) for name in ("sample", "sides", "null", "p_value")}
    return {
        "stages": stages,
        "split": {"draw": draw, "null_statistics": stages["null"] - draw},
        "null_path": NULL_PATHS[nulls[0][0].statistics.func.__name__],  # the first trial's
        "total": total,
    }


def power_argv(args) -> list[str]:
    return [
        "reproduce-ring", "--n", str(args.n), "--trials", str(args.trials),
        "--permutations", str(args.permutations), "--seed", str(args.seed),
        "--threads", str(args.threads),
    ]


# Runs argv[1:] and prints its peak RSS in KB, read by wait4 from the
# child's own rusage.  Linux counts a parent's RSS at the spawn as its
# child's, so the reading is at least this small helper's RSS, never that
# of the process running this script.
_PEAK_HELPER = """\
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def child_peak_rss_mb(csv_path: str | None, args) -> float:
    """Peak RSS in MB (2^20 bytes) of one ``test`` command, or power command, in a child process.

    The child is spawned by a stdlib-only helper process, which reads the
    child's peak by ``os.wait4``, so the reading does not depend on this
    process's own memory.
    """
    paths = [str(Path(hsictest.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    command = power_argv(args) if csv_path is None else command_argv(csv_path, args)
    argv = [sys.executable, "-m", "hsictest", *command]
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_HELPER, *argv],
        check=True, env=env, stdout=subprocess.PIPE, text=True,
    )
    return int(done.stdout) / 1024  # KB on Linux


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--permutations", type=int, default=500)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--kernel-y", default="gaussian:median")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--trials", type=int, default=None,
                    help="time `reproduce-ring --n N --trials T` in place of `test`")
    ap.add_argument("--matrix", metavar="PATH", help="write the stage matrix to PATH")
    ap.set_defaults(dim=1)  # coordinates a side, set by the matrix's cells: 1 is the ring
    return ap.parse_args(argv)


def measure(args) -> dict:
    """The record of one cell: the median repeat's stages, and the peak of one more command."""
    if args.trials is not None:
        peak_rss_mb = child_peak_rss_mb(None, args)
        runs = [one_power_run(args) for _ in range(args.repeats + 1)][1:]  # drop the warm-up
        return record(args, runs, peak_rss_mb, command="reproduce-ring", trials=args.trials)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "points.csv"
        if args.dim == 1:
            csv_path = write_ring_csv(path, args.n, args.seed)
        else:
            csv_path = write_normal_csv(path, args.n, args.seed, args.dim)
        peak_rss_mb = child_peak_rss_mb(csv_path, args)
        runs = [one_run(csv_path, args) for _ in range(args.repeats + 1)][1:]  # drop the warm-up
    return record(args, runs, peak_rss_mb, dim=args.dim, kernel_x=KERNEL_X, kernel_y=args.kernel_y)


def record(args, runs: list[dict], peak_rss_mb: float, **cell) -> dict:
    """A cell's record: its flags, and the stages of the run whose total is the median."""
    run = sorted(runs, key=lambda r: r["total"])[(len(runs) - 1) // 2]
    return {
        "n": args.n, **cell, "permutations": args.permutations, "threads": args.threads,
        "seed": args.seed,
        "repeats": args.repeats, "cpus": os.cpu_count(), "numpy": np.__version__,
        "null_path": run["null_path"],
        "stages_s": {key: round(s, 5) for key, s in run["stages"].items()},
        "split_s": {key: round(s, 5) for key, s in run["split"].items()},
        "stage_sum_s": round(sum(run["stages"].values()), 5),
        "total_s": round(run["total"], 5),
        "peak_rss_mb": round(peak_rss_mb, 1),
    }


def host_facts() -> dict:
    """``report_digests.host_facts()``, with ``nproc`` and ``OPENBLAS_NUM_THREADS``."""
    return {
        **report_digests.host_facts(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.matrix is None:
        print(json.dumps(measure(args)))
        return
    cells = [
        measure(argparse.Namespace(**{
            **vars(args), "threads": t,
            **(cell._asdict() if isinstance(cell, Power) else dict(zip(("dim", "n", "kernel_y"), cell))),
        }))
        for cell in MATRIX
        for t in (1, 2)
    ]
    text = json.dumps({"host": host_facts(), "cells": cells}, indent=1)
    Path(args.matrix).write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
