#!/usr/bin/env python3
"""One sha256 per CLI report over a fixed corpus, to show a change keeps reports bitwise.

Runs every command in-process through ``hsictest.cli.main`` and prints one
line per command: the digest of its JSON report serialized with sorted keys,
then the command.  The digest leaves out ``duration_seconds`` and ``version``,
which differ between any two runs or releases, and ``parameters.csv``, the
temporary path of the input file.  Two trees whose outputs match produce the
same numbers on every command of the corpus:

* ``test`` on seeded ring CSVs at n = 8, 39, 40, 200 and 1000, with a
  ``gaussian:median`` x kernel against ``gaussian:median``, ``linear`` and
  ``laplace:median`` y kernels;
* ``reproduce-ring`` at n = 8 and 45;
* ``oracle-sweep`` on the 3x3 grid at resolution 4, with median Gaussian
  kernels, and with a linear y kernel on centered supports.

    PYTHONPATH=src python3 scripts/report_digests.py

Uses only the standard library and numpy besides ``hsictest``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from hsictest import cli

TEST_SIZES = (8, 39, 40, 200, 1000)
Y_KERNELS = ("gaussian:median", "linear", "laplace:median")


def write_ring_csv(path: Path, n: int, seed: int) -> str:
    """n points uniform on the unit circle, drawn from numpy's default generator."""
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=n)
    rows = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(np.cos(angles), np.sin(angles)))
    path.write_text("x,y\n" + rows, encoding="utf-8")
    return str(path)


def corpus(workdir: Path) -> list[list[str]]:
    commands = []
    for n in TEST_SIZES:
        csv_path = write_ring_csv(workdir / f"ring_{n}.csv", n, seed=n)
        for ky in Y_KERNELS:
            commands.append([
                "test", csv_path, "--x-columns", "x", "--y-columns", "y",
                "--kernel-x", "gaussian:median", "--kernel-y", ky,
                "--permutations", "200", "--seed", "7", "--threads", "2",
            ])
    for n in (8, 45):
        commands.append([
            "reproduce-ring", "--n", str(n), "--trials", "6",
            "--permutations", "100", "--seed", "3", "--threads", "2",
        ])
    sweep = ["oracle-sweep", "--mx", "3", "--my", "3", "--resolution", "4", "--threads", "2"]
    commands.append(sweep + ["--kernel-x", "gaussian:median", "--kernel-y", "gaussian:median"])
    commands.append(
        sweep + ["--kernel-x", "gaussian:median", "--kernel-y", "linear", "--centered-supports"]
    )
    return commands


def digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"exit {code}: {' '.join(argv)}")
    report = json.loads(out.getvalue())
    report.pop("duration_seconds")
    report.pop("version")
    report["parameters"].pop("csv", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in corpus(Path(tmp)):
            shown = [Path(a).name if a.startswith(tmp) else a for a in argv]
            print(digest(argv), " ".join(shown))


if __name__ == "__main__":
    main()
