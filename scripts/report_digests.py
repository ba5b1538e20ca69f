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
* ``reproduce-ring`` at n = 8, 39 (the largest n whose sides are never
  factored) and 45, and at n = 200 with independent N(0, 0.1^2) noise on
  each coordinate (factored sides);
* ``oracle-sweep`` on the 3x3 grid at resolution 4, with median Gaussian
  kernels, and with a linear y kernel on centered supports.

    PYTHONPATH=src python3 scripts/report_digests.py

With ``--reports`` it prints each report itself instead, as one line of
JSON with sorted keys, without the fields the digest leaves out.
:func:`host_facts` names the facts of a host that the last bits of the
reports depend on; ``tests/test_report_digests.py`` pins the digests with
them, and the stage matrix of ``scripts/stage_times.py`` records them.

Uses only the standard library and numpy besides ``hsictest``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys
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


def openblas_core() -> str | None:
    """The core whose kernels numpy's bundled OpenBLAS runs, or None where it does not say."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def host_facts() -> dict:
    """The facts of this host that the reports' last bits depend on.

    numpy's X86_V4 (AVX-512) loops give ``np.exp`` other bits than its AVX2
    ones, and the OpenBLAS kernels move factored statistics in the last
    bits.  A DYNAMIC_ARCH OpenBLAS picks its kernels for the CPU it runs on,
    so the core it picked is given beside the build.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "numpy": np.__version__,
        "numpy X86_V4 dispatch": bool(__cpu_features__.get("X86_V4")),
        "OpenBLAS build": blas.get("openblas configuration"),
        "OpenBLAS core": openblas_core(),
    }


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
    for ring in (["8"], ["39"], ["45"], ["200", "--noise", "0.1"]):
        commands.append([
            "reproduce-ring", "--n", *ring, "--trials", "6",
            "--permutations", "100", "--seed", "3", "--threads", "2",
        ])
    sweep = ["oracle-sweep", "--mx", "3", "--my", "3", "--resolution", "4", "--threads", "2"]
    commands.append(sweep + ["--kernel-x", "gaussian:median", "--kernel-y", "gaussian:median"])
    commands.append(
        sweep + ["--kernel-x", "gaussian:median", "--kernel-y", "linear", "--centered-supports"]
    )
    return commands


def report(argv: list[str]) -> dict:
    """The command's report, without the fields that differ between runs.

    A command that fails raises ``SystemExit`` with its last stderr line.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        reason = (err.getvalue().strip().splitlines() or ["(no stderr)"])[-1]
        raise SystemExit(f"exit {code}: {' '.join(argv)}: {reason}")
    fields = json.loads(out.getvalue())
    fields.pop("duration_seconds")
    fields.pop("version")
    fields["parameters"].pop("csv", None)
    return fields


def digest(argv: list[str]) -> str:
    """The sha256 of :func:`report`, serialized with sorted keys."""
    return hashlib.sha256(json.dumps(report(argv), sort_keys=True).encode()).hexdigest()


def main(argv: list[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for command in corpus(Path(tmp)):
            if argv == ["--reports"]:
                print(json.dumps(report(command), sort_keys=True))
            else:
                shown = [Path(a).name if a.startswith(tmp) else a for a in command]
                print(digest(command), " ".join(shown))


if __name__ == "__main__":
    main(sys.argv[1:])
