"""hsictest benchmark: run one workload through the real CLI, check its outputs, print its metrics.

    python3 bench/run.py --workload csv_test_n1000 --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/``.  The workload runs in its own process (bench/worker.py), which calls
``hsictest.cli.main(argv)`` in-process.  This process makes the set-up probes,
computes the numpy references, checks every report and prints:

* one JSON line of details: machine facts, samples, counts and check failures;
* a table of every metric with its unit;
* as the last line, ``{"correct", "attempted", "failed", "metrics"}``, where
  ``metrics`` holds the end-to-end metrics of BENCHMARK.json with ``--trace 0``
  and its per-layer metrics with ``--trace 1``.

End-to-end metrics come from untraced runs only.  Set-up is timed in fresh
processes (``SETUP_PROBES`` of them plus the workload's own) and reported as
their median.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4
# Every run must end within this many seconds, set-up probes included.
RUN_LIMIT_S = 170.0


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "cpu_caches": cpu_caches(),
        "commit": git_commit(),
        "seed": seed,
        "threads_passed": workloads.THREADS,
    }


def cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return caches


def git_commit():
    """The commit checked out, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args, workdir: Path, deadline: float, setup_only: bool = False) -> dict:
    """Run bench/worker.py once and return the JSON it printed."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the workload process")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def check_commands(args, commands: list[dict]) -> list[list[str]]:
    """Problems per command: exit code, the workload's checks, and equality with earlier repeats.

    Warm-up commands are checked as the tiny workload they are.
    """
    checkers = {}
    for phase, tiny in (("warmup", True), ("timed", args.tiny), ("traced", args.tiny)):
        workload = workloads.get(args.workload, tiny)
        checkers[phase] = (workload, workload.reference(args.seed))
    first: dict[tuple, dict] = {}
    problems = []
    for command in commands:
        report = command["report"]
        if report is None:
            problems.append([f"exit {command['rc']}: {command.get('stderr', '').strip()[-300:]}"])
            continue
        workload, reference = checkers[command["phase"]]
        found = workload.check(command["argv"], report, reference)
        key = tuple(command["argv"])
        stable = {k: v for k, v in report.items() if k != "duration_seconds"}
        if first.setdefault(key, stable) != stable:
            found.append("report differs from an earlier run of the same command")
        problems.append(found)
    return problems


def rates(workload, commands: list[dict]) -> dict:
    """Replicates and pmfs per second of command wall time, over successful commands."""
    done = [c for c in commands if c["report"] is not None]
    wall = sum(c["seconds"] for c in done)
    totals = {"replicates": 0, "pmfs": 0}
    for command in done:
        for key, value in workload.work(command["report"]).items():
            totals[key] += value
    return {f"{key}_per_s": value / wall if wall else 0.0 for key, value in totals.items()}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes of the same workload, for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "hsictest" / "cli.py").is_file():
        print(f"error: no hsictest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    workload = workloads.get(args.workload, args.tiny)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    deadline = started + RUN_LIMIT_S
    try:
        # Half the probes run before the workload and half after, so that the
        # median spans the machine's load over the whole run.
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [spawn(args, workdir / f"probe{i}", deadline, True)["setup_s"] for i in range(probes)]
        result = spawn(args, workdir / "run", deadline)
        setups += [spawn(args, workdir / f"probe{i}", deadline, True)["setup_s"]
                   for i in range(probes, 2 * probes)]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    commands = result["commands"]
    problems = check_commands(args, commands)
    failed = sum(bool(p) for p in problems)
    timed = [c for c in commands if c["phase"] == "timed"]
    timed_s = [c["seconds"] for c in timed]
    setups.append(result["setup_s"])
    run_metrics = {"error_rate": failed / len(commands), **rates(workload, timed)}
    if args.trace:
        traced_s = [c["seconds"] for c in commands if c["phase"] == "traced"]
        metrics = tracer.layer_metrics(result["layers"], result["commands_per_cycle"],
                                       result["trace_missing"])
        metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(timed_s) - 1.0
        metrics.update(run_metrics)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "command_s": statistics.median(timed_s),
            "peak_rss_mb": result["peak_rss_mb"],
        }

    detail = {
        "workload": args.workload,
        "why": workload.why,
        "machine": machine_facts(args.seed),
        "setup_seconds": setups,
        "samples": {"setup_s": len(setups), "command_s": len(timed_s),
                    "commands_per_cycle": result["commands_per_cycle"]},
        "run": run_metrics,
        "command_seconds": {phase: [c["seconds"] for c in commands if c["phase"] == phase]
                            for phase in ("warmup", "timed", "traced")},
        "trace_missing": result["trace_missing"],
        "check_failures": [{"argv": c["argv"], "problems": p}
                           for c, p in zip(commands, problems) if p],
    }
    print(json.dumps({"detail": detail}))
    for name, value in {**metrics, **({} if args.trace else run_metrics)}.items():
        print(f"{name:42s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
