"""One workload process: import hsictest, make the inputs, then run the workload's command cycle.

Started by run.py, which reads the one JSON line this prints.  The set-up time
covers importing hsictest and generating the inputs.  The cycle then runs
once at tiny sizes as an untimed warm-up, and at full size until
``--seconds`` would be exceeded.  With
``--trace 1`` untraced and traced cycles alternate, so the trace overhead is
measured in the same process.

    python3 bench/worker.py --workload csv_test_n1000 --seed 1 --seconds 40 \\
        --trace 0 --workdir .bench_work/w
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Cycles of each kind (untraced, traced) a run makes however short --seconds is.
MIN_CYCLES = 2


def run_command(cli, argv: list[str]) -> dict:
    """Run one CLI command in-process and capture its exit code and JSON report."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - a crashing command is a failed sample
            rc = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    record = {"argv": argv, "seconds": seconds, "rc": rc, "report": None}
    if rc == 0:
        try:
            record["report"] = json.loads(out.getvalue())
        except json.JSONDecodeError as exc:
            record["rc"] = f"unparsable report: {exc}"
    if record["report"] is None:
        record["stderr"] = err.getvalue()[-2000:]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hsictest.cli as cli

    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hsictest from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.get(args.workload, args.tiny)
    workdir = Path(args.workdir)
    (workdir / "warmup").mkdir(parents=True, exist_ok=True)
    cycle = workload.cycle(args.seed, workload.make_inputs(args.seed, workdir))
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    commands, layers = [], []

    def run_cycle(phase: str, argvs: list[list[str]]) -> float:
        cycle_start = time.perf_counter()
        with tracer if phase == "traced" else contextlib.nullcontext():
            for command in argvs:
                commands.append({"phase": phase, **run_command(cli, command)})
        if phase == "traced":
            layers.append(tracer.collect())
        return time.perf_counter() - cycle_start

    # The same commands at tiny sizes load everything lazily loaded, at no real cost.
    tiny = workloads.get(args.workload, tiny=True)
    run_cycle("warmup", tiny.cycle(args.seed, tiny.make_inputs(args.seed, workdir / "warmup")))
    timed_start = time.perf_counter()
    lengths: dict[str, list[float]] = {"timed": [], "traced": []}
    while True:
        phase = "traced" if args.trace and len(lengths["timed"]) > len(lengths["traced"]) else "timed"
        lengths[phase].append(run_cycle(phase, cycle))
        elapsed = time.perf_counter() - timed_start
        enough = len(lengths["timed"]) >= MIN_CYCLES and (
            not args.trace or len(lengths["traced"]) >= MIN_CYCLES)
        next_phase = "traced" if args.trace and phase == "timed" else "timed"
        if enough and elapsed + statistics.median(lengths[next_phase] or lengths[phase]) > args.seconds:
            break

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands_per_cycle": len(cycle),
        "commands": commands,
        "layers": layers,
        "trace_missing": tracer.missing if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
