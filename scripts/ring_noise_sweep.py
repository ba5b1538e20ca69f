#!/usr/bin/env python3
"""Rejection rate on the ring as a function of the noise level.

The noise is independent N(0, s^2) on each coordinate, as
``hsictest.datagen.sample`` adds it. At noise 0 the ring sits exactly on
the circle and the linear kernel's moment cancellation makes the
Gaussian/Linear test blind to the dependence, so its rejection rate hugs
the test level while Gaussian/Gaussian detects the ring reliably. Noise
perturbs the exact cancellation, so the sweep shows how the failure mode
degrades rather than being knife-edge.

Writes one JSON document to stdout; progress lines go to stderr.
"""

import argparse
import json
import sys

from hsictest import (
    GeneratorKind,
    GeneratorSpec,
    PermutationConfig,
    parse_kernel,
    power_experiment,
)

KERNEL_X = "gaussian:median"
KERNELS_Y = ["linear", "gaussian:median"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--noise", type=float, nargs="+", default=[0.0, 0.05, 0.1, 0.2, 0.4]
    )
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--permutations", type=int, default=200)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    cfg = PermutationConfig(args.permutations, args.alpha, args.seed)
    rows = []
    for eps in args.noise:
        sampler = GeneratorSpec(GeneratorKind.RING_UNIFORM, seed=0, noise=eps)
        results = power_experiment(
            sampler,
            parse_kernel(KERNEL_X),
            [parse_kernel(ky_text) for ky_text in KERNELS_Y],
            cfg,
            num_trials=args.trials,
            n=args.n,
            threads=args.threads,
        )
        for ky_text, result in zip(KERNELS_Y, results):
            rows.append(
                {
                    "noise": eps,
                    "kernel_x": KERNEL_X,
                    "kernel_y": ky_text,
                    "rejection_rate": result.rejection_rate,
                }
            )
            print(
                f"noise={eps:g} {KERNEL_X} / {ky_text}: "
                f"rate {result.rejection_rate:.3f}",
                file=sys.stderr,
            )
    json.dump(
        {
            "n": args.n,
            "trials": args.trials,
            "alpha": args.alpha,
            "permutations": args.permutations,
            "seed": args.seed,
            "rows": rows,
        },
        sys.stdout,
        indent=2,
    )
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
