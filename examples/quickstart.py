#!/usr/bin/env python
"""Quickstart: the paper's running example (Figs. 3–6).

Runs the repeated-squaring CUDA program of Fig. 3 under IPM at the
three monitoring levels of the paper and prints the three banners:

1. host-side timing only                (Fig. 4)
2. + GPU kernel timing (@CUDA_EXEC)     (Fig. 5)
3. + implicit host blocking (@CUDA_HOST_IDLE)  (Fig. 6)

Note how the large ``cudaMemcpy(D2H)`` time of level 1 is revealed to
be GPU-kernel wait time at level 3 — the "missed opportunity for
overlap" the paper's method exposes.
"""

from repro.apps.square import SquareConfig, square_app
from repro.cluster import run_job
from repro.core import IpmConfig, banner_serial
from repro.sweep import JobSpec

LEVELS = [
    ("Fig. 4 — host-side timing only",
     IpmConfig(kernel_timing=False, host_idle=False)),
    ("Fig. 5 — with GPU kernel timing",
     IpmConfig(kernel_timing=True, host_idle=False)),
    ("Fig. 6 — with kernel timing and host-idle identification",
     IpmConfig(kernel_timing=True, host_idle=True)),
]


def main() -> None:
    for title, config in LEVELS:
        result = run_job(JobSpec(
            app=lambda env: square_app(env, SquareConfig()), ntasks=1,
            command="./cuda.ipm", ipm=config, seed=15,
        ))
        print(f"\n=== {title} ===")
        print(banner_serial(result.report.tasks[0]))

    # end-to-end data check: the kernel really squares the array
    verified = run_job(JobSpec(
        app=lambda env: square_app(
            env, SquareConfig(n=1024, repeat=2, verify=True)
        ),
        ntasks=1,
        seed=15,
    ))
    print(f"\ndata verification: square(1024) round-trip OK, "
          f"last element = {verified.results[0]:.0f}")


if __name__ == "__main__":
    main()
