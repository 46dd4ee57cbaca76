#!/usr/bin/env python
"""Render the paper's Fig. 7 timeline from a real traced run.

Fig. 7 is a hand-drawn schematic of IPM's CUDA monitoring: the
asynchronous launch, the events bracketing the kernel on the GPU, and
the blocking memcpy whose wait IPM separates.  With the opt-in trace
ring (`IpmConfig(trace_capacity=…)`) the same picture can be rendered
from an actual monitored execution.
"""

from repro.apps.square import SquareConfig, square_app
from repro.cluster import run_job
from repro.core import IpmConfig
from repro.core.trace import render_timeline
from repro.sweep import JobSpec


def main() -> None:
    captured = []

    def app(env):
        captured.append(env.ipm)
        return square_app(env, SquareConfig(n=20_000, repeat=5_000))

    # host-idle separation off so the blocking memcpy's traced window
    # shows the raw implicit wait (the thing Fig. 7 explains)
    run_job(JobSpec(
        app=app, ntasks=1, command="./cuda.ipm",
        ipm=IpmConfig(trace_capacity=256, host_idle=False), seed=15,
    ))
    trace = captured[0].trace
    # drop context creation so the interesting part fills the width
    records = [r for r in trace.records() if r.name != "cudaMalloc"]
    print("Fig. 7 — the monitoring timeline, from a traced run:")
    print()
    print(render_timeline(records, width=78))
    print()
    print("top lane: host-side CUDA calls (cudaLaunch returns instantly;")
    print("the blocking cudaMemcpy(D2H) spans the kernel's remainder).")
    print("bottom lane: the kernel executing on the GPU, timed by the")
    print("events IPM inserted around the launch.")


if __name__ == "__main__":
    main()
