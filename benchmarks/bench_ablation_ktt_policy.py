"""Ablation: kernel-timing-table completion-check policy (§III-B).

The paper chooses to check for completed kernels *only in D2H
transfers*: "it would be possible to check the table for completed
operations on each subsequent CUDA runtime call, but doing this too
frequently could cause high overheads".  This ablation measures both
policies on a launch-heavy workload and quantifies the trade-off, plus
the call-volume scaling of the total monitoring overhead (the context
for Fig. 8's absolute 0.21 %).
"""

import pytest

from repro.analysis import format_table
from repro.cluster import run_job
from repro.core import IpmConfig
from repro.cuda import Kernel, cudaMemcpyKind
from repro.cuda.memory import HostRef
from repro.sweep import JobSpec

from conftest import emit, once

K = cudaMemcpyKind


def launch_heavy_app(n_bursts: int, burst: int = 40, polls: int = 200):
    """Bursts of long-running kernels followed by a host polling loop.

    While a burst of kernels is in flight, the application polls cheap
    runtime calls (a common progress-loop pattern).  Under the
    ``on_every_call`` policy every poll re-queries all ~``burst``
    occupied KTT slots — exactly the overhead the paper avoids by
    checking only in D2H transfers.
    """

    def app(env):
        rt = env.rt
        _, buf = rt.cudaMalloc(1 << 20)
        _, streams = None, [rt.cudaStreamCreate()[1] for _ in range(8)]
        for _i in range(n_bursts):
            for j in range(burst):
                rt.launch(Kernel("k", nominal_duration=2e-3, occupancy=0.1),
                          64, 64, args=(buf,), stream=streams[j % 8])
            for _ in range(polls):
                rt.cudaGetLastError()
            rt.cudaThreadSynchronize()
            rt.cudaMemcpy(HostRef(4096), buf, 4096, K.cudaMemcpyDeviceToHost)
        for st in streams:
            rt.cudaStreamDestroy(st)
        rt.cudaFree(buf)

    return app


def _measure(policy: str, n_bursts: int):
    app = launch_heavy_app(n_bursts)
    plain = run_job(JobSpec(app=app, ntasks=1, seed=6))
    mon = run_job(JobSpec(
        app=app, ntasks=1, seed=6, ipm=IpmConfig(ktt_policy=policy),
    ))
    dilatation = (mon.wallclock - plain.wallclock) / plain.wallclock
    return plain.wallclock, mon.wallclock, dilatation


def _run_all():
    out = {}
    for policy in ("on_d2h", "on_every_call"):
        out[policy] = _measure(policy, 25)
    out["volume"] = {
        n * 40: _measure("on_d2h", n)[2] for n in (5, 25, 100)
    }
    return out


@pytest.mark.benchmark(group="ablation")
def test_ktt_policy_overhead(benchmark):
    res = once(benchmark, _run_all)
    rows = [
        [policy, res[policy][0], res[policy][1], f"{100 * res[policy][2]:.3f}"]
        for policy in ("on_d2h", "on_every_call")
    ]
    text = format_table(
        ["KTT check policy", "plain[s]", "monitored[s]", "dilatation[%]"],
        rows, floatfmt=".4f",
        title="Ablation — KTT completion-check policy (25 bursts of 40 "
              "in-flight kernels, 200 polls per burst)",
    )
    vol_rows = [[n, f"{100 * d:.3f}"] for n, d in res["volume"].items()]
    text += "\n\n" + format_table(
        ["monitored launches", "dilatation[%]"], vol_rows,
        title="Monitoring overhead scales with call volume (policy on_d2h):",
    )
    emit("ablation_ktt_policy.txt", text)

    # the paper's argument: checking on every call costs more
    assert res["on_every_call"][2] > res["on_d2h"][2]
    # overhead grows with call volume (the Fig. 8 scaling context)
    vols = list(res["volume"].values())
    assert vols[0] < vols[-1]
