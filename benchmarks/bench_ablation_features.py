"""Ablations: per-feature monitoring cost, hash-table capacity, and
thunking vs direct CUBLAS.

* **feature cost** — IPM's monitoring features (basic timing, kernel
  timing, host-idle separation) enabled cumulatively on the square
  workload: what each mechanism adds (§III's design is that kernel
  timing and host-idle are the expensive extras).
* **hash capacity** — IPM's table is statically sized (Fig. 1); an
  undersized table degrades into collisions/overflow but never loses
  data in this implementation.
* **thunking vs direct** — §IV-D: thunking wrappers are convenient but
  fully blocking; direct wrappers allow overlapping the transfer of
  the next operand with compute.
"""

import pytest

from repro.analysis import format_table
from repro.apps.square import SquareConfig, square_app
from repro.cluster import run_job
from repro.core import EventSignature, IpmConfig, PerfHashTable
from repro.cuda import Kernel, cudaMemcpyKind
from repro.cuda.memory import HostRef
from repro.sweep import JobSpec

from conftest import emit, once

K = cudaMemcpyKind


def repeated_square(env):
    return square_app(env, SquareConfig(n=20_000, repeat=1000))


FEATURE_LEVELS = [
    ("off", None),
    ("basic timing", IpmConfig(kernel_timing=False, host_idle=False)),
    ("+ kernel timing", IpmConfig(kernel_timing=True, host_idle=False)),
    ("+ host idle", IpmConfig(kernel_timing=True, host_idle=True)),
]


def _feature_costs():
    out = []
    for label, cfg in FEATURE_LEVELS:
        res = run_job(JobSpec(app=repeated_square, ntasks=1, seed=8, ipm=cfg))
        overhead = 0.0
        if res.report is not None:
            pass
        out.append((label, res.wallclock))
    return out


@pytest.mark.benchmark(group="ablation")
def test_feature_cost(benchmark):
    rows = once(benchmark, _feature_costs)
    base = rows[0][1]
    table = [
        [label, wall, f"{100 * (wall - base) / base:+.4f}"]
        for label, wall in rows
    ]
    text = format_table(
        ["monitoring level", "wallclock[s]", "vs unmonitored[%]"],
        table, floatfmt=".6f",
        title="Ablation — cumulative cost of IPM's monitoring features",
    )
    emit("ablation_feature_cost.txt", text)
    walls = [w for _l, w in rows]
    assert walls[1] >= walls[0]          # monitoring is never free
    assert walls[3] >= walls[1]
    assert (walls[3] - walls[0]) / walls[0] < 0.01  # …but always < 1 %


@pytest.mark.benchmark(group="ablation")
def test_hash_capacity(benchmark):
    def run():
        out = []
        for capacity in (64, 512, 8192):
            table = PerfHashTable(capacity=capacity)
            for i in range(3000):
                table.update(
                    EventSignature("MPI_Send", nbytes=(i % 500) * 64), 1e-6
                )
            out.append((capacity, len(table), table.collisions, table.overflowed))
        return out

    rows = once(benchmark, run)
    text = format_table(
        ["capacity", "entries", "collisions", "overflowed"],
        rows,
        title="Ablation — performance-data hash table sizing "
              "(500 distinct signatures)",
    )
    emit("ablation_hash_capacity.txt", text)
    by_cap = {r[0]: r for r in rows}
    assert by_cap[64][1] == 500          # nothing lost even undersized
    assert by_cap[64][3] > 0             # but it overflowed
    assert by_cap[8192][3] == 0
    assert by_cap[8192][2] <= by_cap[512][2] + 500


def thunking_workload(env):
    """Repeated dgemms through the blocking thunking path."""
    env.cublas.cublasInit()
    env.mpi.MPI_Barrier()
    t0 = env.sim.now
    for _ in range(12):
        env.thunking.dgemm(2048, 2048, 128)
    return env.sim.now - t0


def direct_workload(env):
    """The same dgemms with app-managed memory: one upload, reused
    device operands, async readback — the overlap the direct wrappers
    permit (§IV-D)."""
    cb = env.cublas
    rt = env.rt
    cb.cublasInit()
    _, st = rt.cudaStreamCreate()
    cb.cublasSetKernelStream(st)
    st_a = cb.cublasAlloc(2048 * 128, 8)[1]
    st_b = cb.cublasAlloc(128 * 2048, 8)[1]
    st_c = cb.cublasAlloc(2048 * 2048, 8)[1]
    env.mpi.MPI_Barrier()
    t0 = env.sim.now
    cb.cublasSetMatrix(2048, 128, 8, None, st_a)
    cb.cublasSetMatrix(128, 2048, 8, None, st_b)
    for _ in range(12):
        cb.cublasDgemm("N", "N", 2048, 2048, 128)
        rt.cudaMemcpyAsync(HostRef(2048 * 2048 * 8), st_c, 2048 * 2048 * 8,
                           K.cudaMemcpyDeviceToHost, st)
    rt.cudaStreamSynchronize(st)
    elapsed = env.sim.now - t0
    for ptr in (st_a, st_b, st_c):
        cb.cublasFree(ptr)
    return elapsed


@pytest.mark.benchmark(group="ablation")
def test_thunking_vs_direct(benchmark):
    def run():
        thunk = run_job(JobSpec(app=thunking_workload, ntasks=1, seed=9))
        direct = run_job(JobSpec(app=direct_workload, ntasks=1, seed=9))
        return thunk.results[0], direct.results[0]

    thunk_t, direct_t = once(benchmark, run)
    text = format_table(
        ["CUBLAS access path", "12 dgemms [s]"],
        [["thunking wrappers (blocking)", thunk_t],
         ["direct wrappers (overlap)", direct_t]],
        floatfmt=".4f",
        title="Ablation — thunking vs direct CUBLAS wrappers (§IV-D)",
    )
    emit("ablation_thunking.txt", text)
    # the paper's expectation: direct wrappers enable substantial overlap
    assert direct_t < 0.6 * thunk_t
