"""Vector-variant collectives (Gatherv / Allgatherv / Reduce_scatter)."""

import numpy as np
import pytest

from repro.mpi import ReduceOp, mpirun


class TestGatherv:
    def test_variable_sized_contributions(self):
        def body(comm):
            data = list(range(comm.rank + 1))  # rank r contributes r+1 items
            return comm.MPI_Gatherv(data, root=0)

        res = mpirun(body, 3).results
        assert res[0] == [[0], [0, 1], [0, 1, 2]]
        assert res[1] is None and res[2] is None

    def test_rendezvous_staggering_like_gather(self):
        def body(comm):
            comm.MPI_Barrier()
            t0 = comm.sim.now
            comm.MPI_Gatherv(None, root=0, nbytes=(comm.rank + 1) << 20)
            return comm.sim.now - t0

        res = mpirun(body, 4).results
        assert res[0] >= max(res[1:]) - 1e-12
        assert res[1] < res[3]


class TestAllgatherv:
    def test_everyone_gets_everything(self):
        def body(comm):
            return comm.MPI_Allgatherv(np.full(comm.rank + 1, comm.rank))

        res = mpirun(body, 3).results
        for r in res:
            assert [len(x) for x in r] == [1, 2, 3]

    def test_cost_scales_with_largest_contribution(self):
        def timed(nbytes):
            def body(comm):
                comm.MPI_Barrier()
                t0 = comm.sim.now
                comm.MPI_Allgatherv(None, nbytes=nbytes)
                return comm.sim.now - t0

            return max(mpirun(body, 4).results)

        assert timed(8 << 20) > timed(1 << 20)


class TestReduceScatter:
    def test_blockwise_reduce_and_scatter(self):
        def body(comm):
            # rank r contributes blocks [r*10+0, r*10+1, r*10+2]
            blocks = [comm.rank * 10 + j for j in range(3)]
            return comm.MPI_Reduce_scatter(blocks)

        res = mpirun(body, 3).results
        # block j = sum over ranks of (r*10 + j)
        assert res == [30 + 0 * 3, 30 + 1 * 3, 30 + 2 * 3]

    def test_array_blocks(self):
        def body(comm):
            blocks = [np.full(4, float(comm.rank)) for _ in range(2)]
            return comm.MPI_Reduce_scatter(blocks, op=ReduceOp.MAX)

        res = mpirun(body, 2).results
        np.testing.assert_array_equal(res[0], np.full(4, 1.0))
        np.testing.assert_array_equal(res[1], np.full(4, 1.0))

    def test_wrong_block_count_detected(self):
        from repro.simt import ProcessCrashed

        def body(comm):
            comm.MPI_Reduce_scatter([1, 2])  # needs 3 blocks for 3 ranks

        with pytest.raises(ProcessCrashed):
            mpirun(body, 3)

    def test_synthetic_payload(self):
        def body(comm):
            return comm.MPI_Reduce_scatter(None, nbytes=1 << 20)

        assert mpirun(body, 4).results == [None] * 4


class TestIpmSeesVectorCollectives:
    def test_wrapped_and_sized(self):
        from repro.cluster import run_job
        from repro.core import IpmConfig
        from repro.sweep import JobSpec

        def app(env):
            env.mpi.MPI_Allgatherv(None, nbytes=4096)
            env.mpi.MPI_Gatherv(None, root=0, nbytes=8192)

        res = run_job(JobSpec(
            app=app, ntasks=2,
            ipm=IpmConfig(monitor_cuda=False, host_idle=False),
        ))
        by = res.report.merged_by_name()
        assert by["MPI_Allgatherv"].count == 2
        assert by["MPI_Gatherv"].count == 2
        sigs = {(s.name, s.nbytes) for s, _ in res.report.tasks[0].table.items()}
        assert ("MPI_Allgatherv", 4096) in sigs
        assert ("MPI_Gatherv", 8192) in sigs
