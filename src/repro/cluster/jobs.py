"""The job runner: process images, IPM preload, report collection.

``run_job`` plays three roles of the real stack at once:

* **mpirun** — spawns one simulated process per rank, block-mapped
  onto cluster nodes;
* **the dynamic loader** — builds each rank's "process image": CUDA
  runtime + driver on the node's GPU(s), CUBLAS/CUFFT on top, the MPI
  communicator, and a host-compute helper routed through the OS-noise
  model.  With monitoring configured, every handle is resolved through
  IPM's interposition wrappers instead (LD_PRELOAD) — *"No source code
  changes, recompilation, or even re-linking of the application is
  required"*: the same ``app(env)`` runs monitored or unmonitored;
* **IPM's job finalization** — collects the per-rank task reports into
  a :class:`JobReport` after the last rank exits.

The one call is ``run_job(spec)`` with a
:class:`~repro.sweep.spec.JobSpec` — one frozen, hashable value that
describes the whole job (and that the sweep runner can parallelize and
content-address).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.spec import JobSpec

import numpy as np

from repro.cluster.cluster import Cluster, make_dirac
from repro.core.hostidle import blocking_wrapper_names, identify_blocking_calls
from repro.errors import JobStalled
from repro.core.ipm import Ipm
from repro.core.report import JobReport
from repro.cuda.driver import Driver
from repro.cuda.runtime import Runtime
from repro.faults import FaultInjector, RankAborted
from repro.libs.blasref import HostBlas
from repro.libs.cublas import Cublas
from repro.libs.cufft import Cufft
from repro.libs.thunking import ThunkingBlas
from repro.mpi.comm import CommWorld
from repro.mpi.network import Network
from repro.simt.noise import NoiseConfig, NoiseModel
from repro.simt.process import ProcessState
from repro.simt.random import RngStreams
from repro.simt.simulator import (
    LivenessLimits,
    ProcessCrashed,
    SimulationError,
    Simulator,
)


@dataclass
class ProcessEnv:
    """One rank's view of its node and libraries (the process image)."""

    rank: int
    size: int
    hostname: str
    sim: Simulator
    mpi: Any
    rt: Any
    drv: Any
    cublas: Any
    cufft: Any
    hostblas: HostBlas
    thunking: ThunkingBlas
    rng: np.random.Generator
    noise: NoiseModel
    ipm: Optional[Ipm] = None
    #: CUDA-profiler emulation attached to this rank (CUDA_PROFILE=1).
    profiler: Optional[Any] = None
    #: this rank's :class:`~repro.faults.injector.RankFaults` view when
    #: the job runs under a fault plan; None leaves every path clean.
    faults: Optional[Any] = None

    def hostcompute(self, seconds: float) -> None:
        """Host-side computation for ``seconds``, perturbed by OS noise."""
        if self.faults is not None:
            self.faults.check_abort()
            seconds *= self.faults.host_multiplier()
        self.sim.sleep(self.noise.perturb(seconds))


@dataclass
class JobResult:
    """Outcome of one simulated job."""

    wallclock: float
    results: List[Any]
    report: Optional[JobReport]
    cluster: Cluster
    world: CommWorld
    #: host wall time spent simulating (for harness diagnostics).
    sim_seconds: float = 0.0
    events_executed: int = 0
    #: per-rank CUDA-profiler logs when ``cuda_profile`` was set.
    profilers: List[Any] = field(default_factory=list)
    #: the :class:`~repro.telemetry.sampler.TelemetryHub` when the
    #: config enabled streaming telemetry (store + sinks), else None.
    telemetry: Optional[Any] = None
    #: the :class:`~repro.faults.injector.FaultInjector` when the job
    #: ran under an active fault plan (its ``events`` log is the fired
    #: fault schedule), else None.
    faults: Optional[FaultInjector] = None


def run_job(
    spec: "JobSpec",
    *,
    cluster: Optional[Cluster] = None,
    gpu_timing: Optional[Any] = None,
    liveness: Optional[LivenessLimits] = None,
    extra_sinks: Optional[Sequence[Any]] = None,
) -> JobResult:
    """Run one simulated job described by a :class:`JobSpec`::

        run_job(JobSpec(app="hpl", ntasks=16, ipm=IpmConfig(), seed=1))

    ``spec.ipm=None`` runs unmonitored; otherwise IPM is preloaded
    into every rank and a :class:`JobReport` is produced.  An in-process
    ``app(env)`` callable runs through ``JobSpec(app=<callable>, ...)``.

    ``cluster``, ``gpu_timing``, ``liveness`` and ``extra_sinks`` are
    runtime-only extras that stay *outside* the spec (they carry live
    simulator state / timing-model objects / runtime policy, none of
    which belong in the job's content-addressed identity): a pre-built
    ``cluster`` makes the job run on *its* simulator; ``gpu_timing``
    tweaks the GPUs of the fresh Dirac cluster built otherwise;
    ``liveness`` arms the simulator's watchdog
    (:class:`~repro.simt.simulator.LivenessLimits`) so a livelocked
    job raises a structured
    :class:`~repro.simt.simulator.LivenessError` instead of hanging;
    ``extra_sinks`` appends telemetry sinks (e.g. a
    :class:`~repro.fleet.sink.FleetSink` streaming samples to a fleet
    aggregator) to the ones the spec's config builds — sinks only
    observe samples, so report bytes are unchanged (pinned by test).
    It needs the spec's telemetry enabled to see any samples.

    ``spec.faults`` (or ``spec.ipm.faults``) attaches a deterministic
    :class:`~repro.faults.plan.FaultPlan`.  Injected rank aborts do not
    crash the job: the runner records them, lets surviving ranks run
    (or stall), and degrades to a *partial* :class:`JobReport` with
    per-rank ``status`` — telemetry is flushed either way.
    """
    from repro.sweep.spec import JobSpec

    if not isinstance(spec, JobSpec):
        raise TypeError(
            f"run_job() takes a JobSpec, got {type(spec).__name__}; "
            "describe the job as repro.JobSpec(app=..., ntasks=...)"
        )
    app = spec.build_app()
    ntasks = spec.ntasks
    command = spec.command
    ranks_per_node = spec.ranks_per_node
    ipm_config = spec.ipm
    seed = spec.seed
    t_host0 = _time.perf_counter()
    streams = RngStreams(seed)
    if cluster is None:
        sim = Simulator(liveness=liveness)
        needed = (ntasks + ranks_per_node - 1) // ranks_per_node
        cluster = make_dirac(
            sim, n_nodes=max(needed, spec.n_nodes or 0), seed=seed,
            gpu_timing=gpu_timing,
        )
    else:
        sim = cluster.sim
        if liveness is not None and liveness.active:
            sim.liveness = liveness
    rank_to_node = [
        cluster.node_of_rank(r, ranks_per_node).index for r in range(ntasks)
    ]
    network = Network(sim, cluster.network_model, ranks_per_node=ranks_per_node)
    world = CommWorld(sim, ntasks, network, rank_to_node)
    noise_cfg = spec.noise or NoiseConfig(enabled=False)
    # run-level system state (throttling, placement, competing jobs) is
    # shared by all ranks of a job — the Fig. 8 histogram's width.
    job_bias = NoiseModel.draw_bias(streams.get("noise.jobbias"), noise_cfg)
    # Identify the implicitly-blocking call set once per job (offline
    # microbenchmark, §III-C) so ranks don't redo it.
    blocking = (
        blocking_wrapper_names(identify_blocking_calls())
        if ipm_config is not None and ipm_config.host_idle
        else set()
    )
    plan = spec.faults if spec.faults is not None else (
        ipm_config.faults if ipm_config is not None else None
    )
    injector: Optional[FaultInjector] = None
    if plan is not None and plan.active:
        injector = FaultInjector(plan, streams, ntasks, sim)
        inj = injector  # non-Optional binding for the closures below

        def _engine_slowdown(device_id: int):
            return lambda now: inj.engine_multiplier(device_id, now)

        for node in cluster.nodes:
            for dev in node.devices:
                hook = _engine_slowdown(dev.device_id)
                dev.compute.slowdown = hook
                for engine in dev._copy_engines.values():
                    engine.slowdown = hook
                dev.memset_engine.slowdown = hook
        if plan.mpi:
            network.fault_delay = injector.mpi_extra_delay
    ipms: List[Optional[Ipm]] = [None] * ntasks
    envs: List[Optional[ProcessEnv]] = [None] * ntasks
    profilers: List[Any] = []
    hub = None
    if ipm_config is not None and ipm_config.telemetry.enabled:
        from repro.telemetry.sampler import TelemetryHub
        from repro.telemetry.sinks import make_sinks

        hub_sinks = None
        if extra_sinks:
            # runtime-only additions (fleet streaming, tests) ride after
            # the config-built sinks; they observe the same samples and
            # cannot perturb the simulation or the report.
            hub_sinks = make_sinks(ipm_config.telemetry) + list(extra_sinks)
        hub = TelemetryHub(
            sim,
            ipm_config.telemetry,
            meta={"command": command, "ntasks": ntasks, "seed": seed},
            sinks=hub_sinks,
        )

    def rank_main(rank: int) -> Any:
        node = cluster.node_of_rank(rank, ranks_per_node)
        rt = Runtime(sim, node.devices, process_name=f"{command}:r{rank}")
        rfaults = None
        if injector is not None:
            rfaults = injector.for_rank(rank, node.index)
            rt.faults = rfaults
        profiler = None
        if spec.cuda_profile:
            from repro.cuda.profiler import CudaProfiler

            profiler = CudaProfiler()
            rt._ensure_context()  # the profiler lives inside the driver
            profiler.attach(rt.context)
            profilers.append(profiler)
        comm = world.rank_comm(rank)
        ipm: Optional[Ipm] = None
        if ipm_config is not None:
            ipm = Ipm(
                sim,
                rank=rank,
                nranks=ntasks,
                config=ipm_config,
                hostname=node.hostname,
                command=command,
                blocking_calls=set(blocking),
            )
            ipms[rank] = ipm
            if hub is not None:
                hub.register_rank(rank, ipm, node)
            if rfaults is not None:
                # wrappers bind the check at creation time — set before
                # wrapping so every monitored call honors the abort.
                ipm.fault_check = rfaults.check_abort
            rt_h = ipm.wrap_runtime(rt)
            drv_h = ipm.wrap_driver(Driver(rt))
            # the libraries link against the *interposed* runtime — with
            # LD_PRELOAD, CUBLAS/CUFFT-internal cudaLaunch/cudaMemcpy
            # calls resolve to IPM's wrappers too (how Fig. 11's 1.9 M
            # cudaLaunch count includes library-issued launches).
            cublas_h = ipm.wrap_cublas(Cublas(rt_h))
            cufft_h = ipm.wrap_cufft(Cufft(rt_h))
            comm_h = ipm.wrap_mpi(comm)
        else:
            rt_h = rt
            drv_h = Driver(rt)
            cublas_h = Cublas(rt)
            cufft_h = Cufft(rt)
            comm_h = comm
        env = ProcessEnv(
            rank=rank,
            size=ntasks,
            hostname=node.hostname,
            sim=sim,
            mpi=comm_h,
            rt=rt_h,
            drv=drv_h,
            cublas=cublas_h,
            cufft=cufft_h,
            hostblas=HostBlas(sim),
            thunking=ThunkingBlas(cublas_h),
            rng=streams.get(f"app.rank{rank}"),
            noise=NoiseModel(streams.get(f"noise.rank{rank}"), noise_cfg,
                             bias=job_bias),
            ipm=ipm,
            profiler=profiler,
            faults=rfaults,
        )
        envs[rank] = env
        return app(env)

    procs = [sim.spawn(rank_main, r, name=f"rank{r}") for r in range(ntasks)]
    if hub is not None:
        hub.start(lambda: any(p.alive for p in procs))
    #: ranks killed by the fault plan (rank -> abort virtual time).
    aborted: dict = {}
    try:
        while True:
            try:
                sim.run()
                break
            except ProcessCrashed as crash:
                exc = crash.proc.exc
                if injector is not None and isinstance(exc, RankAborted):
                    # a *planned* abort: the monitor must survive it.
                    # Record the death and keep simulating the others.
                    aborted[exc.rank] = exc.at
                    continue
                raise
            except SimulationError:
                if injector is not None and aborted:
                    # survivors blocked forever on a dead peer (e.g. a
                    # collective with the aborted rank) — a stall, not
                    # a structural bug; degrade to a partial report.
                    break
                raise
        unfinished = [p.name for p in procs if p.alive]
        if unfinished and not aborted:
            raise JobStalled(f"ranks never finished: {unfinished}")

        def rank_status(rank: int) -> str:
            p = procs[rank]
            if rank in aborted or p.state is ProcessState.CRASHED:
                return "aborted"
            if p.alive:
                return "stalled"
            return "completed"

        stop_times = [
            p.finished_at if p.finished_at is not None else sim.now
            for p in procs
        ]
        start_times = [
            p.started_at for p in procs if p.started_at is not None
        ]
        wallclock = max(stop_times) - (min(start_times) if start_times else 0.0)
        report: Optional[JobReport] = None
        if ipm_config is not None:
            tasks = []
            domains: dict = {}
            for rank in range(ntasks):
                ipm = ipms[rank]
                assert ipm is not None
                status = rank_status(rank)
                # completed ranks drain KTTs event-free; dead/stalled
                # ranks keep whatever device timing was harvested.
                tasks.append(
                    ipm.finalize(
                        stop_time=stop_times[rank],
                        status=status,
                        drain=status == "completed",
                    )
                )
                domains.update(ipm.domains)
            try:
                sim.run()  # settle any events finalize queued
            except SimulationError:
                if not aborted:  # stalled peers still count as blocked
                    raise
            report = JobReport(
                tasks=tasks,
                domains=domains,
                start_stamp=f"t={min(t.start_time for t in tasks):.3f}",
                stop_stamp=f"t={max(t.stop_time for t in tasks):.3f}",
            )
        if hub is not None:
            # hand the terminal outcome to any sink that wants it (the
            # fleet sink publishes it as the job_end record) before
            # finish() closes the sinks.
            statuses = {r: rank_status(r) for r in range(ntasks)}
            job_status = (
                "ok"
                if all(s == "completed" for s in statuses.values())
                else "degraded"
            )
            for sink in hub.sinks:
                outcome_hook = getattr(sink, "set_job_outcome", None)
                if outcome_hook is not None:
                    outcome_hook(
                        job_status, ranks=statuses, wallclock=wallclock
                    )
    finally:
        # telemetry must flush even when a rank raised out of app code
        # (finish() is idempotent, so the normal path pays nothing).
        if hub is not None:
            hub.finish()
    return JobResult(
        wallclock=wallclock,
        results=[p.result for p in procs],
        report=report,
        cluster=cluster,
        world=world,
        sim_seconds=_time.perf_counter() - t_host0,
        events_executed=sim.events_executed,
        profilers=profilers,
        telemetry=hub,
        faults=injector,
    )
