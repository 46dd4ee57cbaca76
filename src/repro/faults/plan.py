"""Fault plans: declarative, deterministic fault schedules.

A :class:`FaultPlan` describes *what can go wrong* during a simulated
job — CUDA calls that fail, streams that crawl, nodes that wobble, MPI
messages that stall, ranks that die — as frozen spec dataclasses over
windows of virtual time.  The plan itself contains no randomness; the
:class:`~repro.faults.injector.FaultInjector` draws every stochastic
decision from dedicated :class:`~repro.simt.random.RngStreams`
channels, so the same seed + the same plan reproduces the same fault
schedule byte-for-byte (and adding a plan to a job never perturbs the
app/noise/timing streams).

Plans are off by default: ``JobSpec(faults=None)`` (or a plan
with ``enabled=False``) leaves every hook unset and the simulation
byte-identical to an unfaulted run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cuda.errors import cudaError_t
from repro.errors import ReproError


class RankAborted(ReproError, RuntimeError):
    """A planned whole-rank abort fired inside a simulated rank.

    Raised out of the application code (wrapper entry, host compute,
    CUDA call) so the rank dies the way a SIGKILLed process does: no
    cleanup, mid-operation.  The job runner recognizes the injected
    abort and degrades to a partial report instead of re-raising.
    """

    status = "aborted"

    def __init__(self, rank: int, at: float) -> None:
        super().__init__(f"rank {rank} aborted by fault plan at t={at:.6f}")
        self.rank = rank
        self.at = at


#: CUDA calls that accept injected failures (the interposition surface
#: the paper's wrappers cover for memory + execution errors).
INJECTABLE_CUDA_CALLS = (
    "cudaMalloc",
    "cudaMemcpy",
    "cudaMemcpyAsync",
    "cudaLaunch",
)


def _check_window(t0: float, t1: float) -> None:
    if t0 < 0:
        raise ValueError(f"fault window starts before t=0: {t0}")
    if t1 < t0:
        raise ValueError(f"empty fault window: [{t0}, {t1}]")


def _in_window(t0: float, t1: float, now: float) -> bool:
    return t0 <= now < t1


@dataclass(frozen=True)
class CudaFaultSpec:
    """Probabilistic CUDA-call failures inside a virtual-time window.

    Each eligible call (matching ``call``, on a matching rank, inside
    ``[t0, t1)``) fails with probability ``rate``, returning ``error``
    instead of executing.  ``max_failures`` caps firings *per rank*
    (transient faults); ``None`` keeps failing for the whole window.
    """

    call: str = "cudaLaunch"
    error: cudaError_t = cudaError_t.cudaErrorLaunchFailure
    rate: float = 1.0
    t0: float = 0.0
    t1: float = math.inf
    #: ranks the fault applies to; None means every rank.
    ranks: Optional[Tuple[int, ...]] = None
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if self.call != "*" and self.call not in INJECTABLE_CUDA_CALLS:
            raise ValueError(
                f"not an injectable CUDA call: {self.call!r} "
                f"(known: {list(INJECTABLE_CUDA_CALLS)} or '*')"
            )
        if self.error == cudaError_t.cudaSuccess:
            raise ValueError("cannot inject cudaSuccess as a fault")
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1]: {self.rate}")
        _check_window(self.t0, self.t1)
        if self.ranks is not None:
            object.__setattr__(self, "ranks", tuple(self.ranks))
        if self.max_failures is not None and self.max_failures <= 0:
            raise ValueError(f"max_failures must be positive: {self.max_failures}")

    def matches(self, rank: int, call: str, now: float) -> bool:
        if self.call != "*" and self.call != call:
            return False
        if self.ranks is not None and rank not in self.ranks:
            return False
        return _in_window(self.t0, self.t1, now)


@dataclass(frozen=True)
class StreamSlowdownSpec:
    """Stuck/slow streams: device-engine service times are multiplied.

    Applies to the compute engine and the copy engines of matching
    devices while ``now`` is in the window — a multiplier of 10 makes
    every kernel and transfer on the device take 10× as long (a "stuck"
    stream is a very large multiplier).
    """

    multiplier: float = 2.0
    t0: float = 0.0
    t1: float = math.inf
    #: device ids affected; None means every device.
    devices: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.multiplier <= 0:
            raise ValueError(f"multiplier must be positive: {self.multiplier}")
        _check_window(self.t0, self.t1)
        if self.devices is not None:
            object.__setattr__(self, "devices", tuple(self.devices))

    def matches(self, device_id: int, now: float) -> bool:
        if self.devices is not None and device_id not in self.devices:
            return False
        return _in_window(self.t0, self.t1, now)


@dataclass(frozen=True)
class NodeSlowdownSpec:
    """Transient node slowdown: host compute on the node is multiplied."""

    multiplier: float = 2.0
    t0: float = 0.0
    t1: float = math.inf
    #: node indices affected; None means every node.
    nodes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.multiplier <= 0:
            raise ValueError(f"multiplier must be positive: {self.multiplier}")
        _check_window(self.t0, self.t1)
        if self.nodes is not None:
            object.__setattr__(self, "nodes", tuple(self.nodes))

    def matches(self, node_index: int, now: float) -> bool:
        if self.nodes is not None and node_index not in self.nodes:
            return False
        return _in_window(self.t0, self.t1, now)


@dataclass(frozen=True)
class MpiDelaySpec:
    """Interconnect delay spikes: each message may stall in transit.

    While ``now`` is in the window, every network transfer is hit with
    probability ``rate``; a hit adds an exponentially-distributed extra
    delay of mean ``extra_mean`` seconds on top of the Hockney cost.
    """

    rate: float = 0.05
    extra_mean: float = 1e-3
    t0: float = 0.0
    t1: float = math.inf

    def __post_init__(self) -> None:
        if not (0.0 < self.rate <= 1.0):
            raise ValueError(f"rate must be in (0, 1]: {self.rate}")
        if self.extra_mean <= 0:
            raise ValueError(f"extra_mean must be positive: {self.extra_mean}")
        _check_window(self.t0, self.t1)

    def matches(self, now: float) -> bool:
        return _in_window(self.t0, self.t1, now)


@dataclass(frozen=True)
class RankAbortSpec:
    """Whole-rank abort: the rank dies at its first activity past ``at``."""

    rank: int
    at: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"negative rank: {self.rank}")
        if self.at < 0:
            raise ValueError(f"negative abort time: {self.at}")


@dataclass(frozen=True)
class FaultPlan:
    """The full fault schedule of one job (off by default everywhere)."""

    enabled: bool = True
    cuda: Tuple[CudaFaultSpec, ...] = ()
    streams: Tuple[StreamSlowdownSpec, ...] = ()
    nodes: Tuple[NodeSlowdownSpec, ...] = ()
    mpi: Tuple[MpiDelaySpec, ...] = ()
    aborts: Tuple[RankAbortSpec, ...] = ()

    def __post_init__(self) -> None:
        # accept plain lists for convenience, store tuples (hashable,
        # frozen like the rest of IpmConfig).
        for name in ("cuda", "streams", "nodes", "mpi", "aborts"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        seen = set()
        for spec in self.aborts:
            if spec.rank in seen:
                raise ValueError(f"duplicate abort for rank {spec.rank}")
            seen.add(spec.rank)

    @property
    def empty(self) -> bool:
        return not (self.cuda or self.streams or self.nodes or self.mpi or self.aborts)

    @property
    def active(self) -> bool:
        """True when the plan can actually inject something."""
        return self.enabled and not self.empty
