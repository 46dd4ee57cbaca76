"""The slab table against its object-per-slot oracle, by property.

The columnar :class:`~repro.core.hashtable.PerfHashTable` records
events through the wrapper generator's fused fast paths (cached slab
indexes, hinted updates, interned hot counts).  These tests drive
*randomized* event streams (seeded, so failures reproduce) through the
real generated wrappers.  The fake library logs every call it serves —
signature, ``begin`` and ``end`` — and the test folds that log into the
straightforward :class:`~tests.core.object_table.ObjectPerfHashTable`
oracle.  The monitored table must pickle to the oracle's bytes, and so
must the report built around it.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.core import EventSignature, Ipm, IpmConfig
from repro.core.report import JobReport
from repro.core.wrapper_gen import WrapperHooks, generate_wrappers
from repro.simt import Simulator
from repro.sweep.cache import pickle_report
from tests.core.object_table import ObjectPerfHashTable


class StreamApi:
    """A fake library whose calls burn virtual time and move bytes.

    Each call appends ``(signature, begin, end)`` to :attr:`log`, with
    the signature the monitor should record for it.
    """

    def __init__(self, sim, ipm):
        self.sim = sim
        self.ipm = ipm
        self.log = []

    def _work(self, name, seconds, nbytes=None):
        begin = self.sim.now
        if seconds > 0:
            if self.sim.current is not None:
                self.sim.sleep(seconds)
            else:  # outside a process: no one to put to sleep
                self.sim.clock.advance_to(begin + seconds)
        sig = EventSignature(name, self.ipm.current_region, nbytes)
        self.log.append((sig, begin, self.sim.now))

    def alpha(self, seconds):
        self._work("alpha", seconds)
        return 0

    def beta(self, seconds, tag=None):
        self._work("beta", seconds)
        return tag

    def send(self, nbytes, direction, seconds):
        self._work(f"send({direction})", seconds, nbytes)
        return nbytes


def _run_stream(seed: int, events: int = 300, capacity: int = 8192):
    """One randomized monitored run -> (report, call log).

    The stream mixes plain calls, kwargs calls, refined calls (suffix +
    byte count, several distinct signatures) through both the kwargs
    and the ``*args``-only wrapper variants, and region transitions,
    first outside and then inside a simulated process — jointly
    covering every wrapper variant the generator emits.
    """
    sim = Simulator()
    ipm = Ipm(
        sim,
        config=IpmConfig(host_idle=False, hash_capacity=capacity),
        blocking_calls=set(),
    )
    api = StreamApi(sim, ipm)
    hooks = {
        "send": WrapperHooks(
            refine=lambda a, k, r: (f"({a[1]})", a[0]),
        )
    }
    proxy = generate_wrappers(
        ipm, api, ["alpha", "beta", "send"], domain="FAKE", hooks=hooks
    )
    # the cheaper *args-only variants, over the same table
    positional = generate_wrappers(
        ipm, api, ["alpha", "send"], domain="FAKE", hooks=hooks,
        pass_kwargs=False,
    )
    rng = random.Random(seed)
    depth = 0

    def body(n):
        nonlocal depth
        for _ in range(n):
            op = rng.randrange(10)
            dur = rng.choice((0.0, 1e-4, 2e-4, 5e-4))
            if op < 2:
                proxy.alpha(dur)
            elif op < 4:
                positional.alpha(dur)
            elif op < 6:
                proxy.beta(dur)
            elif op < 7:
                proxy.beta(dur, tag=rng.randrange(3))
            elif op < 9:
                (proxy if op < 8 else positional).send(
                    rng.choice((64, 4096, 1 << 20)),
                    rng.choice(("H2D", "D2H")),
                    dur,
                )
            elif depth == 0 and rng.random() < 0.5:
                ipm.region_enter(rng.choice(("solver", "io")))
                depth = 1
            elif depth:
                ipm.region_exit()
                depth = 0

    # outside a simulated process the wrappers take their fused record
    # paths; inside one, the general path.
    body(events // 3)
    sim.spawn(body, events - events // 3)
    sim.run()
    while depth:
        ipm.region_exit()
        depth -= 1
    task = ipm.finalize()
    report = JobReport(
        tasks=[task],
        domains=dict(ipm.domains),
        start_stamp="t=0.000",
        stop_stamp=f"t={sim.now:.3f}",
    )
    return report, api.log


def _assert_matches_oracle(seed, events=300, capacity=8192):
    report, log = _run_stream(seed, events, capacity)
    oracle = ObjectPerfHashTable(capacity)
    for sig, begin, end in log:
        oracle.update(sig, end - begin)
    table = report.tasks[0].table
    assert len(log) == sum(count for _, count, *_ in table.iter_rows())
    assert list(table.iter_rows()) == list(oracle.iter_rows())
    assert pickle.dumps(table) == pickle.dumps(oracle)
    by_oracle = replace(report, tasks=[replace(report.tasks[0], table=oracle)])
    assert pickle_report(report) == pickle_report(by_oracle)
    assert pickle.dumps(report.merged_table()) == \
        pickle.dumps(by_oracle.merged_table())
    return table


class TestBackendParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams_produce_identical_report_bytes(self, seed):
        _assert_matches_oracle(seed)

    def test_parity_survives_a_merge_heavy_stream(self):
        """A table too small for the stream's distinct signatures forces
        the overflow columns, and the cross-rank merge must read them
        back in the oracle's order."""
        table = _assert_matches_oracle(99, events=1500, capacity=16)
        assert table.overflowed > 0 and table.collisions > 0
