"""The virtual-time sampler: rates, rollups, and loop termination."""

import pytest

from repro.cluster.node import Node
from repro.core.ipm import Ipm, IpmConfig
from repro.simt.simulator import Simulator
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.sampler import TelemetryHub


def _make(interval=0.01, sinks=("memory",)):
    sim = Simulator()
    tcfg = TelemetryConfig(enabled=True, interval=interval, sinks=sinks)
    ipm = Ipm(
        sim,
        config=IpmConfig(host_idle=False, telemetry=tcfg),
        blocking_calls=set(),
    )
    hub = TelemetryHub(sim, tcfg, meta={"command": "./a.out"})
    return sim, ipm, hub


def test_rates_are_deltas_of_monotonic_totals():
    _sim, ipm, hub = _make()
    hub.register_rank(0, ipm)
    hub.sample_now(0.0)  # baseline (dt == 0 -> zero rates)
    ipm.tele.events = 100
    ipm.tele.domain_time["MPI"] = 0.5
    ipm.tele.copy_bytes["H2D"] = 4096
    ipm.tele.launches = 10
    hub.sample_now(1.0)
    st = hub.store
    assert st.latest("ipm_events_per_sec", rank=0) == 100.0
    assert st.latest("ipm_mpi_fraction", rank=0) == 0.5
    assert st.latest("ipm_copy_h2d_bytes_per_sec", rank=0) == 4096.0
    assert st.latest("ipm_launches_per_sec", rank=0) == 10.0
    # next window only sees the *new* activity
    ipm.tele.events = 150
    hub.sample_now(2.0)
    assert st.latest("ipm_events_per_sec", rank=0) == 50.0


def test_gpu_and_node_rollups():
    sim, ipm, hub = _make()
    node = Node(sim, index=0)
    hub.register_rank(0, ipm, node)
    hub.sample_now(0.0)
    dev = node.devices[0]
    dev.compute.busy_time += 0.25
    dev.copy_bytes["h2d"] += 1024
    hub.sample_now(1.0)
    st = hub.store
    gpu = dev.device_id
    assert st.latest("gpu_busy_fraction", gpu=gpu) == 0.25
    assert st.latest("gpu_copy_h2d_bytes_per_sec", gpu=gpu) == 1024.0
    assert st.latest("node_gpu_busy_fraction", node=node.hostname) == 0.25
    assert st.latest("node_events_per_sec", node=node.hostname) == 0.0
    assert st.latest("ipm_hash_occupancy", rank=0) is not None


def test_tick_loop_terminates_with_the_job():
    sim, ipm, hub = _make(interval=0.01)
    hub.register_rank(0, ipm)

    def body():
        sim.sleep(0.105)

    proc = sim.spawn(body, name="app")
    hub.start(lambda: proc.alive)
    sim.run()  # must return: the sampler may not keep the heap alive
    assert not proc.alive
    assert 5 <= hub.ticks <= 12
    hub.finish()
    mem = hub.sink("memory")
    assert mem is not None and mem.closed
    assert len(mem) > 0


def test_finish_takes_closing_sample_and_is_idempotent():
    sim, ipm, hub = _make()
    hub.register_rank(0, ipm)
    hub.start()
    sim.run()  # nothing scheduled but the first tick; runs it and stops
    ticks_before = hub.ticks
    hub.finish()
    hub.finish()
    assert hub.ticks >= ticks_before
    assert hub.sink("memory").closed


def test_sinks_receive_open_metadata():
    _sim, ipm, hub = _make()
    hub.register_rank(0, ipm)
    hub.sample_now(0.0)
    mem = hub.sink("memory")
    assert mem.meta["command"] == "./a.out"
    assert mem.meta["schema"].startswith("ipm-repro/telemetry/")
    assert mem.meta["interval"] == hub.config.interval


def _ipm(sim, rank, telemetry=True):
    tcfg = TelemetryConfig(enabled=telemetry)
    return Ipm(
        sim,
        rank=rank,
        config=IpmConfig(host_idle=False, telemetry=tcfg),
        blocking_calls=set(),
    )


def test_register_rank_after_ticks_rebuilds_the_plan():
    sim, ipm0, hub = _make()
    node = Node(sim, index=0)
    hub.register_rank(0, ipm0, node)
    hub.sample_now(0.0)
    ipm0.tele.events = 100
    points = hub.sample_now(1.0)
    assert {p.labels for p in points if p.name == "ipm_events_per_sec"} == {
        (("rank", "0"),)
    }

    ipm1 = _ipm(sim, 1)
    hub.register_rank(1, ipm1, node)
    ipm0.tele.events = 150
    ipm1.tele.events = 30
    ipm1.tele.domain_time["MPI"] = 0.5
    points = hub.sample_now(2.0)
    st = hub.store
    # the new rank's series appear on the very next tick ...
    assert st.latest("ipm_events_per_sec", rank=1) == 30.0
    assert st.latest("ipm_hash_occupancy", rank=1) is not None
    # ... the existing rank's rate continues across the rebuild ...
    assert st.latest("ipm_events_per_sec", rank=0) == 50.0
    assert len(st.get("ipm_events_per_sec", rank=0)) == 3
    # ... and the node rollups include the new member
    host = node.hostname
    assert st.latest("node_events_per_sec", node=host) == 80.0
    assert st.latest("node_mpi_fraction", node=host) == 0.25
    assert sum(p.name == "node_events_per_sec" for p in points) == 1


def test_rank_without_counters_emits_only_table_series():
    sim, ipm0, hub = _make()
    node = Node(sim, index=0)
    bare = _ipm(sim, 1, telemetry=False)
    assert bare.tele is None
    hub.register_rank(0, ipm0, node)
    hub.register_rank(1, bare, node)
    hub.sample_now(0.0)
    ipm0.tele.events = 10
    points = hub.sample_now(1.0)
    bare_names = sorted(p.name for p in points if ("rank", "1") in p.labels)
    assert bare_names == ["ipm_hash_collisions_total", "ipm_hash_occupancy"]
    # the node rollups average over the counted rank alone
    assert hub.store.latest("node_events_per_sec", node=node.hostname) == 10.0


def test_registering_a_rank_twice_is_refused():
    sim, ipm, hub = _make()
    hub.register_rank(0, ipm)
    with pytest.raises(ValueError):
        hub.register_rank(0, _ipm(sim, 0))
