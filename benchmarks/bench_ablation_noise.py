"""Ablation: what gives the Fig. 8 histogram its width.

The paper attributes run-to-run variability to "system noise" (§IV-B)
and lists its sources in the introduction (issue 6): system load,
file-system activity, background daemons, stray processes.  The noise
model has three mechanisms — per-segment jitter, Poisson daemon
interruptions, and a per-run system-state bias.  This ablation runs a
small HPL ensemble with each mechanism enabled in isolation and
decomposes the observed sigma.

Expected decomposition (asserted below):

* the run-level bias dominates — slow system state moves whole runs;
* per-segment jitter contributes a smaller sigma;
* millisecond daemon interruptions are **absorbed**: HPL overlaps host
  compute with the GPU and synchronizes on events, so a 4 ms theft
  disappears into the ~17 ms per-step event-wait slack.  (This is the
  same mechanism behind the paper's observation that IPM's overhead
  vanishes below system variability.)
"""

import pytest

from repro.analysis import EnsembleStats, format_table
from repro.apps.hpl import HplConfig, hpl_app
from repro.cluster import make_dirac, run_job
from repro.simt import NoiseConfig
from repro.sweep import JobSpec

from conftest import emit, once

RUNS = 14

CONFIGS = [
    ("none", NoiseConfig(enabled=False)),
    ("jitter only", NoiseConfig(daemon_rate=0.0, run_bias_sd=0.0)),
    ("daemons only", NoiseConfig(jitter_mean=0.0, run_bias_sd=0.0)),
    ("run bias only", NoiseConfig(jitter_mean=0.0, daemon_rate=0.0)),
    ("all", NoiseConfig()),
]


def _ensemble(noise: NoiseConfig):
    """Vary only the noise seed; pin the hardware draws (context-init
    times, kernel jitter) by building each run's cluster from a fixed
    seed — otherwise device-side stochasticity would swamp the OS-noise
    decomposition."""
    from repro.simt import Simulator

    cfg = HplConfig.tiny()
    walls = []
    for i in range(RUNS):
        sim = Simulator()
        cluster = make_dirac(sim, n_nodes=4, seed=0)
        walls.append(
            run_job(JobSpec(
                app=lambda env: hpl_app(env, cfg), ntasks=4, noise=noise,
                seed=3000 + i,
            ), cluster=cluster).wallclock
        )
    return EnsembleStats.of(walls)


def _run_all():
    return {label: _ensemble(noise) for label, noise in CONFIGS}


@pytest.mark.benchmark(group="ablation")
def test_noise_decomposition(benchmark):
    stats = once(benchmark, _run_all)
    rows = [
        [label, s.mean, s.std, f"{100 * s.std / s.mean:.4f}"]
        for label, s in stats.items()
    ]
    text = format_table(
        ["noise mechanism", "mean[s]", "sigma[s]", "sigma/mean[%]"],
        rows, floatfmt=".5f",
        title=f"Ablation — noise-source decomposition "
              f"({RUNS}-run HPL-tiny ensembles)",
    )
    emit("ablation_noise.txt", text)

    assert stats["none"].std < 1e-12                  # determinism baseline
    assert stats["jitter only"].std > 1e-6
    assert stats["run bias only"].std > 1e-6
    # the run-level bias dominates the width (it models slow system
    # state, the paper's dominant variability source)
    assert stats["run bias only"].std > stats["jitter only"].std
    # ms-scale daemon interruptions are absorbed by HPL's event-wait
    # slack: they perturb far less than the bias does
    assert stats["daemons only"].std < stats["run bias only"].std
    # combined sigma is at least the largest single component's
    assert stats["all"].std >= 0.7 * max(
        stats[l].std for l in ("jitter only", "daemons only", "run bias only")
    )
