"""Fig. 8: application-level runtime dilatation of HPL under IPM.

The paper's ensemble study: repeated CUDA-HPL runs on 16 nodes with
and without IPM (all monitoring features on: MPI + CUDA events, kernel
timing, host-idle identification).  Paper numbers: 126.40 s → 126.67 s
mean, a 0.21 % dilatation "evidently well below the natural runtime
variation between runs".

The reproduced *claims* are (a) the ensembles overlap — mean
dilatation < run-to-run σ — and (b) dilatation is well under 1 %.
The absolute 0.21 % corresponds to the real code's call volume
(~100k+ monitored calls/rank); the scaled model issues ~2k calls/rank,
so its absolute dilatation is smaller (see EXPERIMENTS.md and the
call-volume ablation in bench_ablation_ktt_policy.py).

Ensemble size defaults to 40+40 (paper: 120+120); set
``REPRO_FIG8_RUNS=120`` for the full ensemble.
"""

import os

import pytest

from repro import IpmConfig, JobSpec, NoiseConfig
from repro.analysis import ascii_histogram, compare_ensembles

from conftest import emit, once, run_sweep

RUNS = int(os.environ.get("REPRO_FIG8_RUNS", "40"))


def _ensemble():
    """The 2×RUNS ensemble as one sweep (paper_16rank == HplConfig())."""
    base = JobSpec(app="hpl", ntasks=16, command="xhpl.cuda",
                   noise=NoiseConfig())
    without_specs = [base.replace(seed=1000 + i) for i in range(RUNS)]
    with_specs = [base.replace(seed=2000 + i, ipm=IpmConfig())
                  for i in range(RUNS)]
    sweep = run_sweep(without_specs + with_specs)
    wallclocks = sweep.wallclocks()
    return wallclocks[RUNS:], wallclocks[:RUNS]


@pytest.mark.benchmark(group="fig8")
def test_fig8_runtime_dilatation(benchmark):
    with_ipm, without_ipm = once(benchmark, _ensemble)
    cmp = compare_ensembles(with_ipm, without_ipm)
    s_with, s_without, dilatation = cmp.with_ipm, cmp.without_ipm, cmp.dilatation

    lo = min(min(with_ipm), min(without_ipm))
    hi = max(max(with_ipm), max(without_ipm))
    text = "\n".join([
        f"Fig. 8 — HPL on 16 nodes, {RUNS}+{RUNS} runs "
        "(paper: 120+120, mean 126.40 -> 126.67 s, +0.21%)",
        "",
        ascii_histogram(without_ipm, bins=16, lo=lo, hi=hi,
                        label=f"without IPM: mean={s_without.mean:.2f}s "
                              f"std={s_without.std:.3f}s"),
        "",
        ascii_histogram(with_ipm, bins=16, lo=lo, hi=hi,
                        label=f"with IPM:    mean={s_with.mean:.2f}s "
                              f"std={s_with.std:.3f}s"),
        "",
        f"mean dilatation: {100 * dilatation:+.3f}%  "
        f"(paper: +0.21%); run-to-run sigma: "
        f"{100 * s_without.std / s_without.mean:.3f}% of mean",
    ])
    emit("fig8_dilatation.txt", text)

    benchmark.extra_info["dilatation_pct"] = 100 * dilatation
    benchmark.extra_info["noise_sigma_pct"] = 100 * s_without.std / s_without.mean
    # claim (a): dilatation below the natural variability
    assert abs(s_with.mean - s_without.mean) < s_without.std
    # claim (b): well below 1 %
    assert dilatation < 0.01
    # ensembles genuinely overlap
    assert s_with.vmin < s_without.vmax
    # both means near the paper's operating point
    assert s_without.mean == pytest.approx(126.4, rel=0.02)
