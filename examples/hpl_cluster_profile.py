#!/usr/bin/env python
"""Profile CUDA-accelerated HPL on 16 Dirac nodes (paper §IV-B/C).

Produces everything IPM produces for a real job:

* the parallel banner on stdout;
* the XML profiling log (``hpl_profile.xml``);
* the CUBE export for GUI exploration (``hpl_profile.cube``) — the
  Fig. 9 view: per-kernel, per-stream, per-node GPU time;
* an HTML report (``hpl_profile.html``).

Also prints the §IV-C observations: host idle ≈ 0 (asynchronous
transfers) and 2–5 s per task in ``cudaEventSynchronize``.
"""

import os

from repro.analysis import format_table
from repro.apps.hpl import HplConfig, hpl_app
from repro.cluster import run_job
from repro.core import IpmConfig, banner_parallel, metrics, parser, write_xml
from repro.simt import NoiseConfig
from repro.sweep import JobSpec

OUT = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    print("running CUDA HPL on 16 nodes (≈126 s of virtual time)...")
    result = run_job(JobSpec(
        app=lambda env: hpl_app(env, HplConfig.paper_16rank()), ntasks=16,
        command="./xhpl.cuda", ipm=IpmConfig(), noise=NoiseConfig(), seed=1,
    ))
    job = result.report
    print(banner_parallel(job, top=12))

    # the Fig. 9 analysis: per-kernel GPU time distribution across ranks
    per_rank = metrics.kernel_time_by_rank(job)
    rows = []
    for kernel, times in sorted(per_rank.items(), key=lambda kv: -sum(kv[1])):
        rows.append([kernel, sum(times), min(times), max(times)])
    print()
    print(format_table(
        ["GPU kernel", "total[s]", "min/rank", "max/rank"], rows,
        floatfmt=".2f", title="Fig. 9 view: kernel time across 16 nodes",
    ))

    print(f"\nhost idle (async transfers): {metrics.host_idle_percent(job):.4f} %wall")
    sync_times = [r["event_sync_time"] for r in result.results]
    print(f"cudaEventSynchronize per task: {min(sync_times):.2f}–"
          f"{max(sync_times):.2f} s (paper: 2–5 s)")

    xml_path = os.path.join(OUT, "hpl_profile.xml")
    write_xml(job, xml_path)
    parser.to_cube(parser.parse_log(xml_path), os.path.join(OUT, "hpl_profile.cube"))
    parser.to_html(parser.parse_log(xml_path), os.path.join(OUT, "hpl_profile.html"),
                   title="CUDA HPL on 16 Dirac nodes")
    print(f"\nwrote {xml_path}, .cube and .html next to it")


if __name__ == "__main__":
    main()
