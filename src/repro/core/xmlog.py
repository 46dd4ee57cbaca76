"""The XML profiling log (paper Section II).

*"IPM also writes a more detailed profiling log in XML format which
includes the full details of the hash table."*  The log carries, per
task: every hash-table entry (name, region, bytes, count, total, min,
max), the per-kernel/per-stream breakdown of Section III-B, and the
task metadata the banner needs — so ``ipm_parse`` can regenerate the
banner from the file alone (round-trip tested).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Tuple

from repro.core.hashtable import PerfHashTable
from repro.core.ktt import KernelRecord
from repro.core.report import JobReport, TaskReport
from repro.core.sig import EventSignature

IPM_VERSION = "2.0"


def job_to_xml(job: JobReport) -> ET.Element:
    root = ET.Element(
        "ipm_job",
        {
            "version": IPM_VERSION,
            "command": job.command,
            "ntasks": str(job.ntasks),
            "start": job.start_stamp,
            "stop": job.stop_stamp,
        },
    )
    domains = ET.SubElement(root, "domains")
    for name, domain in sorted(job.domains.items()):
        ET.SubElement(domains, "entry", {"name": name, "domain": domain})
    for task in job.tasks:
        root.append(_task_to_xml(task))
    return root


def _task_to_xml(task: TaskReport) -> ET.Element:
    el = ET.Element(
        "task",
        {
            "rank": str(task.rank),
            "host": task.hostname,
            "start": f"{task.start_time:.17g}",
            "stop": f"{task.stop_time:.17g}",
            "mem_gb": f"{task.mem_gb:.17g}",
            "gflops": f"{task.gflops:.17g}",
        },
    )
    if task.status != "completed":
        # only partial runs carry the attribute — complete logs stay
        # byte-identical to the pre-fault-injection schema.
        el.set("status", task.status)
    regions: Dict[str, ET.Element] = {}
    for sig, stats in sorted(
        task.table.items(), key=lambda kv: (kv[0].region, kv[0].name, kv[0].nbytes or -1)
    ):
        region = regions.get(sig.region)
        if region is None:
            region = ET.SubElement(el, "region", {"name": sig.region})
            regions[sig.region] = region
        attrs = {
            "name": sig.name,
            "count": str(stats.count),
            "ttot": f"{stats.total:.17g}",
            "tmin": f"{stats.tmin:.17g}",
            "tmax": f"{stats.tmax:.17g}",
        }
        if sig.nbytes is not None:
            attrs["bytes"] = str(sig.nbytes)
        ET.SubElement(region, "func", attrs)
    if task.counters:
        counters = ET.SubElement(el, "counters")
        for name, value in sorted(task.counters.items()):
            ET.SubElement(counters, "counter", {"name": name, "value": str(value)})
    kernels = ET.SubElement(el, "kernels")
    agg: Dict[Tuple[str, int], Tuple[float, int]] = {}
    for rec in task.kernel_details:
        t, c = agg.get((rec.kernel, rec.stream_id), (0.0, 0))
        agg[(rec.kernel, rec.stream_id)] = (t + rec.duration, c + 1)
    for (kname, stream), (ttot, count) in sorted(agg.items()):
        ET.SubElement(
            kernels,
            "kernel",
            {
                "name": kname,
                "stream": str(stream),
                "time": f"{ttot:.17g}",
                "count": str(count),
            },
        )
    return el


def write_xml(job: JobReport, path: str) -> None:
    tree = ET.ElementTree(job_to_xml(job))
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)


def xml_to_job(root: ET.Element) -> JobReport:
    """Inverse of :func:`job_to_xml` (used by ``ipm_parse``).

    Kernel details come back aggregated per (kernel, stream) — totals
    and counts are preserved exactly; per-invocation durations are not
    stored in the log (matching real IPM, which is a profiler, not a
    tracer).
    """
    if root.tag != "ipm_job":
        raise ValueError(f"not an IPM log (root tag {root.tag!r})")
    domains: Dict[str, str] = {}
    dom_el = root.find("domains")
    if dom_el is not None:
        for entry in dom_el.findall("entry"):
            domains[entry.get("name", "")] = entry.get("domain", "")
    tasks = []
    ntasks = int(root.get("ntasks", "1"))
    for task_el in root.findall("task"):
        table = PerfHashTable()
        for region_el in task_el.findall("region"):
            region = region_el.get("name", "ipm_main")
            for func in region_el.findall("func"):
                nbytes = func.get("bytes")
                sig = EventSignature(
                    func.get("name", "?"),
                    region,
                    int(nbytes) if nbytes is not None else None,
                )
                table.load(
                    sig,
                    int(func.get("count", "0")),
                    float(func.get("ttot", "0")),
                    float(func.get("tmin", "0")),
                    float(func.get("tmax", "0")),
                )
        details = []
        kernels_el = task_el.find("kernels")
        if kernels_el is not None:
            for k in kernels_el.findall("kernel"):
                details.append(
                    KernelRecord(
                        k.get("name", "?"),
                        int(k.get("stream", "0")),
                        float(k.get("time", "0")),
                    )
                )
        counters = {}
        counters_el = task_el.find("counters")
        if counters_el is not None:
            for c in counters_el.findall("counter"):
                counters[c.get("name", "?")] = int(c.get("value", "0"))
        tasks.append(
            TaskReport(
                rank=int(task_el.get("rank", "0")),
                nranks=ntasks,
                hostname=task_el.get("host", "?"),
                command=root.get("command", "?"),
                start_time=float(task_el.get("start", "0")),
                stop_time=float(task_el.get("stop", "0")),
                table=table,
                kernel_details=details,
                mem_gb=float(task_el.get("mem_gb", "0")),
                gflops=float(task_el.get("gflops", "0")),
                counters=counters,
                status=task_el.get("status", "completed"),
            )
        )
    tasks.sort(key=lambda t: t.rank)
    return JobReport(
        tasks=tasks,
        domains=domains,
        start_stamp=root.get("start", ""),
        stop_stamp=root.get("stop", ""),
    )


def read_xml(path: str) -> JobReport:
    return xml_to_job(ET.parse(path).getroot())
