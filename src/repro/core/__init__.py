"""IPM — the paper's primary contribution.

Integrated Performance Monitoring with the GPU-cluster extensions of
the paper: interposition wrappers over the CUDA runtime/driver APIs,
MPI, CUBLAS and CUFFT; GPU kernel timing through the CUDA event API
and a kernel timing table; implicit-host-blocking detection; and the
reporting pipeline (banner → XML log → ``ipm_parse`` → banner / HTML /
CUBE).
"""

from repro.core.sig import (
    CUDA_EXEC_PREFIX,
    CUDA_HOST_IDLE,
    DEFAULT_REGION,
    EventSignature,
    cuda_exec_name,
)
from repro.core.hashtable import CallStats, PerfHashTable
from repro.core.overhead import OverheadConfig, OverheadModel
from repro.core.wrapper_gen import InterposedAPI, WrapperHooks, generate_wrappers
from repro.core.ktt import KernelRecord, KernelTimingTable, KttSlot
from repro.core.hostidle import blocking_wrapper_names, identify_blocking_calls
from repro.core.ipm import Ipm, IpmConfig
from repro.core.report import JobReport, TaskReport
from repro.core.banner import banner, banner_parallel, banner_serial
from repro.core.xmlog import job_to_xml, read_xml, write_xml, xml_to_job
from repro.core.cube import CubeModel, job_to_cube, read_cube, write_cube
from repro.core.html_report import job_to_html, write_html
from repro.core import metrics, parser

__all__ = [
    "CUDA_EXEC_PREFIX",
    "CUDA_HOST_IDLE",
    "DEFAULT_REGION",
    "EventSignature",
    "cuda_exec_name",
    "CallStats",
    "PerfHashTable",
    "OverheadConfig",
    "OverheadModel",
    "InterposedAPI",
    "WrapperHooks",
    "generate_wrappers",
    "KernelRecord",
    "KernelTimingTable",
    "KttSlot",
    "blocking_wrapper_names",
    "identify_blocking_calls",
    "Ipm",
    "IpmConfig",
    "JobReport",
    "TaskReport",
    "banner",
    "banner_parallel",
    "banner_serial",
    "job_to_xml",
    "read_xml",
    "write_xml",
    "xml_to_job",
    "CubeModel",
    "job_to_cube",
    "read_cube",
    "write_cube",
    "job_to_html",
    "write_html",
    "metrics",
    "parser",
]
