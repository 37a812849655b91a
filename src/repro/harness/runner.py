"""Evaluation runner: workloads x variants x cases x GPUs.

This is the programmatic equivalent of the artifact's ``run_perf.sh`` —
it evaluates the analytic model at paper scale for every combination and
returns structured records the report layer formats into the paper's
figures.

It runs as a task graph through :class:`~repro.graph.GraphScheduler`:
one ``perf:<workload>`` node per workload resolves every case, variant
and device behind the workload's ``stats:`` rows, which the audit and
the power study share (:mod:`~repro.analysis.spine`).  Records are
reassembled in the canonical device-major order, so serial
(``n_jobs=1``) and parallel runs return identical records in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.spine import add_spine
from ..gpu.device import Device
from ..graph import GraphScheduler, TaskGraph, TaskNode
from ..kernels.base import Quadrant, Variant, Workload
from ..kernels import all_workloads
from ..perf.instrument import stage

__all__ = ["PerfRecord", "run_performance", "speedup_summary",
           "default_devices"]


@dataclass(frozen=True)
class PerfRecord:
    """One point of Figure 3."""

    gpu: str
    workload: str
    quadrant: Quadrant
    variant: str
    case: str
    time_s: float
    #: useful (essential) flops per second; 0 for the bit-only BFS
    flops: float
    power_w: float
    energy_j: float
    bottleneck: str
    dram_bytes: float
    arithmetic_intensity: float


def default_devices() -> list[Device]:
    return [Device("A100"), Device("H200"), Device("B200")]


def _workload_records(task: tuple[Workload, list[Device]]
                      ) -> list[list[PerfRecord]]:
    """Evaluate one workload on every device; returns per-device record
    lists in (case, variant) order.  The analytic counters are read once
    per (case, variant) — they are device-independent — and resolved
    against each device's models."""
    w, devices = task
    per_device: list[list[PerfRecord]] = [[] for _ in devices]
    for case in w.cases():
        for variant in w.variants():
            try:
                stats = w.analytic_stats(variant, case)
            except Exception as exc:
                raise RuntimeError(
                    f"analytic_stats failed for {w.name} "
                    f"[{variant.value}/{case.label}]") from exc
            intensity = stats.arithmetic_intensity()
            for out, dev in zip(per_device, devices):
                r = dev.resolve(stats)
                out.append(PerfRecord(
                    gpu=dev.spec.name,
                    workload=w.name,
                    quadrant=w.quadrant,
                    variant=variant.value,
                    case=case.label,
                    time_s=r.time_s,
                    flops=r.flops,
                    power_w=r.power_w,
                    energy_j=r.energy_j,
                    bottleneck=r.breakdown.bottleneck,
                    dram_bytes=stats.dram_bytes,
                    arithmetic_intensity=intensity,
                ))
    return per_device


def run_performance(workloads: list[Workload] | None = None,
                    devices: list[Device] | None = None,
                    *, n_jobs: int | None = None) -> list[PerfRecord]:
    """Evaluate every (gpu, workload, variant, case) combination.

    One ``perf:<workload>`` node (kind ``perf-grid``) per workload, behind
    its ``stats:`` rows (:func:`~repro.analysis.spine.add_spine`).
    Records come back in device-major order (device, workload, case,
    variant) regardless of ``n_jobs``.
    """
    if workloads is None:
        workloads = all_workloads()
    if devices is None:
        devices = default_devices()
    graph = TaskGraph()
    spine = add_spine(graph, workloads)
    for w in workloads:
        graph.add(TaskNode(key=f"perf:{w.name}", kind="perf-grid",
                           fn=_workload_records, args=((w, devices),),
                           deps=spine[w.name], label=f"perf {w.name}"))
    with stage("harness.run_performance"):
        results = GraphScheduler(n_jobs).run(graph)
    per_workload = [results[f"perf:{w.name}"] for w in workloads]
    records: list[PerfRecord] = []
    for di in range(len(devices)):
        for wi in range(len(workloads)):
            records.extend(per_workload[wi][di])
    return records


def speedup_summary(records: list[PerfRecord], numerator: Variant,
                    denominator: Variant) -> dict[tuple[str, str], float]:
    """Per (gpu, workload) mean of time(denominator)/time(numerator)
    across the five cases — the bars of Figures 4-6."""
    times: dict[tuple[str, str, str, str], float] = {}
    for r in records:
        times[(r.gpu, r.workload, r.variant, r.case)] = r.time_s
    out: dict[tuple[str, str], float] = {}
    pairs = sorted({(r.gpu, r.workload) for r in records})
    for gpu, wname in pairs:
        ratios = []
        for r in records:
            if r.gpu != gpu or r.workload != wname:
                continue
            if r.variant != numerator.value:
                continue
            denom = times.get((gpu, wname, denominator.value, r.case))
            if denom is None:
                continue
            ratios.append(denom / r.time_s)
        if ratios:
            out[(gpu, wname)] = float(np.mean(ratios))
    return out
