"""Power and energy-delay-product study (Section 7, Figures 7-8).

Each workload's representative case runs in a measurement loop of the
paper's per-workload repeat counts; the device's power model produces an
NVML-style trace (Figure 8) and ``EDP = average power x time^2`` over the
loop (Figure 7), with per-quadrant geometric means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..gpu.device import Device
from ..gpu.power import PowerTrace
from ..graph import GraphScheduler, TaskGraph, TaskNode
from ..kernels.base import Quadrant, Workload
from ..perf.instrument import stage
from .spine import add_spine


__all__ = ["EdpEntry", "edp_study", "power_study", "quadrant_geomeans",
           "power_trace_study"]


@dataclass(frozen=True)
class EdpEntry:
    """One (workload, variant) bar of Figure 7."""

    workload: str
    quadrant: Quadrant
    variant: str
    repeats: int
    #: duration of the whole measurement loop, seconds
    loop_time_s: float
    avg_power_w: float
    energy_j: float
    edp: float


def edp_study(workload: Workload, device: Device,
              repeats: int | None = None) -> list[EdpEntry]:
    """Figure 7 entries for one workload on one device."""
    if repeats is None:
        repeats = workload.edp_repeats
    case = workload.representative_case()
    entries = []
    with stage("analysis.edp_study"):
        for variant in workload.variants():
            stats = workload.analytic_stats(variant, case)
            power = device.power.steady_power(stats)
            t_loop = device.timing.time(stats) * repeats
            entries.append(EdpEntry(
                workload=workload.name,
                quadrant=workload.quadrant,
                variant=variant.value,
                repeats=repeats,
                loop_time_s=t_loop,
                avg_power_w=power,
                energy_j=power * t_loop,
                edp=power * t_loop * t_loop,
            ))
    return entries


def power_study(workloads: list[Workload], device: Device,
                repeats: int | None = None, *,
                n_jobs: int | None = None) -> list[EdpEntry]:
    """:func:`edp_study` of every workload, in order, as a task graph:
    one ``edp:<workload>`` node behind the ``stats:`` row of its
    representative case (:func:`~repro.analysis.spine.add_spine`)."""
    g = TaskGraph()
    spine = add_spine(g, workloads, representative=True)
    for w in workloads:
        g.add(TaskNode(key=f"edp:{w.name}", kind="edp", fn=edp_study,
                       args=(w, device, repeats), deps=spine[w.name],
                       label=f"edp {w.name}"))
    with stage("analysis.power_study"):
        results = GraphScheduler(n_jobs).run(g)
    return [e for w in workloads for e in results[f"edp:{w.name}"]]


def quadrant_geomeans(entries: list[EdpEntry]
                      ) -> dict[Quadrant, dict[str, float]]:
    """Per-quadrant geometric-mean EDP per variant (Figure 7's summary
    bars).  Quadrants II and III are reported together, as in the paper,
    and only workloads that have a baseline enter the aggregation so that
    the variants' geomeans cover identical workload sets (PiC, which has
    no baseline, would otherwise skew Quadrant I)."""
    with_baseline = {e.workload for e in entries if e.variant == "baseline"}
    groups: dict[Quadrant, dict[str, list[float]]] = {}
    for e in entries:
        if e.workload not in with_baseline:
            continue
        q = Quadrant.II if e.quadrant is Quadrant.III else e.quadrant
        groups.setdefault(q, {}).setdefault(e.variant, []).append(e.edp)
    out: dict[Quadrant, dict[str, float]] = {}
    for q, per_variant in groups.items():
        out[q] = {v: math.exp(sum(math.log(x) for x in xs) / len(xs))
                  for v, xs in per_variant.items()}
    return out


def power_trace_study(workload: Workload, device: Device,
                      repeats: int | None = None,
                      min_duration_s: float = 5.0,
                      max_duration_s: float = 20.0
                      ) -> dict[str, PowerTrace]:
    """Figure 8: per-variant power traces over the measurement loop.

    The paper executes each kernel 'repeatedly in a loop during
    measurement to capture stable power values' — its Figure 8 windows
    span seconds.  The repeat count is therefore adjusted so every trace
    covers at least ``min_duration_s`` (amortizing the thermal ramp) and
    at most ``max_duration_s`` (bounding the sample count).
    """
    if repeats is None:
        repeats = workload.edp_repeats
    case = workload.representative_case()
    traces = {}
    for variant in workload.variants():
        stats = workload.analytic_stats(variant, case)
        t_one = device.timing.time(stats)
        reps = repeats
        if t_one * reps < min_duration_s:
            reps = int(min_duration_s / t_one) + 1
        if t_one * reps > max_duration_s:
            reps = max(int(max_duration_s / t_one), 1)
        traces[variant.value] = device.power_trace(stats, repeats=reps)
    return traces
