"""Artifact-style evaluation flows (Appendix A of the paper).

The paper's artifact ships a ``runme.sh`` that runs, in sequence, a
compilation check, the performance evaluation (Figures 3-6), the power
evaluation (Figures 7-8), and the accuracy evaluation (Table 6), writing
results under ``Cubie/script/``; a ``quick_test`` variant covers four
representative workloads (SpMV, Reduction, Scan, FFT) in ~30 minutes.

This module is that script: :func:`quick_test` and :func:`full_evaluation`
produce the same set of outputs — ``Figure3_perf`` ... ``Figure8_power``
and ``all_error.csv`` — as text/CSV files in an output directory.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from ..analysis.accuracy import accuracy_table
from ..analysis.edp import power_study, power_trace_study, quadrant_geomeans
from ..gpu.device import Device
from ..kernels.base import Variant, Workload
from ..kernels import all_workloads, get_workload
from ..perf.instrument import stage
from .report import format_seconds, format_speedups, format_table
from .runner import run_performance, speedup_summary

__all__ = ["QUICK_TEST_WORKLOADS", "quick_test", "full_evaluation",
           "evaluate"]

#: the artifact's quick test covers these four workloads (Appendix A.1.2)
QUICK_TEST_WORKLOADS = ("spmv", "reduction", "scan", "fft")


def _perf_outputs(workloads: list[Workload]) -> dict[str, str]:
    records = run_performance(workloads=workloads)
    out: dict[str, str] = {}
    rows = [[r.gpu, r.workload, r.case, r.variant,
             format_seconds(r.time_s),
             f"{r.flops / 1e12:.4f}" if r.flops else "-"]
            for r in records]
    out["Figure3_perf"] = format_table(
        ["GPU", "Workload", "Case", "Variant", "Time", "TFLOP/s"],
        rows, title="Figure 3: absolute performance")
    out["Figure4_TCvsBaseline"] = format_speedups(
        speedup_summary(records, Variant.TC, Variant.BASELINE),
        "Figure 4: TC speedup over baseline")
    out["Figure5_CCvsTC"] = format_speedups(
        speedup_summary(records, Variant.CC, Variant.TC),
        "Figure 5: CC speedup over TC")
    cce = speedup_summary(records, Variant.CCE, Variant.TC)
    if cce:
        out["Figure6_CCEvsTC"] = format_speedups(
            cce, "Figure 6: CC-E speedup over TC")
    return out


def _power_outputs(workloads: list[Workload], device: Device
                   ) -> dict[str, str]:
    entries = power_study(workloads, device)
    trace_rows = []
    for w in workloads:
        for variant, tr in power_trace_study(w, device).items():
            trace_rows.append([w.name, variant,
                               f"{tr.duration_s:.3f} s",
                               f"{tr.average_power_w:.0f} W",
                               f"{tr.energy_j:.4g} J"])
    edp_rows = [[e.workload, e.variant, f"{e.repeats:,}",
                 f"{e.loop_time_s:.3f} s", f"{e.avg_power_w:.0f} W",
                 f"{e.edp:.4g} J*s"] for e in entries]
    table = format_table(
        ["Workload", "Variant", "Repeats", "Loop time", "Avg power",
         "EDP"], edp_rows,
        title=f"Figure 7: EDP on {device.spec.name}")
    gm = quadrant_geomeans(entries)
    gm_rows = [[q.value, v, f"{edp:.4g} J*s"]
               for q, per in sorted(gm.items(), key=lambda kv: kv[0].value)
               for v, edp in sorted(per.items())]
    if gm_rows:
        table += "\n\n" + format_table(["Quadrant", "Variant",
                                        "Geomean EDP"], gm_rows)
    power = format_table(
        ["Workload", "Variant", "Window", "Avg power", "Energy"],
        trace_rows, title=f"Figure 8: power traces on {device.spec.name}")
    return {"Figure7_edp": table, "Figure8_power": power}


def _error_csv(workloads: list[Workload], device: Device) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["workload", "variant", "average_error", "max_error",
                     "samples"])
    for w in workloads:
        if not w.floating_point:
            continue
        for e in accuracy_table(w, device):
            writer.writerow([e.workload, e.variant,
                             f"{e.avg_error:.6E}", f"{e.max_error:.6E}",
                             e.samples])
    return buf.getvalue()


def evaluate(workload_names: list[str] | None, out_dir: str | Path,
             gpu: str = "H200") -> dict[str, Path]:
    """Run the artifact flow over selected workloads; returns the written
    files keyed by artifact name."""
    if workload_names is None:
        workloads = all_workloads()
    else:
        workloads = [get_workload(n) for n in workload_names]
    device = Device(gpu)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, str] = {}
    with stage("harness.perf_outputs"):
        artifacts.update(_perf_outputs(workloads))
    with stage("harness.power_outputs"):
        artifacts.update(_power_outputs(workloads, device))
    with stage("harness.error_csv"):
        artifacts["all_error"] = _error_csv(workloads, device)
    written: dict[str, Path] = {}
    with stage("harness.write_artifacts"):
        for name, text in artifacts.items():
            suffix = ".csv" if name == "all_error" else ".txt"
            path = out_path / f"{name}{suffix}"
            path.write_text(text + "\n", encoding="utf-8")
            written[name] = path
    return written


def quick_test(out_dir: str | Path, gpu: str = "H200") -> dict[str, Path]:
    """The artifact's ~30-minute quick test: SpMV, Reduction, Scan, FFT."""
    return evaluate(list(QUICK_TEST_WORKLOADS), out_dir, gpu=gpu)


def full_evaluation(out_dir: str | Path,
                    gpu: str = "H200") -> dict[str, Path]:
    """The artifact's full ten-workload evaluation."""
    return evaluate(None, out_dir, gpu=gpu)
