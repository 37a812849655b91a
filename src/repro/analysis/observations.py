"""Programmatic verification of the paper's nine key observations.

Each observation (Sections 3-10, summarized in Table 1) is implemented as
a function returning an :class:`ObservationResult` — a boolean verdict
plus the quantitative evidence that supports it — computed live from the
workloads and models.  ``verify_all`` is the one-call audit the
``bench_observations`` regenerator and the test suite run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..gpu.device import Device
from ..graph import GraphScheduler, TaskGraph, TaskNode
from ..kernels.base import Quadrant, Variant, Workload
from ..kernels import all_workloads, get_workload
from ..perf.cache import content_key, default_cache, package_source_token
from ..perf.instrument import stage
from .accuracy import (AUDIT_SEED, accuracy_key, accuracy_table,
                       accuracy_tables)
from .edp import edp_study, quadrant_geomeans
from .quadrants import classify
from .spine import add_spine, matrix_node_key

__all__ = ["ObservationResult", "build_observations_graph", "verify_all",
           "observation_key", "OBSERVATIONS"]


@dataclass
class ObservationResult:
    """Verdict and evidence for one observation."""

    number: int
    statement: str
    holds: bool
    evidence: dict[str, object] = field(default_factory=dict)


def _speedup(w: Workload, num: Variant, den: Variant, dev: Device) -> float:
    ratios = []
    for case in w.cases():
        t_num = dev.resolve(w.analytic_stats(num, case)).time_s
        t_den = dev.resolve(w.analytic_stats(den, case)).time_s
        ratios.append(t_den / t_num)
    return float(np.mean(ratios))


def observation_1(workloads, devices) -> ObservationResult:
    """O1: non-GEMM algorithms must modify data structures and reorganize
    algorithms to exploit MMUs.  Evidence: every non-GEMM workload's TC
    variant executes more than its essential flops (the reorganization
    cost) or restructures into tile formats (redundancy > 1 / bit tiles)."""
    evidence = {}
    holds = True
    for w in workloads:
        st = w.analytic_stats(Variant.TC, w.representative_case())
        if w.name == "gemm":
            continue
        if w.floating_point:
            evidence[w.name] = f"redundancy {st.redundancy:.2f}x"
            holds &= st.redundancy > 1.0
        else:
            evidence[w.name] = "bitmap slice-set restructuring"
    return ObservationResult(1, "non-GEMM kernels modify data structures "
                             "and algorithms for MMUs", holds, evidence)


def observation_2(workloads, devices) -> ObservationResult:
    """O2: kernels exhibit four distinct utilization quadrants."""
    groups: dict[str, list[str]] = {}
    for w in workloads:
        q = classify(w).quadrant
        groups.setdefault(q.value, []).append(w.name)
    holds = set(groups) == {"I", "II", "III", "IV"}
    expected = {w.name: w.quadrant.value for w in workloads}
    measured_ok = all(w.name in groups[expected[w.name]] for w in workloads)
    return ObservationResult(2, "four utilization quadrants, matching "
                             "Figure 2", holds and measured_ok, groups)


def observation_3(workloads, devices) -> ObservationResult:
    """O3: TC outperforms baselines in most cases, portably across the
    three architectures."""
    evidence = {}
    wins = total = 0
    for w in workloads:
        if Variant.BASELINE not in w.variants():
            continue
        per_gpu = {d.spec.name: _speedup(w, Variant.TC, Variant.BASELINE, d)
                   for d in devices}
        evidence[w.name] = {g: round(s, 2) for g, s in per_gpu.items()}
        for s in per_gpu.values():
            total += 1
            wins += s > 1.0
    return ObservationResult(3, "TC consistently outperforms baselines "
                             "and is performance portable",
                             wins / total > 0.75, evidence)


def observation_4(workloads, devices) -> ObservationResult:
    """O4: isolating the compute unit (CC vs TC), MMUs account for 10% to
    200% of the gains (i.e. CC retains 1/3 to ~0.9 of TC)."""
    evidence = {}
    holds = True
    for w in workloads:
        for d in devices:
            cc = _speedup(w, Variant.CC, Variant.TC, d)
            gain = 1.0 / cc - 1.0       # MMU-attributable speedup fraction
            evidence[f"{w.name}@{d.spec.name}"] = round(gain, 2)
            holds &= -0.02 <= gain <= 2.2
    return ObservationResult(4, "MMUs account for 10%-200% of the gains "
                             "over equivalent vector execution", holds,
                             evidence)


def observation_5(workloads, devices) -> ObservationResult:
    """O5: MMU-enabling redundancy should not be removed — except SpMV."""
    evidence = {}
    holds = True
    for w in workloads:
        if not w.has_cce:
            continue
        s = np.mean([_speedup(w, Variant.CCE, Variant.TC, d)
                     for d in devices])
        evidence[w.name] = round(float(s), 2)
        if w.name == "spmv":
            holds &= s >= 1.0
        else:
            holds &= s <= 1.05
    return ObservationResult(5, "removing MMU redundancy pays off only "
                             "for SpMV", holds, evidence)


def observation_6(workloads, devices) -> ObservationResult:
    """O6: similar power, faster completion => 30-80% lower geomean EDP."""
    h200 = next(d for d in devices if d.spec.name == "H200")
    entries = []
    for w in workloads:
        entries.extend(edp_study(w, h200))
    gm = quadrant_geomeans(entries)
    evidence = {}
    holds = True
    for q, per in gm.items():
        if "baseline" not in per:
            continue
        reduction = 1.0 - per["tc"] / per["baseline"]
        evidence[f"Quadrant {q.value}"] = f"TC EDP {reduction:+.0%}"
        holds &= reduction > 0.25
    return ObservationResult(6, "TC lowers geomean EDP by 30-80% across "
                             "quadrants", holds, evidence)


def observation_7(workloads, devices) -> ObservationResult:
    """O7: TC and CC are numerically identical; the *transformations*
    (CC-E, baselines) change rounding."""
    h200 = next(d for d in devices if d.spec.name == "H200")
    evidence = {}
    holds = True
    deviates = 0
    # read in-process: this runs inside a graph node (often in a pool
    # worker), and in the default suite the upstream ``accuracy:`` nodes
    # have already cached every table
    tables = accuracy_tables(workloads, h200, n_jobs=1)
    for w in workloads:
        if not w.floating_point:
            continue
        by = {e.variant: e for e in tables[w.name]}
        identical = (by["tc"].avg_error == by["cc"].avg_error
                     and by["tc"].max_error == by["cc"].max_error)
        holds &= identical
        others = {v: e for v, e in by.items() if v not in ("tc", "cc")}
        diff = any(e.avg_error != by["tc"].avg_error
                   for e in others.values())
        deviates += diff
        evidence[w.name] = ("TC==CC" if identical else "TC!=CC") + \
            (", transforms deviate" if diff else "")
    return ObservationResult(7, "MMUs and vector units give equal FP64 "
                             "accuracy; algorithmic transformation shifts "
                             "it", holds and deviates >= 5, evidence)


def observation_8(workloads, devices) -> ObservationResult:
    """O8: MMU layouts regularize memory access.  Evidence: in Quadrant IV
    the TC variants' coalescing efficiency exceeds the baselines'."""
    h200 = next(d for d in devices if d.spec.name == "H200")
    evidence = {}
    holds = True
    for w in workloads:
        if w.quadrant is not Quadrant.IV:
            continue
        if Variant.BASELINE not in w.variants():
            continue
        case = w.representative_case()
        tc = h200.memory.resolve(w.analytic_stats(Variant.TC, case))
        base = h200.memory.resolve(
            w.analytic_stats(Variant.BASELINE, case))
        evidence[w.name] = (f"coalescing {base.coalescing_efficiency:.2f}"
                            f" -> {tc.coalescing_efficiency:.2f}")
        holds &= tc.coalescing_efficiency >= base.coalescing_efficiency
    return ObservationResult(8, "MMU data layouts yield more regular "
                             "memory access", holds, evidence)


def observation_9(workloads, devices) -> ObservationResult:
    """O9: Cubie spans a wider behavior space than Rodinia/SHOC."""
    from ..suites import suite_metric_points
    from .pca import pca, standardize
    h200 = next(d for d in devices if d.spec.name == "H200")
    points = suite_metric_points(workloads, h200)
    z, _, _ = standardize(np.stack([p.values for p in points]))
    res = pca(z, 2)

    def area(suite: str) -> float:
        idx = [i for i, p in enumerate(points) if p.suite == suite]
        return float(np.prod(np.ptp(res.scores[idx], axis=0)))

    areas = {s: round(area(s), 1) for s in ("Rodinia", "SHOC", "Cubie")}
    holds = areas["Cubie"] > max(areas["Rodinia"], areas["SHOC"])
    return ObservationResult(9, "Cubie covers a wider behavior space than "
                             "Rodinia and SHOC", holds, areas)


OBSERVATIONS: tuple[Callable, ...] = (
    observation_1, observation_2, observation_3, observation_4,
    observation_5, observation_6, observation_7, observation_8,
    observation_9,
)


def observation_key(idx: int) -> str:
    """The result-cache key (kind ``"observation"``) of the default-suite
    verdict of observation ``idx + 1``.

    Shared by :func:`_run_observation` and the observation graph's
    ``observation:`` nodes, which declare it as their cache address."""
    return content_key("observation", package_source_token(), idx + 1,
                       np.__version__)


def _run_observation(task: tuple[int, list[Workload] | None,
                                 list[Device] | None]) -> ObservationResult:
    """Worker: evaluate one observation by index.  ``None`` workloads or
    devices are reconstructed in-process, so the task pickles cheaply when
    fanned out to the default suite.

    Default-suite verdicts are content-address cached: every input is
    fixed-seed deterministic and the key carries the whole package source
    token, so a warm audit replays from the cache while any code change
    invalidates it.  Explicit workload/device lists skip the cache (their
    identity is not reliably keyable)."""
    idx, workloads, devices = task
    default_suite = workloads is None and devices is None
    if workloads is None:
        workloads = all_workloads()
    if devices is None:
        devices = [Device("A100"), Device("H200"), Device("B200")]
    if not default_suite:
        return OBSERVATIONS[idx](workloads, devices)
    return default_cache().get_or_compute(
        "observation", observation_key(idx),
        lambda: OBSERVATIONS[idx](workloads, devices))


def _node_dataset(name: str) -> str:
    """Dataset-gen node: warm one workload's generator cache entry.

    Runs the exact ``prepare`` call the Table 6 audit will issue (same
    representative case, same :data:`AUDIT_SEED`), so the disk-backed
    generator cache is hot by the time the downstream accuracy node — or
    a sibling running concurrently on another workload — needs it.  The
    node's value is just the workload name: the real product is the
    cache entry, which crosses the process boundary on disk."""
    w = get_workload(name)
    w.prepare(w.exec_case(w.representative_case()), seed=AUDIT_SEED)
    return name


def _node_accuracy(name: str) -> list:
    """Accuracy-audit node: one workload's Table 6 rows on the H200.

    Content-address cached inside :func:`accuracy_table`, so the O7 node
    downstream (which calls ``accuracy_tables`` over the whole suite)
    replays these rows from the cache instead of recomputing them."""
    return accuracy_table(get_workload(name), Device("H200"))


def build_observations_graph(workloads: list[Workload] | None = None,
                             devices: list[Device] | None = None
                             ) -> TaskGraph:
    """The observation audit as an explicit dataflow graph.

    For the default suite: the characterization spine
    (:func:`~repro.analysis.spine.add_spine`), and per floating-point
    workload a ``dataset:<name>`` node (behind its matrix's node, when
    the spine has one) feeding an ``accuracy:<name>`` node.  The nine
    ``observation:NN`` nodes depend on every ``stats:`` row, and O7 also
    on the accuracy nodes.  Explicit workload/device lists (whose
    identity is not reliably keyable) get the nine observation nodes
    only.

    Default-suite ``observation:``, ``accuracy:`` and ``stats:`` nodes
    declare the result-cache address their callable writes, so the
    demand pass replays a warm audit from its nine verdicts; a
    ``dataset:`` or ``matrix:`` node's product is a side effect with no
    address, and it runs only when a node below it misses.
    """
    g = TaskGraph()
    default_suite = workloads is None and devices is None
    stats_deps: tuple[str, ...] = ()
    accuracy_deps: tuple[str, ...] = ()
    if default_suite:
        h200 = Device("H200")
        spine = add_spine(g, all_workloads())
        stats_deps = sum(spine.values(), ())
        for w in all_workloads():
            if not w.floating_point:
                continue
            args = w.matrix_args(w.exec_case(w.representative_case()),
                                 AUDIT_SEED)
            reads = () if args is None else (matrix_node_key(args),)
            g.add(TaskNode(key=f"dataset:{w.name}", kind="dataset-gen",
                           fn=_node_dataset, args=(w.name,),
                           deps=tuple(k for k in reads if k in g),
                           label=f"dataset {w.name}"))
            g.add(TaskNode(key=f"accuracy:{w.name}", kind="accuracy-audit",
                           fn=_node_accuracy, args=(w.name,),
                           deps=(f"dataset:{w.name}",),
                           label=f"accuracy {w.name}",
                           cache=("accuracy", accuracy_key(
                               w, h200, AUDIT_SEED))))
            accuracy_deps += (f"accuracy:{w.name}",)
    for i in range(len(OBSERVATIONS)):
        g.add(TaskNode(key=f"observation:{i + 1:02d}",
                       kind="observation-audit",
                       fn=_run_observation,
                       args=((i, workloads, devices),),
                       deps=stats_deps + (accuracy_deps if i == 6 else ()),
                       label=f"observation {i + 1}",
                       cache=("observation", observation_key(i))
                       if default_suite else None))
    return g


def verify_all(workloads: list[Workload] | None = None,
               devices: list[Device] | None = None,
               *, n_jobs: int | None = None) -> list[ObservationResult]:
    """Evaluate all nine observations; returns them in order.

    Emits the audit as a task graph (:func:`build_observations_graph`)
    and drains it through the :class:`~repro.graph.GraphScheduler`, so
    dataset generation, accuracy audits, and analytic observations
    overlap.  Results are ordered by observation number regardless of
    ``n_jobs``.
    """
    graph = build_observations_graph(workloads, devices)
    with stage("analysis.verify_all"):
        results = GraphScheduler(n_jobs).run(graph)
    return [results[f"observation:{i + 1:02d}"]
            for i in range(len(OBSERVATIONS))]
