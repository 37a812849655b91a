"""The characterization spine: Table 4 matrices and per-case stats rows.

Every figure is a function of the same per-case counters (DESIGN.md §2),
so the audit, ``run_performance`` and ``power_study`` add their sinks to
one spine.  A ``stats:<workload>:<case>`` row persists at
:func:`~repro.kernels.base.stats_key`, where the ``analytic_stats`` memo
miss reads it; a ``matrix:`` node generates the Table 4 matrix it reads.
"""

from __future__ import annotations

from ..datasets.suitesparse import generate_matrix
from ..gpu.counters import KernelStats
from ..graph import TaskGraph, TaskNode
from ..kernels.base import Variant, Workload, WorkloadCase, stats_key
from ..perf.cache import default_cache

__all__ = ["add_spine", "matrix_node_key", "stats_key"]


def _node_stats(workload: Workload, case: WorkloadCase
                ) -> dict[Variant, KernelStats]:
    """Stats node: one case's row, through the raw ``analytic_stats``
    implementation, so a cold run never probes the key it writes."""
    impl = type(workload).analytic_stats.__wrapped__
    return default_cache().get_or_compute(
        "stats", stats_key(workload, case),
        lambda: {v: impl(workload, v, case) for v in workload.variants()})


def _node_matrix(name: str, scale: float, seed: int) -> str:
    """Matrix node: its product is the generator cache entry."""
    generate_matrix(name, scale=scale, seed=seed)
    return name


def matrix_node_key(args: tuple[str, float, int]) -> str:
    """The key of the node generating ``generate_matrix(*args)``: all the
    arguments, since one matrix may be read at several scales."""
    name, scale, seed = args
    return f"matrix:{name}:{scale!r}:{seed}"


def add_spine(graph: TaskGraph, workloads: list[Workload], *,
              representative: bool = False) -> dict[str, tuple[str, ...]]:
    """Add a ``stats:`` row per case of each workload (only the
    representative case with ``representative=True``), each behind the
    ``matrix:`` node it reads; returns each workload's row keys.  A case
    that cannot be keyed gets no row: its readers compute their stats."""
    spine: dict[str, tuple[str, ...]] = {}
    for w in workloads:
        keys = []
        cases = [w.representative_case()] if representative else w.cases()
        for case in cases:
            try:
                address = ("stats", stats_key(w, case))
            except TypeError:
                continue
            args = w.matrix_args(case)
            deps = () if args is None else (matrix_node_key(args),)
            if deps and deps[0] not in graph:
                graph.add(TaskNode(key=deps[0], kind="dataset-gen",
                                   fn=_node_matrix, args=args,
                                   label=f"matrix {args[0]}"))
            keys.append(graph.add(TaskNode(
                key=f"stats:{w.name}:{case.label}", kind="analytic-stats",
                fn=_node_stats, args=(w, case), deps=deps,
                label=f"stats {w.name} {case.label}", cache=address)).key)
        spine[w.name] = tuple(keys)
    return spine
