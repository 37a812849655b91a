"""Dataflow task-graph execution over the whole pipeline.

Pipeline work is an explicit task graph: :class:`TaskNode`\\ s keyed by
the pipeline's content-key vocabulary, collected in a
:class:`TaskGraph`, and drained by the :class:`GraphScheduler` — the
one execution engine, which owns the process pool — so dataset
generation for one workload overlaps the accuracy audit of another,
serve's batched perf queries are just another graph consumer, and
:meth:`~repro.perf.executor.ParallelExecutor.map` is a graph of
independent chunk nodes.

Concurrency eligibility comes from the determinism proof engine's
exported facts (:mod:`repro.graph.policy`); the tie-break order is
deterministic (:meth:`TaskGraph.order`), so graph execution is
bit-identical for any worker count — asserted by ``tests/graph/``
against pinned digests.
"""

from .node import TaskGraph, TaskNode
from .policy import ConcurrencyPolicy, default_facts_path, load_facts
from .scheduler import GraphScheduler, GraphStats

__all__ = ["TaskGraph", "TaskNode", "ConcurrencyPolicy", "GraphScheduler",
           "GraphStats", "default_facts_path", "load_facts"]
