"""The dataflow scheduler: drain ready nodes through a shared pool.

:class:`GraphScheduler` is the one execution engine: it executes a
:class:`~repro.graph.node.TaskGraph` with deterministic results, stage
attribution across the process boundary, and fault recovery, and owns
the only process pool the pipelines start.  A ready node runs the
moment its dependencies complete, so dataset generation for workload B
overlaps the accuracy audit of workload A and the per-observation audit
nodes of both.  :meth:`~repro.perf.executor.ParallelExecutor.map` is a
graph of independent chunk nodes drained by the same loop.

Demand pass: before anything is scheduled, :meth:`GraphScheduler.run`
walks the graph in reverse topological order from its sinks (every sink
is demanded).  A demanded node that declares a result-cache address
(:attr:`~repro.graph.node.TaskNode.cache`) is probed in the parent with
:meth:`~repro.perf.cache.ResultCache.peek`: a hit becomes the node's
result and leaves its dependencies undemanded; a miss — or a node with
no address — demands every dependency.  Only demanded misses execute, so
a warm observation audit replays its nine verdicts without generating a
dataset or starting a pool.  Probes verify checksums like any cache
read (a corrupt entry is quarantined and counts as a miss), and with
``REPRO_CACHE=0`` every probe misses and every node runs.

Execution model:

* ``n_jobs <= 1`` (or one node): the serial path — nodes run in-process
  in the graph's deterministic topological order.  No pool, no fault
  injection, results bit-identical to the pooled path by construction
  (every node callable is a deterministic function of its arguments).
* pooled: ready nodes are submitted smallest-key-first, at most one
  per worker in flight, through :func:`_exec_remote`, which ships the
  node's stage-registry snapshot back and hosts the
  ``executor.worker_crash`` / ``worker_hang`` fault sites under keys
  ``graph:<node key>:<attempt>``.
* recovery: a ``BrokenProcessPool`` or ``OSError`` from a node, or a
  round in which no in-flight node finishes within ``chunk_timeout_s``,
  ends the *round* — completed in-flight results are harvested (never
  recomputed), the pool is killed and rebuilt with backoff, and the
  survivors are resubmitted; after ``max_retries`` failed rounds the
  remaining nodes degrade to the in-process serial path.  Nothing else
  is a pool failure: a deterministic task error
  (:class:`~repro.perf.executor.WorkerTaskError`, raised unchanged on
  every path) or any other exception propagates immediately, and a
  worker-side ``KeyboardInterrupt`` kills the pool and re-raises as
  "interrupted; cancelled pending graph nodes and retries".
* nodes the :class:`~repro.graph.policy.ConcurrencyPolicy` marks
  exclusive (impure per ``determinism_facts.json``) never enter the
  pool: the scheduler drains in-flight work, then runs them in the
  parent process at their topological position.

Every node is timed worker-side under a ``graph/<kind>`` stage pair, and
the run's *overlap ratio* — summed node wall over makespan, the figure
of merit ``repro bench --check`` gates — is recorded via
:func:`~repro.perf.instrument.note_graph_run`.
"""

from __future__ import annotations

import heapq
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from .. import faults
from ..perf.cache import default_cache
from ..perf.executor import (WorkerTaskError, _env_float, _env_int,
                             resolve_n_jobs)
from ..perf.instrument import (merge_stage_timings, note_graph_run,
                               note_worker_count, reset_stage_stack,
                               reset_stage_timings, snapshot_stage_timings,
                               stage)
from .node import TaskGraph, TaskNode
from .policy import ConcurrencyPolicy

__all__ = ["GraphScheduler", "GraphStats"]


def _exec_node(node: TaskNode) -> tuple[Any, float]:
    """Run ``fn(*args)`` under the node's ``graph/<kind>`` stage pair.

    Returns ``(value, wall_seconds)`` — the wall clock is measured where
    the work ran, so overlap accounting is contention-honest (a node
    descheduled by a busier sibling reports the longer wall it actually
    took).  A failure surfaces as a :class:`WorkerTaskError` naming the
    node; one raised inside the node keeps its own label.
    """
    t0 = time.perf_counter()
    try:
        with stage("graph"):
            with stage(node.kind):
                value = node.fn(*node.args)
    except WorkerTaskError:
        raise
    except Exception as exc:
        raise WorkerTaskError(
            f"{node.display}: {type(exc).__name__}: {exc}\n"
            f"--- worker traceback ---\n{traceback.format_exc()}"
        ) from exc
    return value, time.perf_counter() - t0


def _exec_remote(payload: tuple[TaskNode, str, float]
                 ) -> tuple[tuple[Any, float], list[dict]]:
    """Pool-worker node entry: run one node and ship its stage registry
    back.

    Workers are reused across nodes, so the registry is reset per node —
    the snapshot is exactly this node's delta, and the parent's merge is
    additive.  ``fault_key`` names this (node, attempt) so injected
    crashes/hangs are deterministic and do not re-fire on the retry;
    ``hang_s`` is how long an injected hang stalls (sized past the
    parent's round timeout).
    """
    node, fault_key, hang_s = payload
    if faults.site("executor.worker_crash", key=fault_key):
        os._exit(17)  # abrupt death: no cleanup, breaks the pool
    if faults.site("executor.worker_hang", key=fault_key):
        time.sleep(hang_s)
    reset_stage_timings()
    reset_stage_stack()
    out = _exec_node(node)
    return out, snapshot_stage_timings()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead workers."""
    pool.shutdown(wait=False, cancel_futures=True)
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
    for proc in procs:
        try:
            proc.join(timeout=5)
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass


@dataclass
class GraphStats:
    """Observability record of one graph execution."""

    nodes: int = 0
    workers: int = 1
    makespan_s: float = 0.0
    node_wall_s: float = 0.0
    #: the longest chain of executed nodes by node wall; with
    #: ``node_wall_s / workers`` it bounds the makespan from below
    critical_path_s: float = 0.0
    #: summed node wall over makespan; None when no node executed
    overlap_ratio: float | None = None
    #: demanded nodes served by a cache probe instead of executing
    cached_nodes: int = 0
    #: nodes never demanded (only a cache hit downstream needed them)
    skipped_nodes: int = 0
    #: pool rounds that failed (crash/hang) during the run
    failed_rounds: int = 0
    #: node submissions beyond the first attempt
    retried_nodes: int = 0
    #: completed node results carried across a pool rebuild instead of
    #: being recomputed (the property chaos CI asserts)
    reused_nodes: int = 0
    #: nodes that finished on the degrade-to-serial path
    degraded_nodes: int = 0
    #: nodes the policy ran exclusively (impure per the facts)
    exclusive_nodes: int = 0
    per_kind_wall_s: dict[str, float] = field(default_factory=dict)


class GraphScheduler:
    """Execute a :class:`TaskGraph`; results keyed by node key.

    ``n_jobs`` resolves like the executor's (explicit > ``REPRO_JOBS`` >
    CPU count); the round timeout and retry cap default to
    ``REPRO_CHUNK_TIMEOUT_S`` / ``REPRO_EXECUTOR_RETRIES``.
    """

    def __init__(self, n_jobs: int | None = None, *,
                 policy: ConcurrencyPolicy | None = None,
                 chunk_timeout_s: float | None = None,
                 max_retries: int | None = None,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.chunk_timeout_s = chunk_timeout_s \
            if chunk_timeout_s is not None \
            else _env_float("REPRO_CHUNK_TIMEOUT_S")
        self.max_retries = max_retries if max_retries is not None \
            else _env_int("REPRO_EXECUTOR_RETRIES", 3)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.policy = policy if policy is not None else ConcurrencyPolicy()
        self.last_stats = GraphStats()

    # ------------------------------------------------------------- run
    def run(self, graph: TaskGraph) -> dict[str, Any]:
        """Execute every demanded node; returns ``{key: value}``.

        The result holds every sink and every other demanded node
        (executed or served from the cache); nodes that were never
        demanded are absent.  Deterministic regardless of worker count,
        completion order, cache state, or injected faults: the result of
        each node depends only on its arguments, and assembly is by key.
        """
        order = graph.order()
        stats = self.last_stats = GraphStats(nodes=len(order))
        if not order:
            return {}
        t0 = time.perf_counter()
        results, pending = self._demand(graph, order)
        stats.cached_nodes = len(results)
        stats.skipped_nodes = len(order) - len(results) - len(pending)
        walls: dict[str, float] = {}
        workers = min(self.n_jobs, len(pending))
        stats.workers = max(workers, 1)
        if pending:
            note_worker_count(stats.workers)
        if workers <= 1:
            for key in pending:
                results[key] = self._run_inline(graph.node(key), walls)
        elif pending:
            results.update(self._run_pooled(graph, pending, workers, walls,
                                            stats))
        stats.makespan_s = time.perf_counter() - t0
        stats.node_wall_s = sum(walls.values())
        # a dependency served from the cache or never demanded held
        # nothing up, so only executed nodes extend a chain
        finish: dict[str, float] = {}
        for key in order:
            if key in walls:
                finish[key] = walls[key] + max(
                    (finish.get(d, 0.0) for d in graph.node(key).deps),
                    default=0.0)
        stats.critical_path_s = max(finish.values(), default=0.0)
        if walls and stats.makespan_s > 0:
            stats.overlap_ratio = stats.node_wall_s / stats.makespan_s
        for key, wall in walls.items():
            kind = graph.node(key).kind
            stats.per_kind_wall_s[kind] = \
                stats.per_kind_wall_s.get(kind, 0.0) + wall
        note_graph_run(stats.nodes, stats.node_wall_s, stats.makespan_s,
                       workers=stats.workers, cached=stats.cached_nodes,
                       skipped=stats.skipped_nodes,
                       critical_path_s=stats.critical_path_s)
        return results

    # ---------------------------------------------------------- demand
    @staticmethod
    def _demand(graph: TaskGraph,
                order: list[str]) -> tuple[dict[str, Any], list[str]]:
        """The demand pass: ``(cache hits by key, keys to execute)``.

        Walks ``order`` backwards, so every dependent of a node is
        settled before the node itself; the keys to execute come back in
        topological order.
        """
        dependents = graph.dependents()
        demanded = {key for key in order if not dependents[key]}
        hits: dict[str, Any] = {}
        pending: list[str] = []
        with stage("graph.demand"):
            for key in reversed(order):
                if key not in demanded:
                    continue
                node = graph.node(key)
                if node.cache is not None:
                    found, value = default_cache().peek(*node.cache)
                    if found:
                        hits[key] = value
                        continue
                pending.append(key)
                demanded.update(node.deps)
        pending.reverse()
        return hits, pending

    # ---------------------------------------------------------- serial
    @staticmethod
    def _run_inline(node: TaskNode, walls: dict[str, float]) -> Any:
        """Run one node in-process (serial path, exclusive nodes, and the
        degrade fallback).  No fault injection: the in-process path never
        self-destructs."""
        value, walls[node.key] = _exec_node(node)
        return value

    # ---------------------------------------------------------- pooled
    def _payload(self, node: TaskNode, attempt: int) -> tuple:
        hang_s = 2.0 * self.chunk_timeout_s if self.chunk_timeout_s \
            else 2.0
        return node, f"graph:{node.key}:{attempt}", hang_s

    def _run_pooled(self, graph: TaskGraph, order: list[str],
                    workers: int, walls: dict[str, float],
                    stats: GraphStats) -> dict[str, Any]:
        # deps outside ``order`` were served by the demand pass
        run_set = set(order)
        dependents = graph.dependents()
        deps_left = {k: len(set(graph.node(k).deps) & run_set)
                     for k in order}
        results: dict[str, Any] = {}
        ready: list[str] = []       # concurrent nodes, smallest key first
        exclusive: list[str] = []   # policy-serialized nodes
        attempts = {k: 0 for k in order}

        def _enqueue(key: str) -> None:
            node = graph.node(key)
            if self.policy.concurrent(node):
                heapq.heappush(ready, key)
            else:
                heapq.heappush(exclusive, key)

        def _complete(key: str, value: Any) -> None:
            results[key] = value
            for child in dependents[key]:
                if child not in deps_left:
                    continue  # never demanded
                deps_left[child] -= 1
                if deps_left[child] == 0:
                    _enqueue(child)

        def _harvest(key: str, fut: Future) -> None:
            (value, walls[key]), timings = fut.result()
            merge_stage_timings(timings)
            _complete(key, value)

        for key in order:
            if deps_left[key] == 0:
                _enqueue(key)

        inflight: dict[Future, str] = {}
        pool: ProcessPoolExecutor | None = None
        failed_rounds = 0
        try:
            while len(results) < len(order):
                if ready and pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(workers,
                                        len(order) - len(results)))
                while ready and len(inflight) < workers:
                    key = heapq.heappop(ready)
                    stats.retried_nodes += attempts[key] > 0
                    fut = pool.submit(
                        _exec_remote,
                        self._payload(graph.node(key), attempts[key]))
                    inflight[fut] = key
                if not inflight:
                    if exclusive:
                        # in-flight work drained: run the impure node
                        # alone, in the parent, at its topo position
                        key = heapq.heappop(exclusive)
                        stats.exclusive_nodes += 1
                        _complete(key, self._run_inline(graph.node(key),
                                                        walls))
                        continue
                    raise RuntimeError(  # pragma: no cover - order() bars
                        "graph stalled: no ready, in-flight, or "
                        "exclusive nodes left")
                done, _ = futures_wait(set(inflight),
                                       timeout=self.chunk_timeout_s,
                                       return_when=FIRST_COMPLETED)
                round_failed = not done
                for fut in sorted(done, key=lambda f: inflight[f]):
                    key = inflight.pop(fut)
                    exc = fut.exception()
                    if exc is None:
                        _harvest(key, fut)
                    elif isinstance(exc, (BrokenProcessPool, OSError)):
                        round_failed = True  # the pool failed: retry
                        attempts[key] += 1
                        heapq.heappush(ready, key)
                    else:  # task error, interrupt, exit: never retried
                        raise exc
                if not round_failed:
                    continue
                # harvest in-flight survivors, requeue the rest, rebuild
                for fut, key in list(inflight.items()):
                    if fut.done() and not fut.cancelled() \
                            and fut.exception() is None:
                        _harvest(key, fut)
                    else:
                        attempts[key] += 1
                        heapq.heappush(ready, key)
                inflight.clear()
                if pool is not None:
                    _kill_pool(pool)
                    pool = None
                failed_rounds += 1
                stats.failed_rounds = failed_rounds
                stats.reused_nodes = max(stats.reused_nodes, len(results))
                if failed_rounds > self.max_retries:
                    break
                time.sleep(min(
                    self.backoff_base_s * (2 ** (failed_rounds - 1)),
                    self.backoff_cap_s))
        except KeyboardInterrupt:
            if pool is not None:
                _kill_pool(pool)
            raise KeyboardInterrupt(
                "interrupted; cancelled pending graph nodes and "
                "retries") from None
        except BaseException:
            # a task error or a worker's exit: don't hang on the rest
            if pool is not None:
                _kill_pool(pool)
            raise
        if pool is not None:
            pool.shutdown(wait=True)
        if len(results) < len(order):
            # repeated pool failures: finish in-process in topo order —
            # completed node results are reused, never recomputed
            remaining = [k for k in order if k not in results]
            stats.degraded_nodes = len(remaining)
            for key in remaining:
                _complete(key, self._run_inline(graph.node(key), walls))
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphScheduler(n_jobs={self.n_jobs})"
