"""Deterministic parallel fan-out over a process pool, with recovery.

:class:`ParallelExecutor` is the order-preserving map the flat fan-outs
route through: ``map`` preserves input order exactly, chunks work
deterministically (boundaries depend only on item count and chunk size),
and falls back to a plain in-process loop for ``n_jobs=1`` — so the
serial and parallel paths produce identical results in identical order,
which the test suite asserts.

A pooled ``map`` is a task graph of dependency-free chunk nodes (keys
``chunk:<zero-padded index>``, so smallest-key-first is chunk order)
drained by :class:`~repro.graph.GraphScheduler`, and has its recovery
(docs/ROBUSTNESS.md): a crashed or hung round keeps completed chunks,
retries the rest on a rebuilt pool, and finally degrades to the serial
path, bit-identically; the ``executor.worker_crash`` /
``executor.worker_hang`` fault sites fire there.  Task-level exceptions
(:class:`WorkerTaskError`) are deterministic and propagate immediately,
labels intact.

Worker functions must be module-level (picklable).  ``n_jobs`` defaults
to ``REPRO_JOBS`` or the machine's CPU count; the round timeout to
``REPRO_CHUNK_TIMEOUT_S`` (unset = wait forever) and the retry cap to
``REPRO_EXECUTOR_RETRIES``.

Stage attribution survives the fan-out: pass ``stage_names`` (one stage
name per item) and each item runs under :func:`repro.perf.instrument.stage`.
Pool workers ship their stage registry back with every node, and the
parent merges the records under whatever stage is active at the ``map``
call site (inside the scheduler's ``graph/map-chunk`` node stages).
"""

from __future__ import annotations

import math
import os
import traceback
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .instrument import note_worker_count, stage

__all__ = ["ParallelExecutor", "WorkerTaskError", "resolve_n_jobs"]

T = TypeVar("T")
R = TypeVar("R")


class WorkerTaskError(RuntimeError):
    """A task failed inside a worker, annotated with which one.

    A bare exception crossing the process boundary loses all context about
    *which* grid point died; this wrapper names the failing item (the
    workload/variant label the caller supplied) and carries the worker-side
    traceback in the message.  Single string argument so it pickles
    losslessly back to the parent.  Task errors are deterministic — the
    retry machinery never retries them, and the label survives however
    many pool rounds happened before the failing chunk ran.
    """

    @property
    def label(self) -> str:
        return str(self.args[0]).split(":", 1)[0] if self.args else ""


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_JOBS`` > CPU count."""
    if n_jobs is not None:
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        return n_jobs
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            pass
    return os.cpu_count() or 1


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return max(int(raw), 0)
    except ValueError:
        return default


def _chunk_bounds(n_items: int, chunk_size: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) chunk boundaries — a pure function of the
    item count and chunk size, so task decomposition is deterministic."""
    return [(lo, min(lo + chunk_size, n_items))
            for lo in range(0, n_items, chunk_size)]


def _run_chunk(payload: tuple[Callable[[T], R], list[T], list[str] | None,
                              list[str] | None]) -> list[R]:
    fn, chunk, labels, stage_names = payload
    out: list[R] = []
    for i, item in enumerate(chunk):
        try:
            if stage_names:
                with stage(stage_names[i]):
                    out.append(fn(item))
            else:
                out.append(fn(item))
        except Exception as exc:
            label = labels[i] if labels else f"item {i}"
            raise WorkerTaskError(
                f"{label}: {type(exc).__name__}: {exc}\n"
                f"--- worker traceback ---\n{traceback.format_exc()}"
            ) from exc
    return out


class ParallelExecutor:
    """Order-preserving map over a process pool (or in-process for 1 job).

    ``chunk_timeout_s`` bounds how long the parent waits for *some*
    in-flight chunk to finish (None = forever); ``max_retries`` caps the
    failed pool rounds before the remaining chunks degrade to the serial
    path; backoff between rounds grows ``backoff_base_s * 2**round`` up
    to ``backoff_cap_s``.
    """

    def __init__(self, n_jobs: int | None = None, *,
                 chunk_size: int | None = None,
                 chunk_timeout_s: float | None = None,
                 max_retries: int | None = None,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.chunk_size = chunk_size
        self.chunk_timeout_s = chunk_timeout_s if chunk_timeout_s is not None \
            else _env_float("REPRO_CHUNK_TIMEOUT_S")
        self.max_retries = max_retries if max_retries is not None \
            else _env_int("REPRO_EXECUTOR_RETRIES", 3)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        #: pool rounds that failed during the last map (observability)
        self.last_failed_rounds = 0
        #: chunks the last map degraded to the serial path (observability)
        self.last_degraded_chunks = 0

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Iterable[T], *,
            chunk_size: int | None = None,
            labels: Sequence[str] | Callable[[T], str] | None = None,
            stage_names: Sequence[str] | Callable[[T], str] | None = None
            ) -> list[R]:
        """``[fn(x) for x in items]``, fanned out across processes.

        Results are returned in input order regardless of completion
        order.  A worker exception propagates as :class:`WorkerTaskError`
        naming the failing item (``labels`` — a string per item or a
        callable applied in the parent — gives the name; the index is
        used otherwise).  A broken pool or a hung chunk is survived:
        completed chunk results are kept, the pool is rebuilt, and only
        unfinished chunks are retried (capped exponential backoff),
        degrading to the in-process serial path after repeated failures —
        so the output matches the fault-free run exactly.
        ``KeyboardInterrupt`` cancels pending chunks and retries and
        re-raises cleanly instead of dumping a pool traceback.

        ``stage_names`` (a name per item, or a callable) runs each item
        under that instrumentation stage; pool-worker timings are merged
        back under the stage active at this call site, below the
        scheduler's ``graph/map-chunk`` node stages.
        """
        items = list(items)
        if callable(labels):
            labels = [labels(item) for item in items]
        elif labels is not None:
            labels = list(labels)
            if len(labels) != len(items):
                raise ValueError(
                    f"{len(labels)} labels for {len(items)} items")
        if callable(stage_names):
            stage_names = [stage_names(item) for item in items]
        elif stage_names is not None:
            stage_names = list(stage_names)
            if len(stage_names) != len(items):
                raise ValueError(
                    f"{len(stage_names)} stage names for {len(items)} items")
        workers = min(self.n_jobs, len(items))
        note_worker_count(max(workers, 1))
        self.last_failed_rounds = self.last_degraded_chunks = 0
        if workers <= 1:
            return _run_chunk((fn, items, labels, stage_names))
        size = chunk_size or self.chunk_size
        if size is None:
            # a few chunks per worker bounds imbalance without flooding
            # the pool with tiny tasks
            size = max(1, math.ceil(len(items) / (4 * workers)))
        # imported here: the graph package builds on this module
        from ..graph import GraphScheduler, TaskGraph, TaskNode

        bounds = _chunk_bounds(len(items), size)
        width = len(str(len(bounds) - 1))
        graph = TaskGraph()
        for idx, (lo, hi) in enumerate(bounds):
            graph.add(TaskNode(
                key=f"chunk:{idx:0{width}d}", kind="map-chunk",
                fn=_run_chunk,
                args=((fn, items[lo:hi], labels[lo:hi] if labels else None,
                       stage_names[lo:hi] if stage_names else None),)))
        sched = GraphScheduler(workers,
                               chunk_timeout_s=self.chunk_timeout_s,
                               max_retries=self.max_retries,
                               backoff_base_s=self.backoff_base_s,
                               backoff_cap_s=self.backoff_cap_s)
        results = sched.run(graph)
        self.last_failed_rounds = sched.last_stats.failed_rounds
        self.last_degraded_chunks = sched.last_stats.degraded_nodes
        return [out for node in graph for out in results[node.key]]

    # ------------------------------------------------------------------
    def starmap(self, fn: Callable[..., R],
                items: Iterable[Sequence[Any]], *,
                chunk_size: int | None = None,
                labels: Sequence[str] | Callable[[Sequence[Any]], str]
                | None = None,
                stage_names: Sequence[str]
                | Callable[[Sequence[Any]], str] | None = None) -> list[R]:
        """Like :meth:`map` but unpacks each item as ``fn(*item)``."""
        return self.map(_Star(fn), items, chunk_size=chunk_size,
                        labels=labels, stage_names=stage_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelExecutor(n_jobs={self.n_jobs})"


class _Star:
    """Picklable ``fn(*args)`` adapter for :meth:`ParallelExecutor.starmap`."""

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn

    def __call__(self, args: Sequence[Any]) -> Any:
        return self.fn(*args)
