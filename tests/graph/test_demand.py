"""The scheduler's demand pass: cached sinks prune the graph upstream.

A node that declares the result-cache address its callable writes is
probed before anything is scheduled; a hit serves the node and leaves
its inputs undemanded, so a warm observation audit replays its nine
verdicts without generating a dataset or starting a pool.  These tests
pin that contract on small synthetic graphs and on the real observation
graph (one shared cold audit populates the cache for the latter), plus
the two ways it must degrade to "run everything": ``REPRO_CACHE=0`` and
corrupt entries.  The characterization spine's ``stats:`` rows get the
same treatment: each case's analytic stats are computed in one process,
and a verdict that misses replays them from the persisted rows, as do a
later ``repro perf`` and ``repro power``.  Its ``matrix:`` nodes generate
each full-scale Table 4 matrix once, in one pool worker, for every stats
and dataset node that reads it, and the scheduler's pool is the only one
the audit builds.
"""

import functools
import hashlib
import json
import os
import pickle
import shutil
import sys
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro import faults
from repro.analysis import accuracy as acc_mod
from repro.analysis import observations as obs_mod
from repro.analysis.accuracy import AUDIT_SEED, accuracy_key
from repro.analysis import spine as spine_mod
from repro.analysis.edp import power_study
from repro.analysis.observations import (
    build_observations_graph,
    observation_key,
    verify_all,
)
from repro.analysis.spine import matrix_node_key, stats_key
from repro.datasets import suitesparse
from repro.gpu import Device
from repro.graph import GraphScheduler, TaskGraph, TaskNode
from repro.graph import scheduler as sched_mod
from repro.harness.runner import run_performance
from repro.kernels import SpmvWorkload, all_workloads, get_workload
from repro.kernels import base as base_mod
from repro.kernels import spgemm as spgemm_mod
from repro.kernels import spmv as spmv_mod
from repro.perf.cache import (
    ResultCache,
    default_cache,
    set_default_cache,
)
from repro.perf.instrument import reset_stage_timings, stage_meta

from .test_identity import EDP_SHA256, _digest

#: sha256 of the default-suite verdicts and evidence — the same pin the
#: repository benchmark holds the audit to
EVIDENCE_SHA256 = \
    "92d53c1feda944d7343ed5aed993286c7709a55991c6309f59baa04f8b444c68"

#: workloads whose Table 6 audit takes well under a second to recompute
CHEAP_AUDITS = ("gemm", "gemv", "reduction", "scan", "stencil")

_CALLS: list[str] = []


def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return repr(obj)


def _evidence_digest(results) -> str:
    return hashlib.sha256(json.dumps(
        [[r.number, bool(r.holds), r.evidence] for r in results],
        sort_keys=True, default=_plain).encode()).hexdigest()


def _cached_square(kind, key, x):
    """A node callable that writes its value to its cache address."""
    _CALLS.append(key)
    return default_cache().get_or_compute(kind, key, lambda: x * x)


def _plain_square(x):
    _CALLS.append(f"plain:{x}")
    return x * x


def _record(*args):
    _CALLS.append(repr(args))
    return args


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def _no_dataset(*args, **kwargs):
    raise AssertionError("a dataset generator was called")


def _no_stats(self, variant, case):
    raise AssertionError(f"{self.name} computed analytic stats")


def _fresh_stats_memo(mp):
    """An empty process-local stats memo (pool workers fork it), so
    stats that earlier tests memoized cannot stand in for a row."""
    mp.setattr(base_mod, "_STATS_MEMO", OrderedDict())


def _addr(name):
    return ("unit", f"key-{name}")


def _node(name, x, deps=(), cached=True):
    if cached:
        return TaskNode(key=name, kind="unit", fn=_cached_square,
                        args=(*_addr(name), x), deps=deps,
                        cache=_addr(name))
    return TaskNode(key=name, kind="unit", fn=_plain_square, args=(x,),
                    deps=deps)


def _diamond():
    """``a`` (no address) -> ``b``, ``c`` -> sink ``d``; plus a lone
    addressed sink ``e``."""
    g = TaskGraph()
    g.extend([
        _node("a", 1, cached=False),
        _node("b", 2, deps=("a",)),
        _node("c", 3, deps=("a",)),
        _node("d", 4, deps=("b", "c")),
        _node("e", 5),
    ])
    return g


@pytest.fixture
def unit_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    previous = set_default_cache(cache)
    _CALLS.clear()
    yield cache
    set_default_cache(previous)


def _run(graph, n_jobs=1):
    reset_stage_timings()
    sched = GraphScheduler(n_jobs, max_retries=1, backoff_base_s=0.01)
    return sched.run(graph), sched.last_stats


class TestDemandPass:
    def test_cold_run_executes_every_node(self, unit_cache):
        results, stats = _run(_diamond())
        assert results == {"a": 1, "b": 4, "c": 9, "d": 16, "e": 25}
        assert stats.cached_nodes == 0 and stats.skipped_nodes == 0
        assert sorted(_CALLS) == sorted(
            ["plain:1", "key-b", "key-c", "key-d", "key-e"])

    def test_warm_sinks_prune_everything_upstream(self, unit_cache,
                                                  monkeypatch):
        _run(_diamond())
        _CALLS.clear()
        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", _no_pool)
        results, stats = _run(_diamond(), n_jobs=2)
        # only the sinks come back: nothing else was demanded
        assert results == {"d": 16, "e": 25}
        assert _CALLS == []
        assert stats.cached_nodes == 2 and stats.skipped_nodes == 3
        assert stats.overlap_ratio is None
        meta = stage_meta()["graph"]
        assert meta["cached_nodes"] == 2 and meta["skipped_nodes"] == 3
        # nothing executed, so nothing overlapped (not a 0.00x overlap)
        assert meta["overlap_ratio"] is None
        assert meta["makespan_s"] == 0.0

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_sink_miss_demands_its_inputs(self, unit_cache, n_jobs):
        _run(_diamond())
        unit_cache.clear_memory()
        for name in ("c", "d"):
            os.unlink(unit_cache._entry_path(*_addr(name)))
        _CALLS.clear()
        results, stats = _run(_diamond(), n_jobs=n_jobs)
        # d and c miss; c's miss demands the address-less a, which has
        # no address to probe and so always runs; b hits
        assert results == {"a": 1, "b": 4, "c": 9, "d": 16, "e": 25}
        assert stats.cached_nodes == 2  # b, e
        assert stats.skipped_nodes == 0
        assert sorted(stats.per_kind_wall_s) == ["unit"]
        for name in ("c", "d"):
            assert unit_cache._entry_path(*_addr(name)).is_file()
        if n_jobs == 1:  # pool workers append to their own copy
            assert sorted(_CALLS) == ["key-c", "key-d", "plain:1"]

    def test_hit_input_shields_its_own_inputs(self, unit_cache):
        _run(_diamond())
        unit_cache.clear_memory()
        os.unlink(unit_cache._entry_path(*_addr("d")))
        _CALLS.clear()
        results, stats = _run(_diamond())
        assert results == {"b": 4, "c": 9, "d": 16, "e": 25}
        assert _CALLS == ["key-d"]
        assert stats.cached_nodes == 3 and stats.skipped_nodes == 1

    def test_corrupt_entry_is_quarantined_and_recomputed(self, unit_cache):
        _run(_diamond())
        unit_cache.clear_memory()
        path = unit_cache._entry_path(*_addr("d"))
        path.write_bytes(path.read_bytes()[:-3])  # truncated trailer
        _CALLS.clear()
        results, stats = _run(_diamond())
        assert results["d"] == 16
        assert _CALLS == ["key-d"]
        assert unit_cache.stats.quarantined == 1
        assert path.exists()  # rewritten by the recompute

    def test_cache_disabled_runs_every_node(self, unit_cache, monkeypatch):
        _run(_diamond())
        monkeypatch.setenv("REPRO_CACHE", "0")
        set_default_cache(None)  # rebuilt from the environment
        _CALLS.clear()
        results, stats = _run(_diamond())
        assert len(results) == 5 and len(_CALLS) == 5
        assert stats.cached_nodes == 0 and stats.skipped_nodes == 0


class TestCacheKeys:
    """Each component of the shared keys must reach the key: a dropped
    component lets a stale verdict or Table 6 row replay."""

    def test_observation_key_components(self, monkeypatch):
        keys = {observation_key(i) for i in range(9)}
        assert len(keys) == 9
        base = observation_key(6)
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert observation_key(6) != base
        monkeypatch.undo()
        monkeypatch.setattr(obs_mod, "package_source_token",
                            lambda: "edited-source")
        assert observation_key(6) != base

    def test_accuracy_key_components(self, monkeypatch):
        spmv, h200 = get_workload("spmv"), Device("H200")
        base = accuracy_key(spmv, h200, AUDIT_SEED)
        variants = [
            accuracy_key(get_workload("gemv"), h200, AUDIT_SEED),
            accuracy_key(SpmvWorkload(scale=0.08), h200, AUDIT_SEED),
            accuracy_key(spmv, Device("B200"), AUDIT_SEED),
            accuracy_key(spmv, h200, AUDIT_SEED + 1),
        ]
        monkeypatch.setattr(np, "__version__", "0.0.0")
        variants.append(accuracy_key(spmv, h200, AUDIT_SEED))
        monkeypatch.undo()
        monkeypatch.setattr(acc_mod, "package_source_token",
                            lambda: "edited-source")
        variants.append(accuracy_key(spmv, h200, AUDIT_SEED))
        assert base not in variants
        assert len(set(variants)) == len(variants)

    def test_stats_key_components(self, monkeypatch):
        assert len({stats_key(w, c) for w in all_workloads()
                    for c in w.cases()}) == 50
        spmv = get_workload("spmv")
        case = spmv.representative_case()
        base = stats_key(spmv, case)
        variants = [stats_key(SpmvWorkload(scale=0.08), case),
                    stats_key(spmv, spmv.cases()[0])]
        monkeypatch.setattr(np, "__version__", "0.0.0")
        variants.append(stats_key(spmv, case))
        monkeypatch.undo()
        monkeypatch.setattr(base_mod, "package_source_token",
                            lambda: "edited-source")
        variants.append(stats_key(spmv, case))
        assert base not in variants
        assert len(set(variants)) == len(variants)


# ------------------------------------------------- the observation graph

def _recording(impl, log):
    """``impl`` that first appends ``pid workload variant case`` to the
    file ``log`` (pool workers append to the same file)."""
    def record(self, variant, case):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {self.name} {variant.value} "
                     f"{case.label}\n")
        return impl(self, variant, case)
    return record


#: node callables of the spine and the observation graph -> their node
#: key, from the callable's arguments
_NODE_KEY = {fn.__code__: key for fn, key in (
    (spine_mod._node_matrix, lambda a: matrix_node_key(
        (a["name"], a["scale"], a["seed"]))),
    (spine_mod._node_stats, lambda a: (f"stats:{a['workload'].name}:"
                                       f"{a['case'].label}")),
    (obs_mod._node_dataset, lambda a: f"dataset:{a['name']}"),
    (obs_mod._node_accuracy, lambda a: f"accuracy:{a['name']}"))}


def _calling_node():
    """The key of the graph node whose callable is on the stack, or
    ``-`` outside one."""
    frame = sys._getframe()
    while frame is not None:
        key = _NODE_KEY.get(frame.f_code)
        if key is not None:
            return key(frame.f_locals)
        frame = frame.f_back
    return "-"


def _recording_matrices(mp, log):
    """Append ``event pid node name scale seed`` to the file ``log`` for
    every Table 4 matrix the sparse workloads or the matrix nodes ask
    for (event ``read``) and every one actually generated (``gen``)."""
    def recording(event, impl):
        def record(name, scale=1.0, seed=1325):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{event} {os.getpid()} {_calling_node()} {name} "
                         f"{float(scale)!r} {int(seed)}\n")
            return impl(name, scale, seed)
        return record

    mp.setattr(suitesparse, "_generate_matrix_uncached", recording(
        "gen", suitesparse._generate_matrix_uncached))
    for mod in (spmv_mod, spgemm_mod, spine_mod):
        mp.setattr(mod, "generate_matrix",
                   recording("read", suitesparse.generate_matrix))
    for mod in (spmv_mod, spgemm_mod):
        mp.setattr(mod, "_analytic_matrix", functools.lru_cache(32)(
            mod._analytic_matrix.__wrapped__))


def _recording_pools(mp, log):
    """Append ``pid parent-pid`` of the building process to the file
    ``log`` for every process pool constructed, in the parent or in a
    pool worker."""
    init = ProcessPoolExecutor.__init__

    def record(self, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {os.getppid()}\n")
        init(self, *args, **kwargs)

    mp.setattr(ProcessPoolExecutor, "__init__", record)


@pytest.fixture(scope="module")
def cold_audit(tmp_path_factory):
    """One cold two-worker audit into a fresh cache directory:
    ``(cache dir, results, graph stats meta, stats log, matrix log,
    pool log)``.  The stats memo starts empty and every computed
    analytic-stats triple is logged with the process that computed it;
    so is every Table 4 matrix read and generated, with no matrix
    memoized in the sparse workloads, and every process pool built."""
    root = tmp_path_factory.mktemp("audit")
    directory, log = root / "cache", root / "stats.log"
    matrix_log, pool_log = root / "matrix.log", root / "pool.log"
    for path in (log, matrix_log, pool_log):
        path.touch()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(directory))
        mp.delenv("REPRO_CACHE", raising=False)
        mp.delenv(faults.ENV_VAR, raising=False)
        faults.reset_fault_state()
        _fresh_stats_memo(mp)
        for w in all_workloads():
            impl = type(w).analytic_stats.__wrapped__
            mp.setattr(type(w), "analytic_stats",
                       base_mod._memoize_stats(_recording(impl, log)))
        _recording_matrices(mp, matrix_log)
        _recording_pools(mp, pool_log)
        previous = set_default_cache(None)
        try:
            reset_stage_timings()
            results = verify_all(n_jobs=2)
            meta = dict(stage_meta()["graph"])
        finally:
            set_default_cache(previous)
    return (directory, results, meta, log.read_text().splitlines(),
            matrix_log.read_text().splitlines(),
            pool_log.read_text().splitlines())


@pytest.fixture
def audit_cache(cold_audit, monkeypatch):
    """Point the process (and its pool workers) at the cold audit's
    cache, through a fresh in-memory tier."""
    directory = cold_audit[0]

    def use(path=directory):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
        set_default_cache(None)
        return default_cache()

    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset_fault_state()
    previous = set_default_cache(None)
    reset_stage_timings()
    yield use
    faults.clear_plan()
    set_default_cache(previous)


def _linked_copy(src, dest):
    """A copy of a cache directory whose entries are hard links: cache
    writes replace files and quarantine moves them, so the source is
    never modified."""
    shutil.copytree(src, dest, copy_function=os.link)
    return dest


def _forbid_datasets(monkeypatch):
    monkeypatch.setattr(obs_mod, "_node_dataset", _no_dataset)
    for w in all_workloads():
        monkeypatch.setattr(type(w), "prepare", _no_dataset)


def _upstream(graph, key):
    """``key`` and every node it transitively depends on."""
    seen, todo = set(), [key]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(graph.node(node).deps)
    return seen


def _producer(request):
    """The ``matrix:`` node key of a logged ``name scale seed`` request."""
    name, scale, seed = request.split()
    return matrix_node_key((name, float(scale), int(seed)))


def _addresses(graph):
    return {n.key: n.cache for n in graph if n.cache is not None}


class TestObservationGraphDemand:
    def test_cold_audit_runs_every_node(self, cold_audit):
        _, results, meta, *_ = cold_audit
        assert _evidence_digest(results) == EVIDENCE_SHA256
        assert meta["nodes"] == 82
        assert meta["cached_nodes"] == 0 and meta["skipped_nodes"] == 0

    def test_cold_audit_computes_each_workloads_stats_once(self,
                                                           cold_audit):
        lines = cold_audit[3]
        triples = [line.split(" ", 1)[1] for line in lines]
        assert len(triples) == len(set(triples))
        pids: dict[tuple[str, str], set[str]] = {}
        for line in lines:
            pid, name, _, case = line.split(" ", 3)
            pids.setdefault((name, case), set()).add(pid)
        assert sorted(pids) == sorted((w.name, c.label)
                                      for w in all_workloads()
                                      for c in w.cases())
        assert all(len(p) == 1 for p in pids.values()), pids
        assert os.getpid() not in {int(p) for ps in pids.values()
                                   for p in ps}

    def test_cold_audit_generates_each_matrix_once(self, cold_audit):
        """Each full-scale Table 4 matrix is generated once, by its
        ``matrix:`` node, in a pool worker, and every node that reads it
        runs downstream of that node (so it finds the cache entry)."""
        events = [line.split(" ", 3) for line in cold_audit[4]]
        gens = [(pid, node, request)
                for event, pid, node, request in events if event == "gen"]
        requests = [request for _, _, request in gens]
        assert len(requests) == len(set(requests)), gens
        full_scale = {f"{name} {scale!r} {seed}"
                      for w in map(get_workload, ("spmv", "spgemm"))
                      for name, scale, seed in map(w.matrix_args,
                                                   w.cases())}
        assert len(full_scale) == 5
        assert full_scale <= set(requests), gens
        for pid, node, request in gens:
            if request in full_scale:
                assert node == _producer(request), request
                assert int(pid) != os.getpid(), request
        graph = build_observations_graph()
        readers = {(node, request) for event, _, node, request in events
                   if event == "read" and request in full_scale}
        assert {node.split(":")[0] for node, _ in readers} >= {
            "matrix", "stats", "dataset"}
        for node, request in readers:
            assert _producer(request) in _upstream(graph, node), (node,
                                                                 request)

    def test_cold_audit_builds_one_pool_in_the_parent(self, cold_audit):
        """Observation 7 reads its Table 6 rows in-process: the one pool
        a pooled cold audit builds is the scheduler's, in the parent,
        and no node forks a second pool inside a pool worker."""
        assert cold_audit[5] == [f"{os.getpid()} {os.getppid()}"]

    def test_cold_audit_writes_every_declared_address(self, cold_audit,
                                                      audit_cache):
        cache = audit_cache()
        addresses = _addresses(build_observations_graph())
        # 9 verdicts, 9 Table 6 audits and 50 stats rows, each at its
        # own address; dataset and matrix products are side effects and
        # declare none
        assert sorted(addresses) == sorted(
            [f"observation:{i:02d}" for i in range(1, 10)]
            + [f"accuracy:{w.name}" for w in all_workloads()
               if w.floating_point]
            + [f"stats:{w.name}:{c.label}" for w in all_workloads()
               for c in w.cases()])
        assert len(set(addresses.values())) == 68
        for key, (kind, ckey) in addresses.items():
            assert cache._entry_path(kind, ckey).is_file(), key

    def test_warm_audit_starts_no_pool_and_loads_no_dataset(
            self, audit_cache, monkeypatch):
        cache = audit_cache()
        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", _no_pool)
        _forbid_datasets(monkeypatch)
        results = verify_all(n_jobs=2)
        assert _evidence_digest(results) == EVIDENCE_SHA256
        meta = stage_meta()["graph"]
        assert meta["cached_nodes"] == 9 and meta["skipped_nodes"] == 73
        assert meta["overlap_ratio"] is None
        assert cache.stats.disk_hits == 9 and cache.stats.misses == 0

    def test_partial_warm_reruns_only_the_missing_verdict(
            self, cold_audit, audit_cache, monkeypatch, tmp_path):
        copy = _linked_copy(cold_audit[0], tmp_path / "cache")
        cache = audit_cache(copy)
        os.unlink(cache._entry_path("observation", observation_key(6)))
        _forbid_datasets(monkeypatch)
        results = verify_all(n_jobs=2)
        assert _evidence_digest(results) == EVIDENCE_SHA256
        meta = stage_meta()["graph"]
        # 8 verdicts + 9 accuracy audits + 50 stats rows served; the
        # 9 dataset and 5 matrix nodes were never demanded; only
        # observation 7 ran
        assert meta["cached_nodes"] == 67 and meta["skipped_nodes"] == 14
        assert cache._entry_path("observation",
                                 observation_key(6)).is_file()

    def test_missed_verdicts_replay_the_stats_tables(
            self, cold_audit, audit_cache, monkeypatch, tmp_path):
        copy = _linked_copy(cold_audit[0], tmp_path / "cache")
        cache = audit_cache(copy)
        for i in range(9):
            os.unlink(cache._entry_path("observation", observation_key(i)))
        _forbid_datasets(monkeypatch)
        _fresh_stats_memo(monkeypatch)
        for w in all_workloads():
            monkeypatch.setattr(type(w), "analytic_stats",
                                base_mod._memoize_stats(_no_stats))
        results = verify_all(n_jobs=2)
        assert _evidence_digest(results) == EVIDENCE_SHA256
        meta = stage_meta()["graph"]
        # the 9 verdicts ran; 50 stats rows + 9 audits were served, so
        # no dataset or matrix node was demanded
        assert meta["cached_nodes"] == 59 and meta["skipped_nodes"] == 14

    def test_perf_and_power_read_the_audits_stats_rows(
            self, cold_audit, audit_cache, monkeypatch, tmp_path):
        """After a cold audit, the Figures 3-6 grid and the Figure 7
        study serve every ``stats:`` row from the cache and compute no
        analytic stats: each reader's memo miss finds its row."""
        copy = _linked_copy(cold_audit[0], tmp_path / "cache")
        audit_cache(copy)
        log = tmp_path / "stats.log"
        log.touch()
        _fresh_stats_memo(monkeypatch)
        for w in all_workloads():
            impl = type(w).analytic_stats.__wrapped__
            monkeypatch.setattr(type(w), "analytic_stats",
                                base_mod._memoize_stats(_recording(impl, log)))
        _forbid_datasets(monkeypatch)
        assert len(run_performance(n_jobs=2)) == 3 * sum(
            len(w.cases()) * len(w.variants()) for w in all_workloads())
        meta = stage_meta()["graph"]
        # 50 stats rows served; the 5 matrices were never demanded
        assert meta["nodes"] == 65
        assert meta["cached_nodes"] == 50 and meta["skipped_nodes"] == 5
        reset_stage_timings()
        entries = power_study(all_workloads(), Device("H200"), n_jobs=2)
        assert _digest(entries) == EDP_SHA256
        meta = stage_meta()["graph"]
        # one row per representative case; SpMV and SpGEMM read the same
        # matrix for theirs
        assert meta["nodes"] == 21
        assert meta["cached_nodes"] == 10 and meta["skipped_nodes"] == 1
        assert log.read_text() == ""

    def test_cache_disabled_runs_every_node(self, audit_cache, monkeypatch):
        audit_cache()
        monkeypatch.setenv("REPRO_CACHE", "0")
        set_default_cache(None)
        _CALLS.clear()
        graph = TaskGraph()
        graph.extend([replace(n, fn=_record, args=(n.key,))
                      for n in build_observations_graph()])
        results, stats = _run(graph)
        assert len(results) == len(_CALLS) == 82
        assert stats.cached_nodes == 0 and stats.skipped_nodes == 0


def test_cold_perf_computes_each_row_and_matrix_once(tmp_path,
                                                     monkeypatch):
    """A cold pooled grid computes each stats triple once, in its
    ``stats:`` row, and generates each full-scale Table 4 matrix once, by
    its ``matrix:`` node, both in pool workers: every ``perf:`` node
    waits for its rows and reads them."""
    log, matrix_log = tmp_path / "stats.log", tmp_path / "matrix.log"
    log.touch()
    matrix_log.touch()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset_fault_state()
    _fresh_stats_memo(monkeypatch)
    for w in all_workloads():
        impl = type(w).analytic_stats.__wrapped__
        monkeypatch.setattr(type(w), "analytic_stats",
                            base_mod._memoize_stats(_recording(impl, log)))
    _recording_matrices(monkeypatch, matrix_log)
    previous = set_default_cache(None)
    try:
        run_performance(n_jobs=2)
    finally:
        set_default_cache(previous)
    lines = log.read_text().splitlines()
    assert sorted(line.split(" ", 1)[1] for line in lines) == sorted(
        f"{w.name} {v.value} {c.label}" for w in all_workloads()
        for c in w.cases() for v in w.variants())
    assert os.getpid() not in {int(line.split()[0]) for line in lines}
    gens = [line.split(" ", 3)[1:]
            for line in matrix_log.read_text().splitlines()
            if line.startswith("gen ")]
    spmv = get_workload("spmv")
    full_scale = sorted(f"{name} {scale!r} {seed}"
                        for name, scale, seed in map(spmv.matrix_args,
                                                     spmv.cases()))
    assert sorted(request for _, _, request in gens) == full_scale, gens
    for pid, node, request in gens:
        assert node == _producer(request), request
        assert int(pid) != os.getpid(), request


def _corrupting_plan(graph, wanted, rate=0.2):
    """A ``cache.read_corrupt`` plan and the entries it corrupts:
    ``(spec, {"observation": [...], "accuracy": [...], "stats": [...]})``
    holding the node keys per kind, for the first seed whose corrupted
    sets satisfy ``wanted``.

    Keyed draws are a pure hash of ``(seed, site, entry key)``, so the
    set of entries a plan corrupts is computable up front, and a seed can
    be searched that exercises the wanted recompute paths without
    recomputing the expensive sparse audits.
    """
    for seed in range(5000):
        bad: dict[str, list[str]] = {"observation": [], "accuracy": [],
                                     "stats": []}
        for node in graph:
            if node.cache is not None and faults.plan._keyed_unit(
                    seed, "cache.read_corrupt", node.cache[1]) < rate:
                bad[node.key.split(":", 1)[0]].append(node.key)
        if wanted(bad):
            return f"cache.read_corrupt={rate},seed={seed}", bad
    raise AssertionError("no seed corrupts the wanted entries")


class TestCorruptWarmAudit:
    def test_corrupt_entries_recompute_bit_identically(
            self, cold_audit, audit_cache, tmp_path):
        """A verdict alone, and a verdict through its demanded accuracy
        and dataset inputs."""
        copy = _linked_copy(cold_audit[0], tmp_path / "cache")
        audit_cache(copy)
        graph = build_observations_graph()
        spec, bad = _corrupting_plan(graph, lambda bad: (
            "observation:07" in bad["observation"]
            and len(bad["observation"]) >= 2
            and [k.split(":")[1] for k in bad["accuracy"]] in
            [[w] for w in CHEAP_AUDITS]))
        faults.install_plan(spec)
        results = verify_all(n_jobs=2)
        assert results == cold_audit[1]  # verdicts AND evidence
        assert _evidence_digest(results) == EVIDENCE_SHA256
        meta = stage_meta()["graph"]
        # executed: the corrupt verdicts and stats rows, plus the
        # corrupt audit and its dataset, plus the matrix each corrupt
        # sparse row reads; served: the other verdicts, the other 8
        # audits and the other stats rows
        n_verdicts, n_stats = len(bad["observation"]), len(bad["stats"])
        assert meta["cached_nodes"] == (9 - n_verdicts) + 8 + (50 - n_stats)
        read = {dep for key in bad["stats"] for dep in graph.node(key).deps}
        # the other datasets, and the matrices no corrupt row reads
        assert meta["skipped_nodes"] == 8 + 5 - len(read)
        quarantined = {p.name for p in (copy / "_quarantine").iterdir()}
        addresses = _addresses(graph)
        for key in bad["observation"] + bad["accuracy"]:
            kind, ckey = addresses[key]
            assert f"{kind}__{ckey}.quar" in quarantined, key

    def test_corrupt_stats_table_recomputes_bit_identically(
            self, cold_audit, audit_cache, monkeypatch, tmp_path):
        copy = _linked_copy(cold_audit[0], tmp_path / "cache")
        audit_cache(copy)
        graph = build_observations_graph()
        spec, bad = _corrupting_plan(graph, lambda bad: (
            bad["observation"] and bad["stats"] and not bad["accuracy"]))
        reader = ResultCache(copy)
        rows = {}
        for key in bad["stats"]:
            found, rows[key] = reader.peek(*graph.node(key).cache)
            assert found, key
        _fresh_stats_memo(monkeypatch)
        faults.install_plan(spec)
        results = GraphScheduler(2).run(graph)
        for i, result in enumerate(cold_audit[1]):
            assert results[f"observation:{i + 1:02d}"] == result
        for key, row in rows.items():
            assert pickle.dumps(results[key]) == pickle.dumps(row), key
        quarantined = {p.name for p in (copy / "_quarantine").iterdir()}
        for key in bad["stats"]:
            assert f"stats__{graph.node(key).cache[1]}.quar" in quarantined
