"""The scheduler's demand pass: cached sinks prune the graph upstream.

A node that declares the result-cache address its callable writes is
probed before anything is scheduled; a hit serves the node and leaves
its inputs undemanded, so a warm observation audit replays its nine
verdicts without generating a dataset or starting a pool.  These tests
pin that contract on small synthetic graphs and on the real observation
graph (one shared cold audit populates the cache for the latter), plus
the two ways it must degrade to "run everything": ``REPRO_CACHE=0`` and
corrupt entries.  The observation graph's ``stats:`` nodes get the same
treatment: each workload's analytic stats are computed in one process,
and a verdict that misses replays them from the persisted tables.
"""

import hashlib
import json
import os
import pickle
import shutil
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from repro import faults
from repro.analysis import accuracy as acc_mod
from repro.analysis import observations as obs_mod
from repro.analysis.accuracy import AUDIT_SEED, accuracy_key
from repro.analysis.observations import (
    build_observations_graph,
    observation_key,
    stats_key,
    verify_all,
)
from repro.gpu import Device
from repro.graph import GraphScheduler, TaskGraph, TaskNode
from repro.graph import scheduler as sched_mod
from repro.kernels import SpmvWorkload, all_workloads, get_workload
from repro.kernels import base as base_mod
from repro.perf import executor as executor_mod
from repro.perf.cache import (
    ResultCache,
    default_cache,
    set_default_cache,
)
from repro.perf.instrument import reset_stage_timings, stage_meta

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
    stats that earlier tests memoized cannot stand in for a table."""
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
        assert len({stats_key(w) for w in all_workloads()}) == 10
        spmv = get_workload("spmv")
        base = stats_key(spmv)
        variants = [stats_key(SpmvWorkload(scale=0.08))]
        monkeypatch.setattr(np, "__version__", "0.0.0")
        variants.append(stats_key(spmv))
        monkeypatch.undo()
        monkeypatch.setattr(obs_mod, "package_source_token",
                            lambda: "edited-source")
        variants.append(stats_key(spmv))
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


@pytest.fixture(scope="module")
def cold_audit(tmp_path_factory):
    """One cold two-worker audit into a fresh cache directory:
    ``(cache dir, results, graph stats meta, stats log)``.  The stats
    memo starts empty and every computed analytic-stats triple is
    logged with the process that computed it."""
    root = tmp_path_factory.mktemp("audit")
    directory, log = root / "cache", root / "stats.log"
    log.touch()
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
        previous = set_default_cache(None)
        try:
            reset_stage_timings()
            results = verify_all(n_jobs=2)
            meta = dict(stage_meta()["graph"])
        finally:
            set_default_cache(previous)
    return directory, results, meta, log.read_text().splitlines()


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


def _addresses(graph):
    return {n.key: n.cache for n in graph if n.cache is not None}


class TestObservationGraphDemand:
    def test_cold_audit_runs_every_node(self, cold_audit):
        _, results, meta, _ = cold_audit
        assert _evidence_digest(results) == EVIDENCE_SHA256
        assert meta["nodes"] == 37
        assert meta["cached_nodes"] == 0 and meta["skipped_nodes"] == 0

    def test_cold_audit_computes_each_workloads_stats_once(self,
                                                           cold_audit):
        lines = cold_audit[3]
        triples = [line.split(" ", 1)[1] for line in lines]
        assert len(triples) == len(set(triples))
        pids: dict[str, set[str]] = {}
        for line in lines:
            pid, name, _ = line.split(" ", 2)
            pids.setdefault(name, set()).add(pid)
        assert sorted(pids) == sorted(w.name for w in all_workloads())
        assert all(len(p) == 1 for p in pids.values()), pids
        assert os.getpid() not in {int(p) for ps in pids.values()
                                   for p in ps}

    def test_cold_audit_writes_every_declared_address(self, cold_audit,
                                                      audit_cache):
        cache = audit_cache()
        addresses = _addresses(build_observations_graph())
        # 9 verdicts, 9 Table 6 audits and 10 stats tables, each at its
        # own address; dataset-gen products are side effects and
        # declare none
        assert sorted(addresses) == sorted(
            [f"observation:{i:02d}" for i in range(1, 10)]
            + [f"accuracy:{w.name}" for w in all_workloads()
               if w.floating_point]
            + [f"stats:{w.name}" for w in all_workloads()])
        assert len(set(addresses.values())) == 28
        for key, (kind, ckey) in addresses.items():
            assert cache._entry_path(kind, ckey).is_file(), key

    def test_warm_audit_starts_no_pool_and_loads_no_dataset(
            self, audit_cache, monkeypatch):
        cache = audit_cache()
        monkeypatch.setattr(sched_mod, "ProcessPoolExecutor", _no_pool)
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _no_pool)
        _forbid_datasets(monkeypatch)
        results = verify_all(n_jobs=2)
        assert _evidence_digest(results) == EVIDENCE_SHA256
        meta = stage_meta()["graph"]
        assert meta["cached_nodes"] == 9 and meta["skipped_nodes"] == 28
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
        # 8 verdicts + 9 accuracy audits + 10 stats tables served; the
        # 9 dataset nodes were never demanded; only observation 7 ran
        assert meta["cached_nodes"] == 27 and meta["skipped_nodes"] == 9
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
        # the 9 verdicts ran; 10 stats tables + 9 audits were served
        assert meta["cached_nodes"] == 19 and meta["skipped_nodes"] == 9

    def test_cache_disabled_runs_every_node(self, audit_cache, monkeypatch):
        audit_cache()
        monkeypatch.setenv("REPRO_CACHE", "0")
        set_default_cache(None)
        _CALLS.clear()
        graph = TaskGraph()
        graph.extend([replace(n, fn=_record, args=(n.key,))
                      for n in build_observations_graph()])
        results, stats = _run(graph)
        assert len(results) == len(_CALLS) == 37
        assert stats.cached_nodes == 0 and stats.skipped_nodes == 0


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
        # executed: the corrupt verdicts and stats tables, plus the
        # corrupt audit and its dataset; served: the other verdicts,
        # the other 8 audits and the other stats tables
        n_verdicts, n_stats = len(bad["observation"]), len(bad["stats"])
        assert meta["cached_nodes"] == (9 - n_verdicts) + 8 + (10 - n_stats)
        assert meta["skipped_nodes"] == 8  # the other datasets
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
        tables = {}
        for key in bad["stats"]:
            found, tables[key] = reader.peek(*graph.node(key).cache)
            assert found, key
        _fresh_stats_memo(monkeypatch)
        faults.install_plan(spec)
        results = GraphScheduler(2).run(graph)
        for i, result in enumerate(cold_audit[1]):
            assert results[f"observation:{i + 1:02d}"] == result
        for key, table in tables.items():
            assert pickle.dumps(results[key]) == pickle.dumps(table), key
        quarantined = {p.name for p in (copy / "_quarantine").iterdir()}
        for key in bad["stats"]:
            assert f"stats__{graph.node(key).cache[1]}.quar" in quarantined
