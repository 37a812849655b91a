"""The scheduler's demand pass: cached sinks prune the graph upstream.

A node that declares the result-cache address its callable writes is
probed before anything is scheduled; a hit serves the node and leaves
its inputs undemanded, so a warm observation audit replays its nine
verdicts without generating a dataset or starting a pool.  These tests
pin that contract on small synthetic graphs and on the real observation
graph (one shared cold audit populates the cache for the latter), plus
the two ways it must degrade to "run everything": ``REPRO_CACHE=0`` and
corrupt entries.
"""

import hashlib
import json
import os
import shutil
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
    verify_all,
)
from repro.gpu import Device
from repro.graph import GraphScheduler, TaskGraph, TaskNode
from repro.graph import scheduler as sched_mod
from repro.kernels import SpmvWorkload, all_workloads, get_workload
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


# ------------------------------------------------- the observation graph

@pytest.fixture(scope="module")
def cold_audit(tmp_path_factory):
    """One cold two-worker audit into a fresh cache directory:
    ``(cache dir, results, graph stats meta)``."""
    directory = tmp_path_factory.mktemp("audit") / "cache"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(directory))
        mp.delenv("REPRO_CACHE", raising=False)
        mp.delenv(faults.ENV_VAR, raising=False)
        faults.reset_fault_state()
        previous = set_default_cache(None)
        try:
            reset_stage_timings()
            results = verify_all(n_jobs=2)
            meta = dict(stage_meta()["graph"])
        finally:
            set_default_cache(previous)
    return directory, results, meta


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
        _, results, meta = cold_audit
        assert _evidence_digest(results) == EVIDENCE_SHA256
        assert meta["nodes"] == 27
        assert meta["cached_nodes"] == 0 and meta["skipped_nodes"] == 0

    def test_cold_audit_writes_every_declared_address(self, cold_audit,
                                                      audit_cache):
        cache = audit_cache()
        addresses = _addresses(build_observations_graph())
        # 9 verdicts and 9 Table 6 audits, each at its own address;
        # dataset-gen products are side effects and declare none
        assert sorted(addresses) == sorted(
            [f"observation:{i:02d}" for i in range(1, 10)]
            + [f"accuracy:{w.name}" for w in all_workloads()
               if w.floating_point])
        assert len(set(addresses.values())) == 18
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
        assert meta["cached_nodes"] == 9 and meta["skipped_nodes"] == 18
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
        # 8 verdicts + 9 accuracy audits served; the 9 dataset nodes
        # were never demanded; only observation 7 executed
        assert meta["cached_nodes"] == 17 and meta["skipped_nodes"] == 9
        assert cache._entry_path("observation",
                                 observation_key(6)).is_file()

    def test_cache_disabled_runs_every_node(self, audit_cache, monkeypatch):
        audit_cache()
        monkeypatch.setenv("REPRO_CACHE", "0")
        set_default_cache(None)
        _CALLS.clear()
        graph = TaskGraph()
        graph.extend([replace(n, fn=_record, args=(n.key,))
                      for n in build_observations_graph()])
        results, stats = _run(graph)
        assert len(results) == len(_CALLS) == 27
        assert stats.cached_nodes == 0 and stats.skipped_nodes == 0


def _corrupting_plan(graph, rate=0.2):
    """A ``cache.read_corrupt`` plan whose keyed draws hit the O7 verdict,
    at least one other verdict, and exactly one cheap Table 6 entry.

    Keyed draws are a pure hash of ``(seed, site, entry key)``, so the
    set of entries a plan corrupts is computable up front; the seed is
    searched so the plan exercises both recompute paths (a verdict alone,
    and a verdict through its demanded accuracy and dataset inputs)
    without recomputing the expensive sparse audits.
    """
    verdicts = {n.key: n.cache[1] for n in graph
                if n.key.startswith("observation:")}
    audits = {n.key.split(":", 1)[1]: n.cache[1] for n in graph
              if n.key.startswith("accuracy:")}
    for seed in range(5000):
        def hit(ckey):
            return faults.plan._keyed_unit(seed, "cache.read_corrupt",
                                           ckey) < rate
        bad_verdicts = sorted(k for k, c in verdicts.items() if hit(c))
        bad_audits = sorted(w for w, c in audits.items() if hit(c))
        if "observation:07" in bad_verdicts and len(bad_verdicts) >= 2 \
                and len(bad_audits) == 1 and bad_audits[0] in CHEAP_AUDITS:
            return (f"cache.read_corrupt={rate},seed={seed}",
                    bad_verdicts, bad_audits[0])
    raise AssertionError("no seed corrupts the wanted entries")


class TestCorruptWarmAudit:
    def test_corrupt_entries_recompute_bit_identically(
            self, cold_audit, audit_cache, tmp_path):
        copy = _linked_copy(cold_audit[0], tmp_path / "cache")
        audit_cache(copy)
        graph = build_observations_graph()
        spec, bad_verdicts, bad_audit = _corrupting_plan(graph)
        faults.install_plan(spec)
        results = verify_all(n_jobs=2)
        assert results == cold_audit[1]  # verdicts AND evidence
        assert _evidence_digest(results) == EVIDENCE_SHA256
        meta = stage_meta()["graph"]
        # executed: the corrupt verdicts plus the corrupt audit and its
        # dataset; served: the other verdicts and the other 8 audits
        executed = len(bad_verdicts) + 2
        assert meta["cached_nodes"] == (9 - len(bad_verdicts)) + 8
        assert meta["skipped_nodes"] == 27 - executed - meta["cached_nodes"]
        quarantined = {p.name for p in (copy / "_quarantine").iterdir()}
        addresses = _addresses(graph)
        for key in bad_verdicts + [f"accuracy:{bad_audit}"]:
            kind, ckey = addresses[key]
            assert f"{kind}__{ckey}.quar" in quarantined, key
