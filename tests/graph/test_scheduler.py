"""GraphScheduler semantics: determinism, policy, stats, and errors.

The scheduler's contract (docs/PERF.md): results depend only on the
node set and each node's arguments — identical across worker counts,
insertion orders, and completion races — and the concurrency policy
serializes exactly the nodes the determinism facts cannot prove pure.
"""

import random
import time

import pytest

from repro.analysis.edp import edp_study
from repro.analysis.observations import (_node_accuracy, _node_dataset,
                                         _run_observation)
from repro.analysis.spine import _node_matrix, _node_stats
from repro.harness.runner import _workload_records
from repro.graph import (
    ConcurrencyPolicy,
    GraphScheduler,
    TaskGraph,
    TaskNode,
)
from repro.graph.policy import function_fid
from repro.perf.executor import WorkerTaskError
from repro.perf.instrument import (
    reset_stage_timings,
    stage_meta,
    stage_timings,
)


def _square(x):
    return x * x


def _tag(key, base):
    return f"{key}:{base * 2}"


def _boom(x):
    raise ValueError(f"bad node {x}")


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _chain_graph(n=12):
    """Independent squares plus a short dependency chain."""
    g = TaskGraph()
    for i in range(n):
        g.add(TaskNode(key=f"sq:{i:02d}", kind="square", fn=_square,
                       args=(i,)))
    g.add(TaskNode(key="tag:a", kind="tag", fn=_tag, args=("a", 3)))
    g.add(TaskNode(key="tag:b", kind="tag", fn=_tag, args=("b", 4),
                   deps=("tag:a", "sq:00")))
    return g


def _expected(n=12):
    out = {f"sq:{i:02d}": i * i for i in range(n)}
    out["tag:a"] = "a:6"
    out["tag:b"] = "b:8"
    return out


class _KindPolicy(ConcurrencyPolicy):
    """Test double: serialize every node of the given kinds."""

    def __init__(self, exclusive_kinds):
        super().__init__(facts={})
        self.exclusive_kinds = set(exclusive_kinds)

    def concurrent(self, node):
        return node.kind not in self.exclusive_kinds


class TestDeterminism:
    def test_serial_equals_pooled(self):
        graph = _chain_graph()
        serial = GraphScheduler(1).run(graph)
        pooled = GraphScheduler(3, max_retries=2,
                                backoff_base_s=0.01).run(graph)
        assert serial == _expected()
        assert pooled == serial

    def test_results_independent_of_insertion_order(self):
        rng = random.Random(11)
        baseline = None
        for _ in range(4):
            nodes = list(_chain_graph())
            rng.shuffle(nodes)
            g = TaskGraph()
            g.extend(nodes)
            results = GraphScheduler(2, max_retries=2,
                                     backoff_base_s=0.01).run(g)
            if baseline is None:
                baseline = results
            assert results == baseline

    def test_empty_graph(self):
        assert GraphScheduler(4).run(TaskGraph()) == {}


class TestPolicy:
    def test_exclusive_nodes_run_in_parent_with_correct_results(self):
        graph = _chain_graph()
        sched = GraphScheduler(3, policy=_KindPolicy({"tag"}),
                               max_retries=2, backoff_base_s=0.01)
        assert sched.run(graph) == _expected()
        assert sched.last_stats.exclusive_nodes == 2

    def test_unknown_callables_default_concurrent(self):
        # test doubles live outside the repro package: no facts id, so
        # the policy cannot (and need not) constrain them
        node = TaskNode(key="k", kind="unit", fn=_square, args=(1,))
        assert function_fid(_square) is None
        assert ConcurrencyPolicy(facts={"purity": {}}).concurrent(node)

    def test_facts_drive_concurrency(self):
        fid = function_fid(_node_dataset)
        assert fid == "analysis/observations.py::_node_dataset"
        node = TaskNode(key="dataset:gemm", kind="dataset-gen",
                        fn=_node_dataset, args=("gemm",))
        pure = ConcurrencyPolicy(
            facts={"purity": {fid: {"pure": True, "ambient": []}}})
        impure = ConcurrencyPolicy(
            facts={"purity": {fid: {"pure": False}}})
        ambient = ConcurrencyPolicy(
            facts={"purity": {fid: {"pure": True, "ambient": ["env"]}}})
        assert pure.concurrent(node)
        assert not impure.concurrent(node)
        assert not ambient.concurrent(node)

    def test_shipped_facts_prove_pipeline_nodes_concurrent(self):
        """The checked-in artifact must keep the graph builders' node
        callables pure and ambient-free — otherwise every pipeline node
        serializes and the overlap gate in CI fails."""
        policy = ConcurrencyPolicy()
        assert policy.facts is not None, "determinism_facts.json missing"
        for fn, name in ((_node_dataset, "gemm"), (_node_accuracy, "gemm")):
            node = TaskNode(key=f"x:{name}", kind="dataset-gen", fn=fn,
                            args=(name,))
            entry = policy.facts["purity"][function_fid(fn)]
            assert entry["pure"] is True and not entry.get("ambient")
            assert policy.concurrent(node)

    @pytest.mark.parametrize("fn", [_node_stats, _run_observation,
                                    _node_matrix, _workload_records,
                                    edp_study])
    def test_shipped_facts_let_stats_nodes_fan_out(self, fn):
        """An exclusive verdict would run each stats row (and every
        Table 4 matrix the rows read, and every observation, grid and
        power node that reads them) alone in the parent: the computation
        stays single but loses all overlap."""
        policy = ConcurrencyPolicy()
        assert policy.facts is not None, "determinism_facts.json missing"
        entry = policy.facts["purity"][function_fid(fn)]
        assert entry["pure"] is True and not entry.get("ambient")
        node = TaskNode(key="stats:gemm", kind="analytic-stats", fn=fn,
                        args=("gemm",))
        assert policy.concurrent(node)


class TestObservability:
    def test_stats_and_stage_meta(self):
        reset_stage_timings()
        graph = _chain_graph(n=6)
        sched = GraphScheduler(2, max_retries=2, backoff_base_s=0.01)
        sched.run(graph)
        stats = sched.last_stats
        assert stats.nodes == 8 and stats.workers == 2
        assert stats.makespan_s > 0 and stats.node_wall_s > 0
        assert stats.overlap_ratio == pytest.approx(
            stats.node_wall_s / stats.makespan_s)
        assert set(stats.per_kind_wall_s) == {"square", "tag"}
        meta = stage_meta()["graph"]
        assert meta["runs"] == 1 and meta["nodes"] == 8
        assert meta["workers"] == 2
        assert meta["overlap_ratio"] == pytest.approx(stats.overlap_ratio,
                                                      abs=1e-3)
        # worker-side node timing files under graph/<kind> in the parent
        names = {t.name for t in stage_timings()}
        assert "graph" in names and "graph/square" in names

    def test_critical_path_is_the_longest_executed_chain(self):
        # chain a -> b -> c (3 x 40 ms) beside one 40 ms side node: the
        # chain is the critical path, the side node only adds work
        g = TaskGraph()
        g.add(TaskNode(key="a", kind="chain", fn=_nap, args=(0.04,)))
        g.add(TaskNode(key="b", kind="chain", fn=_nap, args=(0.04,),
                       deps=("a",)))
        g.add(TaskNode(key="c", kind="chain", fn=_nap, args=(0.04,),
                       deps=("b",)))
        g.add(TaskNode(key="side", kind="side", fn=_nap, args=(0.04,)))
        reset_stage_timings()
        sched = GraphScheduler(1)
        sched.run(g)
        stats = sched.last_stats
        assert stats.critical_path_s == pytest.approx(
            stats.per_kind_wall_s["chain"])
        assert stats.per_kind_wall_s["side"] < stats.critical_path_s \
            < stats.node_wall_s <= stats.makespan_s
        meta = stage_meta()["graph"]
        assert meta["critical_path_s"] == pytest.approx(
            stats.critical_path_s, abs=1e-6)

    def test_serial_path_records_graph_stage_pair(self):
        reset_stage_timings()
        GraphScheduler(1).run(_chain_graph(n=3))
        names = {t.name for t in stage_timings()}
        assert {"graph", "graph/square", "graph/tag"} <= names


class TestErrors:
    def test_task_error_propagates_serial(self):
        g = TaskGraph()
        g.add(TaskNode(key="bad", kind="unit", fn=_boom, args=(3,)))
        with pytest.raises(WorkerTaskError, match="bad node 3"):
            GraphScheduler(1).run(g)

    def test_task_error_propagates_pooled(self):
        g = _chain_graph(n=4)
        g.add(TaskNode(key="bad", kind="unit", fn=_boom, args=(3,)))
        with pytest.raises(WorkerTaskError, match="bad node 3"):
            GraphScheduler(2, max_retries=1, backoff_base_s=0.01).run(g)

