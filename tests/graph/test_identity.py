"""Graph execution is bit-identical to the staged loops it replaced.

Each rewired pipeline (``verify_all``, ``run_performance``,
``sweep_sizes``) is run both ways — graph default vs ``mode="staged"``
legacy — and the results compared field-for-field.  Every node callable
is a deterministic function of its arguments (the determinism facts
prove it), so equality here is exact, not approximate.
"""

from repro.analysis.accuracy import accuracy_table
from repro.analysis.observations import (
    OBSERVATIONS,
    _node_accuracy,
    build_observations_graph,
    verify_all,
)
from repro.gpu import Device
from repro.harness.runner import run_performance
from repro.harness.sweep import sweep_sizes
from repro.kernels import (
    GemmWorkload,
    GemvWorkload,
    ReductionWorkload,
    ScanWorkload,
    SpmvWorkload,
    get_workload,
)

FAST_WL = [GemmWorkload(), ScanWorkload(), ReductionWorkload(),
           GemvWorkload(), SpmvWorkload(scale=0.08)]
DEVICES = [Device("A100"), Device("H200"), Device("B200")]


class TestObservationsIdentity:
    def test_graph_matches_staged_on_subset(self):
        staged = verify_all(FAST_WL, DEVICES, mode="staged")
        graphed = verify_all(FAST_WL, DEVICES, n_jobs=2, mode="graph")
        assert len(staged) == len(graphed) == len(OBSERVATIONS)
        for s, g in zip(staged, graphed):
            assert s == g  # ObservationResult eq: verdict AND evidence

    def test_env_kill_switch_selects_staged(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH", "0")
        fallback = verify_all(FAST_WL, DEVICES)
        monkeypatch.delenv("REPRO_GRAPH")
        assert fallback == verify_all(FAST_WL, DEVICES, mode="staged")


class TestObservationsGraphShape:
    def test_subset_graph_is_observation_only(self):
        g = build_observations_graph(FAST_WL, DEVICES)
        keys = sorted(n.key for n in g)
        assert keys == [f"observation:{i:02d}"
                        for i in range(1, len(OBSERVATIONS) + 1)]
        assert all(n.deps == () for n in g)

    def test_full_graph_wires_datasets_accuracy_observations(self):
        g = build_observations_graph()
        kinds = {n.key: n.kind for n in g}
        datasets = [k for k in kinds if k.startswith("dataset:")]
        audits = [k for k in kinds if k.startswith("accuracy:")]
        assert len(datasets) == len(audits) == 9  # fp workloads
        for k in audits:
            name = k.split(":", 1)[1]
            assert g.node(k).deps == (f"dataset:{name}",)
        stats = [k for k in kinds if k.startswith("stats:")]
        assert len(stats) == 10  # every workload, BFS included
        assert all(g.node(k).deps == () for k in stats)
        # every observation reads the shared stats tables; observation 7
        # (Table 6 fidelity) also consumes every accuracy audit
        o7 = g.node("observation:07")
        assert sorted(o7.deps) == sorted(stats + audits)
        for i in (1, 2, 3, 4, 5, 6, 8, 9):
            assert sorted(g.node(f"observation:{i:02d}").deps) == \
                sorted(stats)
        g.order()  # and the whole thing is a valid DAG

    def test_accuracy_node_matches_direct_call(self):
        """The graph's accuracy node is the same computation the staged
        audit runs — byte-for-byte the values the seed digests pin."""
        direct = accuracy_table(get_workload("gemv"), Device("H200"))
        assert _node_accuracy("gemv") == direct


class TestHarnessIdentity:
    def test_run_performance_graph_matches_staged(self):
        wl = [GemmWorkload(), GemvWorkload()]
        devs = [Device("A100"), Device("H200")]
        staged = run_performance(wl, devs, mode="staged")
        graphed = run_performance(wl, devs, n_jobs=2, mode="graph")
        assert graphed == staged
        # device-major order is part of the contract
        assert [r.gpu for r in graphed][:1] == ["A100"]

    def test_sweep_graph_matches_staged(self):
        dev = Device("H200")
        staged = sweep_sizes("gemm", dev, mode="staged")
        graphed = sweep_sizes("gemm", dev, n_jobs=2, mode="graph")
        assert graphed == staged
        sizes = [p.size for p in graphed]
        assert sizes == sorted(sizes)
