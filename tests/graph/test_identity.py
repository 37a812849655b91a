"""Graph execution reproduces the pipelines' pinned outputs exactly.

Each graph-built pipeline (``verify_all``, ``run_performance``,
``power_study``, ``sweep_sizes``) is held to a SHA-256 digest of its
full result — every record, field and float bit, in order — for one and
two workers.
The digests were recorded from the fan-out loops the graph builders
replaced, so they also pin that the graph changed nothing.  Every node
callable is a deterministic function of its arguments (the determinism
facts prove it), so equality here is exact, not approximate.
"""

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from repro.analysis.accuracy import accuracy_table
from repro.analysis.edp import power_study
from repro.analysis.observations import (
    OBSERVATIONS,
    _node_accuracy,
    build_observations_graph,
    verify_all,
)
from repro.analysis.spine import add_spine, matrix_node_key
from repro.gpu import Device
from repro.graph import TaskGraph
from repro.harness.runner import run_performance
from repro.harness.sweep import sweep_sizes
from repro.kernels import (
    GemmWorkload,
    GemvWorkload,
    ReductionWorkload,
    ScanWorkload,
    SpgemmWorkload,
    SpmvWorkload,
    all_workloads,
    get_workload,
)

FAST_WL = [GemmWorkload(), ScanWorkload(), ReductionWorkload(),
           GemvWorkload(), SpmvWorkload(scale=0.08)]
DEVICES = [Device("A100"), Device("H200"), Device("B200")]

#: ``verify_all(FAST_WL, DEVICES)``: nine verdicts with their evidence
OBSERVATIONS_SHA256 = \
    "8fcd2d88019a19529210fed9ac15803cf5edce7bbba28a0e2404cdf9eb26b7cc"
#: ``run_performance`` of gemm and gemv on A100 and H200: 70 records
PERFORMANCE_SHA256 = \
    "49e0bae79c53dce8d7730a4416a596ddf3d3de9611a45b42162c72c636f50b80"
#: ``edp_study`` of all ten workloads on the H200, in suite order: 35
#: Figure 7 entries
EDP_SHA256 = \
    "c2415421b6c440bb8ffc7529c449b6c7c1136d145034294c9211fa6ba81601e9"
#: ``sweep_sizes("gemm", H200)``: 16 points, eight sizes x two variants
SWEEP_SHA256 = \
    "521fa4e52e98b496d225efe791e97235822b4b44092592522427e730c9890d4c"


def _canonical(obj):
    """A JSON-ready form that keeps every bit: floats as ``float.hex``,
    dataclasses as their type name then their fields in order."""
    if isinstance(obj, np.generic):
        return _canonical(obj.item())
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__] + [_canonical(getattr(obj, f.name))
                                       for f in dataclasses.fields(obj)]
    if isinstance(obj, enum.Enum):
        return _canonical(obj.value)
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def _digest(obj) -> str:
    text = json.dumps(_canonical(obj), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n_jobs", [1, 2])
class TestPinnedDigests:
    def test_verify_all(self, n_jobs):
        results = verify_all(FAST_WL, DEVICES, n_jobs=n_jobs)
        assert _digest(results) == OBSERVATIONS_SHA256

    def test_run_performance(self, n_jobs):
        records = run_performance([GemmWorkload(), GemvWorkload()],
                                  [Device("A100"), Device("H200")],
                                  n_jobs=n_jobs)
        assert _digest(records) == PERFORMANCE_SHA256

    def test_power_study(self, n_jobs):
        entries = power_study(all_workloads(), Device("H200"),
                              n_jobs=n_jobs)
        assert _digest(entries) == EDP_SHA256

    def test_sweep_sizes(self, n_jobs):
        points = sweep_sizes("gemm", Device("H200"), n_jobs=n_jobs)
        assert _digest(points) == SWEEP_SHA256


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
        assert stats == [f"stats:{w.name}:{c.label}"
                         for w in all_workloads() for c in w.cases()]
        # one node per Table 4 matrix, requesting exactly the generator
        # arguments the sparse stats read; each sparse row reads one, and
        # the SpMV audit's full-scale dataset reads one of them too
        # (SpGEMM's is down-scaled)
        matrices = sorted(k for k in kinds if k.startswith("matrix:"))
        assert len(matrices) == 5
        for name in ("spmv", "spgemm"):
            w = get_workload(name)
            assert sorted(g.node(k).args for k in matrices) == sorted(
                w.matrix_args(c) for c in w.cases())
            for c in w.cases():
                assert g.node(f"stats:{name}:{c.label}").deps == (
                    matrix_node_key(w.matrix_args(c)),)
        assert g.node("dataset:spmv").deps == (
            "matrix:raefsky3:1.0:1325",)
        for k in datasets + matrices + stats:
            if k != "dataset:spmv" and not k.startswith(
                    ("stats:spmv:", "stats:spgemm:")):
                assert g.node(k).deps == (), k
        # every observation reads the shared stats rows; observation 7
        # (Table 6 fidelity) also consumes every accuracy audit
        o7 = g.node("observation:07")
        assert sorted(o7.deps) == sorted(stats + audits)
        for i in (1, 2, 3, 4, 5, 6, 8, 9):
            assert sorted(g.node(f"observation:{i:02d}").deps) == \
                sorted(stats)
        g.order()  # and the whole thing is a valid DAG

    def test_matrix_nodes_are_keyed_by_their_full_arguments(self):
        """A scaled SpMV reads the Table 4 matrices at its own scale, so
        its matrix nodes must not collide with the full-scale ones SpGEMM
        reads in the same spine (as in ``run_performance`` over both)."""
        spmv, spgemm = SpmvWorkload(scale=0.08), SpgemmWorkload()
        g = TaskGraph()
        spine = add_spine(g, [spmv, spgemm])
        matrices = [n for n in g if n.key.startswith("matrix:")]
        assert sorted(n.args for n in matrices) == sorted(
            w.matrix_args(c) for w in (spmv, spgemm) for c in w.cases())
        assert len({n.key for n in matrices}) == 10
        for w in (spmv, spgemm):
            assert spine[w.name] == tuple(f"stats:{w.name}:{c.label}"
                                          for c in w.cases())
            for c in w.cases():
                assert g.node(f"stats:{w.name}:{c.label}").deps == (
                    matrix_node_key(w.matrix_args(c)),)

    def test_accuracy_node_matches_direct_call(self):
        """The graph's accuracy node is the same computation as a direct
        audit call — byte-for-byte the values the seed digests pin."""
        direct = accuracy_table(get_workload("gemv"), Device("H200"))
        assert _node_accuracy("gemv") == direct

