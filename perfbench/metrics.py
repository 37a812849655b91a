"""The benchmark's metric catalogue: the single source that
``BENCHMARK.json`` mirrors (``test_perfbench.py`` checks that it does).

Every per-layer metric carries its prediction, written before any
optimisation: the end-to-end metric(s) it should move, the workload(s)
they move on, and where no change is predicted.
"""

from __future__ import annotations

WORKLOADS = {
    "audit_cold": "the nine-observation audit in a fresh interpreter on an "
                  "empty cache: a researcher's first run (kernels, datasets, "
                  "accuracy audit, graph fan-out, cache writes)",
    "audit_warm": "the same audit against the cache set-up populated: the "
                  "edit-and-rerun loop (cache reads, dataset reload, CLI "
                  "import; kernels idle)",
}

#: runnable with ``run.py --workload`` and replayed by every traced run,
#: but not in ``BENCHMARK.json``: on the 2-vCPU reference host their
#: spreads over ten runs exceeded the 0.25 bound (NOTES.md, "Workloads")
UNSTEADY_WORKLOADS = {
    "serve_1shard": "2 closed-loop clients on one repro serve process, "
                    "answers from the served-result LRU: framing, admission "
                    "and TCP; bypasses kernels and the router",
    "fabric_3shard": "the same loop and mix through repro fabric start "
                     "--shards 3: measures the consistent-hash router hop "
                     "and hot-key shard imbalance",
}

#: name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("qps", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p99_ms", "ms", "lower", 0.25),
    ("success_frac", "ratio", "higher", 0.01),
]

ALL_W = ("gemm", "pic", "fft", "stencil", "scan", "reduction", "bfs", "gemv",
         "spmv", "spgemm")
#: the floating-point workloads the accuracy audit covers (bfs has none)
FP_W = tuple(w for w in ALL_W if w != "bfs")
MIX_KINDS = ("quadrant", "perf", "roofline", "edp", "whatif")
SIZES = ("1k", "1m", "64m")
LAYERS = ("cli", "datasets", "gpu", "kernels", "analysis", "cache",
          "executor", "graph", "serve", "fabric")

COLD, WARM, S1, F3 = "audit_cold", "audit_warm", "serve_1shard", "fabric_3shard"
SERVED = f"{S1},{F3}"
AUDITS = f"{COLD},{WARM}"


def _m(name, unit, better, moves, on, unchanged):
    return {"name": name, "unit": unit, "better": better, "moves": moves,
            "on": on, "unchanged_on": unchanged}


def _per_layer() -> list[dict]:
    rows = [
        _m("cli.import_s", "s", "lower", "wall_s; setup_s",
           f"{WARM}; {SERVED}", COLD),
        _m("datasets.generate_s", "s", "lower", "wall_s,cpu_s,peak_rss_mb",
           COLD, SERVED),
        _m("datasets.reload_s", "s", "lower", "wall_s,cpu_s", WARM, SERVED),
        _m("datasets.bytes", "B", "lower", "peak_rss_mb", AUDITS, SERVED),
        _m("gpu.mma_fp64.gflops", "GFLOP/s", "higher", "wall_s,cpu_s", COLD,
           f"{WARM},{SERVED}"),
        _m("gpu.mma_b1.gops", "Gop/s", "higher", "wall_s,cpu_s", COLD,
           f"{WARM},{SERVED}"),
        _m("gpu.host_gemm.gflops", "GFLOP/s", "higher", "- (ceiling)", "-",
           "-"),
        _m("gpu.mma_fp64.frac_of_host_gemm", "ratio", "higher",
           "wall_s,cpu_s", COLD, f"{WARM},{SERVED}"),
        _m("gpu.plan_cache.hit_ratio", "ratio", "higher", "wall_s", COLD,
           f"{WARM},{SERVED}"),
    ]
    rows += [_m(f"kernels.{w}.execute_s", "s", "lower", "wall_s", COLD,
                f"{WARM},{SERVED}") for w in ALL_W]
    rows += [_m(f"analysis.accuracy.{w}_s", "s", "lower", "wall_s", COLD,
                SERVED) for w in FP_W]
    rows.append(_m("analysis.observations_s", "s", "lower", "wall_s", COLD,
                   SERVED))
    rows += [_m(f"cache.put_ms.{z}", "ms", "lower", "wall_s", COLD, SERVED)
             for z in SIZES]
    rows += [_m(f"cache.hit_disk_ms.{z}", "ms", "lower", "wall_s", WARM,
                SERVED) for z in SIZES]
    rows += [_m(f"cache.hit_mem_us.{z}", "us", "lower", "wall_s", WARM,
                SERVED) for z in SIZES]
    rows += [
        _m("cache.audit_warm.disk_hits", "count", "higher", "wall_s", WARM,
           SERVED),
        _m("cache.audit_warm.misses", "count", "lower", "wall_s", WARM,
           SERVED),
        _m("cache.audit_warm.hit_ratio", "ratio", "higher", "wall_s", WARM,
           SERVED),
        _m("executor.pool_start_s", "s", "lower", "wall_s", COLD, WARM),
        _m("executor.per_item_ms", "ms", "lower", "wall_s", COLD, WARM),
        _m("graph.speedup_2v1", "ratio", "higher", "wall_s", COLD, SERVED),
        _m("graph.cpu_per_wall", "ratio", "higher", "wall_s", COLD, SERVED),
    ]
    rows += [_m(f"serve.resolve_ms.{k}", "ms", "lower", "p50_ms,qps", SERVED,
                AUDITS) for k in MIX_KINDS]
    rows += [
        _m("serve.ping_rtt_ms", "ms", "lower", "p50_ms,qps", SERVED, AUDITS),
        _m("serve.reuse_rate", "ratio", "higher", "p50_ms,qps", SERVED,
           AUDITS),
        _m("serve.cpu_ms_per_query", "ms", "lower", "cpu_s,qps", SERVED,
           AUDITS),
        _m("fabric.ping_rtt_ms", "ms", "lower", "qps,p50_ms,p99_ms", F3,
           f"{S1},{AUDITS}"),
        _m("fabric.hop_ms", "ms", "lower", "qps,p50_ms,p99_ms", F3,
           f"{S1},{AUDITS}"),
        _m("fabric.shard_share_max", "ratio", "lower", "qps,p99_ms", F3,
           f"{S1},{AUDITS}"),
        _m("fabric.failover_replays", "count", "lower", "qps,p99_ms", F3,
           f"{S1},{AUDITS}"),
    ]
    rows += [_m(f"{layer}.self_s", "s", "lower", "wall_s",
                "per the layer rows above", "-") for layer in LAYERS]
    rows += [
        _m("trace.coverage", "ratio", "higher", "-", "-", "-"),
        _m("trace.overhead_frac", "ratio", "lower", "-", "-", "-"),
    ]
    return rows


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must contain."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": m["name"], "unit": m["unit"],
                       "better": m["better"]} for m in PER_LAYER],
    }
