"""The traced replay: each workload replayed serially as calls into the
program's public functions, with a span around every call.

``python3 perfbench/replay.py --spans 0|1 --out FILE`` runs workload
replays in this fresh interpreter and writes a JSON record: each
replay's wall-clock, the per-layer values, the correctness checks and
(with spans on) every span.  ``run.py --trace 1`` runs it twice: spans on
for all four replays, then the graph speed-up runs under a second
``audit_cold`` root; spans off for the serve and fabric replays only.
Both runs replay serve and fabric first, from the same fresh process
state, and the wall-clock difference of those replays is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    PINS,
    SRC,
    Scratch,
    answer_digest,
    median,
    nproc,
    pin_own_env,
    run_timed,
    clean_env,
    sha256,
    tree_cpu_s,
)
from metrics import ALL_W, FP_W, MIX_KINDS, SIZES  # noqa: E402
from tracing import Tracer  # noqa: E402

#: repetitions for the small-call probes (their medians are reported)
PINGS = 100
RESOLVE_REPS = 20
SERIAL_PASSES = 30
CPU_PASSES = 150
HOST_GEMM_N = 1024
MMA_BATCH = 8192
SIZE_BYTES = {"1k": 1 << 10, "1m": 1 << 20, "64m": 64 << 20}


class Checks:
    """Correctness checks of the replay; each one is an operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _plain(obj):
    import numpy as np

    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return repr(obj)


def evidence_digest(results) -> str:
    """Digest of the nine observations' verdicts and evidence."""
    return sha256(json.dumps(
        [[r.number, bool(r.holds), r.evidence] for r in results],
        sort_keys=True, default=_plain).encode())


def rows_digest(rows) -> str:
    """Digest of one workload's accuracy rows (Table 6 cells)."""
    return sha256(json.dumps(
        [[e.workload, e.variant, e.avg_error, e.max_error, e.samples]
         for e in rows]).encode())


def _nbytes(obj, seen=None) -> int:
    """Computed bytes of every array reachable from a prepared input."""
    import numpy as np

    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v, seen) for v in obj)
    if hasattr(obj, "__dict__"):
        return _nbytes(vars(obj), seen)
    return 0


def _cli_import(tr: Tracer, scratch: Scratch) -> float:
    with tr.span("cli.import") as s:
        t0 = time.perf_counter()
        rc, _, _, _ = run_timed([sys.executable, "-c", "import repro.cli"],
                                clean_env(scratch.fresh("import")),
                                scratch.path / "import.out")
        took = time.perf_counter() - t0
    if s is not None:
        s.attrs["rc"] = rc
    return took


def _rate(fn, work: float, min_s: float = 0.3) -> float:
    """Median work/second of ``fn`` over repeats filling ``min_s``."""
    rates = []
    t_end = time.perf_counter() + min_s
    while len(rates) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        rates.append(work / (time.perf_counter() - t0))
    return median(rates)


# ------------------------------------------------------------ audit_cold

def replay_audit_cold(tr: Tracer, scratch: Scratch, cache_dir: Path,
                      v: dict, checks: Checks) -> None:
    import numpy as np

    from repro.analysis.accuracy import AUDIT_SEED, accuracy_table
    from repro.analysis.observations import verify_all
    from repro.gpu.device import Device
    from repro.gpu.launch import plan_cache_stats
    from repro.gpu.mma import mma_b1_batched, mma_fp64_batched
    from repro.kernels import all_workloads
    from repro.perf.cache import ResultCache, set_default_cache
    from repro.perf.executor import ParallelExecutor

    v["_imports"].append(_cli_import(tr, scratch))
    set_default_cache(ResultCache(cache_dir))
    workloads = {w.name: w for w in all_workloads()}
    checks.expect(tuple(workloads) == ALL_W, "workload list changed")
    device = Device("H200")

    gen, nbytes, inputs = 0.0, 0, {}
    for name in FP_W:
        w = workloads[name]
        t0 = time.perf_counter()
        with tr.span("datasets.prepare", workload=name, phase="generate"):
            inputs[name] = w.prepare(w.exec_case(w.representative_case()),
                                     seed=AUDIT_SEED)
        gen += time.perf_counter() - t0
        nbytes += _nbytes(inputs[name])
    v["datasets.generate_s"] = gen
    v["datasets.bytes"] = nbytes

    rng = np.random.default_rng(0)
    a, b = rng.random((MMA_BATCH, 8, 4)), rng.random((MMA_BATCH, 4, 8))
    with tr.span("gpu.mma_fp64", batch=MMA_BATCH, shape="m8n8k4"):
        fp64 = _rate(lambda: mma_fp64_batched(a, b), 2 * 8 * 8 * 4 * MMA_BATCH)
    words = rng.integers(0, 2**63, size=(2, MMA_BATCH, 8, 2), dtype=np.uint64)
    with tr.span("gpu.mma_b1", batch=MMA_BATCH, shape="m8n8k128"):
        b1 = _rate(lambda: mma_b1_batched(words[0], words[1]),
                   2 * 8 * 8 * 128 * MMA_BATCH)
    g = rng.random((HOST_GEMM_N, HOST_GEMM_N))
    with tr.span("gpu.host_gemm", n=HOST_GEMM_N):
        host = _rate(lambda: g @ g, 2 * HOST_GEMM_N ** 3)
    v["gpu.mma_fp64.gflops"] = fp64 / 1e9
    v["gpu.mma_b1.gops"] = b1 / 1e9
    v["gpu.host_gemm.gflops"] = host / 1e9
    v["gpu.mma_fp64.frac_of_host_gemm"] = fp64 / host

    for name in ALL_W:
        w = workloads[name]
        # inputs are prepared outside the kernel span (bfs has not been
        # generated yet: it is not a floating-point audit workload)
        if name not in inputs:
            with tr.span("datasets.prepare", workload=name, phase="input"):
                inputs[name] = w.prepare(
                    w.exec_case(w.representative_case()), seed=AUDIT_SEED)
        t0 = time.perf_counter()
        with tr.span("kernels.execute", workload=name):
            for variant in w.variants():
                w.execute(variant, inputs[name], device)
        v[f"kernels.{name}.execute_s"] = time.perf_counter() - t0
    inputs.clear()

    for name in FP_W:
        t0 = time.perf_counter()
        with tr.span("analysis.accuracy_table", workload=name):
            rows = accuracy_table(workloads[name], device)
        v[f"analysis.accuracy.{name}_s"] = time.perf_counter() - t0
        checks.expect(rows_digest(rows) == PINS["accuracy_rows"][name],
                      f"accuracy rows of {name} differ from the pin")
    stats = plan_cache_stats()
    v["gpu.plan_cache.hit_ratio"] = \
        stats["hits"] / max(stats["hits"] + stats["misses"], 1)

    t0 = time.perf_counter()
    with tr.span("analysis.verify_all", cache="cold"):
        results = verify_all(n_jobs=1)
    v["analysis.observations_s"] = time.perf_counter() - t0
    checks.expect(all(r.holds for r in results), "an observation fails")
    checks.expect(evidence_digest(results) == PINS["evidence_sha256"],
                  "observation evidence differs from the pin")

    put_dir = scratch.fresh("puts")
    v["_payloads"] = {}
    for size in SIZES:
        payload = _csr_payload(SIZE_BYTES[size])
        v["_payloads"][size] = payload
        times = []
        for rep in range(3):
            cache = ResultCache(put_dir)
            t0 = time.perf_counter()
            with tr.span("cache.put", size=size):
                cache.put("bench", f"{size}-{rep}", payload)
            times.append(time.perf_counter() - t0)
        v[f"cache.put_ms.{size}"] = median(times) * 1e3
    v["_put_dir"] = put_dir

    n = nproc()
    starts = []
    for _ in range(3):
        t0 = time.perf_counter()
        with tr.span("executor.map", items=n):
            ParallelExecutor(n).map(abs, list(range(n)), chunk_size=1)
        starts.append(time.perf_counter() - t0)
    items = 400
    t0 = time.perf_counter()
    with tr.span("executor.map", items=items):
        out = ParallelExecutor(n).map(abs, list(range(items)), chunk_size=1)
    many = time.perf_counter() - t0
    checks.expect(out == list(range(items)), "executor map reordered items")
    v["executor.pool_start_s"] = median(starts)
    v["executor.per_item_ms"] = max(many - median(starts), 0.0) / items * 1e3


def _csr_payload(nbytes: int) -> dict:
    """A CSR-shaped payload of about ``nbytes`` (indptr, indices, data)."""
    import numpy as np

    nnz = max(nbytes // 16, 4)
    rows = max(nnz // 8, 1)
    rng = np.random.default_rng(nbytes)
    return {"indptr": np.linspace(0, nnz, rows + 1).astype(np.int64),
            "indices": rng.integers(0, rows, nnz, dtype=np.int64),
            "data": rng.random(nnz)}


# ------------------------------------------------------------ audit_warm

def replay_audit_warm(tr: Tracer, scratch: Scratch, cache_dir: Path,
                      v: dict, checks: Checks) -> None:
    import numpy as np

    from repro.analysis.accuracy import AUDIT_SEED
    from repro.analysis.observations import verify_all
    from repro.kernels import get_workload
    from repro.perf.cache import ResultCache, default_cache, set_default_cache

    v["_imports"].append(_cli_import(tr, scratch))
    set_default_cache(ResultCache(cache_dir))
    t0 = time.perf_counter()
    for name in FP_W:
        w = get_workload(name)
        with tr.span("datasets.prepare", workload=name, phase="reload"):
            w.prepare(w.exec_case(w.representative_case()), seed=AUDIT_SEED)
    v["datasets.reload_s"] = time.perf_counter() - t0

    put_dir = v.pop("_put_dir")
    payloads = v.pop("_payloads")
    for size in SIZES:
        times = []
        for rep in range(3):
            cache = ResultCache(put_dir)
            t0 = time.perf_counter()
            with tr.span("cache.get", size=size, tier="disk"):
                found, value = cache.peek("bench", f"{size}-{rep}")
            times.append(time.perf_counter() - t0)
            checks.expect(found and np.array_equal(
                value["data"], payloads[size]["data"]),
                f"cache round trip of {size} lost data")
        v[f"cache.hit_disk_ms.{size}"] = median(times) * 1e3
        reps = 2000
        t0 = time.perf_counter()
        with tr.span("cache.get", size=size, tier="memory", calls=reps):
            for _ in range(reps):
                cache.peek("bench", f"{size}-2")
        v[f"cache.hit_mem_us.{size}"] = \
            (time.perf_counter() - t0) / reps * 1e6

    set_default_cache(ResultCache(cache_dir))
    with tr.span("analysis.verify_all", cache="warm"):
        results = verify_all(n_jobs=1)
    stats = default_cache().stats
    v["cache.audit_warm.disk_hits"] = stats.disk_hits
    v["cache.audit_warm.misses"] = stats.misses
    v["cache.audit_warm.hit_ratio"] = \
        stats.hits / max(stats.hits + stats.misses, 1)
    checks.expect(evidence_digest(results) == PINS["evidence_sha256"],
                  "warm observation evidence differs from the pin")


# ------------------------------------------------------ serve and fabric

def _pings(tr: Tracer, name: str, address) -> float:
    from repro.serve import ServeClient

    rtts = []
    with ServeClient(*address) as client:
        for _ in range(PINGS):
            t0 = time.perf_counter()
            with tr.span(name):
                client.query("ping")
            rtts.append(time.perf_counter() - t0)
    return median(rtts) * 1e3


def _serial_passes(tr: Tracer, name: str, address, mix, refs,
                   checks: Checks, passes: int = SERIAL_PASSES
                   ) -> tuple[dict[str, int], dict[str, int]]:
    """One client asks the whole mix ``passes`` times, each answer
    checked; returns how many answers each shard gave and how each was
    served."""
    from repro.serve import ServeClient

    shards: dict[str, int] = {}
    served_by: dict[str, int] = {}
    with ServeClient(*address) as client:
        for _ in range(passes):
            for idx, (kind, params) in enumerate(mix):
                with tr.span(name, kind=kind):
                    resp = client.query(kind, params)
                checks.expect(resp.ok and answer_digest(resp.result)
                              == refs[idx], f"served {kind} answer wrong")
                if resp.shard_id is not None:
                    shards[resp.shard_id] = shards.get(resp.shard_id, 0) + 1
                served_by[resp.served_by] = \
                    served_by.get(resp.served_by, 0) + 1
    return shards, served_by


def replay_serve(tr: Tracer, scratch: Scratch, v: dict,
                 checks: Checks) -> None:
    from repro.perf.cache import ResultCache, set_default_cache
    from repro.serve import (
        DEFAULT_MIX,
        CharacterizationService,
        InProcessClient,
        ServeConfig,
        reference_digests,
    )
    from workloads import SERVE_CMD, Server

    v["_imports"].append(_cli_import(tr, scratch))
    set_default_cache(ResultCache(scratch.fresh("inproc")))
    mix = DEFAULT_MIX
    refs = reference_digests(mix)
    checks.expect(tuple(dict.fromkeys(k for k, _ in mix)) == MIX_KINDS,
                  "the serve mix changed")

    async def resolve() -> dict[str, list[float]]:
        service = CharacterizationService(
            ServeConfig(port=0, pool_mode="thread", workers=2))
        client = InProcessClient(service)
        times: dict[str, list[float]] = {}
        try:
            for rep in range(RESOLVE_REPS + 1):
                for idx, (kind, params) in enumerate(mix):
                    t0 = time.perf_counter()
                    with tr.span("serve.resolve", kind=kind, warm=rep > 0):
                        resp = await client.query(kind, params)
                    if rep:
                        times.setdefault(kind, []).append(
                            time.perf_counter() - t0)
                    checks.expect(resp.ok and answer_digest(resp.result)
                                  == refs[idx], f"in-process {kind} wrong")
        finally:
            await service.stop()
        return times

    for kind, times in asyncio.run(resolve()).items():
        v[f"serve.resolve_ms.{kind}"] = median(times) * 1e3

    with tr.span("serve.boot"):
        server = Server(SERVE_CMD, scratch.fresh("serve"),
                        scratch.path / "replay-serve.log")
    try:
        v["serve.ping_rtt_ms"] = _pings(tr, "serve.ping", server.address)
        _serial_passes(tr, "serve.query", server.address, mix, refs, checks)
        # CPU is read in clock ticks: enough queries for a few dozen
        cpu0 = tree_cpu_s(server.proc.pid)
        _, served_by = _serial_passes(tr, "serve.query", server.address, mix,
                                      refs, checks, passes=CPU_PASSES)
        cpu = tree_cpu_s(server.proc.pid) - cpu0
        v["serve.cpu_ms_per_query"] = cpu / (CPU_PASSES * len(mix)) * 1e3
        v["serve.reuse_rate"] = \
            1 - served_by.get("model", 0) / sum(served_by.values())
    finally:
        with tr.span("serve.stop"):
            server.stop()


def replay_fabric(tr: Tracer, scratch: Scratch, v: dict,
                  checks: Checks) -> None:
    from repro.serve import DEFAULT_MIX, ServeClient, reference_digests
    from workloads import FABRIC_CMD, SHARDS, Server

    v["_imports"].append(_cli_import(tr, scratch))
    mix = DEFAULT_MIX
    refs = reference_digests(mix)
    with tr.span("fabric.boot"):
        server = Server(FABRIC_CMD, scratch.fresh("fabric"),
                        scratch.path / "replay-fabric.log")
    try:
        v["fabric.ping_rtt_ms"] = _pings(tr, "fabric.ping", server.address)
        shards, _ = _serial_passes(tr, "fabric.query", server.address, mix,
                                   refs, checks)
        total = sum(shards.values())
        v["fabric.shard_share_max"] = \
            max(shards.values()) / total * SHARDS if total else 0.0

        kind, params = mix[0]
        with ServeClient(*server.address) as router:
            status = router.query("metrics").result
            owner = router.query(kind, params).shard_id
            spec = status["shards"][owner]
            via, direct = [], []
            with ServeClient(spec["host"], spec["port"]) as shard:
                for _ in range(PINGS):
                    for client, name, out in (
                            (router, "fabric.query", via),
                            (shard, "serve.query", direct)):
                        t0 = time.perf_counter()
                        with tr.span(name, kind=kind, hop=True):
                            resp = client.query(kind, params)
                        out.append(time.perf_counter() - t0)
                        checks.expect(
                            resp.ok and answer_digest(resp.result) == refs[0],
                            f"{name} answer wrong")
            counters = router.query("metrics").result["router"]["counters"]
        v["fabric.hop_ms"] = (median(via) - median(direct)) * 1e3
        v["fabric.failover_replays"] = counters.get("failover_replays_total", 0)
    finally:
        with tr.span("fabric.stop"):
            server.stop()


# ----------------------------------------------------------------- graph

def graph_speedup(tr: Tracer, scratch: Scratch, v: dict, checks: Checks,
                  affinity_2: set[int] | None = None) -> None:
    """Serial over 2-worker makespan of the cold audit, both measured here.

    ``affinity_2`` pins the 2-worker run to a CPU set; pinned to one CPU
    its workers time-slice, which is how the benchmark's own tests show
    a secretly serial ``--jobs 2`` run reads as no speed-up.
    """
    from workloads import audit_invocation

    runs = {}
    for jobs in (1, 2):
        with tr.span("graph.audit", jobs=jobs):
            runs[jobs] = audit_invocation(
                scratch.fresh(f"graph-{jobs}"), scratch.path / "graph.out",
                jobs=jobs, affinity=affinity_2 if jobs == 2 else None)
        checks.expect(runs[jobs]["ok"],
                      f"--jobs {jobs} audit: {runs[jobs]['why']}")
    v["graph.speedup_2v1"] = runs[1]["wall"] / runs[2]["wall"]
    v["graph.cpu_per_wall"] = runs[2]["cpu"] / runs[2]["wall"]


# ------------------------------------------------------------------ main

#: the replays the spans-off run repeats: they hold most of the spans
#: (hundreds of sub-millisecond queries), where recording costs most.
#: Both runs replay them first, from a fresh interpreter, so the
#: comparison is not skewed by the heap the audit replays leave behind.
OVERHEAD_REPLAYS = ("serve_1shard", "fabric_3shard")
REPLAYS = OVERHEAD_REPLAYS + ("audit_cold", "audit_warm")


def run_replays(tr: Tracer, scratch: Scratch, checks: Checks,
                names) -> tuple[dict, dict]:
    """The named workload replays, in order: (values, wall s per replay)."""
    v: dict = {"_imports": []}
    cold = scratch.fresh("replay-cache")
    pin_own_env(cold)
    steps = {
        "audit_cold": lambda: replay_audit_cold(tr, scratch, cold, v, checks),
        "audit_warm": lambda: replay_audit_warm(tr, scratch, cold, v, checks),
        "serve_1shard": lambda: replay_serve(tr, scratch, v, checks),
        "fabric_3shard": lambda: replay_fabric(tr, scratch, v, checks),
    }
    walls = {}
    for name in names:
        t0 = time.perf_counter()
        with tr.trace(name):
            steps[name]()
        walls[name] = time.perf_counter() - t0
    v["cli.import_s"] = median(v.pop("_imports"))
    return v, walls


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--spans", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    tr = Tracer(enabled=bool(args.spans))
    checks = Checks()
    names = REPLAYS if args.spans else OVERHEAD_REPLAYS
    with Scratch("replay") as scratch:
        values, walls = run_replays(tr, scratch, checks, names)
        if args.spans:
            with tr.trace("audit_cold"):
                graph_speedup(tr, scratch, values, checks)
    Path(args.out).write_text(json.dumps({
        "walls": walls, "values": values, "attempted": checks.attempted,
        "failures": checks.failures,
        "spans": [asdict(s) for s in tr.spans]}, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
