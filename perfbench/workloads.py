"""The end-to-end workloads, measured with tracing off (the two audits
are the ones ``BENCHMARK.json`` names; see ``metrics.py``).

Each ``measure_<workload>`` returns ``(values, attempted, failed, info)``
where ``values`` maps every end-to-end metric name to its value.  One
*operation* is one ``repro observations`` invocation (audits) or one
served query (serve and fabric); ``attempted``/``failed`` count them,
set-up operations included.

An audit's nine verdicts are all printed when the invocation ends, so an
audit answer's latency is its invocation's wall-clock: for the audits
``p50_ms`` is ``wall_s`` in milliseconds, and ``p99_ms`` is the highest
percentile with ten samples beyond it, which a run's few invocations
only support at the median.  ``qps`` counts verified observations per
second of the median invocation for the audits, and answered queries
per second for the serve workloads, whose ``wall_s`` and ``cpu_s`` are
per pass over the mix.
"""

from __future__ import annotations

import asyncio
import gc
import random
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve import (
    DEFAULT_MIX,
    ProtocolError,
    ServeClient,
    reference_digests,
)
from repro.serve.protocol import (
    Request,
    decode_response,
    encode_request,
    normalize_params,
)

from common import (
    PINS,
    ROOT,
    Scratch,
    answer_digest,
    clean_env,
    descendants,
    median,
    pin_own_env,
    run_timed,
    sha256,
    stop_tree,
    tail,
    tree_cpu_s,
    tree_peak_rss_mb,
)

N_OBSERVATIONS = 9
#: a cold audit takes most of a run's seconds: three of them per run
#: give the median something to work on
MIN_AUDITS = 3
#: set-up repetitions whose median is ``setup_s`` (audit_warm sets up
#: once: its set-up is a whole cold audit)
SETUP_REPEATS = 3
#: closed-loop client connections (one per core of the 2-core
#: reference host)
CLIENTS = 2
#: served metrics are taken per window of this many seconds, then the
#: median over windows is reported; 2 s holds ~2000 answers even on the
#: fabric, so each window's p99 has at least 10 samples beyond it
WINDOW_S = 2.0
#: longest reply line the load generator reads
REPLY_LIMIT = 1 << 24

AUDIT_CMD = [sys.executable, "-m", "repro", "observations"]
SERVE_CMD = [sys.executable, "-m", "repro", "serve", "--port", "0"]
SHARDS = 3
FABRIC_CMD = [sys.executable, "-m", "repro", "fabric", "start",
              "--shards", str(SHARDS), "--port", "0"]
_BANNER = re.compile(r"(?:listening on|router on) (\S+):(\d+)")


# ------------------------------------------------------------- audits

def audit_invocation(cache_dir: Path, stdout_path: Path,
                     jobs: int | None = None,
                     affinity: set[int] | None = None) -> dict:
    """One ``repro observations`` run, checked against the pinned digest.

    It fails if it exits non-zero, if any observation does not hold, or
    if its stdout differs from the seed output.
    """
    cmd = AUDIT_CMD + (["--jobs", str(jobs)] if jobs else [])
    rc, wall, cpu, rss = run_timed(cmd, clean_env(cache_dir), stdout_path,
                                   affinity)
    out = stdout_path.read_bytes()
    text = out.decode(errors="replace")
    holds = sum(1 for line in text.splitlines() if " holds " in line)
    if rc != 0:
        why = f"exit code {rc}"
    elif holds != N_OBSERVATIONS or " FAILS " in text:
        why = f"{holds}/{N_OBSERVATIONS} observations hold"
    elif sha256(out) != PINS["audit_stdout_sha256"]:
        why = "stdout digest differs from the pinned seed digest"
    else:
        why = None
    return {"ok": why is None, "why": why, "wall": wall, "cpu": cpu,
            "rss": rss}


def _preflight(scratch: Scratch) -> float:
    """Fresh-interpreter ``import repro.cli``: proves the program imports
    and compiles its bytecode before anything is timed."""
    rc, wall, _, _ = run_timed(
        [sys.executable, "-c", "import repro.cli"],
        clean_env(scratch.fresh("preflight")), scratch.path / "preflight.out")
    if rc != 0:
        raise RuntimeError("the program does not import")
    return wall


def _audit_values(setup_s: float, runs: list[dict], attempted: int,
                  failed: int) -> dict:
    good = [r for r in runs if r["ok"]] or runs
    walls = [r["wall"] for r in good]
    return {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "cpu_s": median(r["cpu"] for r in good),
        "peak_rss_mb": median(r["rss"] for r in good),
        "qps": N_OBSERVATIONS / median(walls),
        "p50_ms": median(walls) * 1e3,
        "p99_ms": tail(walls) * 1e3,
        "success_frac": 1.0 - failed / attempted,
    }


def _audit_loop(scratch: Scratch, seconds: float, cache_dir) -> list[dict]:
    """Invocations until ``seconds`` have been measured (at least
    ``MIN_AUDITS``).
    ``cache_dir`` is a directory, or None for a fresh empty one each time."""
    runs: list[dict] = []
    t0 = time.perf_counter()
    while len(runs) < MIN_AUDITS or time.perf_counter() - t0 < seconds:
        d = cache_dir if cache_dir is not None else scratch.fresh("cold")
        runs.append(audit_invocation(d, scratch.path / "audit.out"))
        if cache_dir is None:
            shutil.rmtree(d, ignore_errors=True)
    return runs


def measure_audit_cold(seed: int, seconds: float, scratch: Scratch):
    setup_s = median(_preflight(scratch) for _ in range(SETUP_REPEATS))
    runs = _audit_loop(scratch, seconds, None)
    failed = sum(not r["ok"] for r in runs)
    return (_audit_values(setup_s, runs, len(runs), failed), len(runs),
            failed, {"invocations": len(runs),
                     "failures": [r["why"] for r in runs if not r["ok"]]})


def measure_audit_warm(seed: int, seconds: float, scratch: Scratch):
    cache_dir = scratch.fresh("warm")
    t0 = time.perf_counter()
    _preflight(scratch)
    populate = audit_invocation(cache_dir, scratch.path / "populate.out")
    setup_s = time.perf_counter() - t0
    runs = _audit_loop(scratch, seconds, cache_dir)
    failed = sum(not r["ok"] for r in runs + [populate])
    return (_audit_values(setup_s, runs, len(runs) + 1, failed),
            len(runs) + 1, failed,
            {"invocations": len(runs),
             "failures": [r["why"] for r in runs + [populate]
                          if not r["ok"]]})


# -------------------------------------------------------- serve / fabric

class Server:
    """A ``repro serve`` or ``repro fabric start`` process on an ephemeral
    port; ``address`` is parsed from its listen banner."""

    def __init__(self, cmd: list[str], cache_dir: Path, log_path: Path,
                 timeout_s: float = 60.0) -> None:
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                env=clean_env(cache_dir), cwd=ROOT)
        deadline = time.monotonic() + timeout_s
        while True:
            match = _BANNER.search(log_path.read_text(errors="replace"))
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    f"{' '.join(cmd[2:])} did not start: "
                    f"{log_path.read_text(errors='replace')[-500:]!r}")
            time.sleep(0.01)

    def stop(self) -> None:
        stop_tree(self.proc)


def _without_trace(raw: bytes) -> bytes:
    """A reply line minus its flat ``"trace"`` object of phase timings,
    which the server encodes after the result."""
    start = raw.rfind(b',"trace":{')
    if start < 0:
        return raw
    return raw[:start] + raw[raw.index(b"}", start) + 1:]


@dataclass
class LoopStats:
    #: (monotonic completion time, seconds, mix index, raw reply line)
    replies: list[tuple[float, float, int, bytes]] = field(
        default_factory=list)
    #: (monotonic completion time, seconds) per whole pass
    pass_walls: list[tuple[float, float]] = field(default_factory=list)
    #: (monotonic completion time, seconds) per verified good answer
    latencies: list[tuple[float, float]] = field(default_factory=list)
    shards: dict[str, int] = field(default_factory=dict)
    served_by: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(why)

    def settle(self, mix, refs) -> None:
        """Check every reply: a wrong answer or a refusal is a failed
        query.  Runs after the timed loop, so checking costs the load
        generator nothing while it measures; replies that differ only in
        their timing ``trace`` are decoded once."""
        verdicts: dict[tuple[int, bytes], tuple[str | None, object]] = {}
        for t, lat, idx, raw in self.replies:
            key = (idx, _without_trace(raw))
            if key not in verdicts:
                kind = mix[idx][0]
                try:
                    resp = decode_response(raw.decode())
                except ProtocolError as exc:
                    verdicts[key] = (f"{kind}: {exc}", None)
                    continue
                if not resp.ok:
                    why = f"{kind}: refused {resp.error}"
                elif idx in refs and answer_digest(resp.result) != refs[idx]:
                    why = f"{kind}: wrong answer"
                else:
                    why = None
                verdicts[key] = (why, resp)
            why, resp = verdicts[key]
            if why is not None:
                self.fail(why)
                continue
            self.latencies.append((t, lat))
            if resp.shard_id is not None:
                self.shards[resp.shard_id] = \
                    self.shards.get(resp.shard_id, 0) + 1
            self.served_by[resp.served_by] = \
                self.served_by.get(resp.served_by, 0) + 1
        self.replies.clear()

    def merge(self, other: "LoopStats") -> None:
        self.replies += other.replies
        self.pass_walls += other.pass_walls
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


class Conn:
    """One closed-loop client connection: a request line out, wait for
    the reply line.  All connections of a run share one event loop on one
    thread, and request lines are encoded once per mix entry, so the load
    generator holds less than one core and its clients never contend for
    the interpreter lock."""

    def __init__(self, address, mix) -> None:
        self.address = address
        self.lines = [encode_request(Request(
            kind=kind, params=normalize_params(kind, params),
            id=f"m{idx}")).encode() for idx, (kind, params) in enumerate(mix)]
        self.reader = self.writer = None

    async def ask(self, idx: int) -> bytes:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                *self.address, limit=REPLY_LIMIT)
        self.writer.write(self.lines[idx])
        line = await self.reader.readline()
        if not line.endswith(b"\n"):
            await self.close()
            raise ConnectionError("connection closed before the reply")
        return line

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None


async def run_passes(address, mix, rng: random.Random, stats: LoopStats,
                     t_end: float | None = None,
                     passes: int | None = None) -> None:
    """Closed loop for one client: each pass asks every mix entry once in
    a seed-shuffled order and waits for each reply before the next.
    Replies are checked later, by :meth:`LoopStats.settle`."""
    conn = Conn(address, mix)
    try:
        done = 0
        while (passes is None or done < passes) and \
                (t_end is None or time.monotonic() < t_end):
            order = list(range(len(mix)))
            rng.shuffle(order)
            t0 = time.perf_counter()
            complete = True
            for idx in order:
                stats.attempted += 1
                sent = time.perf_counter()
                try:
                    raw = await conn.ask(idx)
                except OSError as exc:
                    await conn.close()
                    stats.fail(f"{mix[idx][0]}: {exc}")
                else:
                    stats.replies.append((time.monotonic(),
                                          time.perf_counter() - sent,
                                          idx, raw))
                if t_end is not None and time.monotonic() >= t_end:
                    complete = False
                    break
            if complete:
                stats.pass_walls.append(
                    (time.monotonic(), time.perf_counter() - t0))
            done += 1
    finally:
        await conn.close()


def closed_loop(address, mix, refs, seed: int, seconds: float, pid: int
                ) -> tuple[LoopStats, list[tuple[float, float]]]:
    """``CLIENTS`` connections, each closed-loop, for ``seconds``.

    Returns the merged stats and ``(time, program CPU s)`` samples taken
    every ``WINDOW_S``: the window boundaries.  The collector is paused
    for the run so that the load generator's own pauses do not land in
    the program's latencies."""
    per = [LoopStats() for _ in range(CLIENTS)]
    pids = descendants(pid)
    samples = [(time.monotonic(), tree_cpu_s(pid, pids))]

    async def sample(t_end: float) -> None:
        while samples[-1][0] + WINDOW_S < t_end:
            await asyncio.sleep(samples[-1][0] + WINDOW_S - time.monotonic())
            samples.append((time.monotonic(), tree_cpu_s(pid, pids)))

    async def run() -> None:
        t_end = samples[0][0] + seconds
        await asyncio.gather(sample(t_end), *(
            run_passes(address, mix, random.Random(seed * 1009 + i),
                       per[i], t_end) for i in range(CLIENTS)))
        samples.append((time.monotonic(), tree_cpu_s(pid, pids)))

    gc.disable()
    try:
        asyncio.run(asyncio.wait_for(run(), seconds + 120))
    finally:
        gc.enable()
    total = LoopStats()
    for s in per:
        total.merge(s)
    total.settle(mix, refs)
    return total, samples


def windowed(stats: LoopStats, samples, mix_len: int) -> dict:
    """The served metrics of each window, then their medians.

    A co-tenant burst on a shared host slows a few windows; the median
    over windows reports the program, not the burst."""
    per: dict[str, list[float]] = {k: [] for k in (
        "wall_s", "cpu_s", "qps", "p50_ms", "p99_ms")}
    for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
        lats = [lat for t, lat in stats.latencies if t0 <= t < t1]
        walls = [w for t, w in stats.pass_walls if t0 <= t < t1]
        if t1 - t0 < WINDOW_S / 2 or not lats or not walls:
            continue  # the short tail window, or a window with no answer
        per["qps"].append(len(lats) / (t1 - t0))
        per["cpu_s"].append((c1 - c0) / len(lats) * mix_len)
        per["wall_s"].append(median(walls))
        per["p50_ms"].append(median(lats) * 1e3)
        per["p99_ms"].append(tail(lats) * 1e3)
    out = {k: median(v) for k, v in per.items()}
    out["window_qps"] = [round(q) for q in per["qps"]]
    return out


def boot(cmd: list[str], scratch: Scratch, mix, refs, stats: LoopStats,
         rng: random.Random) -> tuple[Server, float]:
    """Set-up: boot to first answered ping, then one verified warm-up pass
    over the mix.  Returns the running server and the set-up seconds."""
    t0 = time.perf_counter()
    server = Server(cmd, scratch.fresh("serve"),
                    scratch.path / f"server-{time.monotonic_ns()}.log")
    try:
        with ServeClient(*server.address) as client:
            client.query("ping")
        asyncio.run(run_passes(server.address, mix, rng, stats, passes=1))
        stats.settle(mix, refs)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def measure_served(cmd: list[str], seed: int, seconds: float,
                   scratch: Scratch):
    # the reference answers are computed in this process: keep its
    # result cache in the run's scratch too
    pin_own_env(scratch.fresh("loadgen"))
    mix = DEFAULT_MIX
    refs = reference_digests(mix)
    setup = LoopStats()
    rng = random.Random(seed)
    setups: list[float] = []
    server = None
    for i in range(SETUP_REPEATS):
        server, took = boot(cmd, scratch, mix, refs, setup, rng)
        setups.append(took)
        if i < SETUP_REPEATS - 1:
            server.stop()
    assert server is not None
    try:
        stats, samples = closed_loop(server.address, mix, refs, seed,
                                     seconds, server.proc.pid)
        rss = tree_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    attempted = stats.attempted + setup.attempted
    failed = stats.failed + setup.failed
    values = {"setup_s": median(setups), "peak_rss_mb": rss,
              "success_frac": 1.0 - failed / attempted,
              **windowed(stats, samples, len(mix))}
    info = {"setups_s": [round(x, 2) for x in setups],
            "answered": len(stats.latencies),
            "window_qps": values.pop("window_qps"),
            "passes": len(stats.pass_walls), "shards": stats.shards,
            "served_by": stats.served_by,
            "errors": (setup.errors + stats.errors)[:8]}
    return values, attempted, failed, info


def measure_serve_1shard(seed: int, seconds: float, scratch: Scratch):
    return measure_served(SERVE_CMD, seed, seconds, scratch)


def measure_fabric_3shard(seed: int, seconds: float, scratch: Scratch):
    return measure_served(FABRIC_CMD, seed, seconds, scratch)


MEASURE = {
    "audit_cold": measure_audit_cold,
    "audit_warm": measure_audit_warm,
    "serve_1shard": measure_serve_1shard,
    "fabric_3shard": measure_fabric_3shard,
}
