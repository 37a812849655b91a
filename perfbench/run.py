"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures one workload end to end with tracing off and
prints its end-to-end metrics.  ``--trace 1`` runs the traced replay
(``replay.py``) with spans on, and its serve and fabric replays again
with spans off, and prints every per-layer metric; the span file goes to ``.bench_build/perfbench/``.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each result is also appended,
with the host shape, to ``.bench_build/perfbench/results.jsonl`` (see
``compare.py``).  Benchmark notes: ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT,
    ROOT,
    SRC,
    Scratch,
    host_shape,
    log,
    program_present,
)
from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    UNSTEADY_WORKLOADS,
    WORKLOADS,
)
from tracing import Span, coverage, layer_self_times  # noqa: E402


def end_to_end(workload: str, seed: int, seconds: float):
    from workloads import MEASURE

    with Scratch(workload) as scratch:
        values, attempted, failed, info = MEASURE[workload](
            seed, seconds, scratch)
    log(f"{workload}: {json.dumps(info, default=str)}")
    units = {name: unit for name, unit, _, _ in END_TO_END}
    return values, units, attempted, failed


def replay(args: list[str], timeout_s: float = 150.0) -> None:
    """Run ``replay.py`` in its own process group, so that a replay which
    hangs is killed together with every server it started."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("replay.py")), *args],
        cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if rc != 0:
        raise subprocess.CalledProcessError(rc, proc.args)


def traced(workload: str, seed: int):
    """Both replays in fresh interpreters; per-layer values from the
    spans-on one, overhead from the wall-clocks of the replays both ran.
    The seed's parity picks which runs first, so order effects cancel
    over runs instead of biasing the overhead one way."""
    records = {}
    with Scratch("trace") as scratch:
        for spans in ((0, 1) if seed % 2 == 0 else (1, 0)):
            out = scratch.path / f"replay-{spans}.json"
            replay(["--spans", str(spans), "--out", str(out)])
            records[spans] = json.loads(out.read_text())
    on = records[1]
    spans = [Span(**s) for s in on["spans"]]
    values = dict(on["values"])
    for layer, self_s in layer_self_times(spans).items():
        values[f"{layer}.self_s"] = self_s
    values["trace.coverage"] = coverage(spans)
    off = records[0]["walls"]
    values["trace.overhead_frac"] = \
        sum(on["walls"][w] for w in off) / sum(off.values()) - 1
    path = OUT / f"spans-{workload}-{seed}.json"
    path.write_text(json.dumps(
        {"meta": {"workload": workload, "seed": seed, "host": host_shape()},
         "spans": on["spans"]}, indent=1) + "\n")
    log(f"span file: {path.relative_to(ROOT)} ({len(spans)} spans)")
    failures = records[0]["failures"] + on["failures"]
    for failure in failures:
        log(f"replay check failed: {failure}")
    units = {m["name"]: m["unit"] for m in PER_LAYER}
    attempted = records[0]["attempted"] + on["attempted"]
    return values, units, attempted, len(failures)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="repository benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted({**WORKLOADS, **UNSTEADY_WORKLOADS}))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not program_present():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    if args.trace:
        values, units, attempted, failed = traced(args.workload, args.seed)
    else:
        values, units, attempted, failed = end_to_end(
            args.workload, args.seed, args.seconds)
    missing = sorted(set(units) - set(values))
    if missing:
        log(f"metrics not measured: {missing}")
        return 3
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "elapsed_s": time.perf_counter() - t0, "host": host_shape(),
              "attempted": attempted, "failed": failed,
              "metrics": {k: values[k] for k in units}}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
