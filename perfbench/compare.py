"""Compare two sets of benchmark results, refusing different host shapes.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records as ``run.py`` appends them to
``.bench_build/perfbench/results.jsonl``.  For every workload and
end-to-end metric the medians of both sets are printed with the change
as a share of the base median; a change worse than the metric's bound
in ``BENCHMARK.json`` is marked ``WORSE`` and makes the exit code 1.
Records taken on different host shapes (CPU count, affinity, Python,
numpy, BLAS and its threads) are not compared: the exit code is 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import same_shape  # noqa: E402
from metrics import END_TO_END  # noqa: E402


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    records = base + new
    if not records:
        print("no records", file=sys.stderr)
        return 2
    for rec in records[1:]:
        diff = same_shape(records[0]["host"], rec["host"])
        if diff:
            print(f"refusing to compare: host shapes differ in {diff}",
                  file=sys.stderr)
            return 2
    worse = False
    workloads = sorted({r["workload"] for r in records if not r["trace"]})
    for workload in workloads:
        for name, unit, better, bound in END_TO_END:
            sides = [[r["metrics"][name] for r in rs
                      if r["workload"] == workload and not r["trace"]]
                     for rs in (base, new)]
            if not all(sides):
                continue
            b, n = (statistics.median(s) for s in sides)
            change = (n - b) / b if b else 0.0
            bad = change > bound if better == "lower" else -change > bound
            worse |= bad
            print(f"{workload:14s} {name:13s} {b:12.5g} -> {n:12.5g} {unit:6s}"
                  f" {change:+7.1%} (bound {bound:.0%})"
                  f"{'  WORSE' if bad else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
