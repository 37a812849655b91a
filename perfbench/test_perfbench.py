"""The benchmark's own tests: the format of BENCHMARK.json, the span
arithmetic, and that its correctness and speed-up gates fail when they
should.

    python3 -m pytest perfbench -q

The gate tests drive the real program (a cold audit takes ~15 s on the
2-core reference host); they are not part of the repository's tier-1
suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import metrics  # noqa: E402
from tracing import Span, coverage, layer_self_times, self_times  # noqa: E402

ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_mirrors_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == metrics.benchmark_json()


def test_benchmark_json_within_format_limits():
    raw = (ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(raw)
    assert len(raw.encode()) <= 64 * 1024
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in spec[k]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_per_layer_metric_has_a_prediction():
    for m in metrics.PER_LAYER:
        assert m["moves"] and m["on"] and m["unchanged_on"], m["name"]


def _span(i, parent, name, start, end):
    return Span("t", i, parent, name, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(0, None, "replay", 0.0, 10.0),
             _span(1, 0, "analysis.accuracy", 1.0, 6.0),
             _span(2, 1, "kernels.execute", 2.0, 4.0),
             _span(3, 1, "kernels.execute", 3.0, 5.0),  # overlaps span 2
             _span(4, 0, "serve.query", 7.0, 9.0)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(2.0)  # 5 s minus the 3 s union
    assert selfs[0] == pytest.approx(3.0)
    assert layer_self_times(spans) == pytest.approx(
        {"analysis": 2.0, "kernels": 4.0, "serve": 2.0})
    assert coverage(spans) == pytest.approx(0.8)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_compare_refuses_different_host_shapes(tmp_path):
    rec = {"workload": "serve_1shard", "trace": 0, "host": {"nproc": 2},
           "metrics": {m[0]: 1.0 for m in metrics.END_TO_END}}
    other = dict(rec, host={"nproc": 4})
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(json.dumps(rec) + "\n")
    b.write_text(json.dumps(other) + "\n")
    compare = [sys.executable, str(HERE / "compare.py")]
    assert subprocess.run(compare + [str(a), str(b)],
                          capture_output=True).returncode == 2
    assert subprocess.run(compare + [str(a), str(a)],
                          capture_output=True).returncode == 0


# ------------------------------------------------------------- the gates

@pytest.fixture
def program(monkeypatch):
    """The benchmark's modules, run against this checkout's program."""
    monkeypatch.syspath_prepend(str(common.SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    import workloads

    with common.Scratch("selftest") as scratch:
        yield workloads, scratch


def test_corrupted_served_answer_raises_failed_frac(program, monkeypatch):
    workloads, scratch = program
    real = workloads.Conn.ask

    async def tampered(self, idx):
        raw = await real(self, idx)
        if workloads.DEFAULT_MIX[idx][0] == "edp":
            reply = json.loads(raw)
            reply["result"] = {"tampered": True}
            raw = (json.dumps(reply) + "\n").encode()
        return raw

    monkeypatch.setattr(workloads.Conn, "ask", tampered)
    values, attempted, failed, _ = workloads.measure_serve_1shard(
        7, 1.0, scratch)
    assert failed > 0 and attempted > failed
    assert values["success_frac"] < 1.0


def test_changed_audit_digest_raises_failed_frac(program, monkeypatch):
    workloads, scratch = program
    monkeypatch.setitem(common.PINS, "audit_stdout_sha256", "0" * 64)
    values, attempted, failed, info = workloads.measure_audit_cold(
        7, 0.0, scratch)
    assert failed == attempted == workloads.MIN_AUDITS
    assert values["success_frac"] == 0.0
    assert "digest" in info["failures"][0]


def test_secretly_serial_jobs_2_reads_as_no_speedup(program):
    _, scratch = program
    import replay

    checks, values = replay.Checks(), {}
    cpu = min(os.sched_getaffinity(0))
    replay.graph_speedup(replay.Tracer(), scratch, values, checks,
                         affinity_2={cpu})
    assert not checks.failures
    # one CPU can only time-slice the two workers: no speed-up shows (the
    # honest 2-worker figure is ~1.3 on the 2-core reference host)
    assert values["graph.speedup_2v1"] < 1.12
    assert values["graph.cpu_per_wall"] < 1.1
