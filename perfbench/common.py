"""Shared plumbing for the benchmark: environment hygiene, host shape,
process accounting through ``/proc``, statistics and answer digests.

Nothing here imports ``repro``: the benchmark must be able to notice that
the program is missing and exit non-zero before touching it.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: the checkout root: the benchmark lives in ``<root>/perfbench``
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: per-run scratch (cache dirs, server logs) and kept outputs (span
#: files, result records); ignored by git
OUT = ROOT / ".bench_build" / "perfbench"

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def program_present() -> bool:
    return (SRC / "repro" / "__main__.py").is_file()


def clean_env(cache_dir: Path) -> dict[str, str]:
    """The environment every program process runs under.

    Every ``REPRO_*`` variable is dropped (faults, cache switches, graph
    mode, stage dumps, tokens...), then the cache directory and the job
    count are pinned, so two runs differ only in what the benchmark sets.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_JOBS"] = str(nproc())
    env.pop("PYTHONHASHSEED", None)
    return env


def pin_own_env(cache_dir: Path) -> None:
    """Apply :func:`clean_env` to this process (in-process replays)."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(REPRO_CACHE_DIR=str(cache_dir), REPRO_JOBS=str(nproc()))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Scratch:
    """A fresh scratch directory for one benchmark run, removed on exit."""

    def __init__(self, label: str) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=OUT))
        self._n = 0

    def fresh(self, name: str) -> Path:
        """A new empty directory (a fresh ``REPRO_CACHE_DIR``)."""
        self._n += 1
        path = self.path / f"{self._n:03d}-{name}"
        path.mkdir()
        return path

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# ------------------------------------------------------------ host shape

def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy links, read from the library."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_shape() -> dict:
    """What a result was measured on.  ``load_avg`` is recorded but is not
    part of the shape :func:`same_shape` compares."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "load_avg": list(os.getloadavg()),
    }


SHAPE_KEYS = ("nproc", "affinity", "cpu_count", "machine", "python", "numpy",
              "blas", "blas_threads")


def same_shape(a: dict, b: dict) -> list[str]:
    """The shape fields on which two host records differ."""
    return [k for k in SHAPE_KEYS if a.get(k) != b.get(k)]


# ---------------------------------------------------- process accounting

def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            text = f.read()
    except OSError:
        return None
    # the command name may hold spaces: split after its closing paren
    return text[text.rindex(")") + 2:].split()


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def tree_cpu_s(pid: int, pids: list[int] | None = None) -> float:
    """User + system CPU of a process tree, reaped children included
    (``pids``: the tree, when the caller listed it already)."""
    total = 0
    for p in pids if pids is not None else descendants(pid):
        fields = _stat_fields(p)
        if fields is not None:
            # utime, stime, cutime, cstime (stat fields 14-17)
            total += sum(int(x) for x in fields[11:15])
    return total / _CLK_TCK


def tree_peak_rss_mb(pid: int) -> float:
    """Largest peak resident set (VmHWM) of any process in the tree."""
    peak = 0.0
    for p in descendants(pid):
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024)
        except OSError:
            pass
    return peak


def stop_tree(proc: subprocess.Popen, timeout_s: float = 20.0) -> None:
    """SIGTERM a server and let it drain and stop its own children; then
    SIGKILL whatever of its tree is left (a pool worker orphaned by a
    shard its parent had to kill) and wait until every process has
    ended."""
    tree = descendants(proc.pid)
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        pass
    for p in tree:
        if _alive(p):
            _kill(p)
    proc.wait(timeout=10)
    deadline = time.monotonic() + 10
    while any(_alive(p) for p in tree[1:]):
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {tree[1:]} outlived SIGKILL")
        time.sleep(0.02)


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_timed(cmd: list[str], env: dict[str, str], stdout_path: Path,
              affinity: set[int] | None = None
              ) -> tuple[int, float, float, float]:
    """Run a command to completion: (exit code, wall s, CPU s, peak RSS MB).

    ``os.wait4`` returns the child's resource usage including every
    descendant it reaped, so CPU covers pool workers, and ``ru_maxrss``
    is the largest resident set among them.
    """
    preexec = (lambda: os.sched_setaffinity(0, affinity)) if affinity else None
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                env=env, cwd=ROOT, preexec_fn=preexec)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


# ----------------------------------------------------------- statistics

def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def tail(values, beyond: int = 10) -> float:
    """The highest of p99, p95, p90 and p75 with at least ``beyond``
    samples past it; the median when the sample supports none of them."""
    for q in (0.99, 0.95, 0.90, 0.75):
        value, past = percentile(values, q)
        if past >= beyond:
            return value
    return median(values)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def answer_digest(result) -> str:
    """Canonical digest of one served answer (the program's own scheme:
    sorted keys, compact separators)."""
    return sha256(json.dumps(result, sort_keys=True,
                             separators=(",", ":")).encode())


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
