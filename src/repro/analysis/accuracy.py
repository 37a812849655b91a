"""FP64 accuracy study (Section 8, Table 6).

For each floating-point workload, every variant executes functionally at a
feasible scale and its output is compared against the workload's CPU-serial
reference, reporting

    Average_Error = (1/n) sum |result_gpu,i - result_cpu,i|
    Max_Error     = max    |result_gpu,i - result_cpu,i|

exactly as the paper defines them.  BFS is excluded (no floating-point
math).  The structural findings the study must reproduce: TC and CC give
*identical* errors (same data structures, algorithms, and — in this
simulation, by construction — accumulation order), while CC-E and the
baselines round differently.

Hot-path layout: the reference output is prepared once per workload (not
once per variant) and every comparison reduces through one reused error
buffer.  Sparse outputs never densify: the errors of a CSR pair are
scattered into a zeroed buffer at the two patterns' positions and the
buffer is re-zeroed there afterwards, so the SpGEMM comparison moves
nonzeros instead of three quarter-GB dense arrays — with every element,
and so every reduced value, equal to the dense computation's
(bit-identity is pinned by ``tests/kernels/accuracy_digests.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..gpu.device import Device
from ..kernels.base import Workload
from ..perf.cache import content_key, default_cache, package_source_token
from ..perf.executor import ParallelExecutor
from ..perf.instrument import stage
from ..sparse.csr import CsrMatrix


__all__ = ["AUDIT_SEED", "ErrorEntry", "error_metrics", "accuracy_key",
           "accuracy_table", "accuracy_tables"]

#: the fixed dataset seed of the Table 6 audit — shared with the
#: observation graph's dataset-gen nodes so they warm the exact
#: generator cache entries the audit will read
AUDIT_SEED = 1325


@dataclass(frozen=True)
class ErrorEntry:
    """One (workload, variant) cell of Table 6."""

    workload: str
    variant: str
    avg_error: float
    max_error: float
    samples: int


class _Sparse(NamedTuple):
    """A CSR output flattened row-major without densifying."""

    keys: np.ndarray     # flat positions of the stored entries
    values: np.ndarray
    size: int            # the dense length, n_rows * n_cols


def _flatten(output) -> np.ndarray | _Sparse:
    """Outputs may be arrays, complex arrays, or CSR matrices."""
    if isinstance(output, CsrMatrix):
        keys = output.row_of_entry() * np.int64(output.n_cols) \
            + output.indices
        return _Sparse(keys, output.data, output.n_rows * output.n_cols)
    if hasattr(output, "to_dense"):
        return output.to_dense().ravel()
    arr = np.asarray(output)
    if np.iscomplexobj(arr):
        return np.concatenate([arr.real.ravel(), arr.imag.ravel()])
    return arr.astype(np.float64, copy=False).ravel()


def _dense(flat: np.ndarray | _Sparse) -> np.ndarray:
    if isinstance(flat, _Sparse):
        dense = np.zeros(flat.size)
        dense[flat.keys] = flat.values
        return dense
    return flat


def _errors(got: np.ndarray | _Sparse, ref: np.ndarray | _Sparse,
            err: np.ndarray) -> tuple[float, float, int]:
    """(average, maximum, sample count) of ``|got - ref|`` elementwise.

    ``err`` is a float64 scratch buffer of the dense length.  When both
    sides are sparse it must be all zero on entry, and it is all zero
    again on return: ``got`` is scattered in, ``ref`` subtracted at its
    positions and ``abs`` taken at both, which gives every element the
    value of the dense ``abs(got - ref)`` (``x - 0.0`` is ``x``, and
    untouched positions are ``abs(0.0 - 0.0)``).  The mean still reduces
    over the whole dense length: summing only the touched positions
    would change numpy's pairwise-summation tree and the rounding.
    """
    if got.size != ref.size:
        raise ValueError(
            f"output shape ({got.size},) != reference shape ({ref.size},)")
    if not (isinstance(got, _Sparse) and isinstance(ref, _Sparse)):
        np.subtract(_dense(got), _dense(ref), out=err)
        np.abs(err, out=err)
        result = float(err.mean()), float(err.max()), int(err.size)
        if isinstance(ref, _Sparse) or isinstance(got, _Sparse):
            err.fill(0.0)
        return result
    err[got.keys] = got.values
    err[ref.keys] -= ref.values
    for keys in (got.keys, ref.keys):
        err[keys] = np.abs(err[keys])
    result = float(err.mean()), float(err.max()), int(err.size)
    err[got.keys] = 0.0
    err[ref.keys] = 0.0
    return result


def error_metrics(output, reference) -> tuple[float, float, int]:
    """(average, maximum, sample count) of absolute elementwise error."""
    got, ref = _flatten(output), _flatten(reference)
    return _errors(got, ref, np.zeros(ref.size))


def _accuracy_table_uncached(workload: Workload, device: Device,
                             seed: int = AUDIT_SEED) -> list[ErrorEntry]:
    if not workload.floating_point:
        raise ValueError(
            f"{workload.name} performs no floating-point computation "
            "(the paper excludes it from Table 6)")
    case = workload.exec_case(workload.representative_case())
    with stage("accuracy.prepare"):
        data = workload.prepare(case, seed=seed)
    with stage("accuracy.reference"):
        ref = _flatten(workload.reference(data))
    err = np.zeros(ref.size)
    entries = []
    for variant in workload.variants():
        with stage(f"accuracy.execute:{variant.value}"):
            result = workload.execute(variant, data, device)
        with stage("accuracy.compare"):
            avg, mx, n = _errors(_flatten(result.output), ref, err)
            entries.append(ErrorEntry(
                workload=workload.name, variant=variant.value,
                avg_error=avg, max_error=mx, samples=n))
    return entries


def accuracy_key(workload: Workload, device: Device,
                 seed: int = AUDIT_SEED) -> str:
    """The result-cache key (kind ``"accuracy"``) of one Table 6 audit.

    Shared by :func:`accuracy_table` and the observation graph's
    ``accuracy:`` nodes, which declare it as their cache address.  Raises
    ``TypeError`` when the workload's parameters are not keyable.
    """
    return content_key("accuracy_table", package_source_token(),
                       type(workload).__qualname__, vars(workload),
                       device.spec, seed, np.__version__)


def accuracy_table(workload: Workload, device: Device,
                   seed: int = AUDIT_SEED) -> list[ErrorEntry]:
    """Table 6 rows for one workload on one device.

    TC and CC are evaluated separately (and a caller can verify they
    coincide) rather than assumed equal.

    The functional runs behind this table are the single most expensive
    stage of the observation audit, and their inputs are fully determined
    by the fixed-seed generators, so results are content-address cached.
    The key mixes in a hash of the whole package source, invalidating
    every entry whenever any kernel/simulator code changes.
    """
    try:
        key = accuracy_key(workload, device, seed)
    except TypeError:
        return _accuracy_table_uncached(workload, device, seed)
    with stage("analysis.accuracy_table"):
        return default_cache().get_or_compute(
            "accuracy", key,
            lambda: _accuracy_table_uncached(workload, device, seed))


def _audit_one(workload: Workload, device: Device,
               seed: int) -> list[ErrorEntry]:
    return accuracy_table(workload, device, seed)


def accuracy_tables(workloads, device: Device, seed: int = AUDIT_SEED, *,
                    n_jobs: int | None = None
                    ) -> dict[str, list[ErrorEntry]]:
    """The whole Table 6 audit, fanned out per floating-point workload.

    Non-floating-point workloads are skipped (the paper excludes them).
    Each workload runs under a ``accuracy.audit:<name>`` stage, so the
    profiler attributes the audit per workload even across a process-pool
    fan-out; results are returned keyed by workload name.
    """
    fp = [w for w in workloads if w.floating_point]
    tables = ParallelExecutor(n_jobs).starmap(
        _audit_one, [(w, device, seed) for w in fp], chunk_size=1,
        labels=[f"accuracy {w.name}" for w in fp],
        stage_names=[f"accuracy.audit:{w.name}" for w in fp])
    return {w.name: t for w, t in zip(fp, tables)}
