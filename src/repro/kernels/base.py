"""Workload framework: variants, test cases, registry, calibration.

Every Cubie workload implements :class:`Workload` with up to four variants
(Section 5.2 of the paper):

* ``baseline`` — the vendor-library / prior-art algorithm on vector units;
* ``tc``       — the MMU-optimized algorithm on tensor cores;
* ``cc``       — the *same* algorithm/data layout with every MMA replaced by
  equivalent FMA-pipe work (bit-identical outputs to ``tc`` by construction);
* ``cce``      — essential-computation-only CUDA-core code (equals ``cc``
  for Quadrant I workloads, which have no MMA-induced redundancy).

Workloads expose two evaluation paths that one set of internal stat-builders
feeds: ``execute`` runs functionally on the simulated device at a feasible
scale and returns outputs plus measured counters, while ``analytic_stats``
produces the same counters from closed-form size arithmetic at paper scale
(Table 2 cases).  A per-workload test asserts the two agree.

Calibration constants
---------------------
The sustained-efficiency and memory-level-parallelism constants below are
the model's only free parameters.  They are *global across workloads and
GPUs* — set once from the physical arguments in the comments — so every
per-workload, per-GPU effect in Figures 3-6 emerges from op/byte counts and
the spec table, not from per-experiment tuning.
"""

from __future__ import annotations

import abc
import functools
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, ClassVar, Mapping

import numpy as np

from ..gpu.counters import KernelStats
from ..gpu.device import Device, KernelResult
from ..perf.cache import content_key, default_cache, package_source_token

__all__ = [
    "Variant",
    "Quadrant",
    "WorkloadCase",
    "Workload",
    "register_workload",
    "get_workload",
    "all_workloads",
    "workload_names",
    "stats_key",
    # calibration
    "TC_EFF",
    "TC_EFF_CONST",
    "CC_EFF",
    "CC_EFF_MMA",
    "MLP_FULL",
    "MLP_MMA_CC",
    "MLP_IRREGULAR",
]

# --- calibration constants (see module docstring) --------------------------

#: tensor pipe sustained fraction for MMA-dense kernels without the deep
#: software pipelining of cuBLAS/CUTLASS (Cubie excludes those, Section 9)
TC_EFF = 0.55
#: tensor pipe fraction when one operand is a register-resident constant
#: matrix (Scan/Reduction): no operand reload between MMAs boosts issue rate
TC_EFF_CONST = 0.62
#: FMA pipe fraction for natural vector code (baselines, CC-E)
CC_EFF = 0.50
#: FMA pipe fraction for MMA-expanded lane code (CC variants): each MMA
#: becomes 8 dependent scalar FMAs per lane with the MMA's register layout,
#: which starves the schedulers relative to hand-shaped vector code
CC_EFF_MMA = 0.45
#: full memory-level parallelism (enough warps to saturate DRAM)
MLP_FULL = 1.0
#: MLP of CC variants in memory-bound kernels: warp issue slots diverted to
#: the expanded FMA streams keep fewer loads in flight
MLP_MMA_CC = 0.62
#: MLP of irregular baselines (CSR-vector row imbalance, one-thread-per-row
#: GEMV, push-BFS atomics)
MLP_IRREGULAR = 0.60


class Variant(str, Enum):
    """The four algorithmic implementation variants of Section 5.2."""

    BASELINE = "baseline"
    TC = "tc"
    CC = "cc"
    CCE = "cce"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Quadrant(str, Enum):
    """MMU utilization quadrants (Figure 2)."""

    I = "I"     # full input, full output     (GEMM, PiC, FFT, Stencil)
    II = "II"   # partial input, full output  (Scan)
    III = "III"  # partial input, partial output (Reduction)
    IV = "IV"   # full input, partial output  (BFS, GEMV, SpMV, SpGEMM)


@dataclass(frozen=True)
class WorkloadCase:
    """One test case of Table 2."""

    label: str
    params: Mapping[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.params[key]


# ------------------------------------------------------ stats memoization
#
# analytic_stats is a pure function of (workload config, variant, case),
# yet the characterization grid and the nine-observation audit re-evaluate
# the same triples dozens of times (once per device, once per observation).
# Every concrete workload's analytic_stats is therefore memoized behind a
# content-addressed key; hits return a defensive copy so callers that
# mutate/merge stats never corrupt the cache.  Bit-identity of memoized vs
# fresh results is guaranteed by construction (the same object's field
# values) and asserted in the perf tests.
#
# The memo lives in one process.  Across processes the stats persist as
# one row per (workload, case), written only by the ``stats:`` graph nodes
# (``repro.analysis.spine``).  A memo miss on a keyable case of the
# workload's own grid reads that row; without one it computes the triple.

_STATS_MEMO: OrderedDict[str, KernelStats] = OrderedDict()
_STATS_MEMO_MAX = 8192


def _copy_stats(st: KernelStats) -> KernelStats:
    # AccessStream entries are frozen; a fresh list is isolation enough
    return replace(st, dram=list(st.dram))


def _memo_key(workload: "Workload", variant: "Variant",
              case: "WorkloadCase") -> str:
    """The memo key of one triple; ``TypeError`` when unkeyable."""
    return content_key(type(workload).__qualname__,
                       dict(workload._memo_state()),
                       variant, case.label, dict(case.params))


def stats_key(workload: "Workload", case: "WorkloadCase") -> str:
    """The result-cache key of one case's ``{variant: KernelStats}`` row;
    ``TypeError`` when unkeyable."""
    return content_key("stats", package_source_token(),
                       type(workload).__qualname__,
                       dict(workload._memo_state()), case.label,
                       dict(case.params), np.__version__)


def _memo_put(key: str, st: KernelStats) -> None:
    _STATS_MEMO[key] = st
    _STATS_MEMO.move_to_end(key)
    while len(_STATS_MEMO) > _STATS_MEMO_MAX:
        _STATS_MEMO.popitem(last=False)


def _memoize_stats(impl: Callable[..., KernelStats]
                   ) -> Callable[..., KernelStats]:
    @functools.wraps(impl)
    def wrapper(self: "Workload", variant: "Variant",
                case: "WorkloadCase") -> KernelStats:
        try:
            key = _memo_key(self, variant, case)
        except TypeError:   # unkeyable workload/case state: just compute
            return impl(self, variant, case)
        hit = _STATS_MEMO.get(key)
        if hit is None and case in self.cases():
            found, row = default_cache().peek("stats", stats_key(self, case))
            if found:
                for v, st in row.items():
                    _memo_put(_memo_key(self, v, case), st)
            hit = _STATS_MEMO.get(key)
        if hit is None:
            hit = impl(self, variant, case)
            _memo_put(key, hit)
        return _copy_stats(hit)

    wrapper._stats_memoized = True  # type: ignore[attr-defined]
    return wrapper


class Workload(abc.ABC):
    """Base class for the ten Cubie workloads."""

    name: ClassVar[str]
    quadrant: ClassVar[Quadrant]
    #: Berkeley dwarf this workload represents (Table 7)
    dwarf: ClassVar[str]
    #: the baseline library/method of Table 2
    baseline_name: ClassVar[str]
    #: whether a distinct CC-E variant exists (False for Quadrant I)
    has_cce: ClassVar[bool] = True
    #: Figure 7 measurement-loop repeat count for this workload
    edp_repeats: ClassVar[int] = 1000
    #: does the workload perform floating-point math (BFS does not)
    floating_point: ClassVar[bool] = True

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def cases(self) -> list[WorkloadCase]:
        """The five paper-scale test cases (Table 2)."""

    def representative_case(self) -> WorkloadCase:
        """The single case used for power (Figs 7-8) and accuracy (Table 6);
        defaults to the middle case."""
        cs = self.cases()
        return cs[len(cs) // 2]

    def exec_case(self, case: WorkloadCase) -> WorkloadCase:
        """A functionally executable (possibly down-scaled) version of
        ``case``.  Defaults to the case itself."""
        return case

    def matrix_args(self, case: WorkloadCase, seed: int | None = None
                    ) -> tuple[str, float, int] | None:
        """The :func:`~repro.datasets.generate_matrix` arguments
        ``(name, scale, seed)`` behind ``case``: those ``prepare(case,
        seed)`` reads, or with ``seed=None`` those ``analytic_stats``
        reads.  ``None`` for workloads without a Table 4 matrix."""
        return None

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def prepare(self, case: WorkloadCase, seed: int = 1325) -> dict:
        """Generate the problem inputs for a case (deterministic)."""

    @abc.abstractmethod
    def reference(self, data: dict) -> Any:
        """The CPU-serial ground-truth output (None for BFS-style kernels
        whose output is validated structurally)."""

    @abc.abstractmethod
    def execute(self, variant: Variant, data: dict,
                device: Device) -> KernelResult:
        """Run a variant functionally on the simulated device."""

    @abc.abstractmethod
    def analytic_stats(self, variant: Variant,
                       case: WorkloadCase) -> KernelStats:
        """Closed-form counters for a paper-scale case.

        Concrete implementations are memoized automatically (see
        ``_memoize_stats``); they must stay pure functions of the
        workload's configuration attributes, the variant, and the case.
        """

    def _memo_state(self) -> Mapping[str, Any]:
        """Instance state that keys the ``analytic_stats`` memo.

        Defaults to all instance attributes.  Workloads that lazily attach
        derived caches to ``self`` (which would destabilize the key and
        defeat memoization) override this to return only their
        configuration attributes."""
        return vars(self)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        impl = cls.__dict__.get("analytic_stats")
        if impl is not None and not getattr(impl, "_stats_memoized", False):
            cls.analytic_stats = _memoize_stats(impl)

    # ------------------------------------------------------------------
    def variants(self) -> tuple[Variant, ...]:
        base = (Variant.BASELINE, Variant.TC, Variant.CC)
        return base + ((Variant.CCE,) if self.has_cce else ())

    def resolve_variant(self, variant: Variant) -> Variant:
        """Map CCE to CC for Quadrant I workloads (Section 5.2: 'for GEMM,
        PiC, FFT, and Stencil the CC-E version is equivalent to CC').

        Coerces strings (``"cce"``) to :class:`Variant` so external
        callers (CLI, suites) cannot bypass the equivalence mapping with a
        value the identity-based dispatch below would not recognize."""
        variant = Variant(variant)
        if variant is Variant.CCE and not self.has_cce:
            return Variant.CC
        return variant

    def run_case(self, variant: Variant, case: WorkloadCase, device: Device,
                 seed: int = 1325) -> KernelResult:
        """Convenience: prepare + execute the (down-scaled) case.

        Resolves the variant first: a CC-E request on a Quadrant I
        workload must run the CC path, not fall through ``execute``'s
        variant dispatch into whatever ``else`` branch exists."""
        data = self.prepare(self.exec_case(case), seed=seed)
        return self.execute(self.resolve_variant(variant), data, device)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Workload {self.name} (Quadrant {self.quadrant.value})>"


# --------------------------------------------------------------- registry
_REGISTRY: dict[str, Workload] = {}


def register_workload(workload: Workload) -> Workload:
    """Register a workload instance under its class name."""
    if workload.name in _REGISTRY:
        raise ValueError(f"workload {workload.name!r} already registered")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_workloads() -> list[Workload]:
    """All registered workloads in suite order."""
    return list(_REGISTRY.values())


def workload_names() -> list[str]:
    return list(_REGISTRY)


def gemm_flops(m: int, n: int, k: int) -> float:
    """Essential flops of an m x n x k matrix multiplication."""
    return 2.0 * m * n * k


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)
