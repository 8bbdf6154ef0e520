"""Reproducible micro-benchmarks with a stable JSON output schema.

``python -m repro bench`` runs :func:`spmvm_suite` and writes
``BENCH_spmvm.json`` (schema ``repro-bench/1``); see
:mod:`repro.bench.harness` for the layout.
"""

from repro.bench.harness import (
    BENCH_SCHEMA,
    BenchResult,
    TimingStats,
    time_callable,
    write_results,
)
from repro.bench.suite import (
    BLOCK_WIDTHS,
    GUARD_MIN_ROWS,
    GUARDS,
    Guard,
    check_guards,
    guard_bound,
    spmvm_suite,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "TimingStats",
    "time_callable",
    "write_results",
    "BLOCK_WIDTHS",
    "GUARD_MIN_ROWS",
    "GUARDS",
    "Guard",
    "check_guards",
    "guard_bound",
    "spmvm_suite",
]
