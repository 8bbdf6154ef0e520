"""repro.program: the backend-neutral sweep IR for the Fig. 4 schemes.

One :class:`SweepProgram` type states a scheme's phase ordering (gather,
halo exchange, local spMVM, waitall, remote spMVM) as data, and
:func:`build_sweep` is the single source of truth that emits it.  A
program spans ``n_sweeps`` chained sweeps — the matrix-powers kernel
``A x .. A^N x`` — and a plain sweep is simply the ``n_sweeps = 1``
case: its ops, signature and ``program_id`` carry no sweep tag.  For
N > 1 cross-iteration pipelining (sweep ``i+1``'s receives hoisted
before sweep ``i``'s remote kernel, double-buffered halo slots, one
long-lived comm thread) is emitted as data too.  See DESIGN.md §10 and
§15.

Each backend has one interpreter for every program:

* :func:`execute_sweep` / :func:`execute_multi_sweep` — thin entries
  (one result / the chain) to the one real-execution walker on mpilite
  data (the engine behind :class:`~repro.core.spmvm.DistributedSpMVM`),
* :func:`sweep_process` — the timed simulator process (the engine
  behind :func:`~repro.core.runner.simulate_spmvm`),

and :func:`lint_sweep_program` proves a program's invariants (request
lifecycle, buffer publication, comm-thread regions, chaining and the
double-buffer contract) on a happens-before model before either backend
touches it.  ``build_multi_sweep`` and ``lint_multi_sweep_program`` are
the chained-program spellings of the same functions.
"""

from repro.program.build import (
    CHECKED_SWEEP_COUNTS,
    PROGRAM_SCHEMES,
    all_sweep_programs,
    build_multi_sweep,
    build_sweep,
    cached_sweep_program,
)
from repro.program.exec import execute_multi_sweep, execute_sweep
from repro.program.ir import (
    COMM_OPS,
    COMPUTE_OPS,
    LOWERINGS,
    MULTI_BODY_OPS,
    OP_KINDS,
    SIM_PHASE_LABELS,
    WORK_OPS,
    SweepOp,
    SweepProgram,
)
from repro.program.lint import (
    lint_multi_sweep_program,
    lint_sweep_program,
    lint_sweep_programs,
)
from repro.program.sim import sweep_process

__all__ = [
    "OP_KINDS",
    "COMPUTE_OPS",
    "COMM_OPS",
    "MULTI_BODY_OPS",
    "WORK_OPS",
    "LOWERINGS",
    "SIM_PHASE_LABELS",
    "SweepOp",
    "SweepProgram",
    "PROGRAM_SCHEMES",
    "CHECKED_SWEEP_COUNTS",
    "build_sweep",
    "build_multi_sweep",
    "cached_sweep_program",
    "all_sweep_programs",
    "execute_sweep",
    "execute_multi_sweep",
    "sweep_process",
    "lint_sweep_program",
    "lint_multi_sweep_program",
    "lint_sweep_programs",
]
