"""The sweep IR: one backend-neutral program per Fig. 4 scheme.

The paper's three hybrid schemes differ only in the *ordering and
concurrency* of the same phases — gather, halo exchange, local spMVM,
waitall, remote spMVM.  A :class:`SweepProgram` states that ordering
once, as a flat list of typed ops, and every consumer interprets the
same program:

* the real-execution backend (:mod:`repro.program.exec`) runs it on
  mpilite data and produces this rank's slice of ``A @ x``,
* the simulation backend (:mod:`repro.program.sim`) runs it as a
  simulator process and produces trace events and timings,
* the program lint (:mod:`repro.program.lint`) proves its structural
  invariants without running anything.

Op vocabulary
-------------
``POST_RECVS``
    Post every inbound halo request of the sweep (nonblocking).
``PACK``
    Gather the owned RHS elements into send buffers.  Under the plan
    lowering the packing is fused into the sends on the real backend;
    the simulator prices it as the ``gather`` compute phase either way.
``POST_SENDS``
    Issue every payload-ready outbound message (and, under a comm plan,
    arm the relay duties).
``WAITALL``
    Complete the whole exchange: every posted request, including relayed
    traffic, and land the halo segments in the halo buffer.
``LOCAL_SPMVM`` / ``REMOTE_SPMVM``
    The two phases of the split kernel (Eq. 2): rows against owned
    columns, then rows against the received halo.
``FULL_SPMVM``
    The unsplit kernel of Fig. 4a (result written once).  Real backends
    with split-stored matrices lower it to local-then-remote in the
    same arithmetic order, so numerics are scheme-independent.
``OMP_BARRIER``
    Intra-rank thread barrier.  A barrier is also the *join point* of an
    open ``COMM_THREAD`` region: the compute threads wait for the
    communication thread before crossing it.
``COMM_THREAD(body)``
    Fig. 4c's dedicated communication thread: run *body* (MPI calls
    only) concurrently with the ops that follow, until an
    ``OMP_BARRIER`` joins it.  ``OMP_BARRIER`` ops inside the body are
    rendezvous points with the matching main-path barriers (one
    long-lived thread pacing chained sweeps); the first main-path
    barrier past the last rendezvous is the join.

Programs are backend-neutral and width-neutral: the same op sequence
serves spmv (k = 1) and batched spmm (k > 1); ``block_k`` is metadata
for the simulator's cost model, not a structural parameter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator

from repro.util import check_in

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
]

#: Every op kind the backends understand (stable identifiers; they are
#: what the golden cross-backend test compares).
OP_KINDS = (
    "POST_RECVS",
    "PACK",
    "POST_SENDS",
    "LOCAL_SPMVM",
    "WAITALL",
    "REMOTE_SPMVM",
    "FULL_SPMVM",
    "OMP_BARRIER",
    "COMM_THREAD",
)

#: Ops that run on the compute threads (memory traffic in the simulator).
COMPUTE_OPS = ("PACK", "LOCAL_SPMVM", "REMOTE_SPMVM", "FULL_SPMVM")

#: Ops that execute MPI library code (legal inside a COMM_THREAD body).
COMM_OPS = ("POST_RECVS", "POST_SENDS", "WAITALL")

#: Body vocabulary of a COMM_THREAD region: MPI ops plus the
#: OMP_BARRIER rendezvous points that pace a long-lived communication
#: thread against the compute threads across sweeps.
MULTI_BODY_OPS = COMM_OPS + ("OMP_BARRIER",)

#: Ops that do per-sweep work (everything except synchronisation and the
#: COMM_THREAD marker) — the multiset every sweep of a chained program
#: must perform, however it is pipelined.
WORK_OPS = COMM_OPS + COMPUTE_OPS

#: How PACK/POST_SENDS/WAITALL reach the wire: ``classic`` is one
#: message per peer straight off the halo lists; ``plan`` replays a
#: compiled :class:`~repro.comm.plan.CommPlan` (direct or node-aware).
LOWERINGS = ("classic", "plan")

#: Trace phase label the simulation backend emits for each compute op —
#: the contract that keeps every :mod:`repro.obs` analysis (phase
#: summaries, overlap-bytes-during-local-spMVM) working unchanged.
SIM_PHASE_LABELS = {
    "PACK": "gather",
    "LOCAL_SPMVM": "local spMVM",
    "REMOTE_SPMVM": "remote spMVM",
    "FULL_SPMVM": "full spMVM",
}


@dataclass(frozen=True)
class SweepOp:
    """One typed instruction of a sweep program.

    ``body`` is only meaningful (and required) for ``COMM_THREAD``; it
    holds the ops the dedicated communication thread executes.

    ``sweep`` tags the op with the sweep (iteration) it belongs to in a
    chained :class:`SweepProgram`.  Single-sweep programs leave it at 0,
    so their reprs carry no tag.
    """

    kind: str
    body: tuple["SweepOp", ...] = ()
    sweep: int = 0

    def __post_init__(self) -> None:
        check_in(self.kind, OP_KINDS, "op kind")
        if self.sweep < 0:
            raise ValueError(f"sweep index must be >= 0, got {self.sweep}")
        if self.kind == "COMM_THREAD":
            if not self.body:
                raise ValueError("COMM_THREAD requires a non-empty body")
            for op in self.body:
                if op.kind == "COMM_THREAD":
                    raise ValueError("COMM_THREAD regions cannot nest")
        elif self.body:
            raise ValueError(f"op {self.kind} cannot carry a body")

    @functools.cached_property
    def rendezvous(self) -> int:
        """``OMP_BARRIER`` rendezvous points in this region's body.

        The main path's first that many barriers after the spawn pace
        the comm thread; the next one joins it.  Counted once per op.
        """
        return sum(1 for inner in self.body if inner.kind == "OMP_BARRIER")

    def __repr__(self) -> str:
        tag = f"@{self.sweep}" if self.sweep else ""
        if self.kind == "COMM_THREAD":
            return f"COMM_THREAD({', '.join(repr(op) for op in self.body)}){tag}"
        return f"{self.kind}{tag}"


@dataclass(frozen=True)
class SweepProgram:
    """An op stream spanning ``n_sweeps`` chained sweeps, as data.

    ``scheme`` names the Fig. 4 variant the program encodes, ``block_k``
    the number of right-hand sides per sweep (cost metadata), and
    ``lowering`` how the communication ops reach the wire.  The default
    ``n_sweeps = 1`` is one plain sweep; its signature tokens, op
    labels and :meth:`program_id` carry no sweep tag.

    With ``n_sweeps > 1`` every op carries a ``sweep`` tag, and the
    stream may *pipeline* across sweep boundaries — sweep ``i+1``'s
    ``POST_RECVS`` hoisted before sweep ``i``'s ``REMOTE_SPMVM``, halo
    and send buffers double-buffered over ``halo_depth`` slots, and
    (task mode) one long-lived ``COMM_THREAD`` region whose body spans
    all sweeps, paced against the compute threads by ``OMP_BARRIER``
    rendezvous points inside the body.

    Execution semantics are *chained*: sweep ``s`` consumes the result
    of sweep ``s-1`` as its input (the matrix-powers kernel
    ``[A x, A² x, ..., A^N x]``), which is what the communication-
    avoiding solvers fuse their spMVMs into.

    ``halo_depth`` is the double-buffer contract: sweep ``s`` lands its
    halo (and packs its sends) in slot ``s % halo_depth``, so
    ``POST_RECVS s`` may only be hoisted above work that still reads
    slot ``s % halo_depth`` when ``halo_depth`` sweeps separate them.
    The lint (:func:`repro.program.lint.lint_sweep_program`) proves
    that, and the thread sanitizer checks it access by access.
    """

    scheme: str
    ops: tuple[SweepOp, ...]
    n_sweeps: int = 1
    pipeline: bool = False
    block_k: int = 1
    lowering: str = "classic"
    halo_depth: int = 1
    #: free-form provenance (builder name, plan kind, ...)
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        check_in(self.lowering, LOWERINGS, "lowering")
        if self.n_sweeps < 1:
            raise ValueError(f"n_sweeps must be >= 1, got {self.n_sweeps}")
        if self.halo_depth < 1:
            raise ValueError(f"halo_depth must be >= 1, got {self.halo_depth}")
        if self.block_k < 1:
            raise ValueError(f"block_k must be >= 1, got {self.block_k}")
        if not self.ops:
            raise ValueError("a sweep program needs at least one op")

    def walk(self) -> Iterator[tuple[SweepOp, bool]]:
        """Every op with its context: ``(op, inside_comm_thread)``.

        COMM_THREAD markers themselves appear with ``False``; their body
        ops follow with ``True`` — the linear order in which the
        backends *issue* the ops.
        """
        for op in self.ops:
            yield op, False
            for inner in op.body:
                yield inner, True

    def token(self, op: SweepOp) -> str:
        """*op*'s signature token: ``KIND``, or ``s{sweep}:KIND`` when N > 1."""
        return op.kind if self.n_sweeps == 1 else f"s{op.sweep}:{op.kind}"

    def signature(self) -> tuple[str, ...]:
        """The canonical op sequence, with comm-thread regions delimited.

        Tokens come from :meth:`token`; comm-thread regions are
        delimited with ``COMM_THREAD{`` / ``}`` and their body ops
        appear at the spawn point (issue order), exactly as both
        backends log them — so the golden cross-backend test compares
        signatures, not object graphs.  The true interleaving against
        the concurrent compute ops is the schedulers' business, not the
        program's.
        """
        out: list[str] = []
        for op in self.ops:
            if op.kind == "COMM_THREAD":
                out.append("COMM_THREAD{")
                out.extend(self.token(inner) for inner in op.body)
                out.append("}")
            else:
                out.append(self.token(op))
        return tuple(out)

    def sweep_work_ops(self, sweep: int) -> tuple[str, ...]:
        """Sorted multiset of *sweep*'s work ops (:data:`WORK_OPS` only).

        Synchronisation (``OMP_BARRIER``) and the ``COMM_THREAD`` marker
        are excluded: pipelining legitimately changes how many barriers
        pace the stream, but never how much per-sweep work it does.
        """
        return tuple(sorted(
            op.kind for op, _inside in self.walk()
            if op.sweep == sweep and op.kind in WORK_OPS
        ))

    def title(self) -> str:
        """Scheme and shape, e.g. ``task_mode [classic, k=1]``."""
        if self.n_sweeps == 1:
            return f"{self.scheme} [{self.lowering}, k={self.block_k}]"
        mode = "pipelined" if self.pipeline else "sequential"
        return (
            f"{self.scheme} x{self.n_sweeps} [{mode}, {self.lowering}, "
            f"k={self.block_k}, depth={self.halo_depth}]"
        )

    def describe(self) -> str:
        """One line: :meth:`title` and the op sequence."""
        return f"{self.title()}: " + " -> ".join(repr(op) for op in self.ops)

    def program_id(self) -> str:
        """Short stable identifier for cost attribution (repro.obs)."""
        pid = f"{self.scheme}/{self.lowering}/k{self.block_k}"
        if self.n_sweeps == 1:
            return pid
        return f"{pid}/n{self.n_sweeps}/{'pipe' if self.pipeline else 'seq'}"
