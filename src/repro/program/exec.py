"""Real-execution backend: interpreting a sweep program on mpilite data.

One walker runs every :class:`~repro.program.ir.SweepProgram` on a
:class:`~repro.core.spmvm.DistributedSpMVM` engine.  The engine owns the
long-lived state (communicator, halo bookkeeping, preallocated buffer
rings, sub-matrices); the walker owns the phase ordering — which it
takes entirely from the program, never from the scheme name.  Two thin
entries share it: :func:`execute_sweep` returns this rank's slice of
``A @ x`` for a single sweep, :func:`execute_multi_sweep` the slices of
the chain ``[A x, ..., A^N x]``.

One interpreter covers the whole pre-IR ``_multiply_*`` family:

* spmv and spmm are the ``x.ndim == 1`` / ``x.ndim == 2`` cases of the
  same op handlers (every buffer fill and kernel call is axis-0 based),
* the classic and plan exchanges are two lowerings of the communication
  ops (``PACK`` packs per-peer buffers vs. fusing the packing into the
  plan's sends; ``WAITALL`` completes per-peer receives vs. running the
  plan's forward/scatter relays),
* ``COMM_THREAD`` spawns a real thread executing the body ops — the
  Fig. 4c code structure.  Body ``OMP_BARRIER`` ops rendezvous with the
  main path's barriers (one thread spanning a chain); the first
  main-path barrier past the last rendezvous joins the thread,
* sweep ``s`` works on its own :class:`_SweepState` view: input (sweep
  ``s-1``'s result), requests, result, and slot ``s % halo_depth`` of
  the engine's halo/send-buffer ring.

Numerics are scheme-, lowering- and pipelining-independent by
construction: the local part is always accumulated before the remote
part, row by row, and the exchange only copies float64 payloads.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.program.ir import SweepOp, SweepProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.spmvm import DistributedSpMVM

__all__ = ["UnjoinedCommThreadError", "execute_sweep", "execute_multi_sweep"]

#: Rendezvous/join patience for the persistent comm thread (seconds);
#: generous — a rendezvous only times out when the other side is dead.
_RENDEZVOUS_TIMEOUT = 60.0


class UnjoinedCommThreadError(RuntimeError):
    """A program finished with its COMM_THREAD region still open.

    The static lint (:func:`repro.program.lint.lint_sweep_program`)
    rejects such programs before they run; this is the runtime twin for
    hand-built programs that bypass the builders — compute ops racing
    an open communication thread is exactly the hazard the thread
    sanitizer (:mod:`repro.check.threads`) reports access by access.
    """


class _SweepState:
    """One sweep's view: input, halo/send slot, requests and result."""

    __slots__ = ("x", "halo_out", "send_bufs", "recvs", "reqs", "y")

    def __init__(self, x: np.ndarray | None, halo_out: np.ndarray, send_bufs) -> None:
        self.x = x
        self.halo_out = halo_out
        self.send_bufs = send_bufs
        self.recvs: list | None = None  # classic: [(src, Request)]
        self.reqs: dict | None = None  # plan: {channel: Request}
        self.y: np.ndarray | None = None


class _Run:
    """Whole-program state: the sweep views plus the open comm thread.

    The comm-thread fields are set when a region spawns, so a program
    without one pays for none of them.
    """

    __slots__ = (
        "program", "views", "san", "domain", "thread", "comm_op", "barrier",
        "rendezvous_left", "error", "comm_token",
    )

    def __init__(self, program: SweepProgram, views: list[_SweepState], san) -> None:
        self.program = program
        self.views = views
        #: opt-in thread sanitizer (repro.check.threads); None costs nothing
        self.san = san
        self.thread: threading.Thread | None = None
        self.comm_op: SweepOp | None = None  # last COMM_THREAD, for provenance


def execute_sweep(
    engine: "DistributedSpMVM",
    program: SweepProgram,
    x: np.ndarray,
    *,
    op_log: list[str] | None = None,
) -> np.ndarray:
    """Run the single-sweep *program* on *engine* with input *x*.

    *x* is 1-D or ``(n, k)``; returns this rank's slice of ``A @ x``.
    ``op_log``, when given, receives the program's signature tokens in
    issue order (comm-thread bodies at the spawn point) — the hook the
    golden cross-backend test uses to compare real execution against the
    simulated one.
    """
    if program.n_sweeps != 1:
        raise ValueError(
            f"execute_sweep runs one sweep, got a {program.n_sweeps}-sweep "
            f"program (use execute_multi_sweep)"
        )
    return _execute(engine, program, x, op_log)[0].y


def execute_multi_sweep(
    engine: "DistributedSpMVM",
    program: SweepProgram,
    x: np.ndarray,
    *,
    op_log: list[str] | None = None,
) -> "list[np.ndarray]":
    """Run the N-sweep chained *program* on *engine* with input *x*.

    Returns this rank's slices of the matrix-powers chain
    ``[A x, A² x, ..., A^N x]`` (each sweep consumed the previous
    sweep's result — valid because the operator is square and row and
    column partitions coincide).  ``op_log`` receives the program's
    signature tokens in issue order, as with :func:`execute_sweep`.

    The arithmetic per sweep is identical to N back-to-back
    :func:`execute_sweep` calls, whatever the pipelining — hoisted
    receives and the persistent comm thread reorder *communication*,
    never the kernels — so pipelined and sequential programs are
    bit-identical.
    """
    return [view.y for view in _execute(engine, program, x, op_log)]


def _execute(
    engine: "DistributedSpMVM",
    program: SweepProgram,
    x: np.ndarray,
    op_log: list[str] | None,
) -> list[_SweepState]:
    """The walker behind both entries: every op of *program*, in order.

    Returns the sweep views, each holding its sweep's result.
    """
    if (program.lowering == "plan") != (engine.exchange is not None):
        have = "a" if engine.exchange is not None else "no"
        raise ValueError(
            f"program lowers communication as {program.lowering!r} but the "
            f"engine has {have} compiled comm plan"
        )
    depth = program.halo_depth
    ring = engine.sweep_ring(x, depth)
    views = [_SweepState(x, *ring[0])]
    if program.n_sweeps > 1:
        views += [_SweepState(None, *ring[s % depth])
                  for s in range(1, program.n_sweeps)]
    run = _Run(program, views, getattr(engine, "sanitizer", None))
    if run.san is not None:
        run.domain = f"rank{engine.comm.rank}"
    handlers = _OP_HANDLERS
    try:
        for op in program.ops:
            kind = op.kind
            if kind == "COMM_THREAD":
                _spawn_comm_thread(engine, op, run, op_log)
                continue
            if op_log is not None:
                op_log.append(program.token(op))
            if kind == "OMP_BARRIER":
                _omp_barrier(run)
                continue
            # _issue, inlined: this loop is the per-op cost of every sweep
            view = views[op.sweep]
            if view.x is None or run.san is not None:
                _bind_and_note(run, op, view)
            handlers[kind](engine, view)
    except BaseException:
        if run.thread is not None:  # never leak the worker on the error path
            if run.barrier is not None:
                run.barrier.abort()
            run.thread.join()
        raise
    if run.thread is not None:
        # the static lint rejects such programs; any program reaching
        # here ran compute ops concurrently with an open COMM_THREAD
        # region — the exact hazard the thread sanitizer reports access
        # by access
        if run.barrier is not None:
            run.barrier.abort()  # release a worker parked at a rendezvous
        run.thread.join()
        _raise_comm_error(run)
        body = ",".join(inner.kind for inner in run.comm_op.body)
        raise UnjoinedCommThreadError(
            f"rank {engine.comm.rank}: program for scheme {program.scheme!r} "
            f"finished with its COMM_THREAD({body}) region still open — no "
            f"main-path OMP_BARRIER joined the communication thread"
        )
    if run.comm_op is not None:
        _raise_comm_error(run)
    for view in views:
        if view.y is None:
            raise RuntimeError(
                f"program for scheme {program.scheme!r} finished without "
                f"computing sweep {views.index(view)}'s result (no "
                f"LOCAL_SPMVM/FULL_SPMVM ran)"
            )
    return views


def _issue(engine: "DistributedSpMVM", op: SweepOp, run: _Run) -> None:
    """Run one op against its sweep's view (the comm thread's path)."""
    view = run.views[op.sweep]
    if view.x is None or run.san is not None:
        _bind_and_note(run, op, view)
    _OP_HANDLERS[op.kind](engine, view)


def _bind_and_note(run: _Run, op: SweepOp, view: _SweepState) -> None:
    """The slow path of issuing an op: chained input and sanitizer."""
    if view.x is None:
        # chained input: sweep s consumes sweep s-1's result; the
        # previous kernel is ordered before every consumer (lint), so
        # the binding is always resolved by the time a reader runs
        view.x = run.views[op.sweep - 1].y
    if run.san is not None:
        _note_accesses(run, op)


def _note_accesses(run: _Run, op: SweepOp) -> None:
    """Report *op*'s buffer footprint to the thread sanitizer.

    PACK publishes the send slot from the sweep input; the comm side
    (POST_SENDS/WAITALL) consumes the input and send slot and lands the
    halo slot (the plan lowering re-packs from the input inside the
    sends and reads it during finish relays, hence the input on both);
    the compute side reads input and halo slot into the result.
    ``POST_RECVS`` also *writes* its halo slot: the MPI library owns the
    receive buffer from the post on, which is exactly the access that
    races a remote kernel still reading that slot when the double-buffer
    contract is violated.  Names carry the slot (``halo_out#1``) and the
    sweep (``recvs@2``, ``y@2``) so the sanitizer sees cross-iteration
    overlap on the *same physical buffer*.
    """
    s = op.sweep
    slot = s % run.program.halo_depth
    x = "x@0" if s == 0 else f"y@{s - 1}"
    halo, sb = f"halo_out#{slot}", f"send_bufs#{slot}"
    recvs, y = f"recvs@{s}", f"y@{s}"
    reads = {
        "PACK": (x,),
        "POST_SENDS": (x, sb),
        "WAITALL": (x, recvs),
        "LOCAL_SPMVM": (x,),
        "REMOTE_SPMVM": (halo,),
        "FULL_SPMVM": (x, halo),
    }.get(op.kind, ())
    writes = {
        "POST_RECVS": (recvs, halo),
        "PACK": (sb,),
        "WAITALL": (halo,),
        "LOCAL_SPMVM": (y,),
        "REMOTE_SPMVM": (y,),
        "FULL_SPMVM": (y,),
    }.get(op.kind, ())
    label = run.program.token(op)
    for buf in reads:
        run.san.on_access(run.domain, buf, "r", op=label)
    for buf in writes:
        run.san.on_access(run.domain, buf, "w", op=label)


def _spawn_comm_thread(
    engine: "DistributedSpMVM",
    op: SweepOp,
    run: _Run,
    op_log: list[str] | None,
) -> None:
    """Start the comm thread of a ``COMM_THREAD`` region.

    The region's body ``OMP_BARRIER`` ops (:attr:`SweepOp.rendezvous`)
    tell the main path which of its own barriers rendezvous and which
    one (the first past the last rendezvous) joins the thread.
    """
    if run.thread is not None:
        raise RuntimeError("COMM_THREAD spawned while another is still open")
    if op_log is not None:
        op_log.append("COMM_THREAD{")
        op_log.extend(run.program.token(inner) for inner in op.body)
        op_log.append("}")
    run.rendezvous_left = op.rendezvous
    run.barrier = threading.Barrier(2) if op.rendezvous else None
    run.error = []
    name = f"comm-thread-{engine.comm.rank}"
    token = None
    if run.san is not None:
        token = run.san.on_spawn(run.domain, name)

    def worker() -> None:
        try:
            if token is not None:
                run.san.on_thread_start(run.domain, token)
            idx = 0
            for inner in op.body:
                if inner.kind == "OMP_BARRIER":
                    _rendezvous(run, "comm", idx)
                    idx += 1
                else:
                    _issue(engine, inner, run)
        except BaseException as exc:  # noqa: BLE001 - re-raised on join
            run.error.append(exc)
            if run.barrier is not None:
                run.barrier.abort()  # wake a main thread parked at a rendezvous

    run.comm_op = op
    run.comm_token = token
    run.thread = threading.Thread(target=worker, name=name)
    run.thread.start()


def _rendezvous(run: _Run, side: str, idx: int) -> None:
    """One two-party barrier rendezvous, with sanitizer hand-off edges.

    Each side releases its own token before the physical wait and
    acquires the other side's after it — a bidirectional happens-before
    edge.  The tokens carry the rendezvous ordinal *idx*: with one token
    per side a thread that races ahead to the NEXT rendezvous would
    overwrite its release clock before the peer's acquire reads it,
    forging a happens-before edge that hides real races.
    """
    other = "comm" if side == "main" else "main"
    if run.san is not None:
        run.san.on_release(run.domain, f"rdv:{side}:{idx}")
    run.barrier.wait(timeout=_RENDEZVOUS_TIMEOUT)
    if run.san is not None:
        run.san.on_acquire(run.domain, f"rdv:{other}:{idx}")


def _omp_barrier(run: _Run) -> None:
    """A main-path OMP_BARRIER: rendezvous with, or join, the comm thread.

    With no comm thread open it is the compute threads' rendezvous — a
    no-op for one compute thread.
    """
    if run.thread is None:
        return
    if run.rendezvous_left:
        idx = run.comm_op.rendezvous - run.rendezvous_left
        run.rendezvous_left -= 1
        try:
            _rendezvous(run, "main", idx)
        except threading.BrokenBarrierError:
            # the comm thread died (it aborts the barrier on error) or
            # timed out: surface its failure, never deadlock
            run.thread.join()
            run.thread = None
            _raise_comm_error(run)
            raise
        return
    run.thread.join()
    run.thread = None
    if run.san is not None and run.comm_token is not None:
        run.san.on_join(run.domain, run.comm_token)
        run.comm_token = None
    _raise_comm_error(run)


def _raise_comm_error(run: _Run) -> None:
    if not run.error:
        return
    real = [e for e in run.error if not isinstance(e, threading.BrokenBarrierError)]
    if real:
        raise RuntimeError(
            f"communication thread failed: {real[0]!r}"
        ) from real[0]


# ----------------------------------------------------------------------
# op handlers (classic lowering picks the halo lists, plan lowering the
# compiled RankExchange — decided once per engine, not per op)
# ----------------------------------------------------------------------
def _post_recvs(engine: "DistributedSpMVM", state: _SweepState) -> None:
    if engine.exchange is not None:
        state.reqs = engine.exchange.post_receives(engine.comm)
    else:
        state.recvs = engine.post_halo_receives()


def _pack(engine: "DistributedSpMVM", state: _SweepState) -> None:
    if engine.exchange is not None:
        return  # plan lowering packs inside the sends (repro.comm.exec)
    engine.fill_send_buffers(state.x, state.send_bufs)


def _post_sends(engine: "DistributedSpMVM", state: _SweepState) -> None:
    if engine.exchange is not None:
        engine.exchange.initial_sends(engine.comm, state.x)
    else:
        engine.send_buffers(state.send_bufs)


def _waitall(engine: "DistributedSpMVM", state: _SweepState) -> None:
    if engine.exchange is not None:
        engine.exchange.finish(engine.comm, state.x, state.reqs, state.halo_out)
    else:
        engine.complete_halo_receives(state.recvs, state.halo_out)


def _local_spmvm(engine: "DistributedSpMVM", state: _SweepState) -> None:
    # compute ops dispatch through the engine's registered kernel spec
    # (repro.sparse.registry); the operators were format-converted once
    # at engine construction
    kernel = engine.kernel
    if state.x.ndim == 2:
        state.y = kernel.spmm(engine.A_local_op, state.x)
    else:
        state.y = kernel.spmv(engine.A_local_op, state.x)


def _remote_spmvm(engine: "DistributedSpMVM", state: _SweepState) -> None:
    kernel = engine.kernel
    halo = engine.halo_view(state.halo_out)
    if state.x.ndim == 2:
        kernel.spmm_add(engine.A_remote_op, halo, out=state.y)
    else:
        kernel.spmv_add(engine.A_remote_op, halo, out=state.y)


def _full_spmvm(engine: "DistributedSpMVM", state: _SweepState) -> None:
    # the unsplit Fig. 4a kernel, lowered to local-then-remote over the
    # split-stored matrices — the same arithmetic order as the split
    # schemes, which is what makes all schemes bit-identical
    _local_spmvm(engine, state)
    _remote_spmvm(engine, state)


_OP_HANDLERS = {
    "POST_RECVS": _post_recvs,
    "PACK": _pack,
    "POST_SENDS": _post_sends,
    "WAITALL": _waitall,
    "LOCAL_SPMVM": _local_spmvm,
    "REMOTE_SPMVM": _remote_spmvm,
    "FULL_SPMVM": _full_spmvm,
}
