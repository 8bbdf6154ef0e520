"""Program-level lint: proving a sweep program safe before any backend runs it.

:func:`lint_sweep_program` checks the invariants both interpreters rely
on and reports violations as ``program-lint``
:class:`~repro.check.findings.Finding` records.  Because every scheme
dispatches through :mod:`repro.program`, the correctness layer verifies
the IR once — instead of chasing three hand-rolled implementations of
the same phase ordering.  One rule set covers a single sweep and an
N-sweep chain alike; most rules are stated on a *happens-before* model
of the op stream (main path, comm-thread body, barriers and spawns),
applied sweep by sweep.

Invariants
----------
* **vocabulary** — every op is tagged with a sweep of the program;
  ``COMM_THREAD`` bodies hold MPI ops and rendezvous barriers only (a
  communication thread executes library calls, never compute);
* **request lifecycle** — per sweep, receives are posted exactly once
  and before the sends, sends exactly once, and one ``WAITALL``
  completes every posted request (no leaked requests by construction);
* **buffer publication** — per sweep, ``PACK`` happens before
  ``POST_SENDS``; when the sends run on a communication thread spawned
  after the pack, an ``OMP_BARRIER`` separates the pack from the spawn
  (the compute threads must publish the buffers before the thread may
  touch them);
* **comm-thread regions** — at most one per sweep, never two open at
  once, each joined by a main-path ``OMP_BARRIER`` past its last
  rendezvous;
* **data readiness and result shape** — the halo-consuming kernel
  happens after the sweep's ``WAITALL``; the kernel writes the result
  exactly once (one ``FULL_SPMVM`` or one ``LOCAL_SPMVM`` +
  ``REMOTE_SPMVM`` pair, local first);
* **chaining** — sweep ``s``'s pack and kernels happen after sweep
  ``s-1``'s result is complete;
* **double buffering** — ``POST_RECVS s`` (which re-arms halo slot
  ``s % halo_depth``) happens after the kernel of sweep
  ``s - halo_depth`` read that slot, and ``PACK s`` after the sends of
  sweep ``s - halo_depth`` released the send-buffer slot.

Messages name ops by their signature token (``WAITALL`` for a single
sweep, ``s1:WAITALL`` in a chain).  "``b`` precedes ``a``" means ``b``
is not ordered after ``a``: it runs first, or concurrently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.program.ir import COMM_OPS, MULTI_BODY_OPS, SweepOp, SweepProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.findings import Finding

__all__ = ["lint_sweep_program", "lint_multi_sweep_program", "lint_sweep_programs"]


class _Item:
    """One issued op with its happens-before coordinates.

    ``step`` is a global logical time that only barriers (and region
    spawns) advance; two items at the same step on different paths are
    causally *concurrent*.  ``path`` is ``("main",)`` or
    ``("body", region_index)``; within one path items are ordered by
    ``pos``.
    """

    __slots__ = ("op", "path", "pos", "step")

    def __init__(self, op, path, pos: int, step: int) -> None:
        self.op = op
        self.path = path
        self.pos = pos
        self.step = step


def _happens_before(a: _Item, b: _Item) -> bool:
    if a.step < b.step:
        return True
    if a.step > b.step:
        return False
    return a.path == b.path and a.pos < b.pos


def _schedule_items(program: SweepProgram, add) -> list[_Item]:
    """Assign every issued op its (path, pos, step) coordinates.

    Main-path ``OMP_BARRIER`` ops advance the step.  A ``COMM_THREAD``
    spawn also advances it and splits its body at the body's own
    ``OMP_BARRIER`` rendezvous points into chunks: chunk 0 runs from
    the spawn, and each subsequent main barrier *while the region is
    open* releases the next chunk (rendezvous) — until no chunks
    remain, at which point the barrier joins the thread and closes the
    region.  A region still open at the end of the stream is an error.
    """
    items: list[_Item] = []
    step = 0
    pos = 0
    region = None  # [region_index, chunks, next_chunk, body_pos]
    n_regions = 0
    for op in program.ops:
        if op.kind == "COMM_THREAD":
            if region is not None:
                add("COMM_THREAD spawned while another region is still open")
                continue
            step += 1
            chunks: list[list] = [[]]
            for inner in op.body:
                if inner.kind == "OMP_BARRIER":
                    chunks.append([])
                else:
                    chunks[-1].append(inner)
            body_pos = 0
            for inner in chunks[0]:
                items.append(_Item(inner, ("body", n_regions), body_pos, step))
                body_pos += 1
            region = [n_regions, chunks, 1, body_pos]
            n_regions += 1
            continue
        if op.kind == "OMP_BARRIER":
            step += 1
            if region is not None:
                idx, chunks, nxt, body_pos = region
                if nxt < len(chunks):
                    for inner in chunks[nxt]:
                        items.append(_Item(inner, ("body", idx), body_pos, step))
                        body_pos += 1
                    region[2] = nxt + 1
                    region[3] = body_pos
                else:
                    region = None  # join: the comm thread is done
            continue
        items.append(_Item(op, ("main",), pos, step))
        pos += 1
    if region is not None:
        add("COMM_THREAD region is never joined: no main-path OMP_BARRIER "
            "remains to join the communication thread at program end")
    return items


def _unpublished_sends(program: SweepProgram) -> list[SweepOp]:
    """Sends a region runs from its spawn on buffers packed before it
    with no main-path ``OMP_BARRIER`` in between.

    A spawn orders the pack before the send, but it is not a
    publication point: the compute threads must cross a barrier after
    packing before the communication thread may read the buffers.
    """
    bad: list[SweepOp] = []
    for i, region in enumerate(program.ops):
        if region.kind != "COMM_THREAD":
            continue
        for inner in region.body:
            if inner.kind == "OMP_BARRIER":
                break  # later sends follow a rendezvous: published
            if inner.kind != "POST_SENDS":
                continue
            packs = [j for j, op in enumerate(program.ops[:i])
                     if op.kind == "PACK" and op.sweep == inner.sweep]
            if packs and not any(op.kind == "OMP_BARRIER"
                                 for op in program.ops[packs[-1]:i]):
                bad.append(inner)
    return bad


#: Intra-sweep ordering rules ``(a, b, message)``: every ``a`` of a
#: sweep must happen before every ``b`` of the same sweep.  Messages
#: are formatted with the two ops' signature tokens.
_SWEEP_ORDER = (
    ("POST_RECVS", "POST_SENDS",
     "{b} issued before {a}: a sweep must prepost its receives so no send "
     "can block on an unposted peer"),
    ("PACK", "POST_SENDS",
     "{b} issued before {a}: the send buffers are not filled yet"),
    ("POST_SENDS", "WAITALL",
     "{b} precedes {a}: the send requests it must complete do not exist yet"),
    ("POST_RECVS", "WAITALL",
     "{b} precedes {a}: the receive requests it must complete do not exist "
     "yet"),
    ("WAITALL", "REMOTE_SPMVM",
     "{b} consumes the halo before the exchange completed (needs a "
     "finished {a} or the joining barrier first)"),
    ("WAITALL", "FULL_SPMVM",
     "{b} consumes the halo before the exchange completed (needs a "
     "finished {a} or the joining barrier first)"),
    ("LOCAL_SPMVM", "REMOTE_SPMVM",
     "{b} before {a}: the remote phase accumulates into the local phase's "
     "result"),
)


def lint_sweep_program(program: SweepProgram) -> "list[Finding]":
    """Lint *program*; returns all findings (empty = provably well-formed)."""
    from repro.check.findings import Finding

    findings: list[Finding] = []
    where = program.title()
    n = program.n_sweeps
    tok = program.token

    def add(message: str) -> None:
        findings.append(Finding(
            kind="program-lint",
            message=f"{where}: {message}",
            details={"scheme": program.scheme, "lowering": program.lowering,
                     "n_sweeps": n, "pipeline": program.pipeline},
        ))

    # -- vocabulary and sweep tags ------------------------------------
    for op, inside in program.walk():
        if inside and op.kind not in MULTI_BODY_OPS:
            add(f"comm thread executes {tok(op)}; a communication thread may "
                f"only run MPI ops {COMM_OPS} and OMP_BARRIER rendezvous")
        if op.kind != "COMM_THREAD" and not 0 <= op.sweep < n:
            add(f"{op.kind} tagged sweep {op.sweep}, outside 0..{n - 1}")

    items = _schedule_items(program, add)

    def find(kind: str, sweep: int) -> list[_Item]:
        return [it for it in items
                if it.op.kind == kind and it.op.sweep == sweep]

    def require(a_kind: str, s_a: int, b_kind: str, s_b: int, message: str) -> None:
        """Every (a, b) instance pair must satisfy a happens-before b."""
        for a in find(a_kind, s_a):
            for b in find(b_kind, s_b):
                if not _happens_before(a, b):
                    add(message.format(a=tok(a.op), b=tok(b.op)))

    def kernel_of(s: int) -> str:
        """The op that completes sweep *s*'s result (and last reads its halo)."""
        return "FULL_SPMVM" if find("FULL_SPMVM", s) else "REMOTE_SPMVM"

    for send in _unpublished_sends(program):
        add(f"comm thread sends {tok(send)} without an OMP_BARRIER after "
            f"PACK: the compute threads never published the buffers")

    for s in range(n):
        sweep = f"sweep {s}: " if n > 1 else ""
        # -- per-sweep request lifecycle, regions and kernel shape ----
        for kind in ("POST_RECVS", "PACK", "POST_SENDS", "WAITALL"):
            c = len(find(kind, s))
            if kind == "PACK" and c == 0:
                add(f"{sweep}no PACK op: send buffers are never filled")
            elif c != 1:
                add(f"{sweep}{kind} appears {c}x (must be exactly once per "
                    f"sweep)")
        regions = sum(1 for op in program.ops
                      if op.kind == "COMM_THREAD" and op.sweep == s)
        if regions > 1:
            add(f"{sweep}{regions} COMM_THREAD regions (at most one per sweep)")
        n_full = len(find("FULL_SPMVM", s))
        n_local = len(find("LOCAL_SPMVM", s))
        n_remote = len(find("REMOTE_SPMVM", s))
        if n_full:
            if n_full > 1 or n_local or n_remote:
                add(f"{sweep}FULL_SPMVM must be the only kernel op (it "
                    f"already writes the whole result)")
        elif (n_local, n_remote) != (1, 1):
            add(f"{sweep}split kernel needs exactly one LOCAL_SPMVM and one "
                f"REMOTE_SPMVM (got {n_local} and {n_remote})")

        # -- intra-sweep ordering -------------------------------------
        for a_kind, b_kind, message in _SWEEP_ORDER:
            require(a_kind, s, b_kind, s, message)

        # -- chained input: sweep s consumes sweep s-1's result -------
        if s > 0:
            for consumer in ("PACK", "POST_SENDS", "LOCAL_SPMVM", "FULL_SPMVM"):
                require(kernel_of(s - 1), s - 1, consumer, s,
                        "{b} is not ordered after {a}: the sweep input is the "
                        "previous sweep's result")

        # -- double-buffer contract across halo_depth sweeps ----------
        d = program.halo_depth
        if s >= d:
            require(kernel_of(s - d), s - d, "POST_RECVS", s,
                    f"{{b}} re-arms halo slot {s % d} while {{a}} may still "
                    f"read it (halo_depth={d})")
            require("POST_SENDS", s - d, "PACK", s,
                    f"{{b}} refills send-buffer slot {s % d} while {{a}} may "
                    f"still read it (halo_depth={d})")
    return findings


#: The chained-program spelling of :func:`lint_sweep_program` (same rules).
lint_multi_sweep_program = lint_sweep_program


def lint_sweep_programs(
    programs: Iterable[SweepProgram] | None = None,
) -> "list[Finding]":
    """Lint a collection of programs (default: every builder output).

    This is the ``repro check --programs`` sweep: all Fig. 4 builders,
    both lowerings, scalar and batched widths, single sweeps and the
    chains of :data:`~repro.program.build.CHECKED_SWEEP_COUNTS`.
    """
    from repro.program.build import CHECKED_SWEEP_COUNTS, all_sweep_programs

    if programs is None:
        programs = all_sweep_programs(sweep_counts=CHECKED_SWEEP_COUNTS)
    findings: list[Finding] = []
    for program in programs:
        findings.extend(lint_sweep_program(program))
    return findings
