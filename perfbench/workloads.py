"""The benchmark's four workloads, each driven on the real mpilite path.

Every input is generated from the run's seed; the program under test only
receives the generated matrices and vectors.  Every workload uses
``NRANKS`` mpilite ranks (threads of this one process) and checks each
output it produces: an operation that raises, times out or returns a
wrong result counts as failed and the run goes on.

A timed phase is cut into chunks with a cold set-up before each chunk,
so the set-ups a run reports are spread over its whole duration instead
of sampling the host in one instant.  The loops take the objects of the
latest set-up through ``bind``; they are reusable with any matrix, and
the traced run drives the solver loop and the service loop over other
workloads' matrices as layer probes (see ``layers.py``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as sla

from repro.core import build_halo_plan, cached_halo_plan, distributed_spmv
from repro.core.spmvm import SCHEMES, gather_vector, lower_comm_plan, scatter_vector
from repro.matrices import get_matrix
from repro.mpilite import PerRank, run_spmd
from repro.serve import SolverService, build_model
from repro.solvers import DistributedOperator, conjugate_gradient, lanczos
from repro.sparse import partition_matrix, spmm, spmv

NRANKS = 2
CLIENTS = 2
#: requests a service batch may coalesce (columns)
MAX_BATCH = 8
#: columns of the block requests of the service mix
BLOCK_K = 4
#: every fourth request of a client is a block request
MIX_CYCLE = 4
LANCZOS_TOL = 1e-8
LANCZOS_MAX_ITER = 500
CG_TOL = 1e-6
#: far above the ~160 iterations sAMG small needs; bounds a solve that diverges
CG_MAX_ITER = 2000
#: CG's recursive residual meets CG_TOL when it stops; the residual
#: recomputed from the gathered solution may differ in its last digits
CG_TRUE_RESIDUAL_SLACK = 1.001
#: blocking receives and collectives give up after this, so a stuck
#: world fails its operation instead of hanging the run
RECV_TIMEOUT_S = 30.0
ONESHOT_CONFIGS = tuple((s, p) for s in SCHEMES for p in ("direct", "node-aware"))

perf = time.perf_counter


def seeded(seed: int, *key: int) -> np.random.Generator:
    """The generator of one input stream: same seed and key, same numbers."""
    return np.random.default_rng([seed, *key])


@dataclass
class Phase:
    """What one timed phase of a workload measured."""

    latencies: list[float] = field(default_factory=list)  # s, successful ops
    cycles: list[float] = field(default_factory=list)  # s, one cycle each
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    failures: list[str] = field(default_factory=list)
    #: counts summed over chunks (solver counters, service requests/batches)
    counts: dict[str, int] = field(default_factory=dict)
    #: iterations of each successful solve, in input order
    iterations: list[int] = field(default_factory=list)
    #: one list per chunk: the chunk's start, then the completion time of
    #: each successful operation in order (all clients merged)
    streams: list[list[float]] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)

    def merge(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.cycles += other.cycles
        self.attempted += other.attempted
        self.failed += other.failed
        self.elapsed += other.elapsed
        self.failures += other.failures[: max(0, 5 - len(self.failures))]
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v
        self.iterations += other.iterations
        self.streams += other.streams


# ----------------------------------------------------------------------
# cold set-up
# ----------------------------------------------------------------------
def cold_setup(matrix: tuple[str, str], parts: tuple[str, ...], scheme: str = "task_mode"):
    """Build what a workload needs from nothing; return (timings, objects).

    *parts* names the steps after matrix generation: ``plan`` (partition
    plus cold halo plan), ``cached-plan`` (the same through the one-shot
    drivers' plan cache, plus the node-aware comm plan), ``model``
    (``build_model`` without cache reuse) and ``service`` (start a
    :class:`SolverService` on the model).
    """
    t0 = perf()
    A = get_matrix(*matrix).build()
    times = {"matrix_s": perf() - t0}
    objs = {"A": A}
    if "plan" in parts:
        t0 = perf()
        objs["plan"] = build_halo_plan(A, partition_matrix(A, NRANKS), with_matrices=True)
        times["plan_s"] = perf() - t0
    if "cached-plan" in parts:
        t0 = perf()
        objs["plan"] = plan = cached_halo_plan(A, NRANKS)
        lower_comm_plan(plan, NRANKS, "node-aware")
        times["plan_s"] = perf() - t0
    if "model" in parts:
        t0 = perf()
        objs["model"] = build_model(A, NRANKS, scheme=scheme, reuse_caches=False)
        objs["plan"] = objs["model"].plan
        times["model_s"] = perf() - t0
    if "service" in parts:
        t0 = perf()
        objs["service"] = SolverService(
            objs["model"], max_batch=MAX_BATCH, recv_timeout=RECV_TIMEOUT_S
        )
        times["service_s"] = perf() - t0
    return times, objs


def check_result(y: np.ndarray, serial: np.ndarray, exact: np.ndarray) -> str | None:
    """Why result *y* is wrong, or None."""
    if y.shape != serial.shape:
        return f"result shape {y.shape}, expected {serial.shape}"
    scale = float(np.max(np.abs(serial))) or 1.0
    if not np.allclose(y, serial, rtol=1e-10, atol=1e-12 * scale):
        return "result differs from serial spmv beyond 1e-10"
    if not np.array_equal(y, exact):
        return "result not bit-identical to distributed_spmv"
    return None


# ----------------------------------------------------------------------
# solver loop: repeated distributed solves inside one SPMD world
# ----------------------------------------------------------------------
class SolverLoop:
    """Repeated Lanczos (``kind="lanczos"``) or CG solves on one world.

    Solve ``i`` of chunk ``c`` starts from input ``(c, i)`` of the seed
    (Lanczos ``v0`` or the CG right-hand side), so the first solve of
    every phase repeats exactly.
    """

    def __init__(self, kind: str, scheme: str, seed: int) -> None:
        self.kind, self.scheme, self.seed = kind, scheme, seed
        self.reference = None

    def bind(self, objs: dict) -> None:
        self.A, self.plan = objs["A"], objs["plan"]

    def prepare(self) -> None:
        """The ground energy a Lanczos solve must reproduce (ARPACK, serial)."""
        if self.kind == "lanczos":
            v0 = seeded(self.seed, 9).standard_normal(self.A.nrows)
            vals = sla.eigsh(self.A.to_scipy(), k=1, which="SA", tol=1e-12, v0=v0)[0]
            self.reference = float(vals[0])

    def input(self, chunk: int, i: int) -> np.ndarray:
        return seeded(self.seed, 1, chunk, i).standard_normal(self.A.nrows)

    def _solve(self, op, x_local):
        if self.kind == "lanczos":
            return lanczos(
                op, tol=LANCZOS_TOL, reorthogonalize=False, v0=x_local, max_iter=LANCZOS_MAX_ITER
            )
        return conjugate_gradient(op, x_local, tol=CG_TOL, max_iter=CG_MAX_ITER)

    def _check(self, comm, res, b: np.ndarray) -> str | None:
        """Why solve *res* is wrong, or None; collective on every rank."""
        if self.kind == "lanczos":
            e = res.ground_energy
            if abs(e - self.reference) > LANCZOS_TOL * max(1.0, abs(self.reference)):
                return f"ground energy {e!r} != reference {self.reference!r}"
            return None
        pieces = comm.gather(res.x)
        if comm.rank != 0:
            return None
        x = gather_vector(pieces)
        rel = float(np.linalg.norm(b - spmv(self.A, x)) / np.linalg.norm(b))
        if not res.converged or rel > CG_TOL * CG_TRUE_RESIDUAL_SLACK:
            return f"CG converged={res.converged}, true relative residual {rel:.3e}"
        return None

    def run(self, seconds: float, *, chunk: int = 0, max_solves: int | None = None) -> Phase:
        """Solve back to back for *seconds* (at least once) on *chunk*'s inputs."""
        phase = Phase()
        deadline = perf() + seconds
        partition = self.plan.partition

        def rank_fn(comm, halo):
            t_begin = perf()
            op = DistributedOperator(comm, halo, self.scheme)
            records = []
            i = 0
            while comm.bcast(
                (i == 0 or perf() < deadline) and (max_solves is None or i < max_solves)
            ):
                b = self.input(chunk, i)
                x_local = scatter_vector(b, partition, comm.rank)
                t0 = perf()
                try:
                    res = self._solve(op, x_local)
                except (ValueError, TimeoutError, RuntimeError) as exc:
                    why = f"solve {chunk}.{i} raised {exc!r}"
                    records.append((perf() - t0, None, why, 0.0))
                else:
                    wall = perf() - t0
                    why = self._check(comm, res, b)
                    records.append((wall, res.iterations, why, perf()))
                i += 1
            return t_begin, records, dict(op.counters)

        t0 = perf()
        try:
            out = run_spmd(NRANKS, rank_fn, PerRank(self.plan.ranks), recv_timeout=RECV_TIMEOUT_S)
        except (RuntimeError, TimeoutError) as exc:
            phase.attempted += 1
            phase.fail(f"SPMD world failed: {exc!r}")
            return phase
        phase.elapsed = perf() - t0
        t_begin, records, phase.counts = out[0]
        stream = [t_begin]
        for wall, iters, err, t_done in records:
            phase.attempted += 1
            if err is not None:
                phase.fail(err)
                continue
            phase.latencies.append(wall)
            phase.cycles.append(wall)
            phase.iterations.append(iters)
            stream.append(t_done)
        phase.streams.append(stream)
        return phase


# ----------------------------------------------------------------------
# service loop: closed-loop clients against a warm SolverService
# ----------------------------------------------------------------------
class ServeLoop:
    """``CLIENTS`` closed-loop clients, no think time, 3 vectors : 1 block.

    Every result is compared with the serial ``spmv``/``spmm`` of its input
    (tolerance) and with ``distributed_spmv`` of it (bit for bit).
    """

    POOL_VECTORS = 8
    POOL_BLOCKS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def bind(self, objs: dict) -> None:
        self.A, self.service = objs["A"], objs["service"]

    def prepare(self) -> None:
        A, n = self.A, self.A.nrows
        scheme = self.service.model.scheme
        self.vectors = [
            seeded(self.seed, 2, j).standard_normal(n) for j in range(self.POOL_VECTORS)
        ]
        self.blocks = [
            seeded(self.seed, 3, j).standard_normal((n, BLOCK_K)) for j in range(self.POOL_BLOCKS)
        ]
        self.serial = [spmv(A, x) for x in self.vectors] + [spmm(A, X) for X in self.blocks]
        self.exact = [distributed_spmv(A, x, NRANKS, scheme=scheme) for x in self.vectors] + [
            np.column_stack(
                [distributed_spmv(A, X[:, c], NRANKS, scheme=scheme) for c in range(BLOCK_K)]
            )
            for X in self.blocks
        ]

    def run(self, seconds: float, *, chunk: int = 0) -> Phase:
        """Serve for *seconds*; *chunk* keys the request order."""
        phase = Phase()
        lock = threading.Lock()
        deadline = perf() + seconds
        service = self.service
        stats0 = service.stats
        completions: list[float] = []

        def client(c: int) -> None:
            rng = seeded(self.seed, 4, chunk, c)
            local = Phase()
            done = []
            j = 0
            cycle_t0 = perf()
            while perf() < deadline:
                is_block = j % MIX_CYCLE == MIX_CYCLE - 1
                idx = int(rng.integers(self.POOL_BLOCKS if is_block else self.POOL_VECTORS))
                slot = self.POOL_VECTORS + idx if is_block else idx
                x = self.blocks[idx] if is_block else self.vectors[idx]
                local.attempted += 1
                t0 = perf()
                try:
                    y = service.solve(x, timeout=RECV_TIMEOUT_S)
                except (RuntimeError, TimeoutError) as exc:
                    local.fail(f"request raised {exc!r}")
                else:
                    wall = perf() - t0
                    why = check_result(y, self.serial[slot], self.exact[slot])
                    if why is None:
                        local.latencies.append(wall)
                        done.append(perf())
                    else:
                        local.fail(why)
                if is_block:
                    local.cycles.append(perf() - cycle_t0)
                    cycle_t0 = perf()
                j += 1
            with lock:
                phase.merge(local)
                completions.extend(done)

        t0 = perf()
        threads = [
            threading.Thread(target=client, args=(c,), name=f"client-{c}") for c in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(seconds + 2 * RECV_TIMEOUT_S)
        phase.elapsed = perf() - t0
        phase.streams.append([t0, *sorted(completions)])
        if any(t.is_alive() for t in threads):
            phase.fail("a client did not finish")
        stats1 = service.stats
        phase.counts = {k: stats1[k] - stats0[k] for k in ("requests", "batches")}
        return phase


# ----------------------------------------------------------------------
# one-shot loop: back-to-back distributed_spmv calls from one caller
# ----------------------------------------------------------------------
class OneshotLoop:
    """Back-to-back ``distributed_spmv`` calls cycling scheme x comm plan."""

    POOL_VECTORS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def bind(self, objs: dict) -> None:
        self.A = objs["A"]

    def prepare(self) -> None:
        self.vectors = [
            seeded(self.seed, 5, j).standard_normal(self.A.nrows) for j in range(self.POOL_VECTORS)
        ]
        self.serial = [spmv(self.A, x) for x in self.vectors]
        self.exact = [distributed_spmv(self.A, x, NRANKS) for x in self.vectors]

    def run(self, seconds: float, *, chunk: int = 0) -> Phase:
        """Call for *seconds*; *chunk* keys the vector order."""
        phase = Phase()
        rng = seeded(self.seed, 6, chunk)
        deadline = perf() + seconds
        j = 0
        t_start = cycle_t0 = perf()
        stream = [t_start]
        while perf() < deadline:
            scheme, comm_plan = ONESHOT_CONFIGS[j % len(ONESHOT_CONFIGS)]
            idx = int(rng.integers(self.POOL_VECTORS))
            phase.attempted += 1
            t0 = perf()
            try:
                y = distributed_spmv(
                    self.A, self.vectors[idx], NRANKS, scheme=scheme, comm_plan=comm_plan
                )
            except (RuntimeError, TimeoutError) as exc:
                phase.fail(f"call raised {exc!r}")
            else:
                wall = perf() - t0
                why = check_result(y, self.serial[idx], self.exact[idx])
                if why is None:
                    phase.latencies.append(wall)
                    stream.append(perf())
                else:
                    phase.fail(f"{scheme}/{comm_plan}: {why}")
            j += 1
            if j % len(ONESHOT_CONFIGS) == 0:
                phase.cycles.append(perf() - cycle_t0)
                cycle_t0 = perf()
        phase.elapsed = perf() - t_start
        phase.streams.append(stream)
        return phase


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: its matrix, set-up steps, loop and headline."""

    name: str
    why: str
    matrix: str
    scale: str
    parts: tuple[str, ...]
    scheme: str
    headline: str  # the end-to-end metric trace.overhead compares
    setups: int  # cold set-ups (= chunks) per timed phase; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        WorkloadSpec(
            "hmep-lanczos",
            "the paper's ED case: Lanczos on HMeP, dominated by halo exchange, "
            "comm thread and interpreter",
            "HMeP", "small", ("plan",), "task_mode", "solve_s", 5,
        ),
        WorkloadSpec(
            "samg-cg",
            "the paper's communication-light case: CG on sAMG, kernels and "
            "allreduces do the work, no comm thread",
            "sAMG", "small", ("plan",), "no_overlap", "solve_s", 5,
        ),
        WorkloadSpec(
            "serve-mixed",
            "a warm service with ~0.1 ms kernels: dispatch, coalescing and worker "
            "hand-off are most of the cost",
            "sAMG", "tiny", ("model", "service"), "task_mode", "latency_p50_ms", 10,
        ),
        WorkloadSpec(
            "oneshot-hmep",
            "one-shot calls pay world spin-up, plan lookup and engine "
            "construction every time; the others pay them once",
            "HMEp", "small", ("cached-plan",), "task_mode", "latency_p50_ms", 5,
        ),
    )
}


def solver_kind(matrix: str) -> str:
    """The solver a matrix is meant for: CG on the SPD Poisson matrix, else Lanczos."""
    return "cg" if matrix == "sAMG" else "lanczos"


def make_loop(spec: WorkloadSpec, seed: int):
    if spec.name == "serve-mixed":
        return ServeLoop(seed)
    if spec.name == "oneshot-hmep":
        return OneshotLoop(seed)
    return SolverLoop(solver_kind(spec.matrix), spec.scheme, seed)


class Workload:
    """One workload instance: cold set-ups, timed phases, close."""

    def __init__(self, spec: WorkloadSpec, seed: int, scale: str | None = None) -> None:
        self.spec = spec
        self.seed = seed
        self.matrix = (spec.matrix, scale or spec.scale)
        self.objs: dict = {}
        self.loop = make_loop(spec, seed)
        #: component timings of every cold set-up so far
        self.setups: list[dict[str, float]] = []

    def _cold_setup(self) -> None:
        self.close()
        t0 = perf()
        times, self.objs = cold_setup(self.matrix, self.spec.parts, self.spec.scheme)
        times["total_s"] = perf() - t0
        self.setups.append(times)
        self.loop.bind(self.objs)

    def setup(self) -> None:
        """The first cold set-up, and the references outputs are checked against."""
        self._cold_setup()
        self.loop.prepare()

    @property
    def A(self):
        return self.objs["A"]

    def run(self, seconds: float, *, cold: bool = True) -> Phase:
        """One timed phase: ``spec.setups`` chunks, a cold set-up before each
        chunk but the first (``cold=False``: one chunk on the current set-up)."""
        chunks = self.spec.setups if cold else 1
        phase = Phase()
        for k in range(chunks):
            if k:
                self._cold_setup()
            phase.merge(self.loop.run(seconds / chunks, chunk=k))
        return phase

    def close(self) -> None:
        svc = self.objs.get("service")
        if svc is not None:
            svc.close()
            self.objs["service"] = None
