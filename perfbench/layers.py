"""The traced run: per-layer metrics from layer probes and spans.

The run measures the workload twice for half the run time each — first
untraced, then with the :class:`~trace.Tracer` installed — so that
``trace.overhead`` is the traced headline over the untraced one.  Layer
probes then measure each layer on the workload's own matrix: pure
timings run untraced, attributions (self time, exchange phases, solver
and service breakdowns) come from spans.  Where the workload itself
exercises a layer (the solver workloads' allreduces and solves, the
service workload's batches) its own spans are used; otherwise a short
traced probe of that layer on the same matrix stands in, so every
workload reports every per-layer metric.

The ``(name, unit)`` pairs of :data:`PER_LAYER` are the benchmark's
per-layer contract; README.md maps each to the end-to-end metric it
should move.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from repro.core import cached_halo_plan, distributed_spmv
from repro.core.spmvm import DistributedSpMVM, lower_comm_plan, scatter_vector
from repro.mpilite import PerRank, run_spmd
from repro.serve import SolverService, build_model
from repro.sparse import flops, spmm, spmv, spmv_traffic
from repro.sparse.registry import DEFAULT_KERNEL, build_operator, get_kernel

from tracing import Tracer, assert_unwrapped
from workloads import (
    MAX_BATCH,
    NRANKS,
    RECV_TIMEOUT_S,
    ServeLoop,
    SolverLoop,
    Workload,
    cold_setup,
    perf,
    seeded,
    solver_kind,
)

PER_LAYER = (
    ("setup.matrix_s", "s"),
    ("setup.plan_s", "s"),
    ("setup.model_s", "s"),
    ("setup.service_ms", "ms"),
    ("sparse.spmv_ms", "ms"),
    ("sparse.gflops", "GFLOP/s"),
    ("sparse.split_ms", "ms"),
    ("sparse.split_ratio", "ratio"),
    ("sparse.bytes_per_flop", "B/flop"),
    ("sparse.spmm4_ms_per_col", "ms"),
    ("program.sweep_ms", "ms"),
    ("program.sweep_ratio", "ratio"),
    ("program.chain_sweep_ms", "ms"),
    ("program.interp_ms", "ms"),
    ("core.pack_ms", "ms"),
    ("core.send_ms", "ms"),
    ("core.wait_ms", "ms"),
    ("core.wait_cpu_ms", "ms"),
    ("core.halo_bytes", "bytes"),
    ("core.messages", "count"),
    ("core.plan_lookup_ms", "ms"),
    ("core.engine_init_ms", "ms"),
    ("core.oneshot_ratio", "ratio"),
    ("comm.exchange_ms", "ms"),
    ("mpilite.spinup_ms", "ms"),
    ("mpilite.allreduce_us", "us"),
    ("mpilite.allreduce_wait_us", "us"),
    ("mpilite.barrier_us", "us"),
    ("solvers.iterations", "count"),
    ("solvers.reductions_per_iter", "count"),
    ("solvers.messages_per_iter", "count"),
    ("solvers.matvec_share", "fraction"),
    ("solvers.iter_ms", "ms"),
    ("solvers.iter_ratio", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.batch_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.requests_per_batch", "count"),
    ("serve.warm_ratio", "ratio"),
    ("trace.overhead", "ratio"),
)

#: sweeps per traced probe; untraced timing probes are time-boxed instead
PROBE_SWEEPS = 40
CHAIN = 4
PROBE_SETUPS = 3
PROBE_SERVE_S = 1.0


def timed(fn, budget_s: float = 0.3, min_reps: int = 5, max_reps: int = 2000) -> float:
    """Median seconds of ``fn()`` over repetitions filling *budget_s*."""
    fn()
    times = []
    t_end = perf() + budget_s
    while len(times) < min_reps or (perf() < t_end and len(times) < max_reps):
        t0 = perf()
        fn()
        times.append(perf() - t0)
    return median(times)


def headline(spec, phase) -> float:
    """The phase's value of the workload's headline end-to-end metric."""
    if spec.headline == "solve_s":
        return median(phase.cycles)
    return median(phase.latencies) * 1e3


# ----------------------------------------------------------------------
# layer probes, on the workload's matrix
# ----------------------------------------------------------------------
def sparse_probe(A, plan, seed: int) -> dict:
    """Serial kernel, rank-local split kernels and the 4-column block kernel."""
    rng = seeded(seed, 7)
    x = rng.standard_normal(A.nrows)
    y = np.empty(A.nrows)
    X4 = rng.standard_normal((A.nrows, 4))
    Y4 = np.empty((A.nrows, 4))
    spmv_s = timed(lambda: spmv(A, x, out=y))
    spmm_s = timed(lambda: spmm(A, X4, out=Y4))
    kernel = get_kernel(DEFAULT_KERNEL)
    split_total = 0.0
    for r, halo in enumerate(plan.ranks):
        lo, hi = plan.partition.bounds(r)
        local_op = build_operator(kernel, halo.A_local)
        remote_op = build_operator(kernel, halo.A_remote)
        xr = x[lo:hi]
        hv = rng.standard_normal(max(1, halo.n_halo))

        def split(local_op=local_op, remote_op=remote_op, xr=xr, hv=hv):
            yr = kernel.spmv(local_op, xr)
            kernel.spmv_add(remote_op, hv, out=yr)

        split_total += timed(split)
    return {
        "sparse.spmv_ms": spmv_s * 1e3,
        "sparse.gflops": flops(A) / spmv_s / 1e9,
        "sparse.split_ms": split_total / NRANKS * 1e3,
        "sparse.split_ratio": split_total / spmv_s,
        "sparse.bytes_per_flop": spmv_traffic(A, kappa=0.0) / flops(A),
        "sparse.spmm4_ms_per_col": spmm_s / 4 * 1e3,
    }


def setup_probe(matrix, scheme: str) -> dict:
    """Cold matrix, plan, model and service start-up, median of a few."""
    runs = []
    for _ in range(PROBE_SETUPS):
        times, objs = cold_setup(matrix, ("plan", "model", "service"), scheme)
        objs["service"].close()
        runs.append(times)
    return {
        "setup.matrix_s": median(r["matrix_s"] for r in runs),
        "setup.plan_s": median(r["plan_s"] for r in runs),
        "setup.model_s": median(r["model_s"] for r in runs),
        "setup.service_ms": median(r["service_s"] for r in runs) * 1e3,
    }


def spmd_probe(plan, scheme: str, seed: int, sweeps: int) -> dict:
    """Engine construction, warm sweeps and chained sweeps on rank 0."""
    x = seeded(seed, 8).standard_normal(plan.partition.nrows)

    def rank_fn(comm, halo):
        out = {"init": [], "sweep": [], "chain": []}
        for _ in range(5):
            t0 = perf()
            engine = DistributedSpMVM(comm, halo)
            out["init"].append(perf() - t0)
        x_local = scatter_vector(x, plan.partition, comm.rank)
        engine.multiply(x_local, scheme)
        for _ in range(sweeps):
            comm.barrier()
            t0 = perf()
            engine.multiply(x_local, scheme)
            out["sweep"].append(perf() - t0)
        for _ in range(max(1, sweeps // CHAIN)):
            comm.barrier()
            t0 = perf()
            engine.multiply_chain(x_local, CHAIN, scheme)
            out["chain"].append((perf() - t0) / CHAIN)
        return out

    return run_spmd(NRANKS, rank_fn, PerRank(plan.ranks), recv_timeout=RECV_TIMEOUT_S)[0]


def exchange_probe(plan, scheme: str, seed: int, sweeps: int) -> None:
    """Node-aware sweeps, for the spans of the ``RankExchange`` steps."""
    x = seeded(seed, 8).standard_normal(plan.partition.nrows)
    cplan = lower_comm_plan(plan, NRANKS, "node-aware")

    def rank_fn(comm, halo):
        engine = DistributedSpMVM(comm, halo, comm_plan=cplan)
        x_local = scatter_vector(x, plan.partition, comm.rank)
        for _ in range(sweeps):
            engine.multiply(x_local, scheme)
        return None

    run_spmd(NRANKS, rank_fn, PerRank(plan.ranks), recv_timeout=RECV_TIMEOUT_S)


def collectives_probe(reps: int) -> None:
    """Bare allreduces, then bare barriers, for their spans."""

    def rank_fn(comm):
        for _ in range(reps):
            comm.allreduce(1.0)
        for _ in range(reps):
            comm.barrier()

    run_spmd(NRANKS, rank_fn, recv_timeout=RECV_TIMEOUT_S)


# ----------------------------------------------------------------------
# span aggregation
# ----------------------------------------------------------------------
def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Spans:
    """Span queries by qualified-name suffix, phase and thread."""

    def __init__(self, spans) -> None:
        self.spans = spans

    def find(self, qualname: str, phase: str | None = None, thread: str | None = None):
        suffix = "." + qualname
        return [
            s
            for s in self.spans
            if s.name.endswith(suffix)
            and (phase is None or s.phase == phase)
            and (thread is None or s.thread.startswith(thread))
        ]

    def interp_ms(self, phase: str) -> float:
        """Median sweep time on rank 0 not covered by its callees.

        Coverage is the union of the sweep's child spans on the rank's
        main thread and the spans of its comm thread inside the sweep.
        """
        sweeps = self.find("execute_sweep", phase, "mpilite-rank-0")
        comm = [
            s for s in self.spans
            if s.phase == phase and s.thread == "comm-thread-0" and s.parent is None
        ]
        children: dict[int, list] = {}
        for s in self.spans:
            if s.parent is not None and s.phase == phase:
                children.setdefault(s.parent, []).append(s)
        out = []
        for sw in sweeps:
            iv = [(c.start, c.end) for c in children.get(sw.sid, [])]
            iv += [
                (max(c.start, sw.start), min(c.end, sw.end))
                for c in comm
                if c.end > sw.start and c.start < sw.end
            ]
            out.append(sw.wall - _union(iv))
        return median(out) * 1e3


def _walls(spans, scale: float = 1e3) -> float:
    return median(s.wall for s in spans) * scale


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def traced_run(workload: Workload, seconds: float, tracer: Tracer):
    """Run *workload* untraced, then traced, then the layer probes.

    Returns ``(metrics, phases, probes, spans)``: the per-layer metrics,
    the untraced and traced workload phases, the phases of the solver and
    service probes that ran, and every span recorded.

    The tracer is uninstalled before this returns, even on error, and the
    package is then checked to carry no wrapper.
    """
    spec, seed = workload.spec, workload.seed
    A = workload.A
    plan = workload.objs["plan"]
    scheme = spec.scheme
    half = seconds / 2

    assert_unwrapped()
    untraced = workload.run(half)
    m = {}
    m.update(setup_probe(workload.matrix, scheme))
    m.update(sparse_probe(A, plan, seed))
    timings = spmd_probe(plan, scheme, seed, PROBE_SWEEPS)
    m["program.sweep_ms"] = median(timings["sweep"]) * 1e3
    m["program.chain_sweep_ms"] = median(timings["chain"]) * 1e3
    m["core.engine_init_ms"] = median(timings["init"]) * 1e3
    m["program.sweep_ratio"] = m["program.sweep_ms"] / m["sparse.split_ms"]
    m["mpilite.spinup_ms"] = timed(lambda: run_spmd(NRANKS, lambda comm: None)) * 1e3
    m["core.plan_lookup_ms"] = timed(lambda: cached_halo_plan(A, NRANKS)) * 1e3
    x = seeded(seed, 8).standard_normal(A.nrows)
    oneshot_ms = timed(lambda: distributed_spmv(A, x, NRANKS, scheme=scheme)) * 1e3
    m["core.oneshot_ratio"] = oneshot_ms / m["program.sweep_ms"]
    m["core.halo_bytes"] = float(plan.total_comm_bytes())
    m["core.messages"] = float(plan.total_messages())

    is_solver = spec.headline == "solve_s"
    is_serve = spec.name == "serve-mixed"
    with tracer:
        tracer.phase = "workload"
        traced = workload.run(half, cold=False)
        tracer.phase = "probe:program"
        spmd_probe(plan, scheme, seed, PROBE_SWEEPS)
        tracer.phase = "probe:exchange"
        exchange_probe(plan, scheme, seed, PROBE_SWEEPS)
        tracer.phase = "probe:collectives"
        collectives_probe(4 * PROBE_SWEEPS)
        probes = {}
        solver_phase = traced
        if not is_solver:
            tracer.phase = "probe:solver-prepare"
            loop = SolverLoop(solver_kind(spec.matrix), scheme, seed)
            loop.bind({"A": A, "plan": plan})
            loop.prepare()
            tracer.phase = "probe:solver"
            solver_phase = probes["solver"] = loop.run(0.0, max_solves=1)
        serve_phase = traced
        if not is_serve:
            tracer.phase = "probe:serve-prepare"
            model = build_model(A, NRANKS, scheme=scheme)
            svc = SolverService(model, max_batch=MAX_BATCH, recv_timeout=RECV_TIMEOUT_S)
            try:
                loop = ServeLoop(seed)
                loop.bind({"A": A, "service": svc})
                loop.prepare()
                tracer.phase = "probe:serve"
                serve_phase = probes["serve"] = loop.run(PROBE_SERVE_S)
            finally:
                svc.close()
        tracer.phase = ""
    assert_unwrapped()
    spans = tracer.collected()
    q = Spans(spans)
    solver_ph = "workload" if is_solver else "probe:solver"
    serve_ph = "workload" if is_serve else "probe:serve"

    m["program.interp_ms"] = q.interp_ms("probe:program")
    pack = q.find("DistributedSpMVM.fill_send_buffers", "workload")
    send = q.find("DistributedSpMVM.send_buffers", "workload")
    wait = q.find("DistributedSpMVM.complete_halo_receives", "workload")
    m["core.pack_ms"] = _walls(pack)
    m["core.send_ms"] = _walls(send)
    m["core.wait_ms"] = _walls(wait)
    m["core.wait_cpu_ms"] = median(s.cpu for s in wait) * 1e3
    m["comm.exchange_ms"] = sum(
        _walls(q.find(f"RankExchange.{step}", "probe:exchange"))
        for step in ("post_receives", "initial_sends", "finish")
    )
    allreduce = q.find("Comm.allreduce", "workload") or q.find(
        "Comm.allreduce", "probe:collectives"
    )
    m["mpilite.allreduce_us"] = _walls(allreduce, 1e6)
    m["mpilite.allreduce_wait_us"] = median(s.wall - s.cpu for s in allreduce) * 1e6
    m["mpilite.barrier_us"] = _walls(q.find("Comm.barrier", "probe:collectives"), 1e6)

    rank0 = "mpilite-rank-0"
    solve_name = "lanczos" if solver_kind(spec.matrix) == "lanczos" else "conjugate_gradient"
    solves = q.find(solve_name, solver_ph, rank0)
    matvecs = q.find("DistributedOperator.matvec", solver_ph, rank0)
    iterations = solver_phase.iterations
    counters = solver_phase.counts
    total_iters = sum(iterations)
    solve_wall = sum(s.wall for s in solves)
    m["solvers.iterations"] = float(iterations[0])
    m["solvers.reductions_per_iter"] = counters["reductions"] / total_iters
    m["solvers.messages_per_iter"] = counters["messages"] / total_iters
    m["solvers.matvec_share"] = sum(s.wall for s in matvecs) / solve_wall
    m["solvers.iter_ms"] = solve_wall / total_iters * 1e3
    m["solvers.iter_ratio"] = m["solvers.iter_ms"] / m["program.sweep_ms"]

    batch_ms = _walls(q.find("DistributedSpMVM.multiply_block", serve_ph, "solver-rank"))
    warm_p50_ms = median(serve_phase.latencies) * 1e3
    m["serve.submit_us"] = _walls(q.find("SolverService.submit", serve_ph), 1e6)
    m["serve.batch_ms"] = batch_ms
    m["serve.overhead_ms"] = warm_p50_ms - batch_ms
    m["serve.requests_per_batch"] = serve_phase.counts["requests"] / serve_phase.counts["batches"]
    m["serve.warm_ratio"] = oneshot_ms / warm_p50_ms
    m["trace.overhead"] = headline(spec, traced) / headline(spec, untraced)

    missing = [name for name, _unit in PER_LAYER if name not in m]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return m, {"untraced": untraced, "traced": traced}, probes, spans

