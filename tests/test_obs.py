"""Observability layer: Chrome export, metrics, summaries, transfer analysis."""

import json

import pytest

from repro.core import build_halo_plan, simulate_from_plan
from repro.frame import TraceRecorder
from repro.machine.presets import westmere_cluster
from repro.program import WORK_OPS, build_sweep
from repro.obs import (
    TransferSegment,
    bytes_moved_during,
    chrome_trace_events,
    merge_windows,
    overlap_bytes_with_phase,
    per_op_costs,
    phase_summary,
    simulation_metrics,
    to_chrome_trace,
    transfer_segments,
    write_chrome_trace,
)
from repro.sparse.partition import partition_matrix

EAGER = 1024


@pytest.fixture(scope="module")
def traced_runs(hmep_small):
    """One traced single-iteration run per scheme on two Westmere nodes."""
    cluster = westmere_cluster(2)
    plan = build_halo_plan(hmep_small, partition_matrix(hmep_small, 4), with_matrices=False)
    runs = {}
    for scheme in ("no_overlap", "naive_overlap", "task_mode"):
        runs[scheme] = simulate_from_plan(
            plan, cluster, mode="per-ld", scheme=scheme, kappa=2.5,
            iterations=1, eager_threshold=EAGER, trace=True,
        )
    return runs


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
def test_chrome_trace_valid_json_all_schemes(traced_runs, tmp_path):
    for scheme, r in traced_runs.items():
        path = write_chrome_trace(r.trace, tmp_path / f"{scheme}.json")
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in data["traceEvents"]}
        assert {"M", "X", "i"} <= phases


def test_chrome_trace_structure(traced_runs):
    r = traced_runs["task_mode"]
    events = chrome_trace_events(r.trace)
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta}
    assert "rank0" in names and "rank0:comm" in names
    complete = [e for e in events if e["ph"] == "X"]
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)
    assert {e["name"] for e in complete} >= {"local spMVM", "MPI_Waitall"}
    # every event's tid resolves to a declared thread
    tids = {e["tid"] for e in meta}
    assert all(e["tid"] in tids for e in events)


def test_chrome_trace_instant_events_carry_args(traced_runs):
    events = to_chrome_trace(traced_runs["task_mode"].trace)["traceEvents"]
    started = [e for e in events if e["ph"] == "i" and e["name"] == "wire_started"]
    assert started
    assert all("protocol" in e["args"] and "nbytes" in e["args"] for e in started)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_simulation_metrics_flat_and_consistent(traced_runs):
    for r in traced_runs.values():
        m = simulation_metrics(r)
        assert all(isinstance(v, float) for v in m.values())
        assert m["sim.total_seconds"] > 0
        assert m["mpi.msg_posted"] == 2 * m["mpi.wire_started"]  # send + recv posts
        assert m["mpi.msg_completed"] == m["mpi.wire_started"]
        assert m["mpi.gate_open"] == m["mpi.gate_close"]
        # byte accounting matches what the MPI layer reports: internode
        # messages cross the NICs, intranode ones the shared-memory pipe
        assert m["resource.nic_out.bytes_moved"] + m["resource.intra.bytes_moved"] == (
            pytest.approx(m["sim.bytes_transferred"], rel=1e-6)
        )


def test_metrics_resource_utilization_present(traced_runs):
    m = simulation_metrics(traced_runs["no_overlap"])
    assert m["resource.membus.busy_fraction_max"] > 0
    assert m["resource.membus.max_concurrent_flows"] >= 1
    assert m["resource.nic_out.flows_started"] > 0


def test_gating_counters_differ_between_schemes(traced_runs):
    naive = simulation_metrics(traced_runs["naive_overlap"])
    task = simulation_metrics(traced_runs["task_mode"])
    # naive overlap posts rendezvous sends outside MPI: flows start gated and
    # are later resumed inside Waitall; task mode's comm thread keeps the
    # gate open so resumes dominate there too but Waitall blocks differ
    assert naive["mpi.msg_resumed"] > 0
    assert task["mpi.msg_resumed"] > 0


# ----------------------------------------------------------------------
# phase summary
# ----------------------------------------------------------------------
def test_phase_summary_table(traced_runs):
    table = phase_summary(traced_runs["task_mode"].trace, title="t")
    text = table.render()
    assert "local spMVM" in text and "MPI_Waitall" in text
    labels = [row[0] for row in table.rows]
    assert len(labels) == len(set(labels))
    totals = [row[2] for row in table.rows]
    assert totals == sorted(totals, reverse=True)


# ----------------------------------------------------------------------
# transfer-segment analysis
# ----------------------------------------------------------------------
def test_transfer_segments_account_full_message(traced_runs):
    for r in traced_runs.values():
        segs = transfer_segments(r.trace, protocol="rendezvous")
        by_mid = {}
        for s in segs:
            by_mid[s.mid] = by_mid.get(s.mid, 0.0) + s.nbytes
        completed = {
            ev.args["mid"]: ev.args["nbytes"]
            for ev in r.trace.events_named("msg_completed", "mpi")
            if any(s.mid == ev.args["mid"] for s in segs)
        }
        for mid, nbytes in completed.items():
            assert by_mid[mid] == pytest.approx(nbytes, rel=1e-9)


def test_merge_windows():
    assert merge_windows([(0, 1), (0.5, 2), (3, 4)]) == [(0, 2), (3, 4)]
    assert merge_windows([]) == []
    assert merge_windows([(1, 1)]) == []  # empty window dropped


def test_bytes_moved_during_linear_attribution():
    seg = TransferSegment(0, 0, 1, "rendezvous", start=0.0, end=2.0, nbytes=100.0)
    assert bytes_moved_during([seg], [(0.0, 1.0)]) == pytest.approx(50.0)
    assert bytes_moved_during([seg], [(0.0, 2.0)]) == pytest.approx(100.0)
    assert bytes_moved_during([seg], [(5.0, 6.0)]) == 0.0
    # overlapping windows are merged, not double-counted
    assert bytes_moved_during([seg], [(0.0, 1.5), (1.0, 2.0)]) == pytest.approx(100.0)


def test_overlap_bytes_validate_progress_semantics(traced_runs):
    """The paper's Sect. 3 claim, from trace data: vector modes move no
    rendezvous bytes during the local spMVM, task mode moves all of them."""
    assert overlap_bytes_with_phase(traced_runs["no_overlap"].trace, "full spMVM") == 0.0
    assert overlap_bytes_with_phase(traced_runs["naive_overlap"].trace) == 0.0
    task_bytes = overlap_bytes_with_phase(traced_runs["task_mode"].trace)
    total = sum(
        s.nbytes
        for s in transfer_segments(traced_runs["task_mode"].trace, protocol="rendezvous")
    )
    assert total > 0
    assert task_bytes == pytest.approx(total, rel=1e-6)


def test_empty_recorder_exports():
    tr = TraceRecorder()
    assert chrome_trace_events(tr) == []
    assert transfer_segments(tr) == []
    assert phase_summary(tr).rows == []


# ----------------------------------------------------------------------
# per-op cost attribution (repro.obs.per_op_costs)
# ----------------------------------------------------------------------
def _op_costs(matrix, scheme, iterations, **kw):
    cluster = westmere_cluster(1)
    plan = build_halo_plan(matrix, partition_matrix(matrix, 2), with_matrices=False)
    r = simulate_from_plan(
        plan, cluster, mode="per-ld", scheme=scheme, iterations=iterations,
        eager_threshold=EAGER, trace=True, **kw,
    )
    assert r.n_ranks == 2
    return per_op_costs(r.trace)


def _work_ops(scheme):
    """The work op kinds of one sweep of *scheme*."""
    return {op.kind for op, _inside in build_sweep(scheme).walk() if op.kind in WORK_OPS}


@pytest.mark.parametrize("scheme", ["no_overlap", "naive_overlap", "task_mode"])
def test_per_op_costs_single_sweep_keys_and_counts(hmep_tiny, scheme):
    iterations = 3
    agg = _op_costs(hmep_tiny, scheme, iterations)
    # a single sweep keys on the un-suffixed program id, sweep 0
    pid = f"{scheme}/plan/k1"  # the simulator replays a compiled comm plan
    assert {(p, s) for p, s, _op in agg} == {(pid, 0)}
    work = _work_ops(scheme)
    assert work <= {op for _p, _s, op in agg}
    for op in work:  # once per rank per iteration
        assert agg[(pid, 0, op)]["count"] == 2 * iterations
    if scheme == "task_mode":  # publish + join barrier
        assert agg[(pid, 0, "OMP_BARRIER")]["count"] == 2 * 2 * iterations
    else:
        assert (pid, 0, "OMP_BARRIER") not in agg
    assert all(cell["seconds"] >= 0.0 for cell in agg.values())
    assert sum(agg[(pid, 0, op)]["seconds"] for op in work) > 0.0


@pytest.mark.parametrize("scheme", ["no_overlap", "task_mode"])
def test_per_op_costs_chain_keys_every_sweep(hmep_tiny, scheme):
    iterations = 2
    agg = _op_costs(hmep_tiny, scheme, iterations, n_sweeps=3, pipeline=True)
    pid = f"{scheme}/plan/k1/n3/pipe"
    assert {(p, s) for p, s, _op in agg} == {(pid, s) for s in range(3)}
    for s in range(3):
        for op in _work_ops(scheme):
            assert agg[(pid, s, op)]["count"] == 2 * iterations
