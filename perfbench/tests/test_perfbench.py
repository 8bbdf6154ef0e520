"""Tests of the benchmark itself, on the reduced (``tiny``) matrices.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import layers
import run
import tracing
import workloads
from repro.core.spmvm import DistributedSpMVM
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 3) -> Workload:
    w = Workload(WORKLOADS[name], seed, scale="tiny")
    w.setup()
    return w


@pytest.fixture
def perturbed(monkeypatch):
    """Every distributed multiply returns a result 1% too large."""
    multiply, multiply_block = DistributedSpMVM.multiply, DistributedSpMVM.multiply_block
    monkeypatch.setattr(DistributedSpMVM, "multiply", lambda *a, **k: multiply(*a, **k) * 1.01)
    monkeypatch.setattr(
        DistributedSpMVM, "multiply_block", lambda *a, **k: multiply_block(*a, **k) * 1.01
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(layers.PER_LAYER)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted_and_no_operation_fails(name):
    w = tiny(name)
    try:
        phase = w.run(0.4)
    finally:
        w.close()
    assert phase.attempted >= 1
    assert phase.failed == 0, phase.failures
    metrics = run.end_to_end(w.setups, phase, window_s=0.01)
    assert sorted(metrics) == sorted(n for n, _u in run.END_TO_END + run.UNGATED)
    assert all(v > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_error_rate_rises_when_results_are_wrong(name, perturbed):
    w = tiny(name)
    try:
        phase = w.run(0.3)
    finally:
        w.close()
    assert phase.attempted >= 1
    assert phase.failed >= 1
    assert phase.failures


def test_traced_run_emits_every_per_layer_metric_and_unwraps():
    w = tiny("hmep-lanczos")
    try:
        metrics, phases, _probes, spans = layers.traced_run(w, 0.6, tracing.Tracer())
    finally:
        w.close()
    assert list(sorted(metrics)) == sorted(n for n, _u in layers.PER_LAYER)
    assert all(np.isfinite(v) for v in metrics.values())
    assert metrics["solvers.iterations"] == phases["traced"].iterations[0]
    assert spans and tracing.find_wrappers() == []
    names = {s.name.split(".")[1] for s in spans}
    assert {"sparse", "program", "core", "comm", "mpilite", "solvers", "serve"} <= names


def test_same_seed_same_inputs_and_iterations():
    runs = []
    for seed in (5, 5, 6):
        w = tiny("samg-cg", seed)
        try:
            phase = w.loop.run(0.0, max_solves=2)
            runs.append((w.loop.input(0, 0), w.loop.input(0, 1), phase.iterations))
        finally:
            w.close()
    (a0, a1, it_a), (b0, b1, it_b), (c0, _c1, _it_c) = runs
    assert np.array_equal(a0, b0) and np.array_equal(a1, b1)
    assert it_a == it_b
    assert not np.array_equal(a0, c0)
    A = tiny_matrix()
    for seed_a, seed_b, same in ((5, 5, True), (5, 6, False)):
        one, two = workloads.OneshotLoop(seed_a), workloads.OneshotLoop(seed_b)
        for loop in (one, two):
            loop.bind({"A": A})
            loop.prepare()
        assert np.array_equal(one.vectors[0], two.vectors[0]) == same


def tiny_matrix():
    from repro.matrices import get_matrix

    return get_matrix("HMEp", "tiny").build()


def test_tracer_records_nested_spans_with_self_time():
    from repro.sparse import spmv

    A = tiny_matrix()
    x = np.ones(A.nrows)
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.find_wrappers()
        tracer.phase = "t"
        A.matvec(x)
        spmv(A, x)
    assert tracing.find_wrappers() == []
    spans = tracer.collected()
    by_id = {s.sid: s for s in spans}
    outer = next(s for s in spans if s.name.endswith("CSRMatrix.matvec"))
    inner = [s for s in spans if s.parent == outer.sid]
    assert inner and all(by_id[s.parent] is outer for s in inner)
    selfs = tracing.self_times(spans)
    assert 0 <= selfs[outer.sid] <= outer.wall
    assert selfs[outer.sid] == pytest.approx(outer.wall - sum(s.wall for s in inner))
    assert all(s.phase == "t" and s.thread == "MainThread" for s in spans)


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.0]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]

    def check(new, expect, old=base):
        share, v = compare.verdict(old, new, list(zip(old, new)), "lower", 0.1)
        assert v == expect, (share, v)

    check(faster, "improved")
    check(slower, "worse")
    check(list(base), "unchanged")
    check(noisy, "unresolved", old=noisy[::-1])


def test_cli_prints_the_result_line_last(tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "0.5", "--trace", "0", "--results", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == dict(run.END_TO_END)
    record = json.loads(next(tmp_path.rglob("*.json")).read_text())
    fp = record["fingerprint"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit", "seed", "traced"):
        assert key in fp
    assert fp["traced"] is False and fp["seed"] == 1


def test_cli_fails_without_the_program(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "samg-cg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
