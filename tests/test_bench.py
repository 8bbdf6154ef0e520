"""The benchmark harness, the spMVM suite, and the repro-bench/1 schema."""

import json
import re

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BenchResult,
    TimingStats,
    spmvm_suite,
    time_callable,
    write_results,
)
from repro.bench.suite import GUARD_MIN_ROWS, GUARDS, check_guards, guard_bound
from repro.cli import main

EXPECTED_NAMES = {
    "spmv", "spmv-out", "spmm-k1", "spmm-k4", "spmm-k16",
    "sell-spmv", "sell-spmm-k4", "sell-spmm-k16",
    "distributed-spmv", "distributed-spmv-nodeaware",
    "distributed-spmm-k1", "distributed-spmm-k4", "distributed-spmm-k16",
    "program-overhead",
    "serve-cold", "serve-warm", "serve-coalesced",
    "sanitizer-overhead",
    "solver-cg-classic", "solver-cg-sstep",
}


# ------------------------------------------------------------- harness


def test_time_callable_counts_calls():
    calls = []
    stats = time_callable(lambda: calls.append(1), warmup=2, repeat=5)
    assert len(calls) == 7
    assert len(stats.samples) == 5
    assert all(s >= 0 for s in stats.samples)
    assert stats.min <= stats.median <= max(stats.samples)
    assert stats.min <= stats.mean <= max(stats.samples)
    assert stats.std >= 0


def test_time_callable_validation():
    with pytest.raises(ValueError):
        time_callable(lambda: None, warmup=-1)
    with pytest.raises(ValueError):
        time_callable(lambda: None, repeat=0)


def test_timing_stats_single_sample():
    s = TimingStats(samples=(0.25,))
    assert s.min == s.mean == s.median == 0.25
    assert s.std == 0.0
    assert s.to_dict() == {"min": 0.25, "mean": 0.25, "median": 0.25, "std": 0.0}


def test_bench_result_round_trip():
    r = BenchResult(
        name="x", group="kernel", warmup=1, repeat=2,
        seconds=TimingStats(samples=(1.0, 3.0)),
        params={"n": 5}, derived={"gflops": 2.0},
    )
    d = r.to_dict()
    assert d["name"] == "x"
    assert d["seconds"]["mean"] == 2.0
    assert d["params"] == {"n": 5}
    assert "gflops" in r.describe()
    json.dumps(d)  # JSON-serialisable as-is


# --------------------------------------------------------------- suite


@pytest.fixture(scope="module")
def tiny_suite():
    return spmvm_suite(quick=True, nrows=300, nranks=2)


def test_suite_covers_all_paths(tiny_suite):
    assert {r.name for r in tiny_suite} == EXPECTED_NAMES
    assert {r.group for r in tiny_suite} == {
        "kernel", "distributed", "program", "serve", "check", "solver",
    }
    for r in tiny_suite:
        assert r.seconds.min > 0
        assert r.derived["gflops"] > 0
        assert r.params["nnz"] > 0
        if "k" in r.params:
            assert r.derived["seconds_per_column"] == pytest.approx(
                r.seconds.min / r.params["k"]
            )


def test_block_results_carry_model_comparison(tiny_suite):
    # every block result reports its speedup next to the code-balance
    # prediction 6/k + 12/Nnzr (repro.model), the paper's upper bound
    for r in tiny_suite:
        if r.group == "kernel" and "spmm" in r.name:
            # k=1 predicts exactly 1.0 (no amortisation), k>1 a gain
            if r.params["k"] == 1:
                assert r.derived["model_speedup"] == 1.0
            else:
                assert r.derived["model_speedup"] > 1.0
            assert r.derived["model_fraction"] == pytest.approx(
                r.derived["speedup_vs_spmv"] / r.derived["model_speedup"]
            )


def test_registry_kernels_benched_with_metadata(tiny_suite):
    by_name = {r.name: r for r in tiny_suite}
    for name in ("sell-spmv", "sell-spmm-k4", "sell-spmm-k16"):
        r = by_name[name]
        assert r.group == "kernel"
        assert r.params["format"] == "sell"
        assert r.params["variant"] == "matmul"
        assert r.params["exact"] is False
        assert r.params["pad_factor"] >= 1.0


def _enforced(results, prefix=""):
    """Names of the results whose guard rows were enforced, in table order."""
    names = [g.result for g, status in check_guards(results) if status == "enforced"]
    return [n for n in dict.fromkeys(names) if n.startswith(prefix)]


def _guard_result(name, k, nrows, speedup):
    return BenchResult(
        name=name, group="kernel", warmup=1, repeat=3,
        seconds=TimingStats(samples=(1.0,)),
        params={"nrows": nrows, "nnz": 10 * nrows, "k": k},
        derived={"speedup_vs_spmv": speedup},
    )


def test_kernel_guard_enforces_block_speedups():
    ok = [
        _guard_result("spmm-k1", 1, 4000, 1.0),  # k=1 parity is enough
        _guard_result("spmm-k4", 4, 4000, 1.2),
        _guard_result("spmm-k16", 16, 4000, 1.4),
    ]
    assert _enforced(ok) == ["spmm-k1", "spmm-k4", "spmm-k16"]
    with pytest.raises(AssertionError, match="spmm-k4"):
        check_guards([_guard_result("spmm-k4", 4, 4000, 0.9)])
    # k > 1 must beat spmv strictly; exact parity means no batching win
    with pytest.raises(AssertionError, match="spmm-k16"):
        check_guards([_guard_result("spmm-k16", 16, 4000, 1.0)])
    # the degenerate batch may tie but not lose
    with pytest.raises(AssertionError, match="spmm-k1"):
        check_guards([_guard_result("spmm-k1", 1, 4000, 0.99)])


def test_kernel_guard_skips_noise_dominated_sizes():
    tiny = _guard_result("spmm-k4", 4, GUARD_MIN_ROWS - 1, 0.5)
    assert _enforced([tiny]) == []
    # ...which is why the tiny test suite (300 rows) cannot flake on it


def test_tiny_suite_below_guard_threshold(tiny_suite):
    # the module fixture runs at 300 rows: the guard must have been a
    # no-op there, or CI test runs would inherit timing flakiness
    kernel_nrows = {r.params["nrows"] for r in tiny_suite if r.group == "kernel"}
    assert max(kernel_nrows) < GUARD_MIN_ROWS


def test_program_overhead_guard(tiny_suite):
    # the sweep-IR tentpole's perf contract: interpreter indirection must
    # stay well under 5% of the single-rank spmv hot path (the suite
    # itself raises past the guard; here we check the reported figures)
    (r,) = [r for r in tiny_suite if r.name == "program-overhead"]
    assert r.derived["guard_max"] == 0.05
    assert 0.0 <= r.derived["overhead_vs_hot_path"] < r.derived["guard_max"]
    assert r.derived["indirection_seconds"] < r.derived["hot_path_seconds"]


def test_serve_group_reports_warm_cold_and_coalesced(tiny_suite):
    by_name = {r.name: r for r in tiny_suite}
    warm = by_name["serve-warm"]
    # the ratio itself is only *enforced* at guard size (see below); at
    # 300 rows just require the persistent service to actually win
    assert warm.seconds.min < by_name["serve-cold"].seconds.min
    assert warm.derived["guard_min"] == guard_bound("serve-warm", "warm_speedup_vs_cold")
    coal = by_name["serve-coalesced"]
    assert coal.derived["bit_identical"] == 1.0  # asserted before timing
    assert coal.derived["throughput_rps"] > 0.0
    assert 1.0 <= coal.derived["mean_batch_width"] <= coal.params["max_batch"]
    # 300 rows is below GUARD_MIN_ROWS: reported, not enforced — the
    # same no-flake policy as the spmm-k* rows
    assert _enforced(tiny_suite, "serve") == []


def _serve_result(name, nrows, derived):
    return BenchResult(
        name=name, group="serve", warmup=1, repeat=3,
        seconds=TimingStats(samples=(1.0,)),
        params={"nrows": nrows, "nnz": 10 * nrows, "nranks": 2, "scheme": "task_mode"},
        derived=derived,
    )


def test_serve_guard_enforces_at_guard_size():
    ok = [
        _serve_result("serve-warm", 4000,
                      {"warm_speedup_vs_cold": 8.0, "guard_min": 5.0}),
        _serve_result("serve-coalesced", 4000,
                      {"throughput_rps": 100.0, "bit_identical": 1.0}),
    ]
    assert _enforced(ok) == ["serve-warm", "serve-coalesced"]
    with pytest.raises(AssertionError, match="rebuilding state"):
        check_guards([_serve_result("serve-warm", 4000,
                                    {"warm_speedup_vs_cold": 1.5, "guard_min": 5.0})])
    with pytest.raises(AssertionError, match="bit-identity"):
        check_guards([_serve_result("serve-coalesced", 4000,
                                    {"throughput_rps": 10.0})])
    # sub-guard sizes are never enforced
    tiny = _serve_result("serve-warm", GUARD_MIN_ROWS - 1,
                         {"warm_speedup_vs_cold": 0.5, "guard_min": 5.0})
    assert _enforced([tiny]) == []


def test_sanitizer_overhead_reported(tiny_suite):
    (r,) = [r for r in tiny_suite if r.name == "sanitizer-overhead"]
    assert r.group == "check"
    assert r.derived["guard_max"] == guard_bound("sanitizer-overhead", "overhead_vs_plain")
    assert r.derived["events_observed"] > 0
    assert r.derived["plain_seconds"] > 0
    # 300 rows is below GUARD_MIN_ROWS: reported, not enforced
    # (sub-millisecond sweeps put thread spin-up jitter in the ratio)
    assert r.params["nrows"] < GUARD_MIN_ROWS
    assert _enforced(tiny_suite, "sanitizer") == []


def _sanitizer_result(nrows, overhead):
    return BenchResult(
        name="sanitizer-overhead", group="check", warmup=1, repeat=5,
        seconds=TimingStats(samples=(1.0,)),
        params={"nrows": nrows, "nnz": 10 * nrows, "nranks": 2, "scheme": "task_mode"},
        derived={"overhead_vs_plain": overhead, "guard_max": 1.2},
    )


def test_sanitizer_guard_enforces_at_guard_size():
    ok = _sanitizer_result(4000, 1.1)
    assert _enforced([ok]) == ["sanitizer-overhead"]
    with pytest.raises(AssertionError, match="sanitizer-overhead"):
        check_guards([_sanitizer_result(4000, 1.5)])
    # sub-guard sizes are never enforced
    tiny = _sanitizer_result(GUARD_MIN_ROWS - 1, 1.5)
    assert _enforced([tiny]) == []


def test_write_results_schema(tiny_suite, tmp_path):
    path = tmp_path / "BENCH_spmvm.json"
    payload = write_results(tiny_suite, path, quick=True)
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["schema"] == BENCH_SCHEMA == "repro-bench/1"
    assert on_disk["quick"] is True
    assert on_disk["python"] and on_disk["numpy"] and on_disk["created"]
    assert {r["name"] for r in on_disk["results"]} == EXPECTED_NAMES
    for r in on_disk["results"]:
        assert set(r) == {
            "name", "group", "params", "warmup", "repeat", "seconds", "derived"
        }
        assert set(r["seconds"]) == {"min", "mean", "median", "std"}


# ----------------------------------------------------------------- CLI


def test_cli_bench_quick(tmp_path, capsys):
    out = tmp_path / "BENCH_spmvm.json"
    rc = main(["bench", "--quick", "--output", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "repro-bench/1"
    assert {r["name"] for r in data["results"]} == EXPECTED_NAMES
    printed = capsys.readouterr().out
    assert "distributed-spmm-k16" in printed
    assert str(out) in printed


def _solver_result(nrows, derived):
    base = {
        "solutions_match": 1.0,
        "reductions_per_iteration": 0.5,
        "classic_reductions_per_iteration": 3.0,
        "messages_per_iteration": 4.0,
        "classic_messages_per_iteration": 14.0,
        "comm_posts_per_iteration": 1.5,
        "classic_comm_posts_per_iteration": 4.0,
        "time_ratio_vs_classic": 1.0,
        "guard_ratio_max": 1.25,
    }
    return BenchResult(
        name="solver-cg-sstep", group="solver", warmup=1, repeat=3,
        seconds=TimingStats(samples=(1.0,)),
        params={"nrows": nrows, "nnz": 5 * nrows, "nranks": 2, "grid": 32},
        derived={**base, **derived},
    )


def test_solver_guard_counts_not_times(tiny_suite):
    # the real tiny suite passes the guard and reports the economics
    assert _enforced(tiny_suite, "solver") == ["solver-cg-sstep"]
    (r,) = [r for r in tiny_suite if r.name == "solver-cg-sstep"]
    assert r.derived["solutions_match"] == 1.0
    assert (r.derived["reductions_per_iteration"]
            < r.derived["classic_reductions_per_iteration"])

    # counted violations are enforced at EVERY size
    with pytest.raises(AssertionError, match="stopped fusing"):
        check_guards([_solver_result(100, {"reductions_per_iteration": 3.0})])
    with pytest.raises(AssertionError, match="extra exchanges"):
        check_guards([_solver_result(100, {"messages_per_iteration": 20.0})])
    with pytest.raises(AssertionError, match="stopped avoiding"):
        check_guards([_solver_result(100, {"comm_posts_per_iteration": 4.0})])
    with pytest.raises(AssertionError, match="without being verified"):
        check_guards([_solver_result(100, {"solutions_match": 0.0})])
    # the timing ratio only at guard size and above
    slow = {"time_ratio_vs_classic": 2.0}
    assert _enforced([_solver_result(GUARD_MIN_ROWS - 1, slow)])
    with pytest.raises(AssertionError, match="never lose outright"):
        check_guards([_solver_result(GUARD_MIN_ROWS, slow)])


# --------------------------------------------------------- guard table


def _side(row, bound, passing):
    """A value of *row*'s key just on the passing or the failing side."""
    eps = 1e-3
    if passing:
        return {"<": bound - eps, "<=": bound + row.slack, ">": bound + eps,
                ">=": bound, "==": bound}[row.op]
    return {"<": bound, "<=": bound + row.slack + eps, ">": bound,
            ">=": bound - eps, "==": bound - eps}[row.op]


def _passing_derived(result):
    """Derived figures that pass every GUARDS row of *result*."""
    derived = {}
    for g in GUARDS:
        if g.result == result:
            bound = g.bound
            if isinstance(bound, str):
                bound = derived[g.bound] = 10.0
            derived[g.key] = _side(g, bound, passing=True)
    return derived


@pytest.mark.parametrize("row", GUARDS, ids=str)
def test_every_guard_row_is_enforced(row):
    def result(derived, nrows=max(row.min_rows, 100)):
        return BenchResult(
            name=row.result, group="synthetic", warmup=0, repeat=1,
            seconds=TimingStats(samples=(1.0,)), params={"nrows": nrows},
            derived=derived,
        )

    ok = _passing_derived(row.result)
    assert (row, "enforced") in check_guards([result(ok)])
    bound = ok[row.bound] if isinstance(row.bound, str) else row.bound
    bad = {**ok, row.key: _side(row, bound, passing=False)}
    with pytest.raises(AssertionError, match=re.escape(row.result)) as exc:
        check_guards([result(bad)])
    assert row.reason in str(exc.value)
    # a missing figure fails the row rather than passing it silently
    missing = {k: v for k, v in ok.items() if k != row.key}
    with pytest.raises(AssertionError, match=re.escape(row.reason)):
        check_guards([result(missing)])
    if row.min_rows:
        below = check_guards([result(bad, nrows=row.min_rows - 1)])
        assert (row, "skipped") in below


def test_guard_report_names_every_row(tiny_suite):
    # what `repro bench` prints: one status per table row, in table order
    report = check_guards(tiny_suite)
    assert [g for g, _ in report] == list(GUARDS)
    for g, status in report:
        if g.result.startswith("workload-"):
            assert status == "absent"  # full mode only
        elif g.min_rows:
            assert status == "skipped"  # 300 rows is below every gate
            assert f"at >= {GUARD_MIN_ROWS} rows" in str(g)
        else:
            assert status == "enforced"


def test_sanitizer_overhead_always_measures_task_mode():
    # the bound is defined on the task-mode sweep, whatever --scheme says
    results = spmvm_suite(quick=True, nrows=300, nranks=2, scheme="no_overlap")
    by_name = {r.name: r for r in results}
    assert by_name["distributed-spmv"].params["scheme"] == "no_overlap"
    assert by_name["sanitizer-overhead"].params["scheme"] == "task_mode"


def test_guard_table_pins_every_bound():
    # the contracts themselves: a row changed here loosens or tightens a
    # guard, which the row-by-row test above cannot see
    assert GUARD_MIN_ROWS == 2000
    gate = GUARD_MIN_ROWS
    assert [(g.result, g.key, g.op, g.bound, g.min_rows, g.slack) for g in GUARDS] == [
        ("spmm-k1", "speedup_vs_spmv", ">=", 1.0, gate, 0.0),
        ("spmm-k4", "speedup_vs_spmv", ">", 1.0, gate, 0.0),
        ("spmm-k16", "speedup_vs_spmv", ">", 1.0, gate, 0.0),
        ("program-overhead", "overhead_vs_hot_path", "<", 0.05, 0, 0.0),
        ("serve-warm", "warm_speedup_vs_cold", ">=", 5.0, gate, 0.0),
        ("serve-coalesced", "bit_identical", "==", 1.0, gate, 0.0),
        ("sanitizer-overhead", "overhead_vs_plain", "<=", 1.2, gate, 0.0),
        ("solver-cg-sstep", "solutions_match", "==", 1.0, 0, 0.0),
        ("solver-cg-sstep", "reductions_per_iteration", "<",
         "classic_reductions_per_iteration", 0, 0.0),
        ("solver-cg-sstep", "messages_per_iteration", "<=",
         "classic_messages_per_iteration", 0, 1e-9),
        ("solver-cg-sstep", "comm_posts_per_iteration", "<",
         "classic_comm_posts_per_iteration", 0, 0.0),
        ("solver-cg-sstep", "time_ratio_vs_classic", "<=", 1.25, gate, 0.0),
        ("workload-scheduling", "util_easy", ">", "util_fcfs", 0, 0.0),
        ("workload-placement", "wire_bytes_node_aware", "<=", "wire_bytes_random", 0, 0.0),
        ("workload-placement", "p99_node_aware", "<", "p99_random", 0, 0.0),
        ("workload-contention", "bw_shared_max", "<", "bw_alone", 0, 0.0),
    ]
