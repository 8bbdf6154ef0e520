"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload hmep-lanczos --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the run prints the end-to-end
metrics of ``BENCHMARK.json``, measured with no wrapper installed; with
``--trace 1`` it prints the per-layer metrics (see ``layers.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes a result file (and, traced, its spans) under ``--results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
)
#: printed and stored in the result file but not in BENCHMARK.json: on
#: the thread-hand-off-bound workloads it drifts between runs by as much
#: as the largest bound the benchmark may set
UNGATED = (("latency_p90_ms", "ms"),)
#: a throughput window opens at a chunk's start or at the completion that
#: closed the previous window, and closes on the first completion at least
#: this long after it opened
RATE_WINDOW_S = 0.25


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(args) -> dict:
    """Host and run identity recorded in every result file."""
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def window_rates(streams, window_s: float) -> list[float]:
    """Successful operations per second in each window of each chunk's
    completion stream (see ``RATE_WINDOW_S``); a chunk's tail after its
    last closed window is left out."""
    rates = []
    for opened, *done in streams:
        n = 0
        for t in done:
            n += 1
            if t - opened >= window_s:
                rates.append(n / (t - opened))
                opened, n = t, 0
    return rates


def end_to_end(setups, phase, window_s: float = RATE_WINDOW_S) -> dict:
    """The end-to-end metrics of an untraced phase (0 where nothing succeeded)."""
    import numpy as np

    lat = phase.latencies
    p50, p90 = np.percentile(lat, [50, 90]) * 1e3 if lat else (0.0, 0.0)
    rates = window_rates(phase.streams, window_s)
    return {
        "setup_s": statistics.median(s["total_s"] for s in setups),
        "solve_s": statistics.median(phase.cycles) if phase.cycles else 0.0,
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "throughput_rps": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    import_program()
    from layers import PER_LAYER, traced_run
    from tracing import Tracer, assert_unwrapped, write_spans
    from workloads import WORKLOADS, Workload

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--results", type=Path, default=HERE / "results",
        help="directory for the result file (default: perfbench/results)",
    )
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    info = fingerprint(args)
    ungated = {}
    spec = WORKLOADS[args.workload]
    workload = Workload(spec, args.seed)
    spans_path = None
    assert_unwrapped()
    try:
        workload.setup()
        if args.trace:
            metrics, phases, probes, spans = traced_run(workload, args.seconds, Tracer())
            units = dict(PER_LAYER)
        else:
            phases = {"untraced": workload.run(args.seconds)}
            probes = {}
            assert_unwrapped()
            metrics = end_to_end(workload.setups, phases["untraced"])
            units = dict(END_TO_END)
            ungated = {k: metrics.pop(k) for k, _unit in UNGATED}
    finally:
        workload.close()

    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    correct = failed == 0 and all(p.failed == 0 for p in probes.values())
    failures = [f for p in [*phases.values(), *probes.values()] for f in p.failures]

    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    out_dir = args.results / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        spans_path = write_spans(spans, out_dir / f"{stem}-spans.jsonl.gz")
    samples = {
        name: {
            "operations": len(p.latencies),
            "cycles": len(p.cycles),
            "attempted": p.attempted,
            "failed": p.failed,
            "elapsed_s": p.elapsed,
            **({"iterations": p.iterations} if p.iterations else {}),
        }
        for name, p in {**phases, **{f"probe:{k}": v for k, v in probes.items()}}.items()
    }
    record = {
        "schema": "perfbench-result/1",
        "fingerprint": info,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "ungated_metrics": {k: {"value": v, "unit": dict(UNGATED)[k]} for k, v in ungated.items()},
        "setups_s": [s["total_s"] for s in workload.setups],
        "samples": samples,
        "failures": failures,
        "spans_file": spans_path.name if spans_path else None,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload}: {spec.why}")
    print(f"# host: {info['nproc']} cpus, {info['cpu_model']}; commit {info['git_commit']}")
    for name, s in samples.items():
        print(f"# {name}: {s['operations']} ok of {s['attempted']} in {s['elapsed_s']:.2f} s")
    for f in failures:
        print(f"# FAILED: {f}")
    print(f"error_rate = {record['error_rate']:.6g} fraction")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    for k, v in ungated.items():
        print(f"{k} = {v:.6g} {dict(UNGATED)[k]} (not gated)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
