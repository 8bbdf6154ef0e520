"""Compare two result sets of the benchmark, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (searched
recursively; traced runs are ignored).  Runs of the two sets are paired
by seed, or by start order when the sets share no seed.  For every workload x end-to-end metric of ``BENCHMARK.json``
the report gives each side's median and quartiles, the share of pairs
the new side won (ties count for neither), and a verdict:

* ``improved``   - the new side won at least 9/10 of the pairs and the
  medians differ by more than the base set's interquartile range;
* ``worse``      - the new median is worse than the base median by more
  than the metric's bound;
* ``unresolved`` - the base set's own spread (IQR over median) is wider
  than the bound, and not every new run beats every base run;
* ``unchanged``  - otherwise.

Exit code 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

WIN_SHARE = 0.9


def load_set(directory: Path) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: metrics}}`` of the untraced runs under *directory*,
    each workload's runs in the order they started."""
    found = []
    for path in directory.rglob("*.json"):
        rec = json.loads(path.read_text())
        if rec.get("schema") != "perfbench-result/1" or rec["fingerprint"]["traced"]:
            continue
        found.append(rec)
    runs: dict[str, dict[int, dict]] = {}
    for rec in sorted(found, key=lambda r: r["fingerprint"]["started_utc"]):
        fp = rec["fingerprint"]
        runs.setdefault(fp["workload"], {})[fp["seed"]] = {
            k: v["value"] for k, v in rec["metrics"].items()
        }
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], pairs, better: str, bound: float):
    """(win share, verdict) for one metric; *pairs* are (base, new) values."""
    sign = -1.0 if better == "lower" else 1.0
    gains = [sign * (n - b) for b, n in pairs]
    wins = sum(g > 0 for g in gains)
    share = wins / len(gains) if gains else 0.0
    q1, med_b, q3 = quartiles(base)
    med_n = quartiles(new)[1]
    gain = sign * (med_n - med_b)
    if share >= WIN_SHARE and gain > q3 - q1:
        return share, "improved"
    if -gain > bound * abs(med_b):
        return share, "worse"
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if (q3 - q1) > bound * abs(med_b) and not all_better:
        return share, "unresolved"
    return share, "unchanged"


def compare(base_dir: Path, new_dir: Path, bench: dict) -> list[dict]:
    base, new = load_set(base_dir), load_set(new_dir)
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        b_runs, n_runs = base.get(workload, {}), new.get(workload, {})
        if len(b_runs) < 2 or len(n_runs) < 2:
            continue
        seeds = sorted(set(b_runs) & set(n_runs))
        paired = (
            [(b_runs[s], n_runs[s]) for s in seeds]
            if seeds
            else list(zip(b_runs.values(), n_runs.values()))
        )
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b_vals = [r[name] for r in b_runs.values()]
            n_vals = [r[name] for r in n_runs.values()]
            pairs = [(b[name], n[name]) for b, n in paired]
            share, v = verdict(b_vals, n_vals, pairs, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": quartiles(b_vals),
                    "new": quartiles(n_vals),
                    "runs": (len(b_vals), len(n_vals)),
                    "pairs": len(pairs),
                    "win_share": share,
                    "verdict": v,
                }
            )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--benchmark", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = ap.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    rows = compare(args.base, args.new, bench)
    if not rows:
        print("no workload has two or more untraced runs in both sets", file=sys.stderr)
        return 2

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':14s} {'metric':16s} {'base median [Q1, Q3]':32s} "
          f"{'new median [Q1, Q3]':32s} {'runs':7s} {'wins':>9s}  verdict")
    for r in rows:
        runs = f"{r['runs'][0]}/{r['runs'][1]}"
        wins = f"{r['win_share']:.2f}/{r['pairs']}"
        print(f"{r['workload']:14s} {r['metric']:16s} {fmt(r['base']):32s} "
              f"{fmt(r['new']):32s} {runs:7s} {wins:>9s}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
