#!/usr/bin/env python3
"""Compare two sets of qnn_bench results, metric by metric.

    python3 qnn_bench/compare_runs.py <parent_dir> <change_dir> [--benchmark BENCHMARK.json]

Each directory is searched recursively for result files written by
qnn_bench: *.e2e.json (end-to-end metrics, untraced runs) and
*.layers.json (per-layer metrics, traced runs). Runs pair up in sorted
path order, so give both sides the same layout. For every (workload,
metric) the script prints each side's median and quartiles, the share of
pairs the change wins, and a verdict:

  better      the change wins at least 9 of 10 pairs and its median beats
              the parent's by more than the parent's interquartile range
  worse       end-to-end: the change's median is worse than the parent's
              by more than the metric's bound (a share of the parent's
              median); per-layer: the mirror of "better"
  unresolved  end-to-end only: the parent's own spread is wider than the
              bound and the change does not beat every parent run
  unchanged   none of the above

Bounds and directions come from BENCHMARK.json. The exit status is 1
when any end-to-end metric is worse, else 0.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path, suffix: str) -> dict:
    """{(workload, metric): [values in sorted path order]}"""
    runs = {}
    for path in sorted(directory.rglob(f"*{suffix}")):
        doc = json.loads(path.read_text())
        for name, metric in doc["result"]["metrics"].items():
            runs.setdefault((doc["workload"], name), []).append(float(metric["value"]))
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a: list, b: list, higher_better: bool, bound) -> tuple:
    sign = 1.0 if higher_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1a, q3a = quartiles(a)
    iqr_a = q3a - q1a
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gain = sign * (med_b - med_a)
    if a == b or (len(set(a)) == 1 and set(a) == set(b)):
        return "unchanged", wins / len(pairs)
    if gain > 0 and wins >= 0.9 * len(pairs) and gain > iqr_a:
        return "better", wins / len(pairs)
    if bound is None:
        if gain < 0 and losses >= 0.9 * len(pairs) and -gain > iqr_a:
            return "worse", wins / len(pairs)
        return "unchanged", wins / len(pairs)
    scale = abs(med_a) if med_a != 0 else 1.0
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if iqr_a / scale > bound and not all_better:
        return "unresolved", wins / len(pairs)
    if -gain / scale > bound:
        return "worse", wins / len(pairs)
    return "unchanged", wins / len(pairs)


def compare(parent: Path, change: Path, specs: list, suffix: str, title: str) -> int:
    a_runs, b_runs = load(parent, suffix), load(change, suffix)
    keys = sorted(set(a_runs) & set(b_runs))
    if not keys:
        return 0
    by_name = {s["name"]: s for s in specs}
    print(f"\n{title}")
    print(f"{'workload':13} {'metric':32} {'unit':6} {'n':>5}  {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'wins':>5} {'delta':>8} {'bound':>6}  verdict")
    worse = 0
    for workload, name in keys:
        spec = by_name.get(name)
        if spec is None:
            continue
        a, b = a_runs[(workload, name)], b_runs[(workload, name)]
        bound = spec.get("bound")
        v, win_rate = verdict(a, b, spec["better"] == "higher", bound)
        worse += v == "worse" and bound is not None
        med_a, med_b = statistics.median(a), statistics.median(b)
        q1a, q3a = quartiles(a)
        q1b, q3b = quartiles(b)
        delta = (med_b - med_a) / abs(med_a) if med_a else 0.0
        print(f"{workload:13} {name:32} {spec['unit']:6} {len(a):>2}/{len(b):<2}  "
              f"{med_a:11.5g} [{q1a:9.5g}, {q3a:9.5g}]  {med_b:11.5g} [{q1b:9.5g}, {q3b:9.5g}]  "
              f"{win_rate:5.0%} {delta:+8.2%} {'' if bound is None else f'{bound:.0%}':>6}  {v}")
    return worse


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args()
    bench = json.loads(args.benchmark.read_text())
    worse = compare(args.parent, args.change, bench["end_to_end"], ".e2e.json",
                    "end-to-end (untraced runs)")
    compare(args.parent, args.change, bench["per_layer"], ".layers.json",
            "per-layer (traced runs)")
    print(f"\n{worse} end-to-end metric(s) worse beyond their bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
