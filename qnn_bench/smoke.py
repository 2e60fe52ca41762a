#!/usr/bin/env python3
"""bench_smoke: every workload at smoke size, untraced and traced.

    python3 qnn_bench/smoke.py <qnn_bench binary> <BENCHMARK.json> <out dir>

Fails when a run exits non-zero, reports a failed check, or leaves any
metric named in BENCHMARK.json missing, non-finite or in another unit,
either in its stdout result or in the result file it writes.
"""
import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def check_metrics(where: str, metrics: dict, specs: list, errors: list) -> None:
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None:
            errors.append(f"{where}: missing {spec['name']}")
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{where}: {spec['name']} is not finite")
        elif m["unit"] != spec["unit"]:
            errors.append(f"{where}: {spec['name']} in {m['unit']}, expected {spec['unit']}")


def check_run(binary: str, out: Path, workload: str, trace: int, specs: list) -> list:
    where = f"{workload} --trace {trace}"
    run = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    if run.returncode != 0:
        return [f"{where}: exit {run.returncode}: {run.stderr.strip()[-300:]}"]
    errors = []
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')} attempted={result.get('attempted')}")
    check_metrics(where, result.get("metrics", {}), specs, errors)
    suffix = "layers" if trace else "e2e"
    doc = json.loads((out / f"{workload}.s1.{suffix}.json").read_text())
    check_metrics(f"{where} file", doc["result"]["metrics"], specs, errors)
    if trace and not any("hw_cycles_float" in row for row in doc["layer_rows"]):
        errors.append(f"{where}: no per-layer rows with hw/schedule cycles")
    return errors


def main() -> int:
    binary, benchmark, out = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    bench = json.loads(benchmark.read_text())
    runs = [(w["name"], trace, bench["per_layer"] if trace else bench["end_to_end"])
            for w in bench["workloads"] for trace in (0, 1)]
    # The runs are independent processes; four at a time keep the suite short.
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = pool.map(lambda r: check_run(binary, out, *r), runs)
    errors = [e for errs in results for e in errs]
    for e in errors:
        print("bench_smoke:", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
