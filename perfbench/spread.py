"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload golden --workload stream \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 1] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
for ``run_seconds`` from ``BENCHMARK.json``.  For every metric it prints
the median of the runs and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound.  ``--out`` writes the values, the summary and a
record of the machine (CPU model, cache sizes, nproc, Python, numpy and
scipy versions) as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import run_record  # noqa: E402


def machine_record() -> dict:
    record = run_record(seed=None)
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        record["caches_cpu0"] = caches
    except OSError:
        pass
    return record


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--commit", help="commit of the measured sources, recorded in --out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for workload in args.workload:
        for seed in args.seeds:
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            pipelines = [dict(kv.split("=") for kv in line.split(": ", 1)[1].split())
                         for line in lines if line.startswith("pipeline ")
                         and " rng-seed " in line]
            runs.append({"workload": workload, "seed": seed,
                         "wall_s": time.monotonic() - t0, "result": result,
                         "pipelines": [{k: float(v) for k, v in p.items()}
                                       for p in pipelines]})
            status = "ok" if result and result["correct"] else "NOT CORRECT"
            print(f"{workload} seed {seed}: {status} in {runs[-1]['wall_s']:.1f} s",
                  flush=True)
            if result is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)

    summary = {}
    for workload in args.workload:
        results = [r["result"] for r in runs if r["workload"] == workload and r["result"]]
        if not results:
            continue
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3 = spread(values)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            summary[f"{workload}/{name}"] = {"median": med, "q1": q1, "q3": q3,
                                             "iqr_share": share, "bound": bound,
                                             "n": len(values)}
            mark = "" if bound is None else (" over bound" if share > bound else
                                             " over a third of bound"
                                             if share > bound / 3 else "")
            print(f"{workload:8s} {name:40s} median {med:12.6g}  iqr/median "
                  f"{share:7.4f}  bound {bound}{mark}")
    if args.out:
        args.out.write_text(json.dumps({"machine": machine_record(),
                                        "commit": args.commit,
                                        "seconds": bench["run_seconds"],
                                        "trace": args.trace, "runs": runs,
                                        "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
