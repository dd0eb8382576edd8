"""Fast self-test of the benchmark on tiny versions of its workloads.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs a tiny ``golden`` (2 blocks x 20k pulses, 801 notch taps) and a tiny
``stream`` (three Fock-mixture block files on up to two threads), untraced
and traced, and checks that each run passes its correctness gate and emits
every metric named in ``BENCHMARK.json`` with its unit and nothing else.
Then checks that the gate trips on a truncated ``output.bits`` and that
the benchmark exits non-zero without a result where there are no sources.
Prints one line per check; exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SMALL_STAGES = """
[stats]
string_bits = 5000

[attack]
rounds = 20000

[verify]
fock_n_max = 5
deltas = 0.1 0.5
equivalence_states = 5
equivalence_dim_max = 5
"""

TINY = (
    run.Workload("tiny-golden", """\
[dsp]
notch_taps = 801
modulation_freq = 24.5e6
notch_cutoff = 24.495e6
autocorr_max_lag = 50
autocorr_samples = 2000

[simulate]
pulses = 20000
blocks = 2

[calibration]
samples_per_point = 50000
""" + SMALL_STAGES),
    run.Workload("tiny-stream", f"""\
[run]
threads = {min(2, run.nproc())}

[source]
kind = mixture
mixture = 0.5:0 0.5:1

[dsp]
enabled = false
autocorr_max_lag = 50

[simulate]
pulses = 20000
blocks = 3

[extractor]
h_min_override = 5.55
""" + SMALL_STAGES, run.WORKLOADS["stream"].stages),
)
SEED = 3


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    work = run.STATE / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    try:
        run.warm_up()
        for workload in TINY:
            for trace in (False, True):
                # one pipeline, or one traced and one untraced
                out = run.run_workload(workload, SEED, 1, trace,
                                       work / f"{workload.name}-{int(trace)}",
                                       min_pipelines=1 + trace)
                result = out["result"]
                mode = "traced" if trace else "untraced"
                check(result["correct"] and result["failed"] == 0,
                      f"{workload.name} {mode}: correctness gate passes "
                      f"{out['problems']}")
                emitted = {name: m["unit"] for name, m in result["metrics"].items()}
                check(emitted == expected[trace],
                      f"{workload.name} {mode}: emits exactly the BENCHMARK.json "
                      f"metrics with their units")

        workload = TINY[0]
        pipe = work / "gate"
        pipeline = run.run_pipeline(workload, SEED, pipe, False,
                                    time.monotonic() + run.RUN_LIMIT_S)
        check(pipeline.ok, "gate passes on an intact pipeline")
        bits = pipe / "out" / "output.bits"
        bits.write_bytes(bits.read_bytes()[:-1])
        check(bool(run.check_artifacts(pipe / "out", workload)),
              "gate trips on a truncated output.bits")

        bare = work / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", "golden",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "exits non-zero without a result where there are no sources")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
