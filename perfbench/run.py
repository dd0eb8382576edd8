"""Benchmark of the sdiqrng pipeline, run stage by stage through its CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload golden|stream --seed N --seconds S --trace 0|1

A closed loop: one process runs whole pipelines one after another, each
stage as a fresh ``sdiqrng <stage>`` process (``perfbench/stage.py``), the
way a user runs it, at least two pipelines and then until the next one
would end after ``--seconds``.  Pipeline ``i`` of a run gets its own
``--rng-seed``, derived from ``--seed`` and ``i``, and a fresh artifact
directory (``calibration.csv`` is append-only).  Seeds differ between
pipelines because some costs depend on the input: the attack stage's KS
p-value takes about 1.6 s longer on a few seeds in a hundred, and a median
over one repeated seed would carry that into the whole run.

Workloads:

* ``golden``: the built-in default config through all six stages, one
  thread.  The DSP chain dominates simulate and calibrate, the Fock bound
  scan dominates verify; the extractor is light.
* ``stream``: an untrusted Fock-mixture source with the DSP chain off, eight
  block files of 500,000 pulses, hashed on ``min(2, nproc)`` threads at a
  fixed min-entropy just under golden's calibrated one, then tested and
  verified.  The extractor and the battery dominate, the DSP chain is never
  called.  It runs verify so that every end-to-end metric exists on both
  workloads.

Correctness gate, per pipeline: every stage exits 0, except that a
``test`` stage exiting 5 after writing a complete ``battery.txt`` counts as
a battery failure (uniform bits fail some seeds), not as a failed stage;
``output.bits`` holds exactly ``ceil(output_bits / 8)`` bytes from
``accounting.txt``; ``verify_report.txt`` has no FAIL; the sha256 of
``output.bits`` and of every block file agrees with every earlier run of
the same sources, workload and pipeline seed (kept in
``.perfbench/digests.json``).

Each pipeline's stage times and extractor throughput are printed on a line
of their own.  With ``--trace 0`` the last line of stdout is a JSON object
holding the end-to-end metrics (medians over the run's pipelines); with
``--trace 1``
pipelines alternate traced and untraced and it holds the per-layer metrics
(medians over traced pipelines) and the tracing overhead.  Exits 2 without
a result when the checkout has no ``src/sdiqrng``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from spans import STAGES, SpanTable, layer_metrics, load_spans  # noqa: E402

RUN_LIMIT_S = 170.0   # a run must end within 180 s
MIN_PIPELINES = 2     # each end-to-end metric is a median of at least two


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None        # config file text; None runs the built-in defaults
    stages: tuple[str, ...] = STAGES


def nproc() -> int:
    return len(os.sched_getaffinity(0))


STREAM_CONFIG = """\
[run]
threads = {threads}

[source]
kind = mixture
mixture = 0.5:0 0.5:1

[dsp]
enabled = false

[simulate]
blocks = 8
pulses = 500000

[extractor]
h_min_override = 5.55
"""

WORKLOADS = {
    "golden": Workload("golden", None),
    "stream": Workload("stream", STREAM_CONFIG.format(threads=min(2, nproc())),
                       ("simulate", "extract", "test", "verify")),
}

# The times of calibrate, extract, test and attack and the extractor
# throughput are not among them.  On golden these stages take 0.3-1.5 s; on
# a 2-vCPU host whose cores run 1.5x slower for seconds at a time, and with
# golden's per-block hash cost varying from 0.8 to 1.9 ms with the
# calibrated block size, their medians of three spread by 0.2-0.3 of the
# median over ten seeds, beyond any usable bound.  They are printed per
# pipeline and traced as per-layer metrics; pipeline_s and time_to_bits_s
# carry their cost.
END_TO_END = ("setup_s", "simulate_s", "verify_s", "time_to_bits_s", "pipeline_s",
              "advertised_mbit_s", "peak_rss_mb", "extract_peak_rss_mb")

_UNIT_SUFFIXES = (("mbit_s", "Mbit/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                  ("bytes", "B"), ("_bits", "bit"), ("ratio", "ratio"),
                  ("utilization", "ratio"))


def unit_of(metric: str) -> str:
    for suffix, unit in _UNIT_SUFFIXES:
        if metric.endswith(suffix):
            return unit
    return "count"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_report(path: Path) -> dict[str, str]:
    """``key: value`` lines of a text report."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def battery_complete(out: Path) -> bool:
    path = out / "battery.txt"
    return path.is_file() and any(line.startswith("overall: ")
                                  for line in path.read_text().splitlines())


def check_artifacts(out: Path, workload: Workload) -> list[str]:
    """Problems with a finished pipeline's artifacts; empty when correct."""
    problems = []
    if "extract" in workload.stages:
        accounting = read_report(out / "accounting.txt")
        want = math.ceil(int(accounting["output_bits"]) / 8)
        got = (out / "output.bits").stat().st_size
        if got != want:
            problems.append(f"output.bits holds {got} bytes, accounting.txt says "
                            f"{accounting['output_bits']} bits = {want} bytes")
    if "test" in workload.stages and not battery_complete(out):
        problems.append("battery.txt is missing or incomplete")
    if "verify" in workload.stages:
        report = out / "verify_report.txt"
        if not report.is_file() or "FAIL" in report.read_text():
            problems.append("verify_report.txt is missing or reports FAIL")
    return problems


def artifact_digests(out: Path) -> dict[str, str]:
    paths = sorted((out / "blocks").glob("*.bin")) + [out / "output.bits"]
    return {str(p.relative_to(out)): _sha256(p) for p in paths if p.is_file()}


def run_stage(stage: str, cli_args: list[str], pipe: Path, traced: bool,
              deadline: float) -> tuple[dict | None, str | None]:
    """Run one stage process; returns (report, failure)."""
    report_path = pipe / f"{stage}.json"
    cmd = [sys.executable, str(HERE / "stage.py"), stage, "--root", str(ROOT),
           "--report", str(report_path)]
    if traced:
        cmd += ["--spans", str(pipe / f"{stage}.spans")]
    cmd += ["--", *cli_args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, f"{stage}: no time left in the run"
    log_path = pipe / f"{stage}.log"
    with open(log_path, "wb") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"{stage}: timed out"
    report = json.loads(report_path.read_text()) if report_path.is_file() else None
    code = report["exit_code"] if report else proc.returncode
    if report and (code == 0 or (stage == "test" and code == 5
                                 and battery_complete(pipe / "out"))):
        report["battery_pass"] = code == 0
        return report, None
    tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
    return None, f"{stage}: exited {code}: {' '.join(tail)}"


@dataclass
class Pipeline:
    reports: dict[str, dict]
    attempted: int
    failures: list[str]
    problems: list[str]
    digests: dict[str, str]
    tables: dict[str, SpanTable] | None
    seed: int = 0
    output_bits: int = 0
    advertised_bits_per_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.problems

    @property
    def stage_s(self) -> float:
        return sum(r["stage_s"] for r in self.reports.values())


def run_pipeline(workload: Workload, seed: int, pipe: Path, traced: bool,
                 deadline: float) -> Pipeline:
    out = pipe / "out"
    pipe.mkdir(parents=True)
    cli_args = ["--out", str(out), "--rng-seed", str(seed)]
    if workload.config is not None:
        (pipe / "run.cfg").write_text(workload.config)
        cli_args += ["--config", str(pipe / "run.cfg")]
    reports, failures = {}, []
    for stage in workload.stages:
        report, failure = run_stage(stage, cli_args, pipe, traced, deadline)
        if failure:
            failures.append(failure)
            break
        reports[stage] = report
    result = Pipeline(reports=reports, attempted=len(reports) + len(failures),
                      failures=failures, problems=[], digests={}, tables=None,
                      seed=seed)
    if failures:
        return result
    result.problems = check_artifacts(out, workload)
    result.digests = artifact_digests(out)
    if "extract" in workload.stages:
        accounting = read_report(out / "accounting.txt")
        result.output_bits = int(accounting["output_bits"])
        result.advertised_bits_per_s = float(accounting["equivalent_rate_bits_per_s"])
    if traced:
        result.tables = {stage: SpanTable(load_spans(pipe / f"{stage}.spans"))
                         for stage in reports}
    return result


def pipeline_metrics(p: Pipeline) -> dict[str, float]:
    """The end-to-end metrics of one pipeline, and the other stages' times."""
    r = p.reports
    setup = {s: r[s]["import_s"] + r[s]["config_s"] for s in r}
    m = {"setup_s": sum(setup.values()),
         "pipeline_s": sum(setup.values()) + p.stage_s,
         "time_to_bits_s": sum(setup[s] + r[s]["stage_s"]
                               for s in ("simulate", "calibrate", "extract") if s in r)}
    for stage in r:
        m[f"{stage}_s"] = r[stage]["stage_s"]
    m["extract_mbit_s"] = p.output_bits / 1e6 / r["extract"]["stage_s"]
    m["advertised_mbit_s"] = p.advertised_bits_per_s / 1e6
    m["peak_rss_mb"] = max(x["peak_rss_mb"] for x in r.values())
    m["extract_peak_rss_mb"] = r["extract"]["peak_rss_mb"]
    return m


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]} if rows else {}


def check_digest_registry(key: str, digests: dict[str, str]) -> list[str]:
    """Compare with digests of earlier runs under ``key``, then record them."""
    path = STATE / "digests.json"
    registry = json.loads(path.read_text()) if path.is_file() else {}
    known = registry.get(key)
    if known is not None:
        return ([] if known == digests else
                ["artifact digests differ from an earlier run of the same "
                 "sources, workload and seed"])
    registry[key] = digests
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


def warm_up() -> None:
    """Compile the package's bytecode and page in its libraries, untimed."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]);"
                    " import sdiqrng.cli", str(ROOT / "src")], check=True,
                   stdout=subprocess.DEVNULL, cwd=ROOT, timeout=120)


def pipeline_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, min_pipelines: int = MIN_PIPELINES) -> dict:
    """Run pipelines for ``seconds``; returns what ``main`` prints."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    pipelines: list[Pipeline] = []
    walls: list[float] = []
    while True:
        t0 = time.monotonic()
        index = len(pipelines)
        traced = trace and index % 2 == 0
        pipelines.append(run_pipeline(workload, pipeline_seed(seed, index),
                                      work / f"pipeline-{index}", traced, deadline))
        walls.append(time.monotonic() - t0)
        if not pipelines[-1].ok:
            break
        shutil.rmtree(work / f"pipeline-{index}" / "out")
        if (len(pipelines) >= min_pipelines and
                time.monotonic() - started + statistics.median(walls) > seconds):
            break

    problems = [f"pipeline {i}: {x}" for i, p in enumerate(pipelines)
                for x in p.failures + p.problems]
    ok = [p for p in pipelines if p.ok]
    sources = src_digest()
    for p in ok:
        key = hashlib.sha256(json.dumps(
            [sources, workload.name, workload.config, p.seed]).encode()).hexdigest()
        problems += check_digest_registry(key, p.digests)
    attempted = sum(p.attempted for p in pipelines)
    failed = sum(len(p.failures) for p in pipelines)

    untraced = [p for p in ok if p.tables is None]
    traced = [p for p in ok if p.tables is not None]
    if trace:
        rows = [layer_metrics(p.reports, p.tables) for p in traced]
        metrics = medians(rows)
        base = statistics.median(p.stage_s for p in untraced) if untraced else 0.0
        overhead = statistics.median(p.stage_s for p in traced) - base if traced else 0.0
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_ratio"] = overhead / base if base else 0.0
    else:
        rows = [pipeline_metrics(p) for p in untraced]
        metrics = {k: v for k, v in medians(rows).items() if k in END_TO_END}
        metrics["stage_ok_ratio"] = (attempted - failed) / attempted
    return {
        "problems": problems,
        "pipelines": [(p.seed, row, p.digests)
                      for p, row in zip(traced if trace else untraced, rows)],
        "battery_failures": sum(not p.reports["test"]["battery_pass"]
                                for p in ok if "test" in p.reports),
        "result": {
            "correct": not problems and bool(rows),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()},
        },
    }


def run_record(seed: int | None) -> dict:
    import numpy
    import scipy
    return {"nproc": nproc(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "seed": seed, "src_sha256": src_digest()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="sdiqrng pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sdiqrng" / "cli.py").is_file():
        print(f"run: no sdiqrng sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("run: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2

    STATE.mkdir(exist_ok=True)
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        warm_up()
        out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), work)
    finally:
        if args.trace:  # keep the spans of the traced pipelines
            keep = STATE / "traces" / f"{args.workload}-{args.seed}"
            shutil.rmtree(keep, ignore_errors=True)
            for spans_file in work.glob("pipeline-*/*.spans"):
                dest = keep / spans_file.parent.name / spans_file.name
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(spans_file, dest)
        shutil.rmtree(work, ignore_errors=True)

    for problem in out["problems"]:
        print(f"FAIL {problem}")
    samples = len(out["pipelines"])
    for i, (pipe_seed, row, digests) in enumerate(out["pipelines"]):
        print(f"pipeline {i} rng-seed {pipe_seed}: "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()))
        for name, digest in digests.items():
            print(f"pipeline {i} sha256 {name} {digest}")
    print(f"{args.workload}: {samples} pipeline(s) measured, "
          f"{out['battery_failures']} with a failing battery")
    for name, metric in out["result"]["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']} "
              f"(median of {samples})")
    print("run record: " + json.dumps(run_record(args.seed)))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
