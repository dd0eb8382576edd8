"""In-memory span tracing of one sdiqrng stage process, and per-layer metrics.

The tracer wraps public functions of the package from outside it, at the
name each caller looks up: a module attribute for callers that write
``module.func`` or call a module global, and the caller's own binding for
callers that imported the name (``cli`` binds ``write_bytes_atomic``,
``write_text_atomic`` and ``load_config`` by from-import).  Nothing under
``src/`` changes.  A wrapped name that no longer exists is skipped, so a
refactor that removes it reads as 0 calls, not as an error.

A span is ``[id, parent, name, thread, start, end, counters]``.  Spans are
kept in a list while the stage runs and written out as JSON lines when it
ends.  ``extract_stream`` fans out over a thread pool; the pool class is
replaced by one that hands each task the span that submitted it, so spans
on pool threads get their real parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

STAGES = ("simulate", "calibrate", "extract", "test", "attack", "verify")

# module -> public functions wrapped as spans named "<module>.<function>"
TRACED = {
    "dsp": ("lowpass", "remove_low_frequency", "design_lowpass",
            "subsample_per_pulse", "autocorrelation"),
    "states": ("sample_quadrature", "max_bin_probability"),
    "entropy": ("sdi_bound_check",),
    "detector": ("draw_phases", "quantize", "measure_block", "write_block",
                 "read_block"),
    "extractor": ("extract_stream", "serialize_samples", "toeplitz_hash"),
    "stats": ("run_battery", "frequency_test", "block_frequency_test",
              "runs_test", "longest_run_test", "cumulative_sums_test",
              "spectral_test", "approximate_entropy_test", "serial_test"),
    "attacklab": ("run_attack", "eve_reduced_path_I", "eve_reduced_path_II"),
    "calibration": ("fit_calibration", "append_log", "read_log",
                    "recalibration_decision"),
}
BATTERY_TESTS = ("frequency", "block_frequency", "runs", "longest_run",
                 "cumulative_sums", "spectral", "approximate_entropy", "serial")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# span name -> counters taken from (args, kwargs, result)
COUNTERS = {
    "dsp.lowpass": lambda a, kw, r: {"samples_in": len(a[0])},
    "states.sample_quadrature": lambda a, kw, r: {
        "samples": 1 if kw.get("size", a[3] if len(a) > 3 else None) is None
        else len(r)},
    "detector.quantize": lambda a, kw, r: {"samples": len(r[0]), "clipped": r[1]},
    "detector.write_block": lambda a, kw, r: {"bytes": _file_size(a[0])},
    "detector.read_block": lambda a, kw, r: {"bytes": _file_size(a[0])},
    "extractor.toeplitz_hash": lambda a, kw, r: {"input_bits": len(a[0]),
                                                 "output_bits": len(r)},
    "stats.run_battery": lambda a, kw, r: {"strings": r.n_strings},
    "io.write_bytes_atomic": lambda a, kw, r: {"bytes": len(a[1])},
}


class Tracer:
    """Records spans of wrapped calls; one per stage process."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call_under(self, parent, fn, *args, **kwargs):
        """Run ``fn`` on this thread as if called inside span ``parent``."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            try:
                counters = count(args, kwargs, result) if count else {}
            except (TypeError, IndexError, AttributeError):
                counters = {}  # the signature changed: the span still counts
            self.spans.append([span_id, parent, name, threading.get_ident(),
                               start, end, counters])
            return result

        return traced

    def pool_class(self):
        tracer = self

        class ParentingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.call_under, tracer.current(), fn,
                                      *args, **kwargs)

        return ParentingPool

    def install(self, stage: str) -> None:
        """Wrap the package's layer functions for a run of ``stage``."""
        cli = importlib.import_module("sdiqrng.cli")
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"sdiqrng.{module_name}")
            for attr in names:
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self.wrap(f"{module_name}.{attr}", fn))
        io = importlib.import_module("sdiqrng._io")
        if callable(getattr(io, "write_bytes_atomic", None)):
            # _io.write_text_atomic and the lazy imports in detector and
            # extractor look the name up in _io; cli holds its own binding
            wrapped = self.wrap("io.write_bytes_atomic", io.write_bytes_atomic)
            io.write_bytes_atomic = wrapped
            if hasattr(cli, "write_bytes_atomic"):
                cli.write_bytes_atomic = wrapped
        if callable(getattr(cli, "load_config", None)):
            cli.load_config = self.wrap("config.load_config", cli.load_config)
        commands = getattr(cli, "_COMMANDS", {})
        if stage in commands:
            commands[stage] = self.wrap(f"cli.{stage}", commands[stage])
        extractor = importlib.import_module("sdiqrng.extractor")
        if getattr(extractor, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            extractor.ThreadPoolExecutor = self.pool_class()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class SpanTable:
    """Aggregates over the spans of one stage process."""

    def __init__(self, spans: list[list]):
        self.by_name: dict[str, list[list]] = {}
        children: dict[int, list[tuple[float, float]]] = {}
        for span in spans:
            self.by_name.setdefault(span[2], []).append(span)
            if span[1] is not None:
                children.setdefault(span[1], []).append((span[4], span[5]))
        self.self_time = {s[0]: s[5] - s[4] - _covered(children.get(s[0], ()),
                                                        s[4], s[5])
                          for s in spans}

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def self_s(self, name: str) -> float:
        return sum(self.self_time[s[0]] for s in self.by_name.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self.by_name.get(name, ())]

    def counter(self, name: str, key: str) -> float:
        return sum(s[6].get(key, 0) for s in self.by_name.get(name, ()))


def _quantile_ms(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1] * 1e3


def layer_metrics(stages: dict[str, dict], tables: dict[str, SpanTable]) -> dict:
    """Per-layer metrics of one traced pipeline.

    ``stages`` maps each stage run to its child report (import_s, config_s,
    stage_s, peak_rss_mb, threads); ``tables`` maps it to its spans.
    """
    def total(fn, *args):
        return sum(fn(t, *args) for t in tables.values())

    busy = functools.partial(total, SpanTable.busy)
    calls = functools.partial(total, SpanTable.calls)
    self_s = functools.partial(total, SpanTable.self_s)
    counter = functools.partial(total, SpanTable.counter)
    hash_ms = [d for t in tables.values()
               for d in t.durations("extractor.toeplitz_hash")]
    quantized = counter("detector.quantize", "samples")
    extract = tables.get("extract")
    threads = stages.get("extract", {}).get("threads", 1)
    stream_wall = extract.busy("extractor.extract_stream") if extract else 0.0

    m = {
        "dsp.lowpass.busy_s": busy("dsp.lowpass"),
        "dsp.lowpass.calls": calls("dsp.lowpass"),
        "dsp.lowpass.samples_in": counter("dsp.lowpass", "samples_in"),
        "dsp.remove_low_frequency.self_s": self_s("dsp.remove_low_frequency"),
        "dsp.design_lowpass.busy_s": busy("dsp.design_lowpass"),
        "dsp.autocorrelation.busy_s": busy("dsp.autocorrelation"),
        "states.sample_quadrature.busy_s": busy("states.sample_quadrature"),
        "states.sample_quadrature.samples": counter("states.sample_quadrature",
                                                    "samples"),
        "states.max_bin_probability.busy_s": busy("states.max_bin_probability"),
        "states.max_bin_probability.calls": calls("states.max_bin_probability"),
        "entropy.sdi_bound_check.busy_s": busy("entropy.sdi_bound_check"),
    }
    for name in ("draw_phases", "quantize", "measure_block", "write_block",
                 "read_block"):
        m[f"detector.{name}.busy_s"] = busy(f"detector.{name}")
    m["detector.io_bytes"] = (counter("detector.write_block", "bytes")
                              + counter("detector.read_block", "bytes"))
    m["detector.clip_ratio"] = (counter("detector.quantize", "clipped") / quantized
                                if quantized else 0.0)
    m.update({
        "extractor.toeplitz_hash.busy_s": busy("extractor.toeplitz_hash"),
        "extractor.toeplitz_hash.calls": calls("extractor.toeplitz_hash"),
        "extractor.toeplitz_hash.p50_ms": _quantile_ms(hash_ms, 50),
        "extractor.toeplitz_hash.p99_ms": _quantile_ms(hash_ms, 99),
        "extractor.toeplitz_hash.input_bits": counter("extractor.toeplitz_hash",
                                                      "input_bits"),
        "extractor.toeplitz_hash.output_bits": counter("extractor.toeplitz_hash",
                                                       "output_bits"),
        "extractor.serialize_samples.busy_s": busy("extractor.serialize_samples"),
        "extractor.extract_stream.self_s": self_s("extractor.extract_stream"),
        "extractor.thread_utilization": (
            busy("extractor.toeplitz_hash") / (threads * stream_wall)
            if stream_wall else 0.0),
        "stats.run_battery.busy_s": busy("stats.run_battery"),
        "stats.run_battery.strings": counter("stats.run_battery", "strings"),
    })
    for name in BATTERY_TESTS:
        m[f"stats.{name}.busy_s"] = busy(f"stats.{name}_test")
    m["attacklab.run_attack.busy_s"] = busy("attacklab.run_attack")
    for path in ("I", "II"):
        m[f"attacklab.eve_reduced_path_{path}.busy_s"] = busy(
            f"attacklab.eve_reduced_path_{path}")
    m["calibration.busy_s"] = sum(busy(f"calibration.{name}")
                                  for name in TRACED["calibration"])
    for stage in STAGES:
        table = tables.get(stage)
        m[f"cli.{stage}.self_s"] = table.self_s(f"cli.{stage}") if table else 0.0
    m["io.write_bytes_atomic.busy_s"] = busy("io.write_bytes_atomic")
    m["io.write_bytes_atomic.bytes"] = counter("io.write_bytes_atomic", "bytes")
    for stage in STAGES:
        report = stages.get(stage, {})
        m[f"{stage}.wall_s"] = report.get("stage_s", 0.0)
        m[f"{stage}.import_s"] = report.get("import_s", 0.0)
        m[f"{stage}.peak_rss_mb"] = report.get("peak_rss_mb", 0.0)
    m["extract.mbit_s"] = (counter("extractor.toeplitz_hash", "output_bits") / 1e6
                           / m["extract.wall_s"] if m["extract.wall_s"] else 0.0)
    m["config.load_config.busy_s"] = busy("config.load_config")
    # self times of the spans under cli.<stage> add up to its duration, so
    # this is the share of the stages' wall time that the spans explain
    stage_s = sum(r["stage_s"] for r in stages.values())
    m["trace.accounted_ratio"] = (sum(busy(f"cli.{stage}") for stage in STAGES)
                                  / stage_s if stage_s else 0.0)
    m["trace.spans"] = sum(len(t.self_time) for t in tables.values())
    return m
