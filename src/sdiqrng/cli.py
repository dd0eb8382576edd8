"""Command-line interface: end-to-end runs of the simulator and toolkit.

Subcommands::

    sdiqrng simulate   write raw and filtered sample blocks plus diagnostics
    sdiqrng calibrate  sweep LO power on vacuum, fit the line, log the bound
    sdiqrng extract    hash simulated blocks into near-uniform output bits
    sdiqrng test       run the randomness battery on extracted bits
    sdiqrng attack     Monte-Carlo eavesdropper scenarios
    sdiqrng verify     executable checks of the security model's mathematics

Exit codes: 0 success, 2 configuration error or an unusable path, 3
calibration failure or stale calibration, 4 infeasible extraction plan, 5
verification failure.

All artifact writes are atomic (temp file plus rename), and all randomness
derives from ``run.rng_seed`` through named substreams, so a command
repeated with the same config and seed reproduces its outputs byte for
byte.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, attacklab, calibration, detector, dsp, entropy, extractor, states
from ._io import (iso_utc, ordered_map, read_report, write_bytes_atomic, write_csv,
                  write_report, write_text_atomic)
from .config import RunConfig, load_config, substream
from .exceptions import (CalibrationError, ConfigError, InfeasiblePlanError,
                         SecurityModelViolation)

__all__ = ["main", "build_parser"]


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"artifact directory {path}: {exc.strerror}") from None
    return path


def _out_dir(cfg: RunConfig) -> Path:
    return _make_dir(Path(cfg.run.out_dir))


def _write_autocorrelation_csv(path: Path, codes: np.ndarray, max_lag: int) -> None:
    report = dsp.autocorrelation(codes, max_lag)
    write_csv(path, ["autocorrelation of the filtered per-pulse stream",
                     f"n_samples={report.n_samples} ci95={report.ci95!r} "
                     f"fraction_outside_ci={report.fraction_outside_ci!r}"],
              ["lag", "coefficient"], enumerate(report.coefficients.tolist()))


_HISTOGRAM_SLICE = 2 ** 16


def _integer_counts(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """How often each integer lo..hi occurs in ``values``, which hold no other."""
    # bincount casts its input to intp: count slices, not all the values at once
    counts = np.zeros(hi - lo + 1, dtype=np.int64)
    for first in range(0, values.size, _HISTOGRAM_SLICE):
        piece = values[first:first + _HISTOGRAM_SLICE].astype(np.intp)
        counts += np.bincount(piece - lo, minlength=counts.size)
    return counts


def _write_histogram_csv(path: Path, counts: np.ndarray,
                         config: detector.MeasurementConfig) -> None:
    """Write the raw code histogram from ``counts``, the count of each code
    ``config.code_min``..``config.code_max``, beside a Gaussian of the width
    the codes measure."""
    codes = range(config.code_min, config.code_max + 1)
    per_code = counts.tolist()
    # exact integer moments, so that the variance is rounded once, in the
    # true division, before the sqrt
    n = sum(per_code)
    s1 = sum(k * c for k, c in zip(codes, per_code))
    s2 = sum(k * k * c for k, c in zip(codes, per_code))
    sigma_codes = math.sqrt((n * s2 - s1 * s1) / (n * n))
    edges = np.arange(config.code_min, config.code_max + 2) - 0.5
    if sigma_codes > 0:
        cdf = 0.5 * (1.0 + states._erf(edges / (sigma_codes * math.sqrt(2.0))))
        reference = n * np.diff(cdf)
    else:
        reference = np.zeros(counts.size)
    write_csv(path, ["raw ADC code histogram against a Gaussian of the measured width",
                     f"n_samples={n} sigma_codes={sigma_codes!r}"],
              ["code", "count", "gaussian_reference"],
              zip(codes, per_code, reference.tolist()))


def cmd_simulate(cfg: RunConfig) -> int:
    """Generate raw and filtered sample blocks plus diagnostics."""
    out = _out_dir(cfg)
    blocks_dir = _make_dir(out / "blocks")
    det = cfg.detector
    ts = iso_utc(cfg.run.timestamp)
    run_id = f"{cfg.run.rng_seed:016x}"
    autocorr_needed = cfg.dsp.autocorr_samples

    def write(name: str, b: int, analog: np.ndarray) -> tuple[np.ndarray, int]:
        codes, clipped = detector.quantize(analog, det)
        detector.write_block(blocks_dir / f"{name}_{b:04d}.bin",
                             detector.RawSampleBlock(
                                 codes=codes, config=det, run_id=run_id,
                                 timestamp=ts, clipped=clipped))
        return codes, clipped

    def simulate_block(b: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Write block b; return its clipped count, its raw code counts and
        its share of the autocorrelation's leading codes."""
        rng = substream(cfg.run.rng_seed, f"simulate-{b}")
        raw, filtered = detector.measure_pulses(cfg.source, det, cfg.simulate.pulses,
                                                rng, cfg.dsp)
        codes, clipped = write("raw", b, raw)
        counts = _integer_counts(codes, det.code_min, det.code_max)
        if cfg.dsp.enabled:
            del raw, codes   # freed before the filtered stream is quantized
            codes, clipped = write("filtered", b, filtered)
        # every block holds as many codes: block b's begin at code
        # b * codes.size of the run
        keep = min(codes.size, max(0, autocorr_needed - b * codes.size))
        return clipped, counts, codes[:keep].copy()

    results = ordered_map(simulate_block, range(cfg.simulate.blocks), cfg.run.threads)
    total_clipped = sum(clipped for clipped, _, _ in results)
    raw_counts = sum(counts for _, counts, _ in results)
    ac = np.concatenate([codes for _, _, codes in results])
    if ac.size > 10 * cfg.dsp.autocorr_max_lag:
        _write_autocorrelation_csv(out / "autocorrelation.csv", ac,
                                   cfg.dsp.autocorr_max_lag)
    else:
        (out / "autocorrelation.csv").unlink(missing_ok=True)
        print(f"note: only {ac.size} samples simulated, skipping the "
              f"{cfg.dsp.autocorr_max_lag}-lag autocorrelation diagnostic")
    _write_histogram_csv(out / "histogram_raw_vs_vacuum.csv", raw_counts, det)
    print(f"simulate: {cfg.simulate.blocks} block(s) x {cfg.simulate.pulses} pulses "
          f"-> {blocks_dir}")
    total = cfg.simulate.blocks * cfg.simulate.pulses
    print(f"simulate: {total_clipped} of {total} samples clipped")
    return 0


def cmd_calibrate(cfg: RunConfig) -> int:
    """Vacuum power sweep, line fit and entropy bound."""
    out = _out_dir(cfg)
    cs = cfg.calibration
    rngs = [substream(cfg.run.rng_seed, f"calibrate-{i}") for i in range(len(cs.powers))]
    result, points = calibration.calibrate(cfg.detector, cfg.dsp, cs, rngs,
                                           cfg.run.timestamp)
    calibration.append_log(out / "calibration.csv", result)

    write_report(out / "entropy_bound.txt", [
        ("timestamp", iso_utc(result.timestamp)),
        ("gradient", f"{result.gradient!r} +- {result.gradient_stderr!r}"),
        ("intercept", f"{result.intercept!r} +- {result.intercept_stderr!r}"),
        ("r_squared", result.r_squared),
        ("operating_power", result.operating_power),
        ("adc_step", result.adc_step),
        ("delta_vacuum_units", result.delta),
        ("delta_conservative", result.delta_conservative),
        ("guessing_probability",
         entropy.vacuum_guessing_probability(result.delta_conservative)),
        ("h_min_bits", result.h_min_bits),
        ("intercept_suspicious", result.intercept_suspicious),
    ])
    write_csv(out / "calibration_line.csv",
              ["detector output variance (raw units squared) against LO power, "
               "with OLS line",
               f"gradient={result.gradient!r} intercept={result.intercept!r} "
               f"gradient_stderr={result.gradient_stderr!r} "
               f"r_squared={result.r_squared!r}"],
              ["power", "variance", "fit"],
              [(p.power, p.variance, result.gradient * p.power + result.intercept)
               for p in points])

    print(f"calibrate: gradient {result.gradient:.4f} +- {result.gradient_stderr:.4f}, "
          f"intercept {result.intercept:.4f}")
    print(f"calibrate: delta {result.delta:.6f} (conservative "
          f"{result.delta_conservative:.6f}), h_min {result.h_min_bits:.4f} bits")
    return 0


def _block_file(read, path: Path, det: detector.MeasurementConfig):
    """``read(path, det)``, a missing or malformed block file raised as a
    ConfigError naming it."""
    try:
        return read(path, det)
    except OSError as exc:
        raise ConfigError(f"sample block {exc.filename}: {exc.strerror}; "
                          "run simulate first") from None
    except ValueError as exc:
        raise ConfigError(f"sample block {exc}") from None


def cmd_extract(cfg: RunConfig) -> int:
    """Toeplitz-hash simulated blocks into output bits."""
    out = _out_dir(cfg)
    det = cfg.detector
    es = cfg.extractor
    # exactly the blocks this config's simulate writes: a stale file from a
    # run with more blocks or the other chain setting must not be hashed
    kind = "filtered" if cfg.dsp.enabled else "raw"
    paths = [out / "blocks" / f"{kind}_{b:04d}.bin" for b in range(cfg.simulate.blocks)]
    # every header and file size first, so that a bad block exits 2 before
    # the calibration is read; the payloads are read one at a time below
    samples = sum(_block_file(detector.check_block, path, det) for path in paths)

    epsilon = 2.0 ** es.epsilon_log2
    try:   # a calibration fault is a CalibrationError, exit 3
        if es.h_min_override is not None:
            certificate = entropy.Certificate(es.h_min_override, epsilon, "h_min_override")
        else:
            fit = calibration.current_calibration(
                calibration.read_log(out / "calibration.csv"), cfg.run.timestamp,
                det, cfg.dsp, cfg.calibration)
            certificate = entropy.Certificate(
                fit.h_min_bits, epsilon,
                f"calibration {iso_utc(fit.timestamp)} {fit.fingerprint}")
        plan = extractor.plan_extraction(det.adc_bits, certificate,
                                         es.target_bits_per_sample)
        if samples < plan.samples_per_block:   # refused before the seed is made
            raise ValueError(f"{samples} samples cannot fill one block of "
                             f"{plan.samples_per_block}")
    except InfeasiblePlanError:
        raise
    except ValueError as exc:
        raise ConfigError(f"extractor: {exc}") from None

    if es.seed_file:
        try:
            seed = extractor.read_seed_file(es.seed_file, plan.seed_bits)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"seed file: {exc}") from None
    else:
        seed_rng = substream(cfg.run.rng_seed, "toeplitz-seed")
        seed = extractor.test_prng_seed(plan.seed_bits,
                                        int(seed_rng.integers(0, 2 ** 63)))

    start = time.perf_counter()
    blocks = (_block_file(detector.read_block, p, det) for p in paths)
    try:
        packed, report = extractor.extract_stream(blocks, plan, seed,
                                                  threads=cfg.run.threads)
    except ConfigError:
        raise
    except ValueError as exc:   # such as blocks rewritten shorter since their check
        raise ConfigError(f"extractor: {exc}") from None
    hash_s = time.perf_counter() - start
    if not es.seed_file:   # written only beside the bits it hashed
        extractor.write_seed_file(out / "toeplitz.seed", seed)
    write_bytes_atomic(out / "output.bits", packed)
    effective = plan.bits_per_sample_effective
    rate = entropy.equivalent_bit_rate(report.pulse_rate, effective)
    write_report(out / "accounting.txt", [
        ("certified_by", certificate.provenance),
        ("samples_per_block", plan.samples_per_block),
        ("input_bits_per_block", plan.input_bits),
        ("output_bits_per_block", plan.output_bits),
        ("seed_bits", plan.seed_bits),
        ("budget_slack_bits_per_block", plan.slack_bits),
        ("samples_in", report.samples_in),
        ("samples_used", report.samples_used),
        ("blocks", report.blocks),
        ("raw_bits", report.raw_bits),
        ("output_bits", report.output_bits),
        ("bits_per_sample_effective", effective),
        ("h_min_per_sample", certificate.h_min_bits),
        ("epsilon", certificate.epsilon),
        ("seed_provenance", seed.provenance),
        ("pulse_rate_hz", report.pulse_rate),
        ("equivalent_rate_bits_per_s", rate),
        ("clipped_samples", report.clipped_samples),
        ("fft_rounding_residual_max", report.fft_rounding_residual_max),
    ])
    print(f"extract: {report.output_bits} bits from {report.samples_used} samples "
          f"({effective:.4f} bits/sample)")
    print(f"extract: equivalent rate {rate / 1e6:.2f} Mbit/s at "
          f"{report.pulse_rate / 1e6:.0f} MHz pulse rate")
    # wall-clock, so printed only: accounting.txt stays reproducible
    print(f"extract: measured hashing throughput "
          f"{report.output_bits / 1e6 / hash_s:.2f} Mbit/s "
          f"({hash_s:.3f} s on {cfg.run.threads} thread(s))")
    return 0


def _read_output_bits(out: Path) -> np.ndarray:
    """The bits of output.bits that accounting.txt accounts for; the zero
    padding of the last byte is not data."""
    bits_path, path = out / "output.bits", out / "accounting.txt"
    if not bits_path.exists():
        raise ConfigError(f"no extracted bitstream at {bits_path}; run extract first")
    try:
        fields = read_report(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}; run extract first") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    value = fields.get("output_bits", "")
    if not (value.isascii() and value.isdigit()):
        raise ConfigError(f"{path}: output_bits is {value!r}, not a bit count")
    n_bits = int(value)
    data = bits_path.read_bytes()
    if len(data) != (n_bits + 7) // 8:
        raise ConfigError(f"{bits_path} holds {len(data)} bytes, but {path} "
                          f"accounts {n_bits} bits")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n_bits)


def cmd_test(cfg: RunConfig) -> int:
    """Randomness battery on the extracted bitstream."""
    # stats loads scipy.special; imported here so that no other stage pays for it
    from . import stats as battery

    out = _out_dir(cfg)
    # the packed bytes must be freed before the battery runs, as they are
    # when _read_output_bits returns: held through it, they keep glibc's
    # mmap threshold low, and every spectral-test temporary is mapped
    # afresh (181k more page faults and 0.35 s more on perfbench's stream)
    bits = _read_output_bits(out)
    try:
        report = battery.run_battery(bits, cfg.stats.string_bits,
                                     alpha=cfg.stats.alpha, threads=cfg.run.threads)
    except ValueError as exc:
        raise ConfigError(f"stats: {exc}") from None
    write_text_atomic(out / "battery.txt", report.to_text())
    write_csv(out / "battery.csv", [],
              ["statistic", "proportion", "proportion_bound", "uniformity_p", "passed"],
              [(r.name, r.proportion, r.proportion_bound, r.uniformity_p, int(r.passed))
               for r in report.results])
    print(report.to_text(), end="")
    if not report.all_passed:
        raise SecurityModelViolation("randomness battery failed")
    return 0


def cmd_attack(cfg: RunConfig) -> int:
    """Monte-Carlo eavesdropper scenarios."""
    out = _out_dir(cfg)
    scenario = cfg.attack
    rng = substream(cfg.run.rng_seed, "attack")
    report = attacklab.run_attack(scenario, rng)
    write_report(out / "attack_report.txt", [
        ("lo_mode", scenario.lo_mode),
        ("r", scenario.r),
        ("delta", scenario.delta),
        ("displaced", scenario.displaced),
        ("n_rounds", scenario.n_rounds),
        ("measured_variance", report.measured_variance),
        ("eve_guess_rate", report.eve_guess_rate),
        ("mimicry_pvalue", report.mimicry_pvalue),
        ("vacuum_guess_bound", report.vacuum_guess_bound),
    ])

    lo = report.lowest_bin
    edges = np.arange(lo, lo + report.bin_counts.size + 1)
    vacuum = np.diff(states._erf((edges - 0.5) * scenario.delta)) / 2.0
    write_csv(out / "attack_histogram.csv",
              ["attack outcome histogram against the exact vacuum bin masses",
               f"lo_mode={scenario.lo_mode} r={scenario.r!r} delta={scenario.delta!r} "
               f"rounds={scenario.n_rounds}"],
              ["bin", "count", "vacuum_expected"],
              zip(edges[:-1].tolist(), report.bin_counts.tolist(),
                  (scenario.n_rounds * vacuum).tolist()))

    print(f"attack: lo_mode={scenario.lo_mode} variance {report.measured_variance:.4f}, "
          f"KS p {report.mimicry_pvalue:.4g}")
    print(f"attack: eve guess rate {report.eve_guess_rate:.4f} vs vacuum bound "
          f"{report.vacuum_guess_bound:.4f}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    """Executable checks of the security-model mathematics."""
    out = _out_dir(cfg)
    v = cfg.verify
    lines: list[str] = []

    def report(ok: bool, text: str) -> None:
        lines.append(f"{'ok  ' if ok else 'FAIL'} {text}")

    # photon-number bound: a width-delta bin holds at most delta * S of any
    # Fock 1..fock_n_max at every bin offset; the vacuum's best bin holds erf(delta/2)
    sup = entropy.sdi_bound_check(v.fock_n_max)
    report(sup < 1.0 / math.sqrt(math.pi),
           f"sup-bound photon numbers 1..{v.fock_n_max}: "
           f"sup psi_n^2 <= S = {sup:.6e} < 1/sqrt(pi)")
    for delta in v.deltas:
        margin = entropy.vacuum_guessing_probability(delta) - delta * sup
        report(margin > 0.0, f"bound-margin delta={delta:<6g} every bin offset: "
                             f"erf(delta/2) - delta*S = {margin:.6e}")

    # order-of-operations equivalence: phase average before or after projection
    rng = substream(cfg.run.rng_seed, "verify-equivalence")
    max_td = 0.0
    for _ in range(v.equivalence_states):
        dim_e = int(rng.integers(2, v.equivalence_dim_max + 1))
        dim_a = int(rng.integers(2, v.equivalence_dim_max + 1))
        st = attacklab.random_pure_bipartite(dim_e, dim_a, rng)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        delta = float(rng.uniform(0.05, 0.5))
        kmax = max(1, int(2.0 / delta))
        k = int(rng.integers(-kmax, kmax + 1))
        td = attacklab.trace_distance(
            attacklab.eve_reduced_path_I(st, theta, delta, k),
            attacklab.eve_reduced_path_II(st, theta, delta, k))
        max_td = max(max_td, td)
    report(max_td < 1e-10, f"projector-order equivalence on {v.equivalence_states} "
                           f"random states: max trace distance {max_td:.3e}")

    # leftover-hash bookkeeping on representative operating points
    combos = [(8, 5.53, -100.0, 5.4), (8, 8.0, -100.0, 7.9), (8, 6.0, -64.0, 5.0)]
    for bits, h, eps_log2, target in combos:
        plan = extractor.plan_extraction(
            bits, entropy.Certificate(h, 2.0 ** eps_log2, "verify"), target)
        n = plan.samples_per_block
        expect_m = math.floor(n * h - 2.0 * (-eps_log2))
        report(plan.output_bits == expect_m
               and plan.bits_per_sample_effective >= target - 1e-9
               and plan.slack_bits >= -1e-9,
               f"leftover-hash h={h:<5g} eps=2^{eps_log2:g} "
               f"target={target:g}: N={n} m={plan.output_bits} "
               f"({plan.bits_per_sample_effective:.4f} bits/sample, "
               f"slack {plan.slack_bits:.4f} bits)")
    try:
        extractor.plan_extraction(8, entropy.Certificate(5.0, 2.0 ** -100, "verify"), 5.0)
        guarded = False
    except InfeasiblePlanError:
        guarded = True
    report(guarded, "infeasible-plan guard rejects target >= certified entropy")

    text = "\n".join(lines) + "\n"
    write_text_atomic(out / "verify_report.txt", text)
    print(text, end="")
    failed = [line for line in lines if line.startswith("FAIL")]
    if failed:
        raise SecurityModelViolation("; ".join(failed))
    print("verify: all checks passed")
    return 0


# every subcommand and the function that runs it; its docstring is the help
_COMMANDS = {
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "extract": cmd_extract,
    "test": cmd_test,
    "attack": cmd_attack,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="run configuration file (defaults are built in)")
    common.add_argument("--out", metavar="DIR",
                        help="artifact directory (overrides run.out_dir)")
    common.add_argument("--seed-file", metavar="PATH",
                        help="extractor seed bits (overrides extractor.seed_file)")
    common.add_argument("--rng-seed", metavar="UINT64", type=int,
                        help="global random seed (overrides run.rng_seed)")
    common.add_argument("--threads", metavar="N", type=int,
                        help="worker threads for simulate, extract and test; simulate "
                             "holds one block per worker (overrides run.threads)")
    parser = argparse.ArgumentParser(
        prog="sdiqrng",
        description="Simulator and post-processing toolkit for a vacuum-noise "
                    "quadrature random number generator.")
    parser.add_argument("--version", action="version", version=f"sdiqrng {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, fn in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=fn.__doc__, description=fn.__doc__)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides: dict[str, str] = {}
    if args.out is not None:
        overrides["run.out_dir"] = args.out
    if args.rng_seed is not None:
        overrides["run.rng_seed"] = str(args.rng_seed)
    if args.threads is not None:
        overrides["run.threads"] = str(args.threads)
    if args.seed_file is not None:
        overrides["extractor.seed_file"] = args.seed_file
    try:
        cfg = load_config(args.config, overrides=overrides)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"error (calibration): {exc}", file=sys.stderr)
        return 3
    except InfeasiblePlanError as exc:
        print(f"error (infeasible plan): {exc}", file=sys.stderr)
        return 4
    except SecurityModelViolation as exc:
        print(f"error (verification): {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        # a path no stage names itself; os.replace reports the artifact second
        path = exc.filename2 if exc.filename2 is not None else exc.filename
        detail = exc if path is None else f"{path}: {exc.strerror}"
        print(f"error (config): {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
