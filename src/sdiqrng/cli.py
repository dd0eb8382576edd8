"""Command-line interface: end-to-end runs of the simulator and toolkit.

Subcommands::

    sdiqrng simulate   write raw and filtered sample blocks plus diagnostics
    sdiqrng calibrate  sweep LO power on vacuum, fit the line, log the bound
    sdiqrng extract    hash simulated blocks into near-uniform output bits
    sdiqrng test       run the randomness battery on extracted bits
    sdiqrng attack     Monte-Carlo eavesdropper scenarios
    sdiqrng verify     executable checks of the security model's mathematics

Exit codes: 0 success, 2 configuration error, 3 calibration failure or
stale calibration, 4 infeasible extraction plan, 5 verification failure.

All artifact writes are atomic (temp file plus rename), and all randomness
derives from ``run.rng_seed`` through named substreams, so a command
repeated with the same config and seed reproduces its outputs byte for
byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, attacklab, calibration, detector, dsp, entropy, extractor, states
from ._io import iso_utc, write_bytes_atomic, write_csv, write_report, write_text_atomic
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


def _erf(x: np.ndarray) -> np.ndarray:
    """``math.erf`` elementwise: the one erf the certificate uses."""
    return np.fromiter(map(math.erf, x.tolist()), dtype=float, count=x.size)


def _write_autocorrelation_csv(path: Path, codes: np.ndarray, max_lag: int) -> None:
    report = dsp.autocorrelation(codes.astype(float), max_lag)
    write_csv(path, ["autocorrelation of the filtered per-pulse stream",
                     f"n_samples={report.n_samples} ci95={report.ci95!r} "
                     f"fraction_outside_ci={report.fraction_outside_ci!r}"],
              ["lag", "coefficient"], enumerate(report.coefficients.tolist()))


def _write_histogram_csv(path: Path, codes: np.ndarray,
                         config: detector.MeasurementConfig) -> None:
    counts = np.bincount(codes.astype(np.int64) - config.code_min,
                         minlength=config.code_max - config.code_min + 1)
    sigma_codes = float(np.std(codes.astype(float)))
    edges = np.arange(config.code_min, config.code_max + 2) - 0.5
    if sigma_codes > 0:
        cdf = 0.5 * (1.0 + _erf(edges / (sigma_codes * math.sqrt(2.0))))
        reference = codes.size * np.diff(cdf)
    else:
        reference = np.zeros(counts.size)
    write_csv(path, ["raw ADC code histogram against a Gaussian of the measured width",
                     f"n_samples={codes.size} sigma_codes={sigma_codes!r}"],
              ["code", "count", "gaussian_reference"],
              zip(range(config.code_min, config.code_max + 1), counts.tolist(),
                  reference.tolist()))


def cmd_simulate(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    blocks_dir = _make_dir(out / "blocks")
    det = cfg.detector
    ts = iso_utc(cfg.run.timestamp)
    run_id = f"{cfg.run.rng_seed:016x}"

    def write(name: str, b: int, analog: np.ndarray) -> tuple[np.ndarray, int]:
        codes, clipped = detector.quantize(analog, det)
        detector.write_block(blocks_dir / f"{name}_{b:04d}.bin",
                             detector.RawSampleBlock(
                                 codes=codes, config=det, run_id=run_id,
                                 timestamp=ts, clipped=clipped))
        return codes, clipped

    autocorr_codes: list[np.ndarray] = []
    autocorr_needed = cfg.dsp.autocorr_samples
    raw_hist_codes: list[np.ndarray] = []
    total_clipped = 0
    for b in range(cfg.simulate.blocks):
        rng = substream(cfg.run.rng_seed, f"simulate-{b}")
        raw, filtered = detector.measure_pulses(cfg.source, det, cfg.simulate.pulses,
                                                rng, cfg.dsp)
        raw_codes, clipped = write("raw", b, raw)
        codes = raw_codes
        if cfg.dsp.enabled:
            codes, clipped = write("filtered", b, filtered)
        total_clipped += clipped
        raw_hist_codes.append(raw_codes)
        if sum(c.size for c in autocorr_codes) < autocorr_needed:
            autocorr_codes.append(codes)

    total = cfg.simulate.blocks * cfg.simulate.pulses
    ac = np.concatenate(autocorr_codes)[:autocorr_needed]
    if ac.size > 10 * cfg.dsp.autocorr_max_lag:
        _write_autocorrelation_csv(out / "autocorrelation.csv", ac,
                                   cfg.dsp.autocorr_max_lag)
    else:
        print(f"note: only {ac.size} samples simulated, skipping the "
              f"{cfg.dsp.autocorr_max_lag}-lag autocorrelation diagnostic")
    _write_histogram_csv(out / "histogram_raw_vs_vacuum.csv",
                         np.concatenate(raw_hist_codes), det)
    print(f"simulate: {cfg.simulate.blocks} block(s) x {cfg.simulate.pulses} pulses "
          f"-> {blocks_dir}")
    print(f"simulate: {total_clipped} of {total} samples clipped")
    return 0


def cmd_calibrate(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    det = cfg.detector
    cs = cfg.calibration
    points = []
    for i, power in enumerate(cs.powers):
        rng = substream(cfg.run.rng_seed, f"calibrate-{i}")
        det_p = replace(det, lo_power=power)
        _, analog = detector.measure_pulses(states.Vacuum(), det_p,
                                            cs.samples_per_point, rng, cfg.dsp)
        codes, _ = detector.quantize(analog, det_p)
        variance = float(np.var(codes.astype(float) * det.adc_step))
        points.append(calibration.CalibrationPoint(
            power=power, variance=variance, n_samples=cs.samples_per_point))

    result = calibration.fit_calibration(
        points, det.adc_step, operating_power=det.lo_power, settings=cs,
        timestamp=cfg.run.timestamp)
    result = replace(result, fingerprint=calibration.fingerprint(det, cfg.dsp, cs))
    calibration.append_log(out / "calibration.csv", result)

    bound = entropy.vacuum_min_entropy(result.delta_conservative)
    write_report(out / "entropy_bound.txt", [
        ("timestamp", iso_utc(result.timestamp)),
        ("gradient", f"{result.gradient!r} +- {result.gradient_stderr!r}"),
        ("intercept", f"{result.intercept!r} +- {result.intercept_stderr!r}"),
        ("r_squared", result.r_squared),
        ("operating_power", result.operating_power),
        ("adc_step", result.adc_step),
        ("delta_vacuum_units", result.delta),
        ("delta_conservative", result.delta_conservative),
        ("guessing_probability", bound.guessing_probability),
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


def cmd_extract(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    det = cfg.detector
    es = cfg.extractor
    blocks_dir = out / "blocks"
    paths = sorted(blocks_dir.glob("filtered_*.bin")) or sorted(
        blocks_dir.glob("raw_*.bin"))
    if not paths:
        raise ConfigError(f"no sample blocks under {blocks_dir}; run simulate first")
    try:
        blocks = [detector.read_block(p, det) for p in paths]
    except ValueError as exc:
        raise ConfigError(f"sample block {exc}") from None

    if es.h_min_override is not None:
        h_min, certified_by = es.h_min_override, "h_min_override"
    else:
        fit = calibration.current_calibration(
            calibration.read_log(out / "calibration.csv"), cfg.run.timestamp,
            det, cfg.dsp, cfg.calibration)
        h_min = fit.h_min_bits
        certified_by = f"calibration {iso_utc(fit.timestamp)} {fit.fingerprint}"

    epsilon = 2.0 ** es.epsilon_log2
    try:
        plan = extractor.plan_extraction(det.adc_bits, h_min, epsilon,
                                         es.target_bits_per_sample)
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
        extractor.write_seed_file(out / "toeplitz.seed", seed)

    packed, report = extractor.extract_stream(blocks, plan, seed,
                                              threads=cfg.run.threads)
    write_bytes_atomic(out / "output.bits", packed.tobytes())
    write_report(out / "accounting.txt", [
        ("certified_by", certified_by),
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
        ("bits_per_sample_effective", report.bits_per_sample_effective),
        ("h_min_per_sample", report.h_min_per_sample),
        ("epsilon", report.epsilon),
        ("seed_provenance", report.seed_provenance),
        ("pulse_rate_hz", report.pulse_rate),
        ("equivalent_rate_bits_per_s", report.equivalent_rate_bits_per_s),
        ("clipped_samples", report.clipped_samples),
        ("fft_rounding_residual_max", report.fft_rounding_residual_max),
    ])
    print(f"extract: {report.output_bits} bits from {report.samples_used} samples "
          f"({report.bits_per_sample_effective:.4f} bits/sample)")
    print(f"extract: equivalent rate "
          f"{report.equivalent_rate_bits_per_s / 1e6:.2f} Mbit/s at "
          f"{report.pulse_rate / 1e6:.0f} MHz pulse rate")
    return 0


def cmd_test(cfg: RunConfig) -> int:
    # stats loads scipy.special; imported here so that no other stage pays for it
    from . import stats as battery

    out = _out_dir(cfg)
    bits_path = out / "output.bits"
    if not bits_path.exists():
        raise ConfigError(f"no extracted bitstream at {bits_path}; run extract first")
    bits = np.unpackbits(np.frombuffer(bits_path.read_bytes(), dtype=np.uint8))
    try:
        report = battery.run_battery(bits, cfg.stats.string_bits,
                                     alpha=cfg.stats.alpha)
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
    out = _out_dir(cfg)
    a = cfg.attack
    try:
        scenario = attacklab.AttackScenario(r=a.r, delta=a.delta, lo_mode=a.lo_mode,
                                            n_rounds=a.rounds, displaced=a.displaced)
    except ValueError as exc:
        raise ConfigError(f"attack: {exc}") from None
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

    bins = states.bin_index(report.samples, a.delta)
    lo, hi = int(bins.min()), int(bins.max())
    counts = np.bincount(bins - lo, minlength=hi - lo + 1)
    k = np.arange(lo, hi + 1)
    vacuum = 0.5 * (_erf((k + 0.5) * a.delta) - _erf((k - 0.5) * a.delta))
    write_csv(out / "attack_histogram.csv",
              ["attack outcome histogram against the exact vacuum bin masses",
               f"lo_mode={a.lo_mode} r={a.r!r} delta={a.delta!r} rounds={a.rounds}"],
              ["bin", "count", "vacuum_expected"],
              zip(k.tolist(), counts.tolist(), (scenario.n_rounds * vacuum).tolist()))

    print(f"attack: lo_mode={a.lo_mode} variance {report.measured_variance:.4f}, "
          f"KS p {report.mimicry_pvalue:.4g}")
    print(f"attack: eve guess rate {report.eve_guess_rate:.4f} vs vacuum bound "
          f"{report.vacuum_guess_bound:.4f}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    v = cfg.verify
    lines: list[str] = []
    failures: list[str] = []

    # photon-number bound scan: every Fock input must guess no better than vacuum
    fock = [states.Fock(n) for n in range(1, v.fock_n_max + 1)]
    for delta in v.deltas:
        try:
            rep = entropy.sdi_bound_check(fock, delta, nodes=200)
            worst = rep.worst_margin
        except SecurityModelViolation as exc:
            failures.append(f"bound-scan delta={delta:g}: {exc}")
            lines.append(f"FAIL bound-scan delta={delta:g}: {exc}")
            continue
        status = "ok" if worst > 0.0 else "FAIL"
        if worst <= 0.0:
            failures.append(f"bound-scan delta={delta:g}: margin {worst!r} not positive")
        lines.append(f"{status}   bound-scan delta={delta:<6g} photon numbers "
                     f"1..{v.fock_n_max}: worst margin {worst:.6e}")

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
    if max_td < 1e-10:
        lines.append(f"ok   projector-order equivalence on {v.equivalence_states} "
                     f"random states: max trace distance {max_td:.3e}")
    else:
        failures.append(f"equivalence: max trace distance {max_td!r}")
        lines.append(f"FAIL projector-order equivalence: max trace distance {max_td!r}")

    # leftover-hash bookkeeping on representative operating points
    combos = [(8, 5.53, -100.0, 5.4), (8, 8.0, -100.0, 7.9), (8, 6.0, -64.0, 5.0)]
    for bits, h, eps_log2, target in combos:
        plan = extractor.plan_extraction(bits, h, 2.0 ** eps_log2, target)
        n = plan.samples_per_block
        expect_m = math.floor(n * h - 2.0 * (-eps_log2))
        ok = (plan.output_bits == expect_m
              and plan.bits_per_sample_effective >= target - 1e-9
              and plan.slack_bits >= -1e-9)
        status = "ok" if ok else "FAIL"
        if not ok:
            failures.append(f"leftover-hash h={h}: N={n} m={plan.output_bits}")
        lines.append(f"{status}   leftover-hash h={h:<5g} eps=2^{eps_log2:g} "
                     f"target={target:g}: N={n} m={plan.output_bits} "
                     f"({plan.bits_per_sample_effective:.4f} bits/sample, "
                     f"slack {plan.slack_bits:.4f} bits)")
    try:
        extractor.plan_extraction(8, 5.0, 2.0 ** -100, 5.0)
        failures.append("infeasible-plan guard did not trigger")
        lines.append("FAIL infeasible-plan guard did not trigger")
    except InfeasiblePlanError:
        lines.append("ok   infeasible-plan guard rejects target >= certified entropy")

    text = "\n".join(lines) + "\n"
    write_text_atomic(out / "verify_report.txt", text)
    print(text, end="")
    if failures:
        raise SecurityModelViolation("; ".join(failures))
    print("verify: all checks passed")
    return 0


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
                        help="worker threads for extraction (overrides run.threads)")
    parser = argparse.ArgumentParser(
        prog="sdiqrng",
        description="Simulator and post-processing toolkit for a vacuum-noise "
                    "quadrature random number generator.")
    parser.add_argument("--version", action="version", version=f"sdiqrng {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    helps = {
        "simulate": "generate raw and filtered sample blocks plus diagnostics",
        "calibrate": "vacuum power sweep, line fit and entropy bound",
        "extract": "Toeplitz-hash simulated blocks into output bits",
        "test": "randomness battery on the extracted bitstream",
        "attack": "Monte-Carlo eavesdropper scenarios",
        "verify": "executable checks of the security-model mathematics",
    }
    for name, fn in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=helps[name],
                       description=fn.__doc__)
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


if __name__ == "__main__":
    sys.exit(main())
