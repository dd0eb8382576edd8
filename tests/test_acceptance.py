"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single ``ACCEPTANCE n: PASS|FAIL`` line directly to the
terminal (bypassing capture) and then enforces the criterion's tolerances
and runtime budget with plain assertions.
"""

import hashlib
import math
import time

import numpy as np
from scipy import integrate, optimize, special

from sdiqrng import attacklab, calibration, detector, dsp, entropy, extractor, states
from sdiqrng import stats as battery
from sdiqrng.cli import main
from sdiqrng.config import load_config, substream

from naive_toeplitz import toeplitz_naive


# the certificate of the golden operating point: 5.53 bits per sample, 2^-100
GOLDEN_CERTIFICATE = entropy.Certificate(5.53, 2.0 ** -100, "h_min_override")


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_1_entropy_golden_point(capsys):
    t0 = time.perf_counter()
    # independent inversion of the closed form -log2 erf(delta/2) at 5.53 bits
    delta = optimize.brentq(
        lambda d: -math.log2(special.erf(d / 2.0)) - 5.53, 1e-6, 1.0,
        xtol=1e-15, rtol=8.9e-16)
    h = -math.log2(entropy.vacuum_guessing_probability(delta))
    plan = extractor.plan_extraction(8, GOLDEN_CERTIFICATE, 5.4)
    elapsed = time.perf_counter() - t0
    ok = (abs(h - 5.53) <= 0.005
          and plan.bits_per_sample_effective >= 5.4
          and elapsed < 1.0)
    announce(capsys, 1, ok,
             f"h={h:.6f} bits at delta={delta:.8f}, plan "
             f"{plan.output_bits}/{plan.samples_per_block} = "
             f"{plan.bits_per_sample_effective:.4f} bits/sample, {elapsed:.2f}s")
    assert abs(h - 5.53) <= 0.005
    assert plan.bits_per_sample_effective >= 5.4
    assert elapsed < 1.0


def test_acceptance_2_rate_identity(capsys):
    t0 = time.perf_counter()
    plan = extractor.plan_extraction(8, GOLDEN_CERTIFICATE, 5.4)
    rate = entropy.equivalent_bit_rate(50e6, plan.bits_per_sample_effective)
    elapsed = time.perf_counter() - t0
    ok = rate >= 270e6 and elapsed < 1.0
    announce(capsys, 2, ok, f"50 MHz x {plan.bits_per_sample_effective:.4f} "
                            f"bits/sample = {rate / 1e6:.2f} Mbit/s, {elapsed:.2f}s")
    assert rate >= 270e6
    assert elapsed < 1.0


def oracle_fock_pdf(n, q):
    q = np.asarray(q, dtype=float)
    log_norm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1)) \
        - 0.25 * math.log(math.pi)
    h = special.eval_hermite(n, q)
    return (np.exp(log_norm - 0.5 * q * q) * h) ** 2


def oracle_fock_max_bin(n, delta):
    """Largest bin mass of the photon-number density by adaptive quadrature,
    searching bins around the density's global maximum."""
    grid = np.linspace(0.0, math.sqrt(2.0 * n + 1.0) + 5.0, 20001)
    k_peak = int(round(grid[np.argmax(oracle_fock_pdf(n, grid))] / delta))
    best = 0.0
    for k in range(max(0, k_peak - 25), k_peak + 26):
        # subdivide wide bins so the oscillatory high-n density integrates
        # to well below the 1e-10 comparison budget
        edges = np.linspace((k - 0.5) * delta, (k + 0.5) * delta, 9)
        mass = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            piece, err = integrate.quad(
                lambda x: float(oracle_fock_pdf(n, x)), lo, hi,
                epsabs=1e-14, limit=200)
            assert err < 2e-12
            mass += piece
        best = max(best, mass)
    return best


def test_acceptance_3_photon_number_bound_scan(capsys):
    t0 = time.perf_counter()
    sup = entropy.sdi_bound_check(20)
    deltas = (0.01, 0.05, 0.1, 0.5, 1.0)
    worst = min(math.erf(delta / 2.0) - delta * sup for delta in deltas)
    # delta * S against the best bin of an independent adaptive oracle
    dominated = all(oracle_fock_max_bin(n, delta) <= delta * sup
                    for n, delta in ((1, 0.01), (7, 0.1), (20, 1.0)))
    # S against an independent sup of the densities, within the stated
    # margin (h/2) 2 pi**-1/2 (sqrt(n/2) + sqrt((n+1)/2)) at n = 20
    h = entropy._SUP_GRID_STEP
    margin = h / math.sqrt(math.pi) * (math.sqrt(10.0) + math.sqrt(10.5))
    q = np.linspace(0.0, math.sqrt(41.0) + 5.0, 400001)
    excess = sup - max(float(np.max(oracle_fock_pdf(n, q))) for n in range(1, 21))
    elapsed = time.perf_counter() - t0
    ok = worst > 0.0 and dominated and 0.0 <= excess <= margin and elapsed < 60.0
    announce(capsys, 3, ok,
             f"n=1..20, 5 bin widths: S {sup:.6f}, worst margin {worst:.3e}, "
             f"S above the oracle sup by {excess:.1e}, {elapsed:.1f}s")
    assert worst > 0.0
    assert dominated
    assert 0.0 <= excess <= margin
    assert elapsed < 60.0


def test_acceptance_4_projection_order_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    max_td = 0.0
    for _ in range(100):
        dim_e = int(rng.integers(2, 9))
        dim_a = int(rng.integers(2, 9))
        state = attacklab.random_pure_bipartite(dim_e, dim_a, rng)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        delta = float(rng.uniform(0.05, 0.8))
        k = int(rng.integers(-3, 4))
        td = attacklab.trace_distance(
            attacklab.eve_reduced_path_I(state, theta, delta, k),
            attacklab.eve_reduced_path_II(state, theta, delta, k))
        max_td = max(max_td, td)
    elapsed = time.perf_counter() - t0
    ok = max_td < 1e-10 and elapsed < 300.0
    announce(capsys, 4, ok,
             f"100 random bipartite states, dims <= 8: max trace distance "
             f"{max_td:.2e}, {elapsed:.1f}s")
    assert max_td < 1e-10
    assert elapsed < 300.0


def test_acceptance_5_attack_discrimination(capsys):
    t0 = time.perf_counter()
    fixed = attacklab.AttackScenario(r=1.5, delta=0.1, lo_mode="fixed",
                                     rounds=10 ** 6, displaced=True)
    rep_fixed = attacklab.run_attack(fixed, substream(20260815, "acceptance-5f"))
    uniform = attacklab.AttackScenario(r=1.5, delta=0.1, lo_mode="uniform",
                                       rounds=10 ** 6, displaced=False)
    rep_uni = attacklab.run_attack(uniform, substream(20260815, "acceptance-5u"))
    elapsed = time.perf_counter() - t0

    ks_ok = rep_fixed.mimicry_pvalue > 0.001
    ratio = rep_fixed.eve_guess_rate / rep_fixed.vacuum_guess_bound
    guess_ok = rep_fixed.eve_guess_rate >= 10.0 * rep_fixed.vacuum_guess_bound
    var_target = math.cosh(3.0) / 2.0
    var_ok = abs(rep_uni.measured_variance - var_target) <= 0.02 * var_target
    ok = ks_ok and guess_ok and var_ok and elapsed < 120.0
    announce(capsys, 5, ok,
             f"fixed LO: KS p={rep_fixed.mimicry_pvalue:.3f}, eve/vacuum "
             f"guess ratio {ratio:.2f} (need >= 10); uniform LO variance "
             f"{rep_uni.measured_variance:.4f} vs cosh(3)/2={var_target:.4f}, "
             f"{elapsed:.1f}s")
    assert ks_ok
    assert var_ok
    assert elapsed < 120.0
    # the exact guessing probability of the optimal fixed-LO strategy at
    # r=1.5, delta=0.1 is 0.2447 against a vacuum bound of 0.0564: a 4.3x
    # advantage. a 10x separation is not attainable at this operating
    # point, so this assertion documents the shortfall honestly.
    assert guess_ok, (
        f"eve guess rate {rep_fixed.eve_guess_rate:.4f} is only {ratio:.2f}x "
        f"the vacuum bound {rep_fixed.vacuum_guess_bound:.4f}, not 10x")


def test_acceptance_6_calibration_recovery(capsys):
    t0 = time.perf_counter()
    gain = 50.0
    intercept = 3.0
    config = detector.MeasurementConfig(
        lo_phase_policy="uniform", lo_power=1.0,
        pulse_rate=50e6, adc_bits=8, adc_full_scale=160.0,
        electronic_noise_var=intercept, excess_noise_var=0.0,
        excess_noise_tracks_power=False, conversion_gain=gain)
    points = []
    for i, power in enumerate((0.25, 0.5, 1.0, 1.5, 2.0)):
        rng = substream(20260815, f"acceptance-6-{i}")
        cfg_p = detector.MeasurementConfig(
            lo_phase_policy=config.lo_phase_policy, lo_power=power,
            pulse_rate=config.pulse_rate, adc_bits=config.adc_bits,
            adc_full_scale=config.adc_full_scale,
            electronic_noise_var=config.electronic_noise_var,
            excess_noise_var=0.0, excess_noise_tracks_power=False,
            conversion_gain=gain)
        codes, _ = detector.quantize(
            detector.measure_pulses(states.Vacuum(), cfg_p, 10 ** 6, rng)[0], cfg_p)
        variance = float(np.var(codes.astype(float) * config.adc_step))
        points.append(calibration.CalibrationPoint(
            power=power, variance=variance, n_samples=10 ** 6))
    result = calibration.fit_calibration(points, config.adc_step,
                                         operating_power=1.0)
    delta_closed = detector.vacuum_unit_resolution(config.adc_step, gain, 1.0)
    elapsed = time.perf_counter() - t0

    gain_err = abs(result.gradient / gain - 1.0)
    int_err = abs(result.intercept / intercept - 1.0)
    delta_err = abs(result.delta / delta_closed - 1.0)
    ok = (gain_err < 0.02 and int_err < 0.05 and delta_err < 0.01
          and elapsed < 120.0)
    announce(capsys, 6, ok,
             f"gradient {result.gradient:.3f} ({gain_err * 100:.2f}% off 50), "
             f"intercept {result.intercept:.3f} ({int_err * 100:.2f}% off 3), "
             f"delta {result.delta:.6f} ({delta_err * 100:.2f}% off closed "
             f"form), {elapsed:.1f}s")
    assert gain_err < 0.02
    assert int_err < 0.05
    assert delta_err < 0.01
    assert elapsed < 120.0


def test_acceptance_7_extractor_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    mismatches = 0
    biggest = 0
    for i in range(1000):
        if i < 5:
            n = 1 << 14
            m = int(n * 5.53 / 8)
        else:
            n = max(2, int(2 ** rng.uniform(1.0, 14.0)))
            m = int(rng.integers(1, n + 1))
        biggest = max(biggest, n)
        x = rng.integers(0, 2, n).astype(np.uint8)
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        fast = extractor.toeplitz_hash(x, extractor.ToeplitzSeed(seed, "acceptance-7"), m)
        naive = toeplitz_naive(x, seed, m)
        if not np.array_equal(fast, naive):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and biggest == 1 << 14 and elapsed < 120.0
    announce(capsys, 7, ok,
             f"1000 random instances up to n=2^14: {mismatches} mismatches, "
             f"{elapsed:.1f}s")
    assert mismatches == 0
    assert biggest == 1 << 14
    assert elapsed < 120.0


def test_acceptance_8_end_to_end_statistics(capsys):
    t0 = time.perf_counter()
    cfg = load_config(None)
    plan = extractor.plan_extraction(8, GOLDEN_CERTIFICATE, 5.4)
    blocks_needed = -(-10_000_000 // plan.output_bits)
    pulses = blocks_needed * plan.samples_per_block

    rng = substream(2026, "acceptance-8")
    _, filtered = detector.measure_pulses(cfg.source, cfg.detector, pulses, rng,
                                          cfg.dsp)
    codes, clipped = detector.quantize(filtered, cfg.detector)
    block = detector.RawSampleBlock(codes=codes, config=cfg.detector,
                                    run_id="acceptance-8", timestamp="",
                                    clipped=clipped)
    seed = extractor.test_prng_seed(plan.seed_bits, 99)
    packed, report = extractor.extract_stream([block], plan, seed)
    battery_report = battery.run_battery(packed, report.output_bits, 100_000)

    ac = dsp.autocorrelation(codes[:1_000_000].astype(float), 400)
    elapsed = time.perf_counter() - t0

    n_strings_ok = battery_report.n_strings >= 100
    battery_ok = battery_report.all_passed and not battery_report.skipped
    ac_ok = ac.fraction_outside_ci <= 0.10
    ok = n_strings_ok and battery_ok and ac_ok and elapsed < 600.0
    announce(capsys, 8, ok,
             f"{battery_report.n_strings} strings x 100000 bits: battery "
             f"{'pass' if battery_ok else 'FAIL'}; autocorrelation "
             f"{ac.fraction_outside_ci * 100:.1f}% of lags 1..400 outside the "
             f"95% CI at 10^6 samples, {elapsed:.1f}s")
    assert n_strings_ok
    assert battery_ok, battery_report.to_text()
    assert ac_ok
    assert elapsed < 600.0


REPRO_CONFIG = """\
[run]
rng_seed = 11
timestamp = 1786752000.0

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


def _tree_digests(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def test_acceptance_9_reproducibility(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(REPRO_CONFIG)
    trees = []
    for run in ("first", "second"):
        out = tmp_path / run
        for command in ("simulate", "calibrate", "extract", "test", "attack",
                        "verify"):
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, f"{command} exited {code} on {run} run"
        trees.append(_tree_digests(out))
    elapsed = time.perf_counter() - t0
    same = trees[0] == trees[1]
    ok = same and len(trees[0]) >= 12
    announce(capsys, 9, ok,
             f"two full runs, {len(trees[0])} artifacts each: "
             f"{'byte-identical' if same else 'DIFFER'}, {elapsed:.1f}s")
    assert same
    assert len(trees[0]) >= 12
