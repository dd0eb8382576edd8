"""Tests for the homodyne detector and ADC model.

The quantizer statistics are checked against an exact discrete oracle: the
code distribution of a rounded-and-saturated Gaussian computed from the
normal CDF, with the edge codes absorbing the tails.  The frozen golden
below was evaluated independently at high precision.
"""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from reference_notch import reference_notch
from sdiqrng.detector import (
    MeasurementConfig,
    RawSampleBlock,
    block_to_bytes,
    check_block,
    draw_phases,
    measure_pulses,
    quantize,
    read_block,
    vacuum_unit_resolution,
    write_block,
)
from sdiqrng import dsp, states
from sdiqrng.config import load_config
from sdiqrng.states import Vacuum

# variance of an 8-bit round-half-away + saturate quantizer applied to a
# centered Gaussian with sigma = 20 codes (sigma^2 + 1/12 minus a sliver
# of tail mass absorbed by the edge codes)
QUANTIZED_GAUSSIAN_VAR_SIGMA20 = 400.0833331889513

# sha256 of 10,000 chain-off pulses at seed 67 with electronic and excess
# noise on, as every version since the chain moved to the pulse rate draws them
CHAIN_OFF_SHA256 = "ff44ec104fe0ed3705b877d2dc1258eff4cb4336d8b3de5bda28f43060472080"


def oracle_quantized_gaussian_var(sigma_codes, bits):
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    k = np.arange(lo, hi + 1)
    upper = np.where(k == hi, np.inf, (k + 0.5) / sigma_codes)
    lower = np.where(k == lo, -np.inf, (k - 0.5) / sigma_codes)
    p = sps.norm.cdf(upper) - sps.norm.cdf(lower)
    mean = float(np.sum(k * p))
    return float(np.sum(k * k * p)) - mean ** 2


def test_adc_geometry():
    cfg = MeasurementConfig()
    assert cfg.adc_step == pytest.approx(0.625, rel=0, abs=0)
    assert (cfg.code_min, cfg.code_max) == (-128, 127)
    cfg12 = MeasurementConfig(adc_bits=12)
    assert cfg12.adc_step == pytest.approx(160.0 / 4096.0)
    assert (cfg12.code_min, cfg12.code_max) == (-2048, 2047)


def test_quantize_rounds_half_away_from_zero():
    cfg = MeasurementConfig()
    analog = cfg.adc_step * np.array([-1.5, -0.5, -0.4999, 0.0, 0.4999, 0.5,
                                      1.5, 2.5])
    codes, clipped = quantize(analog, cfg)
    np.testing.assert_array_equal(codes, [-2, -1, 0, 0, 0, 1, 2, 3])
    assert clipped == 0
    assert codes.dtype == np.int16
    # values already on the grid quantize back to their own codes
    grid = np.array([-128, -5, 0, 5, 127], dtype=np.int16)
    codes, clipped = quantize(grid.astype(float) * cfg.adc_step, cfg)
    np.testing.assert_array_equal(codes, grid)
    assert clipped == 0


def test_quantize_saturates_and_counts():
    cfg = MeasurementConfig()
    analog = cfg.adc_step * np.array([1000.0, -1000.0, 127.49, 127.5])
    codes, clipped = quantize(analog, cfg)
    np.testing.assert_array_equal(codes, [127, -128, 127, 127])
    assert clipped == 3  # 127.5 rounds to 128 before saturating


def one_shot_quantize(analog, config):
    """The quantizer as one formula over whole float64 copies of the input."""
    scaled = np.asarray(analog, dtype=float) / config.adc_step
    codes = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    clipped = int(np.count_nonzero((codes < config.code_min) | (codes > config.code_max)))
    return np.clip(codes, config.code_min, config.code_max).astype(np.int16), clipped


@pytest.mark.parametrize("size", [1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 3 * 2 ** 16 + 5])
def test_sliced_quantize_equals_one_shot_formula(size):
    # ties at +-0.5 of a step, values past both edge codes and on them, at
    # the ends of every slice and between them
    cfg = MeasurementConfig()
    rng = np.random.default_rng(size)
    special = np.array([0.5, -0.5, 1.5, -1.5, 126.5, -127.5, 127.5, -128.5, 127.4999,
                        -128.4999, 1e6, -1e6, 0.0, -0.0, 2.5, -2.5])
    steps = rng.normal(0.0, 60.0, size)
    steps[::7] = np.round(steps[::7]) + 0.5                  # ties throughout
    for at in (0, 2 ** 16 - 1, 2 ** 16, size - len(special)):
        if 0 <= at <= size - len(special):
            steps[at:at + len(special)] = special
    analog = steps * cfg.adc_step
    codes, clipped = quantize(analog, cfg)
    want, want_clipped = one_shot_quantize(analog, cfg)
    assert codes.dtype == np.int16
    assert np.array_equal(codes, want)
    assert clipped == want_clipped
    if size > len(special):
        assert {cfg.code_min, cfg.code_max} <= set(codes.tolist())
        assert clipped > 0
    # any real dtype is converted to float64 before the division: float32
    # values nearest the ties of a step that is no power of two round
    # differently when divided in float32
    odd = MeasurementConfig(adc_full_scale=100.1)
    near_ties = (np.arange(-130, 130) + 0.5) * odd.adc_step
    for cast in (np.resize(near_ties, size).astype(np.float32), steps.astype(np.int32)):
        got, want = quantize(cast, odd), one_shot_quantize(cast, odd)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_quantized_gaussian_variance_golden():
    oracle = oracle_quantized_gaussian_var(20.0, 8)
    assert oracle == pytest.approx(QUANTIZED_GAUSSIAN_VAR_SIGMA20, abs=1e-9)
    cfg = MeasurementConfig()
    rng = np.random.default_rng(7)
    codes, _ = quantize(rng.normal(0.0, 20.0 * cfg.adc_step, 1_000_000), cfg)
    assert np.var(codes) == pytest.approx(oracle, abs=2.0)


def measured_codes(state, cfg, count, seed):
    """ADC codes and clip count of ``count`` unfiltered pulses of ``state``."""
    return quantize(measure_pulses(state, cfg, count, np.random.default_rng(seed))[0],
                    cfg)


def test_measure_block_vacuum_code_variance():
    cfg = MeasurementConfig(lo_phase_policy="fixed", conversion_gain=136.0,
                            electronic_noise_var=0.0)
    codes, clipped = measured_codes(Vacuum(), cfg, 1_000_000, 3)
    sigma_codes = math.sqrt(cfg.conversion_gain * cfg.lo_power) / cfg.adc_step
    want = oracle_quantized_gaussian_var(sigma_codes, cfg.adc_bits)
    assert want == pytest.approx(cfg.conversion_gain / cfg.adc_step ** 2
                                 + 1.0 / 12.0, rel=1e-6)
    assert np.var(codes) == pytest.approx(want, rel=0.01)
    assert abs(np.mean(codes)) < 0.08
    assert clipped == 0


def test_electronic_noise_adds_to_analog_variance():
    cfg = MeasurementConfig(lo_phase_policy="fixed", conversion_gain=136.0,
                            electronic_noise_var=50.0)
    codes, _ = measured_codes(Vacuum(), cfg, 500_000, 13)
    sigma_codes = math.sqrt(cfg.conversion_gain + 50.0) / cfg.adc_step
    want = oracle_quantized_gaussian_var(sigma_codes, cfg.adc_bits)
    assert np.var(codes) == pytest.approx(want, rel=0.015)


def test_excess_noise_power_tracking_flag():
    base = dict(lo_phase_policy="fixed", lo_power=4.0,
                adc_bits=12, adc_full_scale=640.0, conversion_gain=136.0,
                electronic_noise_var=0.0, excess_noise_var=10.0)
    tracking = MeasurementConfig(excess_noise_tracks_power=True, **base)
    static = MeasurementConfig(excess_noise_tracks_power=False, **base)
    var_vac = 2.0 * 136.0 * 4.0 * 0.5
    for cfg, excess in ((tracking, 40.0), (static, 10.0)):
        codes, _ = measured_codes(Vacuum(), cfg, 500_000, 17)
        sigma_codes = math.sqrt(var_vac + excess) / cfg.adc_step
        want = oracle_quantized_gaussian_var(sigma_codes, cfg.adc_bits)
        assert np.var(codes) == pytest.approx(want, rel=0.01)


def test_vacuum_unit_resolution_formula():
    cfg = MeasurementConfig()
    delta = vacuum_unit_resolution(cfg.adc_step, 136.0, 1.0)
    assert delta == pytest.approx(0.625 / math.sqrt(272.0), rel=1e-14)
    # doubling the LO power shrinks the effective bin by sqrt(2)
    assert vacuum_unit_resolution(0.625, 136.0, 2.0) == pytest.approx(
        delta / math.sqrt(2.0), rel=1e-14)
    for bad in ((0.0, 1.0, 1.0), (0.625, -1.0, 1.0), (0.625, 1.0, 0.0)):
        with pytest.raises(ValueError):
            vacuum_unit_resolution(*bad)


def test_vacuum_codes_follow_analytic_bin_masses():
    """Dual route: histogram of measured codes vs erf-difference bin masses."""
    cfg = MeasurementConfig(lo_phase_policy="fixed", conversion_gain=136.0,
                            electronic_noise_var=0.0)
    codes, _ = measured_codes(Vacuum(), cfg, 200_000, 23)
    delta = vacuum_unit_resolution(cfg.adc_step, cfg.conversion_gain,
                                   cfg.lo_power)
    k = np.arange(cfg.code_min, cfg.code_max + 1)
    upper = np.where(k == cfg.code_max, np.inf, (k + 0.5) * delta)
    lower = np.where(k == cfg.code_min, -np.inf, (k - 0.5) * delta)
    masses = 0.5 * (np.vectorize(math.erf)(np.clip(upper, -40, 40))
                    - np.vectorize(math.erf)(np.clip(lower, -40, 40)))
    observed = np.bincount(codes - cfg.code_min, minlength=k.size)
    # merge codes into equal-probability groups so every cell is populated
    targets = np.arange(1, 40) / 40.0
    cuts = np.searchsorted(np.cumsum(masses), targets)
    groups = np.concatenate(([0], cuts, [k.size]))
    obs_g = np.add.reduceat(observed, groups[:-1])
    exp_g = np.add.reduceat(masses, groups[:-1]) * codes.size
    exp_g *= obs_g.sum() / exp_g.sum()
    assert sps.chisquare(obs_g, exp_g).pvalue > 0.001


def test_draw_phases_policies():
    rng = np.random.default_rng(29)
    assert np.all(draw_phases(MeasurementConfig(lo_phase_policy="fixed", lo_phase=0.7),
                              100, rng) == 0.7)
    uni = draw_phases(MeasurementConfig(lo_phase_policy="uniform"), 100_000,
                      np.random.default_rng(31))
    assert uni.min() >= 0.0 and uni.max() < 2.0 * math.pi
    assert sps.kstest(uni, sps.uniform(0, 2 * math.pi).cdf).pvalue > 0.001
    wrapped = draw_phases(MeasurementConfig(lo_phase_policy="wrapped", lo_phase=1.0,
                                            lo_phase_width=0.3),
                          100_000, np.random.default_rng(37))
    assert wrapped.min() >= 0.0 and wrapped.max() < 2.0 * math.pi
    z = np.exp(1j * wrapped).mean()
    assert np.angle(z) == pytest.approx(1.0, abs=0.01)
    assert math.sqrt(-2.0 * math.log(abs(z))) == pytest.approx(0.3, rel=0.02)


def test_measure_block_deterministic_per_seed():
    cfg = MeasurementConfig()
    a, _ = measured_codes(Vacuum(), cfg, 4096, 99)
    b, _ = measured_codes(Vacuum(), cfg, 4096, 99)
    c, _ = measured_codes(Vacuum(), cfg, 4096, 100)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        measure_pulses(Vacuum(), cfg, 0, np.random.default_rng(1))


def test_measure_pulses_without_chain_returns_one_stream_twice():
    cfg = MeasurementConfig(electronic_noise_var=2.0)
    raw, filtered = measure_pulses(Vacuum(), cfg, 4096, np.random.default_rng(5))
    assert raw is filtered
    assert raw.shape == (4096,)
    chain = load_config(None, overrides={"dsp.enabled": "false"}).dsp
    raw, filtered = measure_pulses(Vacuum(), cfg, 4096, np.random.default_rng(5),
                                   chain)
    assert raw is filtered


@pytest.mark.parametrize("notch", ["true", "false"])
def test_measure_pulses_chain_streams_have_count_samples(notch):
    cfg = load_config(None, overrides={
        "dsp.notch_enabled": notch, "dsp.notch_taps": "801",
        "dsp.modulation_freq": "24.5e6", "dsp.notch_cutoff": "24.495e6"})
    raw, filtered = measure_pulses(Vacuum(), cfg.detector, 3000,
                                   np.random.default_rng(3), cfg.dsp)
    assert raw.shape == filtered.shape == (3000,)
    assert np.all(np.isfinite(filtered))
    assert (raw is filtered) == (notch == "false")


def _full_rate_chain(cfg, count, rng, chain):
    """The oversampled chain built step by step from ``np.convolve``: a zero
    pulse matrix with the flat tops, white noise of the summed variance at
    the input rate, the full-rate low-pass, then one sample per pulse and
    the notch from its definition."""
    ratio = chain.oversample
    half = chain.lowpass_taps // 2
    pad_lp = -(-half // ratio)
    pad_notch = chain.notch_taps // 2 if chain.notch_enabled else 0
    n_sim = count + 2 * (pad_lp + pad_notch)
    theta = draw_phases(cfg, n_sim, rng)
    q = states.sample_quadrature(Vacuum(), theta, rng, size=n_sim)
    wave = q * math.sqrt(2.0 * cfg.conversion_gain * cfg.lo_power)
    width = max(1, int(round(ratio * chain.pulse_duty)))
    start = (ratio - width) // 2
    pulses = np.zeros((n_sim, ratio))
    pulses[:, start:start + width] = wave[:, None]
    wave = pulses.ravel()
    variance = cfg.electronic_noise_var + cfg.excess_noise_var
    if variance > 0:
        wave += rng.normal(0.0, math.sqrt(variance), wave.size)
    h = dsp.design_lowpass(ratio * cfg.pulse_rate, chain.lowpass_cutoff,
                           chain.lowpass_taps)
    # valid output i is centred on input sample i + half
    full = np.convolve(wave, h, "valid")
    offset = min(int(round(chain.sample_phase * ratio)), ratio - 1)
    first = pad_lp * ratio + offset - half
    per_pulse = full[first::ratio][:count + 2 * pad_notch]
    raw = per_pulse[pad_notch:pad_notch + count]
    if not chain.notch_enabled:
        return raw, raw
    return raw, reference_notch(per_pulse, cfg.pulse_rate, chain.modulation_freq,
                                chain.notch_cutoff, chain.notch_taps)


def _noise_law(cfg, chain):
    """Lag 0..2q covariances of the chain's per-pulse noise: the summed
    noise variance times sum_i h_i h_{i + k * oversample}, 0 beyond q."""
    h = dsp.design_lowpass(chain.oversample * cfg.pulse_rate, chain.lowpass_cutoff,
                           chain.lowpass_taps)
    r = np.array([np.dot(h[:h.size - k], h[k:])
                  for k in range(0, h.size, chain.oversample)])
    r *= cfg.electronic_noise_var + cfg.excess_noise_var
    return np.concatenate((r, np.zeros(r.size - 1)))


def _assert_noise_law(noise, gamma):
    """Every lag covariance of ``noise`` within four standard errors of
    ``gamma``; Bartlett's n var(c_k) = sum_j gamma_j^2 + gamma_{j+k}
    gamma_{j-k} is at most 2 sum_j gamma_j^2, with equality at lag 0."""
    n = noise.size
    sample = np.array([np.dot(noise[:n - k], noise[k:]) / n for k in range(gamma.size)])
    bound = 4.0 * math.sqrt(2.0 * (gamma[0] ** 2 + 2.0 * np.sum(gamma[1:] ** 2)) / n)
    assert np.all(np.abs(sample - gamma) < bound), (sample - gamma) / bound


def _quiet(cfg):
    """``cfg`` without electronic and excess noise."""
    return replace(cfg, electronic_noise_var=0.0, excess_noise_var=0.0)


@pytest.mark.parametrize("electronic,excess", [(2.0, 0.0), (0.0, 0.0), (2.0, 0.5)])
def test_measure_pulses_chain_equals_full_rate_reference(electronic, excess):
    # the noiseless streams equal the full-rate chain; the noise, which
    # both draw after the phases and quadratures, has the same law in both
    # (the notch is linear and gets the same per-pulse stream in both)
    cfg = load_config(None, overrides={
        "detector.electronic_noise_var": electronic,
        "detector.excess_noise_var": excess, "dsp.notch_taps": "801",
        "dsp.modulation_freq": "24.5e6", "dsp.notch_cutoff": "24.495e6"})
    det, chain = cfg.detector, cfg.dsp
    got = measure_pulses(Vacuum(), det, 5000, np.random.default_rng(41), chain)
    quiet = measure_pulses(Vacuum(), _quiet(det), 5000, np.random.default_rng(41), chain)
    ref = _full_rate_chain(det, 5000, np.random.default_rng(41), chain)
    ref_quiet = _full_rate_chain(_quiet(det), 5000, np.random.default_rng(41), chain)
    for a, b in zip(quiet, ref_quiet):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())
    if electronic + excess == 0:
        assert all(np.array_equal(a, b) for a, b in zip(got, quiet))
        return
    gamma = _noise_law(det, chain)
    _assert_noise_law(got[0] - quiet[0], gamma)
    _assert_noise_law(ref[0] - ref_quiet[0], gamma)


@pytest.mark.parametrize("overrides", [
    {},                                                    # the defaults
    {"dsp.oversample": "1", "dsp.lowpass_cutoff": "20e6"},
    {"dsp.oversample": "2", "dsp.lowpass_cutoff": "40e6"},
    {"dsp.pulse_duty": "1"},
    {"dsp.sample_phase": "0"},
    {"dsp.sample_phase": "0.75"}])
def test_noiseless_chain_equals_full_rate_reference(overrides):
    cfg = load_config(None, overrides={
        "detector.electronic_noise_var": "0", "dsp.notch_taps": "801", **overrides})
    for got, ref in zip(
            measure_pulses(Vacuum(), cfg.detector, 3000, np.random.default_rng(59), cfg.dsp),
            _full_rate_chain(cfg.detector, 3000, np.random.default_rng(59), cfg.dsp)):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("count", [1, 4001, 20_001])
@pytest.mark.parametrize("electronic", [2.0, 0.0])
@pytest.mark.parametrize("sample_phase", [0.0, 0.5])
@pytest.mark.parametrize("notch", [
    {"dsp.notch_taps": "801"},                             # at Nyquist
    {"dsp.notch_taps": "801", "dsp.modulation_freq": "24.5e6",
     "dsp.notch_cutoff": "24.495e6"},                      # below it
    {"dsp.notch_enabled": "false"}])
def test_chunked_measure_pulses_equals_whole_wave_chain(count, electronic,
                                                        sample_phase, notch):
    # count samples per stream, one stream object without the notch, the
    # noiseless part equal to the full-rate chain's and the noise of its law
    cfg = load_config(None, overrides={
        "detector.electronic_noise_var": electronic,
        "dsp.sample_phase": sample_phase, **notch})
    det, chain = cfg.detector, cfg.dsp
    got = measure_pulses(Vacuum(), det, count, np.random.default_rng(count), chain)
    quiet = measure_pulses(Vacuum(), _quiet(det), count, np.random.default_rng(count),
                           chain)
    ref = _full_rate_chain(_quiet(det), count, np.random.default_rng(count), chain)
    assert (got[0] is got[1]) == (not chain.notch_enabled)
    for a, b, c in zip(got, quiet, ref):
        assert a.shape == b.shape == (count,)
        np.testing.assert_allclose(b, c, rtol=0, atol=1e-12 * np.abs(c).max())
        if electronic == 0:
            assert np.array_equal(a, b)
    if electronic > 0 and count > 1:
        _assert_noise_law(got[0] - quiet[0], _noise_law(det, chain))


def test_measure_pulses_noise_law_at_a_million_pulses():
    # lag 0..q covariances of the generated noise, and 0 at lags q+1..2q
    cfg = load_config(None, overrides={"dsp.notch_enabled": "false"})
    det, chain = cfg.detector, cfg.dsp
    noisy, _ = measure_pulses(Vacuum(), det, 1_000_000, np.random.default_rng(61), chain)
    quiet, _ = measure_pulses(Vacuum(), _quiet(det), 1_000_000,
                              np.random.default_rng(61), chain)
    noisy -= quiet
    gamma = _noise_law(det, chain)
    assert gamma.size == 2 * 32 + 1
    _assert_noise_law(noisy, gamma)


def test_measure_pulses_chain_off_keeps_its_bytes():
    # with the chain off the draws are those of every earlier version:
    # phases, quadratures, then electronic and excess noise in turn
    cfg = load_config(None, overrides={"dsp.enabled": "false",
                                       "detector.excess_noise_var": "0.5"})
    raw, filtered = measure_pulses(Vacuum(), cfg.detector, 10_000,
                                   np.random.default_rng(67), cfg.dsp)
    assert raw is filtered
    assert hashlib.sha256(raw.tobytes()).hexdigest() == CHAIN_OFF_SHA256


def test_measure_pulses_never_holds_the_oversampled_wave():
    cfg = load_config(None)
    chain, count = cfg.dsp, 1_000_000
    pads = -(-(chain.lowpass_taps // 2) // chain.oversample) + chain.notch_taps // 2
    wave_bytes = (count + 2 * pads) * chain.oversample * 8
    tracemalloc.start()
    try:
        measure_pulses(Vacuum(), cfg.detector, count, np.random.default_rng(47), chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < wave_bytes, (peak, wave_bytes)


# the pulse-rate chain holds at most two float64 arrays of the simulated
# pulses at a time (quadratures and filtered samples, then filtered samples
# and normals, then the notch's input and output), plus a fixed workspace:
# the notch's transform blocks and, on a cold cache, the filter designs.
# Measured: 16.0 bytes per pulse plus 2.6 MB (3.3 MB cold) at 0.2M-3M pulses
PEAK_BYTES_PER_PULSE = 16
PEAK_WORKSPACE_BYTES = 4 * 2 ** 20


def test_measure_pulses_peak_memory_per_pulse():
    cfg = load_config(None)
    chain, count = cfg.dsp, 200_000
    n_sim = count + 2 * (-(-(chain.lowpass_taps // 2) // chain.oversample)
                         + chain.notch_taps // 2)
    tracemalloc.start()
    try:
        measure_pulses(Vacuum(), cfg.detector, count, np.random.default_rng(43), chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES_PER_PULSE * n_sim + PEAK_WORKSPACE_BYTES, peak - 16 * n_sim


def test_block_serialization_roundtrip(tmp_path):
    cfg = MeasurementConfig(lo_phase_policy="fixed")
    codes, clipped = measured_codes(Vacuum(), cfg, 1000, 41)
    block = RawSampleBlock(codes=codes, config=cfg, run_id="unit",
                           timestamp="2026-08-15T00:00:00Z", clipped=clipped)
    path = tmp_path / "block.bin"
    write_block(path, block)
    back = read_block(path, cfg)
    np.testing.assert_array_equal(back.codes, block.codes)
    assert back.run_id == "unit"
    assert back.timestamp == "2026-08-15T00:00:00Z"

    other = MeasurementConfig(lo_phase_policy="fixed", adc_full_scale=200.0)
    with pytest.raises(ValueError, match="hash"):
        read_block(path, other)

    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_block(bad, cfg)

    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(path.read_bytes()[:-17])
    with pytest.raises(ValueError):
        read_block(trunc, cfg)


def test_block_header_carries_clip_count(tmp_path):
    cfg = MeasurementConfig()
    codes = np.array([-128, 5, 127, 127, 0], dtype=np.int16)
    path = tmp_path / "clipped.bin"
    write_block(path, RawSampleBlock(codes=codes, config=cfg, clipped=3))
    data = path.read_bytes()
    assert data.split(b"\n")[1:5] == [b"2", b"bits=8", b"count=5", b"clipped=3"]
    assert read_block(path, cfg).clipped == 3

    for old, new, match in ((b"clipped=3", b"clipped=6", "clipped count 6"),
                            (b"clipped=3", b"clipped=-1", "clipped count -1"),
                            (b"\n2\n", b"\n1\n", "unsupported version"),
                            (b"count=5", b"count=x", "bad.bin: invalid literal")):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data.replace(old, new, 1))
        with pytest.raises(ValueError, match=match):
            read_block(bad, cfg)


def test_check_block_finds_the_faults_read_block_finds(tmp_path):
    for bits in (8, 12):
        cfg = MeasurementConfig(adc_bits=bits)
        data = block_to_bytes(RawSampleBlock(
            codes=np.array([-5, 0, 3, 7], dtype=np.int16), config=cfg, clipped=1))
        path = tmp_path / "block.bin"
        path.write_bytes(data)
        check_block(path, cfg)
        for bad in (data[:-1], data + b"\0", data[:-2], data[:30],
                    data.replace(b"clipped=1", b"clipped=9", 1),
                    data.replace(b"---", b"--x", 1)):
            path.write_bytes(bad)
            with pytest.raises(ValueError) as checked:
                check_block(path, cfg)
            with pytest.raises(ValueError) as read:
                read_block(path, cfg)
            assert str(checked.value) == str(read.value)
            assert str(checked.value).startswith(f"{path}: ")
        path.write_bytes(data[:-2])
        with pytest.raises(ValueError, match="payload holds"):
            check_block(path, cfg)


def test_wide_codes_use_two_byte_payload(tmp_path):
    cfg = MeasurementConfig(adc_bits=12)
    codes = np.array([-2048, -1, 0, 1, 2047], dtype=np.int16)
    block = RawSampleBlock(codes=codes, config=cfg)
    data = block_to_bytes(block)
    header_len = len(data) - 2 * codes.size
    assert data[:13] == b"SDIQRNG-BLOCK"
    np.testing.assert_array_equal(
        np.frombuffer(data[header_len:], dtype="<i2"), codes)
    path = tmp_path / "wide.bin"
    write_block(path, block)
    np.testing.assert_array_equal(read_block(path, cfg).codes, codes)


def test_block_validation():
    cfg = MeasurementConfig()
    with pytest.raises(ValueError):
        RawSampleBlock(codes=np.array([], dtype=np.int16), config=cfg)
    with pytest.raises(ValueError):
        RawSampleBlock(codes=np.array([300], dtype=np.int16), config=cfg)
    with pytest.raises(ValueError):
        RawSampleBlock(codes=np.array([0], dtype=np.int16), config=cfg,
                       clipped=-1)


def test_config_validation_and_hash():
    for kwargs in (dict(lo_power=0.0), dict(pulse_rate=-1.0),
                   dict(adc_bits=1), dict(adc_bits=17),
                   dict(adc_full_scale=0.0), dict(electronic_noise_var=-1.0),
                   dict(conversion_gain=0.0), dict(lo_phase_policy="chaotic"),
                   dict(lo_phase_policy="wrapped", lo_phase_width=-0.1)):
        with pytest.raises(ValueError):
            MeasurementConfig(**kwargs)
    a = MeasurementConfig()
    b = MeasurementConfig()
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != MeasurementConfig(lo_power=2.0).content_hash()
    assert (MeasurementConfig(lo_phase_policy="fixed").content_hash()
            != a.content_hash())
