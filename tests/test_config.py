"""Tests for config parsing, validation and the substream derivation."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from sdiqrng import attacklab, calibration, cli, config, detector, states
from sdiqrng.config import load_config, substream
from sdiqrng.exceptions import ConfigError


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_defaults_load_without_a_file():
    cfg = load_config(None)
    assert cfg.run.rng_seed == 20260815
    assert cfg.run.threads == 1
    assert isinstance(cfg.source, states.Vacuum)
    assert cfg.detector.lo_phase_policy == "uniform"
    assert cfg.detector.adc_bits == 8
    assert cfg.detector.adc_full_scale == 160.0
    assert cfg.detector.adc_step == pytest.approx(0.625, rel=1e-15)
    assert cfg.dsp.oversample == 8
    assert cfg.dsp.lowpass_taps == 257
    assert cfg.extractor.epsilon_log2 == -100.0
    assert cfg.extractor.target_bits_per_sample == 5.4
    assert cfg.extractor.h_min_override is None
    assert cfg.extractor.seed_file is None
    assert cfg.stats.string_bits == 100000
    assert cfg.calibration.powers == (0.25, 0.5, 1.0, 1.5, 2.0)
    assert cfg.attack.lo_mode == "fixed"
    assert cfg.verify.deltas == (0.01, 0.05, 0.1, 0.5, 1.0)


def test_file_overrides_defaults(tmp_path):
    path = write_cfg(tmp_path, """
[run]
rng_seed = 42
threads = 3
[source]
kind = fock
fock_n = 2
[detector]
adc_bits = 12
adc_full_scale = 640.0
lo_phase_policy = fixed
lo_phase = 0.25
[extractor]
h_min_override = 5.53
""")
    cfg = load_config(path)
    assert cfg.run.rng_seed == 42
    assert cfg.run.threads == 3
    assert cfg.source == states.Fock(2)
    assert cfg.detector.adc_bits == 12
    assert cfg.detector.lo_phase_policy == "fixed"
    assert cfg.detector.lo_phase == 0.25
    assert cfg.extractor.h_min_override == 5.53
    # untouched keys keep their defaults
    assert cfg.dsp.oversample == 8


def test_unknown_section_and_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(write_cfg(tmp_path, "[banana]\nx = 1\n", "a.cfg"))
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(write_cfg(tmp_path, "[run]\nbanana = 1\n", "b.cfg"))


def test_missing_file_and_syntax_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "nope.cfg"))
    with pytest.raises(ConfigError, match="config syntax error"):
        load_config(write_cfg(tmp_path, "rng_seed = 1\n"))  # key before section
    not_utf8 = tmp_path / "latin.cfg"
    not_utf8.write_bytes(b"[run]\nout_dir = \xff\xfe\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(not_utf8))


def test_typed_conversion_errors(tmp_path):
    with pytest.raises(ConfigError, match="run.threads: expected an integer"):
        load_config(write_cfg(tmp_path, "[run]\nthreads = 1.5\n", "a.cfg"))
    with pytest.raises(ConfigError, match="detector.lo_power: expected a number"):
        load_config(write_cfg(tmp_path, "[detector]\nlo_power = loud\n", "b.cfg"))
    with pytest.raises(ConfigError, match="expected a boolean"):
        load_config(write_cfg(tmp_path, "[dsp]\nenabled = maybe\n", "c.cfg"))
    # integers written as exact floats are accepted
    cfg = load_config(write_cfg(tmp_path, "[run]\nthreads = 2.0\n", "d.cfg"))
    assert cfg.run.threads == 2


def test_boolean_spellings(tmp_path):
    for text, expect in (("yes", True), ("on", True), ("1", True),
                         ("no", False), ("off", False), ("0", False)):
        cfg = load_config(write_cfg(tmp_path, f"[dsp]\nenabled = {text}\n",
                                    f"{text}.cfg"))
        assert cfg.dsp.enabled is expect


def test_overrides_mapping():
    cfg = load_config(None, overrides={"run.out_dir": "elsewhere",
                                       "run.rng_seed": "99",
                                       "extractor.seed_file": "seed.bin"})
    assert cfg.run.out_dir == "elsewhere"
    assert cfg.run.rng_seed == 99
    assert cfg.extractor.seed_file == "seed.bin"


def test_integers_parse_exactly():
    for seed in (2 ** 53 + 1, 2 ** 63 - 1, 2 ** 64 - 1):
        cfg = load_config(None, overrides={"run.rng_seed": str(seed)})
        assert cfg.run.rng_seed == seed
    assert load_config(None, overrides={"simulate.pulses": "1e6"}).simulate.pulses == 10 ** 6
    with pytest.raises(ConfigError, match="rng_seed"):
        load_config(None, overrides={"run.rng_seed": str(2 ** 64)})
    with pytest.raises(ConfigError, match="simulate.pulses: expected an integer"):
        load_config(None, overrides={"simulate.pulses": "inf"})


def test_library_objects_are_the_config_schema():
    assert config._SECTIONS["detector"] is detector.MeasurementConfig
    assert config._SECTIONS["dsp"] is detector.ChainSettings
    assert config._SECTIONS["calibration"] is calibration.CalibrationSettings
    assert load_config(None).detector == detector.MeasurementConfig()


def test_every_settings_field_has_a_parser():
    for section, cls in config._SECTIONS.items():
        for field in dataclasses.fields(cls):
            assert field.type in config._PARSERS, f"{section}.{field.name}"


def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = load_config(write_cfg(tmp_path, example))
    assert cfg == load_config(None)


def test_source_kinds(tmp_path):
    cases = {
        "kind = thermal\nthermal_mean_photons = 0.7":
            states.Thermal(0.7),
        "kind = displaced_squeezed\nsqueeze_r = 1.5\nsqueeze_angle = 0.3\n"
        "displacement_re = 1.0\ndisplacement_im = -2.0":
            states.DisplacedSqueezed(r=1.5, squeeze_angle=0.3,
                                     displacement=complex(1.0, -2.0)),
        "kind = mixture\nmixture = 0.25:0 0.75:3":
            states.Mixture(((0.25, 0), (0.75, 3))),
    }
    for i, (body, expect) in enumerate(cases.items()):
        cfg = load_config(write_cfg(tmp_path, f"[source]\n{body}\n", f"s{i}.cfg"))
        assert cfg.source == expect
    with pytest.raises(ConfigError, match=r"^source\.kind: unknown state kind"):
        load_config(write_cfg(tmp_path, "[source]\nkind = banana\n", "bad1.cfg"))
    with pytest.raises(ConfigError, match=r"^source\.mixture: expected weight:fock_n"):
        load_config(write_cfg(tmp_path,
                              "[source]\nkind = mixture\nmixture = 0.5-0\n",
                              "bad2.cfg"))
    # state validation failures surface as config errors
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path,
                              "[source]\nkind = mixture\nmixture = 0.5:0 0.4:1\n",
                              "bad3.cfg"))
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, "[source]\nkind = fock\nfock_n = -1\n",
                              "bad4.cfg"))


def test_detector_policies_and_validation(tmp_path):
    cfg = load_config(write_cfg(
        tmp_path,
        "[detector]\nlo_phase_policy = wrapped\nlo_phase = 1.0\n"
        "lo_phase_width = 0.2\n", "w.cfg"))
    det = cfg.detector
    assert det.lo_phase_policy == "wrapped"
    assert det.lo_phase == 1.0 and det.lo_phase_width == 0.2
    # policy names are case-insensitive
    assert load_config(None, overrides={"detector.lo_phase_policy": "Fixed"}
                       ).detector.lo_phase_policy == "fixed"
    with pytest.raises(ConfigError, match="fixed|uniform|wrapped"):
        load_config(write_cfg(tmp_path, "[detector]\nlo_phase_policy = chaotic\n",
                              "bad.cfg"))
    with pytest.raises(ConfigError, match="detector"):
        load_config(write_cfg(tmp_path, "[detector]\nadc_bits = 1\n", "bad2.cfg"))


@pytest.mark.parametrize("body,match", [
    ("[dsp]\noversample = 2\nlowpass_cutoff = 50e6", "Nyquist"),
    ("[dsp]\nlowpass_taps = 256", "odd"),
    ("[dsp]\nlowpass_taps = 3", ">= 5"),
    ("[dsp]\nnotch_taps = 3", ">= 5"),
    ("[dsp]\nsample_phase = 1.0", "sample_phase"),
    ("[dsp]\npulse_duty = 0.0", "pulse_duty"),
    ("[dsp]\nautocorr_max_lag = 400\nautocorr_samples = 4000", "autocorr"),
    ("[dsp]\nmodulation_freq = 30e6", "modulation_freq"),
    ("[simulate]\npulses = 0", "simulate"),
    ("[run]\nthreads = 0", "threads"),
    ("[run]\nrng_seed = -1", "rng_seed"),
    ("[extractor]\nepsilon_log2 = 0", "epsilon_log2"),
    ("[extractor]\ntarget_bits_per_sample = 0", "target_bits_per_sample"),
    # the rules extract's certificate applies, checked before simulate runs
    ("[extractor]\nh_min_override = 0", "extractor: h_min_bits must be positive"),
    ("[extractor]\nh_min_override = 9", "h_min_bits must not exceed bits_per_sample"),
    ("[detector]\nadc_bits = 4\n[extractor]\nh_min_override = 4.5",
     "h_min_bits must not exceed bits_per_sample, got 4.5"),
    ("[extractor]\nepsilon_log2 = -0.5", r"extractor: epsilon must lie in \(0, 0.5\)"),
    ("[extractor]\nepsilon_log2 = -2000", r"epsilon must lie in \(0, 0.5\), got 0.0"),
    # the attack scenario's own rules
    ("[attack]\nlo_mode = banana", "attack: lo_mode must be 'fixed' or 'uniform'"),
    ("[attack]\nr = 9", "attack: r must lie in"),
    ("[attack]\ndelta = 0", "attack: delta must be positive"),
    ("[attack]\nrounds = 9999", "attack: rounds must be >= 10000"),
    ("[stats]\nstring_bits = 99", "string_bits"),
    ("[stats]\nalpha = 0.5", "alpha"),
    ("[calibration]\nsamples_per_point = 1", "samples_per_point"),
    ("[calibration]\npowers =", "powers"),
    ("[calibration]\nsamples_per_point = 5000", "samples_per_point"),
    ("[calibration]\nmin_points = 2", "min_points"),
    ("[calibration]\nmin_points = 6", "exceeds the 5 distinct"),
    ("[calibration]\npowers = 1 1 2 2 4", "exceeds the 3 distinct"),
    ("[calibration]\npowers = 1 1.5 1.9", "span at least 2x"),
    ("[calibration]\npowers = 0 1 2", "positive and finite"),
    ("[calibration]\nconservatism = -1", "conservatism"),
    ("[calibration]\ndrift_threshold = 1.5", "drift_threshold must lie in"),
    ("[calibration]\nrecalibration_interval = 0", "recalibration_interval must be positive"),
    ("[verify]\nequivalence_dim_max = 17", "equivalence_dim_max"),
    ("[verify]\ndeltas = 0.1 0.0", "deltas"),
    ("[verify]\ndeltas =", "deltas"),
    ("[verify]\nfock_n_max = 5000", r"fock_n_max must lie in \[1, 512\]"),
    # erf(delta/2) underflows at subnormal widths
    ("[verify]\nfock_n_max = 1\ndeltas = 5e-324", "subnormal"),
    ("[verify]\ndeltas = 0.1 2.2e-308", "deltas down to 2.2e-308 are subnormal"),
    ("[calibration]\npowers = 0.25 0.5 nan 2", "calibration.powers: expected"),
    ("[run]\ntimestamp = 1e20", "run.timestamp"),
    ("[run]\ntimestamp = -1e20", "run.timestamp"),
    ("[dsp]\nlowpass_cutoff = 0", "lowpass_cutoff"),
    ("[dsp]\nnotch_cutoff = -1e6", "notch_cutoff"),
    ("[dsp]\nmodulation_freq = 0", "modulation_freq"),
    ("[dsp]\nmodulation_freq = 20e6\nnotch_cutoff = 24e6",
     "notch_cutoff.*modulation_freq"),
    # simulate computes the autocorrelation with the chain off too
    ("[dsp]\nenabled = false\nautocorr_max_lag = 0", "autocorr"),
    ("[dsp]\nenabled = false\nautocorr_samples = -5", "autocorr"),
])
def test_cross_validation_rejections(tmp_path, body, match):
    with pytest.raises(ConfigError, match=match):
        load_config(write_cfg(tmp_path, body + "\n"))


def test_attack_rounds_are_capped_at_load(tmp_path, capsys):
    # run_attack holds three float64 arrays of the rounds: one more round
    # than the cap is refused when the config loads, before any stage runs
    cap = attacklab._MAX_ROUNDS
    cfg = load_config(write_cfg(tmp_path, f"[attack]\nrounds = {cap}\n"))
    assert cfg.attack.rounds == cap
    path = write_cfg(tmp_path, f"[attack]\nrounds = {cap + 1}\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert f"attack: rounds must be <= {cap}" in capsys.readouterr().err
    assert not out.exists()


def test_narrow_but_normal_deltas_are_accepted(tmp_path):
    # no table is built any more, so widths down to the smallest normal
    # float load at the highest photon number
    cfg = load_config(write_cfg(tmp_path, "[verify]\nfock_n_max = 512\n"
                                          "deltas = 1e-7 2.2250738585072014e-308\n"))
    assert cfg.verify.deltas == (1e-7, 2.2250738585072014e-308)


FLOAT_KEYS = [f"{section}.{field.name}"
              for section, cls in config._SECTIONS.items()
              for field in dataclasses.fields(cls)
              if field.type in ("float", "float | None", "tuple[float, ...]")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_numbers_rejected(key, value):
    with pytest.raises(ConfigError, match=re.escape(f"{key}: expected")):
        load_config(None, overrides={key: value})


def test_disabled_dsp_skips_chain_checks(tmp_path):
    # with the chain off, chain-only consistency rules do not apply
    cfg = load_config(write_cfg(
        tmp_path, "[dsp]\nenabled = false\nlowpass_taps = 256\n"))
    assert cfg.dsp.enabled is False


def test_substream_determinism():
    a = substream(123, "alpha").integers(0, 2 ** 63, 8)
    b = substream(123, "alpha").integers(0, 2 ** 63, 8)
    c = substream(123, "beta").integers(0, 2 ** 63, 8)
    d = substream(124, "alpha").integers(0, 2 ** 63, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
