"""Run configuration: a sectioned key=value file mapped onto typed settings.

Grammar (INI subset, parsed with :mod:`configparser`):

* sections in square brackets, ``key = value`` lines, ``#`` comments;
* every key has a default, so the empty file (or no file) is valid;
* unknown sections or keys are rejected, not ignored, to catch typos;
* lists (calibration powers, verification bin widths) are space-separated;
* booleans accept true/false, yes/no, on/off, 1/0;
* integers parse exactly; exact float spellings such as ``2.0`` or ``1e6``
  are accepted too;
* every number read as a float must be finite: nan and +-inf are rejected.

The settings dataclasses below are the schema: one frozen class per
section, one field per key carrying its type and default.  ``load_config``
parses each given value with the parser chosen by the field's annotation.
``[source]`` and ``[detector]`` are then built into the state model and the
``MeasurementConfig``.

All randomness used by commands descends from ``run.rng_seed`` through
named substreams, and ``run.timestamp`` is the fixed reference time stamped
into artifacts, so identical config plus identical seed reproduces every
output byte for byte.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from . import calibration, states
from ._io import iso_utc
from .detector import (FixedPhase, MeasurementConfig, UniformRandomPhase,
                       WrappedGaussianPhase)
from .exceptions import ConfigError

__all__ = ["RunConfig", "load_config", "substream"]


@dataclass(frozen=True)
class RunSettings:
    out_dir: str = "run-artifacts"
    rng_seed: int = 20260815
    threads: int = 1
    timestamp: float = 0.0


@dataclass(frozen=True)
class SourceSettings:
    kind: str = "vacuum"   # vacuum | fock | thermal | displaced_squeezed | mixture
    fock_n: int = 1
    thermal_mean_photons: float = 0.5
    squeeze_r: float = 1.5
    squeeze_angle: float = 0.0
    displacement_re: float = 0.0
    displacement_im: float = 0.0
    mixture: str = "0.5:0 0.5:1"   # weight:fock_n tokens


@dataclass(frozen=True)
class DetectorSettings:
    lo_phase_policy: str = "uniform"   # fixed | uniform | wrapped
    lo_phase: float = 0.0
    lo_phase_width: float = 0.1
    lo_power: float = 1.0
    pulse_rate: float = 50e6
    adc_bits: int = 8
    adc_full_scale: float = 160.0
    electronic_noise_var: float = 2.0
    excess_noise_var: float = 0.0
    excess_noise_tracks_power: bool = False
    conversion_gain: float = 122.0


@dataclass(frozen=True)
class ChainSettings:
    enabled: bool = True
    oversample: int = 8
    pulse_duty: float = 0.5
    lowpass_cutoff: float = 140e6
    lowpass_taps: int = 257
    sample_phase: float = 0.5
    notch_enabled: bool = True
    modulation_freq: float = 25e6
    notch_cutoff: float = 24.995e6
    notch_taps: int = 16001
    autocorr_max_lag: int = 400
    autocorr_samples: int = 1000000


@dataclass(frozen=True)
class SimulateSettings:
    pulses: int = 1000000
    blocks: int = 1


@dataclass(frozen=True)
class CalibrationSettings:
    powers: tuple[float, ...] = (0.25, 0.5, 1.0, 1.5, 2.0)
    samples_per_point: int = 200000
    min_points: int = 5
    conservatism: float = 2.0
    recalibration_interval: float = 600.0
    drift_threshold: float = 0.02


@dataclass(frozen=True)
class ExtractorSettings:
    epsilon_log2: float = -100.0
    target_bits_per_sample: float = 5.4
    h_min_override: float | None = None
    seed_file: str | None = None


@dataclass(frozen=True)
class StatsSettings:
    string_bits: int = 100000
    alpha: float = 0.01


@dataclass(frozen=True)
class AttackSettings:
    r: float = 1.5
    delta: float = 0.1
    lo_mode: str = "fixed"
    rounds: int = 1000000
    displaced: bool = True


@dataclass(frozen=True)
class VerifySettings:
    fock_n_max: int = 20
    deltas: tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 1.0)
    equivalence_states: int = 100
    equivalence_dim_max: int = 8


@dataclass(frozen=True)
class RunConfig:
    run: RunSettings
    source: states.QuantumStateModel
    detector: MeasurementConfig
    dsp: ChainSettings
    simulate: SimulateSettings
    calibration: CalibrationSettings
    extractor: ExtractorSettings
    stats: StatsSettings
    attack: AttackSettings
    verify: VerifySettings


# every section and its schema; [source] and [detector] hold raw keys that
# _build_source and _build_detector turn into the state and detector models
_SECTIONS = {
    "run": RunSettings,
    "source": SourceSettings,
    "detector": DetectorSettings,
    "dsp": ChainSettings,
    "simulate": SimulateSettings,
    "calibration": CalibrationSettings,
    "extractor": ExtractorSettings,
    "stats": StatsSettings,
    "attack": AttackSettings,
    "verify": VerifySettings,
}


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        value = float(raw)   # exact float spellings such as 2.0 or 1e6
        if not value.is_integer():
            raise
        return int(value)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word in ("true", "yes", "on", "1"):
        return True
    if word in ("false", "no", "off", "0"):
        return False
    raise ValueError(word)


# parser and expected-kind wording for each settings field annotation
_PARSERS = {
    "str": (str.strip, ""),
    "str | None": (lambda raw: raw.strip() or None, ""),
    "int": (_int, "an integer"),
    "float": (_finite, "a number"),
    "float | None": (lambda raw: _finite(raw) if raw.strip() else None, "a number"),
    "bool": (_bool, "a boolean"),
    "tuple[float, ...]": (lambda raw: tuple(_finite(tok) for tok in raw.split()),
                          "space-separated numbers"),
}


def _parse(section: str, key: str, kind: str, raw: str):
    parse, expected = _PARSERS[kind]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected {expected}, got {raw!r}") from None


def _build_source(s: SourceSettings) -> states.QuantumStateModel:
    kind = s.kind.lower()
    if kind == "vacuum":
        return states.Vacuum()
    if kind == "fock":
        return states.Fock(s.fock_n)
    if kind == "thermal":
        return states.Thermal(s.thermal_mean_photons)
    if kind == "displaced_squeezed":
        return states.DisplacedSqueezed(
            r=s.squeeze_r, squeeze_angle=s.squeeze_angle,
            displacement=complex(s.displacement_re, s.displacement_im))
    if kind == "mixture":
        comps = []
        for token in s.mixture.split():
            try:
                w_text, n_text = token.split(":")
                comps.append((float(w_text), int(n_text)))
            except ValueError:
                raise ConfigError(
                    f"source.mixture: expected weight:fock_n tokens, got {token!r}"
                ) from None
        return states.Mixture(tuple(comps))
    raise ConfigError(f"source.kind: unknown state kind {kind!r}")


def _build_detector(s: DetectorSettings) -> MeasurementConfig:
    policy_name = s.lo_phase_policy.lower()
    if policy_name == "fixed":
        policy = FixedPhase(s.lo_phase)
    elif policy_name == "uniform":
        policy = UniformRandomPhase()
    elif policy_name == "wrapped":
        policy = WrappedGaussianPhase(s.lo_phase, s.lo_phase_width)
    else:
        raise ConfigError(
            f"detector.lo_phase_policy: expected fixed|uniform|wrapped, got {policy_name!r}")
    try:
        return MeasurementConfig(
            lo_phase_policy=policy, lo_power=s.lo_power, pulse_rate=s.pulse_rate,
            adc_bits=s.adc_bits, adc_full_scale=s.adc_full_scale,
            electronic_noise_var=s.electronic_noise_var,
            excess_noise_var=s.excess_noise_var,
            excess_noise_tracks_power=s.excess_noise_tracks_power,
            conversion_gain=s.conversion_gain)
    except ValueError as exc:
        raise ConfigError(f"detector: {exc}") from None


def _cross_validate(cfg: RunConfig) -> None:
    d = cfg.dsp
    det = cfg.detector
    try:
        iso_utc(cfg.run.timestamp)
    except (ValueError, OverflowError, OSError):
        raise ConfigError(f"run.timestamp {cfg.run.timestamp!r} is not a "
                          "representable UTC time") from None
    # simulate computes the autocorrelation diagnostic with the chain on or off
    if d.autocorr_max_lag < 1 or d.autocorr_samples <= 10 * d.autocorr_max_lag:
        raise ConfigError("dsp.autocorr_samples must exceed 10 * autocorr_max_lag")
    if d.enabled:
        if d.oversample < 1:
            raise ConfigError("dsp.oversample must be >= 1")
        input_rate = d.oversample * det.pulse_rate
        if not 0.0 < d.lowpass_cutoff < input_rate / 2.0:
            raise ConfigError(
                f"dsp.lowpass_cutoff ({d.lowpass_cutoff:g}) must be positive and sit "
                f"below the input Nyquist rate ({input_rate / 2.0:g})")
        if not 0.0 < d.pulse_duty <= 1.0:
            raise ConfigError("dsp.pulse_duty must lie in (0, 1]")
        if not 0.0 <= d.sample_phase < 1.0:
            raise ConfigError("dsp.sample_phase must lie in [0, 1)")
        if any(taps % 2 == 0 or taps < 5 for taps in (d.lowpass_taps, d.notch_taps)):
            raise ConfigError("dsp tap counts must be odd (linear phase) and >= 5")
        if d.notch_enabled:
            if not 0.0 < d.modulation_freq <= det.pulse_rate / 2.0:
                raise ConfigError("dsp.modulation_freq must be positive and cannot "
                                  "exceed pulse Nyquist")
            if not 0.0 < d.notch_cutoff < det.pulse_rate / 2.0:
                raise ConfigError("dsp.notch_cutoff must be positive and sit below "
                                  "pulse Nyquist")
    if cfg.simulate.pulses < 1 or cfg.simulate.blocks < 1:
        raise ConfigError("simulate.pulses and simulate.blocks must be >= 1")
    if cfg.run.threads < 1:
        raise ConfigError("run.threads must be >= 1")
    if not 0 <= cfg.run.rng_seed < 2 ** 64:
        raise ConfigError("run.rng_seed must be a nonnegative integer below 2**64")
    if cfg.extractor.epsilon_log2 >= 0:
        raise ConfigError("extractor.epsilon_log2 must be negative")
    if cfg.extractor.target_bits_per_sample <= 0:
        raise ConfigError("extractor.target_bits_per_sample must be positive")
    if cfg.stats.string_bits < 100:
        raise ConfigError("stats.string_bits must be >= 100")
    if not 0.0 < cfg.stats.alpha < 0.5:
        raise ConfigError("stats.alpha must lie in (0, 0.5)")
    cal = cfg.calibration
    if cal.samples_per_point < calibration.MIN_SAMPLES_PER_POINT:
        raise ConfigError("calibration.samples_per_point must be >= "
                          f"{calibration.MIN_SAMPLES_PER_POINT}")
    if not cal.powers:
        raise ConfigError("calibration.powers cannot be empty")
    if cal.min_points < 3:
        raise ConfigError("calibration.min_points must be >= 3")
    distinct = sorted(set(cal.powers))
    if not all(0.0 < p < math.inf for p in distinct):
        raise ConfigError("calibration.powers must be positive and finite")
    if distinct[-1] / distinct[0] < 2.0:
        raise ConfigError("calibration.powers must span at least 2x (max/min)")
    if cal.min_points > len(distinct):
        raise ConfigError(f"calibration.min_points ({cal.min_points}) exceeds the "
                          f"{len(distinct)} distinct calibration.powers")
    if cal.conservatism < 0:
        raise ConfigError("calibration.conservatism must be non-negative")
    try:
        calibration.RecalibrationPolicy(interval_seconds=cal.recalibration_interval,
                                        drift_threshold=cal.drift_threshold)
    except ValueError as exc:
        raise ConfigError("calibration.recalibration_interval/drift_threshold: "
                          f"{exc}") from None
    if cfg.verify.fock_n_max < 1 or cfg.verify.equivalence_states < 1:
        raise ConfigError("verify counts must be >= 1")
    if not 2 <= cfg.verify.equivalence_dim_max <= 16:
        raise ConfigError("verify.equivalence_dim_max must lie in [2, 16]")
    if any(dl <= 0 for dl in cfg.verify.deltas):
        raise ConfigError("verify.deltas must all be positive")


def load_config(path: str | None = None, *, overrides: dict | None = None) -> RunConfig:
    """Parse ``path`` over the settings defaults and validate the result.

    ``overrides`` maps dotted keys (``run.out_dir``) to replacement raw
    values, used for command-line flags.
    """
    given: dict[str, dict[str, str]] = {section: {} for section in _SECTIONS}
    if path is not None:
        user = configparser.ConfigParser(
            inline_comment_prefixes=("#",), interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                user.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"config syntax error in {path}: {exc}") from None
        for section in user.sections():
            given.setdefault(section, {}).update(user.items(section))
    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".", 1)
        given.setdefault(section, {})[key] = str(value)

    settings = {}
    for section, values in given.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        kinds = {f.name: f.type for f in fields(_SECTIONS[section])}
        for key in values:
            if key not in kinds:
                raise ConfigError(f"unknown config key {section}.{key}")
        settings[section] = _SECTIONS[section](**{
            key: _parse(section, key, kinds[key], raw) for key, raw in values.items()})

    try:
        source = _build_source(settings.pop("source"))
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from None
    cfg = RunConfig(source=source,
                    detector=_build_detector(settings.pop("detector")), **settings)
    try:
        states.validate_state(cfg.source)
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from None
    _cross_validate(cfg)
    return cfg


def substream(rng_seed: int, name: str) -> np.random.Generator:
    """Deterministic per-purpose random stream derived from the global seed."""
    digest = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([rng_seed, digest]))
