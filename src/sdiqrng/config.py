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

The settings dataclasses are the schema: one frozen class per section, one
field per key carrying its type and default, each checking its own section
in ``__post_init__``.  ``[detector]``, ``[dsp]``, ``[calibration]`` and
``[attack]`` are the library's own ``MeasurementConfig``, ``ChainSettings``,
``CalibrationSettings`` and ``AttackScenario``.  ``load_config`` parses each
value by its field's annotation and builds every section (a ``ValueError``
becomes a ``ConfigError`` naming it); ``[source]`` is then built into the
state model, whose class checks it.  The certificate rules of
``[extractor]`` are checked at load too, so that a bad key fails the first
stage, not ``extract`` after ``simulate``.

All randomness used by commands descends from ``run.rng_seed`` through
named substreams, and ``run.timestamp`` is the fixed reference time stamped
into artifacts, so identical config plus identical seed reproduces every
output byte for byte.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import entropy, states
from ._io import iso_utc
from .attacklab import AttackScenario
from .calibration import CalibrationSettings
from .detector import ChainSettings, MeasurementConfig
from .exceptions import ConfigError

__all__ = ["RunConfig", "load_config", "substream"]


@dataclass(frozen=True)
class RunSettings:
    out_dir: str = "run-artifacts"
    rng_seed: int = 20260815
    # worker threads for simulate, extract and test; simulate holds one
    # block's working set per worker
    threads: int = 1
    timestamp: float = 0.0

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 0 <= self.rng_seed < 2 ** 64:
            raise ValueError("rng_seed must be a nonnegative integer below 2**64")
        try:
            iso_utc(self.timestamp)
        except (ValueError, OverflowError, OSError):
            raise ValueError(f"timestamp {self.timestamp!r} is not a representable "
                             "UTC time (run.timestamp is in Unix seconds)") from None


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
class SimulateSettings:
    pulses: int = 1000000
    blocks: int = 1

    def __post_init__(self):
        if self.pulses < 1 or self.blocks < 1:
            raise ValueError("pulses and blocks must be >= 1")


@dataclass(frozen=True)
class ExtractorSettings:
    epsilon_log2: float = -100.0
    target_bits_per_sample: float = 5.4
    h_min_override: float | None = None
    seed_file: str | None = None

    def __post_init__(self):
        if self.epsilon_log2 >= 0:
            raise ValueError("epsilon_log2 must be negative")
        if self.target_bits_per_sample <= 0:
            raise ValueError("target_bits_per_sample must be positive")


@dataclass(frozen=True)
class StatsSettings:
    string_bits: int = 100000
    alpha: float = 0.01

    def __post_init__(self):
        if self.string_bits < 100:
            raise ValueError("string_bits must be >= 100")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")


@dataclass(frozen=True)
class VerifySettings:
    fock_n_max: int = 20
    deltas: tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 1.0)
    equivalence_states: int = 100
    equivalence_dim_max: int = 8

    def __post_init__(self):
        if not 1 <= self.fock_n_max <= states._MAX_FOCK or self.equivalence_states < 1:
            raise ValueError(f"fock_n_max must lie in [1, {states._MAX_FOCK}] "
                             "and equivalence_states be >= 1")
        if not 2 <= self.equivalence_dim_max <= 16:
            raise ValueError("equivalence_dim_max must lie in [2, 16]")
        if not self.deltas or any(dl <= 0 for dl in self.deltas):
            raise ValueError("deltas must be non-empty and all positive")
        if min(self.deltas) < sys.float_info.min:
            raise ValueError(f"deltas down to {min(self.deltas)!r} are subnormal: "
                             "erf(delta/2) underflows there")


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
    attack: AttackScenario
    verify: VerifySettings


# every section and its schema; [source] holds raw keys that load_config
# turns into the state model
_SECTIONS = {
    "run": RunSettings,
    "source": SourceSettings,
    "detector": MeasurementConfig,
    "dsp": ChainSettings,
    "simulate": SimulateSettings,
    "calibration": CalibrationSettings,
    "extractor": ExtractorSettings,
    "stats": StatsSettings,
    "attack": AttackScenario,
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


def _cross_validate(cfg: RunConfig) -> None:
    """The checks that span sections: the certificate ``extract`` would
    issue against the [detector] sample width, and the [dsp] frequencies
    against the [detector] pulse rate."""
    es = cfg.extractor
    try:
        # a calibrated h_min is known only when extract reads the log and is
        # checked there; one bit stands in for it so that epsilon is checked
        certificate = entropy.Certificate(
            1.0 if es.h_min_override is None else es.h_min_override,
            2.0 ** es.epsilon_log2, "h_min_override")
        certificate.check_sample_width(cfg.detector.adc_bits)
    except ValueError as exc:
        raise ConfigError(f"extractor: {exc}") from None
    d = cfg.dsp
    pulse_rate = cfg.detector.pulse_rate
    if not d.enabled:
        return
    input_rate = d.oversample * pulse_rate
    if not 0.0 < d.lowpass_cutoff < input_rate / 2.0:
        raise ConfigError(
            f"dsp.lowpass_cutoff ({d.lowpass_cutoff:g}) must be positive and sit "
            f"below the input Nyquist rate ({input_rate / 2.0:g})")
    if d.notch_enabled and not 0.0 < d.notch_cutoff < d.modulation_freq <= pulse_rate / 2.0:
        raise ConfigError(
            f"dsp.notch_cutoff ({d.notch_cutoff:g}) and dsp.modulation_freq "
            f"({d.modulation_freq:g}) must satisfy 0 < notch_cutoff < "
            f"modulation_freq <= pulse Nyquist ({pulse_rate / 2.0:g})")


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
        parsed = {key: _parse(section, key, kinds[key], raw)
                  for key, raw in values.items()}
        try:
            settings[section] = _SECTIONS[section](**parsed)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from None

    try:
        source = _build_source(settings.pop("source"))
    except ConfigError:
        raise
    except ValueError as exc:   # the state model's own rules
        raise ConfigError(f"source: {exc}") from None
    cfg = RunConfig(source=source, **settings)
    _cross_validate(cfg)
    return cfg


def substream(rng_seed: int, name: str) -> np.random.Generator:
    """Deterministic per-purpose random stream derived from the global seed."""
    digest = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([rng_seed, digest]))
