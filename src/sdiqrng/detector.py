"""Pulsed homodyne detector and ADC model.

``MeasurementConfig`` is the ``[detector]`` config section and
``ChainSettings`` the ``[dsp]`` section, as ``config.load_config`` builds them.

One sample per local-oscillator pulse: the quadrature outcome ``q`` (vacuum
units) is scaled to the analog front-end as

    analog = q * sqrt(2 * conversion_gain * lo_power) + N(0, electronic) + N(0, excess)

so that the vacuum contribution to the analog variance is exactly
``conversion_gain * lo_power``.  The digitizer is a signed ``adc_bits``
converter covering the peak-to-peak range ``adc_full_scale``:

    step  = adc_full_scale / 2**adc_bits
    code  = round-half-away-from-zero(analog / step), saturating into the
            edge codes [-2**(b-1), 2**(b-1)-1]; saturated samples are counted.

One vacuum unit of quadrature therefore spans sqrt(2 * gain * power) analog
units, which is where the bin-width conversion

    delta = step / sqrt(2 * m * power)

comes from (``m`` is the calibrated variance-vs-power gradient).

With the analog filtering chain switched on (``measure_pulses`` given an
enabled chain), each pulse instead occupies ``oversample`` input samples, the
noise enters white at that input rate, and the low-pass output is kept at
``sample_phase`` of every pulse.  That chain is simulated at the pulse rate
with the two filters of ``dsp.pulse_rate_filters``: a short FIR over the
per-pulse amplitudes, plus one standard normal per pulse through a factor
of the decimated noise's autocovariance, which gives the same law.  The
optional drift notch of ``dsp`` then runs on the per-pulse samples before
digitization.  No array at the input rate is ever built.

Raw blocks serialize to a little-endian binary format with a fixed 9-line
ASCII header (magic, version, bits, count, clipped count, config hash, run
id, timestamp, terminator); the config hash covers every
``MeasurementConfig`` field.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import dsp, states
from .states import QuantumStateModel

__all__ = [
    "MeasurementConfig",
    "ChainSettings",
    "RawSampleBlock",
    "draw_phases",
    "measure_pulses",
    "quantize",
    "vacuum_unit_resolution",
    "write_block",
    "check_block",
    "read_block",
]

_MAGIC = "SDIQRNG-BLOCK"
_VERSION = "2"


@dataclass(frozen=True)
class MeasurementConfig:
    """Static description of one measurement run.

    The LO phase is ``fixed`` at ``lo_phase``, ``uniform`` on [0, 2*pi), or
    ``wrapped`` normal around ``lo_phase`` with ``lo_phase_width`` sd
    (imperfect randomization); the policy name is stored in lower case.
    lo_power is in the calibration's power units (typically W); the pulse
    rate only enters rate bookkeeping, never the per-sample statistics.
    """

    lo_phase_policy: str = "uniform"
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

    def __post_init__(self):
        policy = self.lo_phase_policy.lower()
        if policy not in ("fixed", "uniform", "wrapped"):
            raise ValueError(f"lo_phase_policy: expected fixed|uniform|wrapped, "
                             f"got {policy!r}")
        object.__setattr__(self, "lo_phase_policy", policy)
        if not self.lo_phase_width >= 0:  # written so that NaN fails too
            raise ValueError("lo_phase_width cannot be negative")
        if self.lo_power <= 0 or not math.isfinite(self.lo_power):
            raise ValueError("lo_power must be positive and finite")
        if self.pulse_rate <= 0:
            raise ValueError("pulse_rate must be positive")
        if not 2 <= self.adc_bits <= 16:
            raise ValueError("adc_bits must be between 2 and 16")
        if self.adc_full_scale <= 0:
            raise ValueError("adc_full_scale must be positive")
        if self.electronic_noise_var < 0 or self.excess_noise_var < 0:
            raise ValueError("noise variances cannot be negative")
        if self.conversion_gain <= 0:
            raise ValueError("conversion_gain must be positive")

    @property
    def adc_step(self) -> float:
        return self.adc_full_scale / 2 ** self.adc_bits

    @property
    def code_min(self) -> int:
        return -(2 ** (self.adc_bits - 1))

    @property
    def code_max(self) -> int:
        return 2 ** (self.adc_bits - 1) - 1

    def content_hash(self) -> str:
        text = repr(sorted(self.__dict__.items(), key=lambda kv: kv[0]))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RawSampleBlock:
    """A contiguous run of ADC codes plus the config that produced them."""

    codes: np.ndarray
    config: MeasurementConfig
    run_id: str = "run"
    timestamp: str = "1970-01-01T00:00:00Z"
    clipped: int = 0

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.size == 0:
            raise ValueError("codes must be a non-empty 1-d array")
        if codes.min() < self.config.code_min or codes.max() > self.config.code_max:
            raise ValueError("codes outside the ADC range for this config")
        if self.clipped < 0:
            raise ValueError("clipped count cannot be negative")

    def __len__(self):
        return self.codes.size


def quantize(analog: np.ndarray, config: MeasurementConfig) -> tuple[np.ndarray, int]:
    """Digitize analog values; returns (codes, clipped_count).

    Round half away from zero, then saturate into the edge codes.  Works
    through ``_NOISE_BLOCK`` values at a time in two reused ``float64``
    buffers, so beside ``analog`` only the ``int16`` codes grow with it.
    """
    analog = np.asarray(analog)
    codes = np.empty(analog.size, dtype=np.int16)
    scaled = np.empty(min(analog.size, _NOISE_BLOCK))
    rounded = np.empty_like(scaled)
    clipped = 0
    for lo in range(0, analog.size, _NOISE_BLOCK):
        hi = min(analog.size, lo + _NOISE_BLOCK)
        s, r = scaled[:hi - lo], rounded[:hi - lo]
        s[:] = analog[lo:hi]   # to float64 before the division
        s /= config.adc_step
        # floor(|s| + 0.5) given the sign of s (where that is 0 the code is
        # 0 either way)
        np.abs(s, out=r)
        r += 0.5
        np.floor(r, out=r)
        np.copysign(r, s, out=r)
        clipped += int(np.count_nonzero((r < config.code_min) | (r > config.code_max)))
        np.clip(r, config.code_min, config.code_max, out=r)
        codes[lo:hi] = r
    return codes, clipped


def draw_phases(config: MeasurementConfig, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """One LO phase per pulse according to the configured policy."""
    match config.lo_phase_policy:
        case "fixed":
            return np.full(count, config.lo_phase % (2 * math.pi))
        case "uniform":
            return rng.uniform(0.0, 2.0 * math.pi, count)
        case "wrapped":
            return rng.normal(config.lo_phase, config.lo_phase_width,
                              count) % (2.0 * math.pi)


@dataclass(frozen=True)
class ChainSettings:
    """The ``[dsp]`` section: the analog filter chain ``measure_pulses`` runs
    when ``enabled``, and the autocorrelation diagnostic of ``simulate``."""

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

    def __post_init__(self):
        # simulate computes the autocorrelation diagnostic with the chain on or off
        if self.autocorr_max_lag < 1 or self.autocorr_samples <= 10 * self.autocorr_max_lag:
            raise ValueError("autocorr_samples must exceed 10 * autocorr_max_lag")
        if not self.enabled:
            return
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")
        if not 0.0 < self.pulse_duty <= 1.0:
            raise ValueError("pulse_duty must lie in (0, 1]")
        if not 0.0 <= self.sample_phase < 1.0:
            raise ValueError("sample_phase must lie in [0, 1)")
        if any(taps % 2 == 0 or taps < 5 for taps in (self.lowpass_taps, self.notch_taps)):
            raise ValueError("tap counts must be odd (linear phase) and >= 5")


def measure_pulses(state: QuantumStateModel, config: MeasurementConfig, count: int,
                   rng: np.random.Generator,
                   chain: ChainSettings | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Simulate ``count`` pulses of homodyne detection of ``state``.

    Per pulse: draw the LO phase from the policy, draw the quadrature and
    scale it to analog units at ``config.lo_power``.  Without an enabled
    ``chain`` that is one sample per pulse; electronic and excess noise are
    added and the same array is returned twice.

    With the chain on, each pulse is a flat top occupying the central
    ``pulse_duty`` fraction of its period at ``oversample`` input samples
    per period, and the electronic and excess noise enter white at the
    input rate, as one noise of their summed variance.  The low-pass and
    the sample at ``sample_phase`` of each period are simulated at the
    pulse rate (``dsp.pulse_rate_filters``): the signal FIR runs over the
    amplitudes of ``n_sim = count + 2 * (pad_lp + pad_notch)`` pulses, and
    ``n_sim + q`` standard normals through the noise factor of ``q + 1``
    taps give the noise, so no filter transient reaches the output.  The
    draws come in this order: the phases of all ``n_sim`` pulses, their
    quadratures, then the normals (none when both noise variances are 0).
    Returns two per-pulse analog streams of ``count`` samples: the
    low-passed stream before drift removal, and the final filtered stream.
    The notch runs in valid mode over all ``count + 2 * pad_notch``
    low-passed samples, so its ``count`` outputs are centred on the raw
    stream's samples and none reads past the simulated pulses.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    filtering = chain is not None and chain.enabled
    pad_lp = pad_notch = 0
    if filtering:
        signal, noise = dsp.pulse_rate_filters(
            config.pulse_rate, chain.oversample, chain.lowpass_cutoff,
            chain.lowpass_taps, chain.pulse_duty, chain.sample_phase)
        pad_lp = signal.size // 2
        if chain.notch_enabled:
            pad_notch = chain.notch_taps // 2
    n_sim = count + 2 * (pad_lp + pad_notch)

    theta = draw_phases(config, n_sim, rng)
    wave = states.sample_quadrature(state, theta, rng, size=n_sim)
    del theta
    wave *= math.sqrt(2.0 * config.conversion_gain * config.lo_power)
    electronic = config.electronic_noise_var
    excess = config.excess_noise_var * (
        config.lo_power if config.excess_noise_tracks_power else 1.0)
    if not filtering:
        for var in (electronic, excess):
            if var > 0:
                wave += rng.normal(0.0, math.sqrt(var), wave.size)
        return wave, wave

    per_pulse = np.correlate(wave, signal, "valid")   # count + 2 * pad_notch samples
    del wave
    if electronic + excess > 0:
        normals = rng.standard_normal(n_sim + noise.size - 1)
        noise = math.sqrt(electronic + excess) * noise
        # a block at a time, so that no second array of the noise is whole
        for lo in range(0, per_pulse.size, _NOISE_BLOCK):
            hi = min(per_pulse.size, lo + _NOISE_BLOCK)
            per_pulse[lo:hi] += np.convolve(
                normals[pad_lp + lo:pad_lp + hi + noise.size - 1], noise, "valid")
        del normals
    raw = per_pulse[pad_notch:pad_notch + count]
    if not chain.notch_enabled:
        return raw, raw
    return raw, dsp.remove_low_frequency(per_pulse, config.pulse_rate,
                                         chain.modulation_freq, chain.notch_cutoff,
                                         chain.notch_taps)


# pulses of filtered noise made, and values quantized, at a time
_NOISE_BLOCK = 2 ** 16


def vacuum_unit_resolution(adc_step: float, gradient: float, power: float) -> float:
    """ADC bin width re-expressed in vacuum units: step / sqrt(2 * m * power)."""
    if adc_step <= 0:
        raise ValueError("adc_step must be positive")
    if gradient <= 0 or not math.isfinite(gradient):
        raise ValueError(f"calibration gradient must be positive, got {gradient!r}")
    if power <= 0 or not math.isfinite(power):
        raise ValueError(f"operating power must be positive, got {power!r}")
    return adc_step / math.sqrt(2.0 * gradient * power)


# ---------------------------------------------------------------------------
# serialization

def _header_lines(block: RawSampleBlock) -> list[str]:
    return [
        _MAGIC,
        _VERSION,
        f"bits={block.config.adc_bits}",
        f"count={len(block)}",
        f"clipped={block.clipped}",
        f"config={block.config.content_hash()}",
        f"run={block.run_id}",
        f"created={block.timestamp}",
        "---",
    ]


def _payload_dtype(bits: int) -> np.dtype:
    return np.dtype("<i1") if bits <= 8 else np.dtype("<i2")


def block_to_bytes(block: RawSampleBlock) -> bytes:
    header = "\n".join(_header_lines(block)) + "\n"
    payload = np.asarray(block.codes).astype(_payload_dtype(block.config.adc_bits))
    return header.encode("ascii") + payload.tobytes()


def write_block(path, block: RawSampleBlock) -> None:
    from ._io import write_bytes_atomic
    write_bytes_atomic(path, block_to_bytes(block))


def check_block(path, config: MeasurementConfig) -> int:
    """Check a block file's header against ``config`` and its payload length
    against the file size, without reading the payload; return the header's
    sample count.

    Raises ValueError naming ``path`` on every fault ``read_block`` finds
    before it reads the codes.
    """
    with open(path, "rb") as fh, _naming(path):
        return _read_header(fh, config)[1]


def read_block(path, config: MeasurementConfig) -> RawSampleBlock:
    """Read a binary block; the header is validated against ``config``.

    Every malformed or mismatched file raises ValueError naming ``path``.
    """
    with open(path, "rb") as fh, _naming(path):
        dtype, count, clipped, run_id, created = _read_header(fh, config)
        payload = fh.read()
        _check_payload_size(len(payload), dtype, count)   # the file may have changed
        codes = np.frombuffer(payload, dtype=dtype).astype(np.int16)
        return RawSampleBlock(codes=codes, config=config, run_id=run_id,
                              timestamp=created, clipped=clipped)


@contextmanager
def _naming(path):
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_header(fh, config: MeasurementConfig) -> tuple[np.dtype, int, int, str, str]:
    """Read the 9-line header at the start of ``fh``, check it against
    ``config`` and the payload length against the file size, and leave
    ``fh`` at the first payload byte.

    Returns (payload dtype, count, clipped, run id, creation time).
    """
    lines = []
    for _ in range(9):
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ValueError("truncated block header")
        lines.append(line[:-1].decode("ascii", "replace"))
    if lines[0] != _MAGIC:
        raise ValueError(f"bad magic {lines[0]!r}")
    if lines[1] != _VERSION:
        raise ValueError(f"unsupported version {lines[1]!r}")
    bits = int(lines[2].removeprefix("bits="))
    count = int(lines[3].removeprefix("count="))
    clipped = int(lines[4].removeprefix("clipped="))
    cfg_hash = lines[5].removeprefix("config=")
    if bits != config.adc_bits:
        raise ValueError(f"header bits {bits} != config bits {config.adc_bits}")
    if cfg_hash != config.content_hash():
        raise ValueError("config hash mismatch")
    if lines[8] != "---":
        raise ValueError("malformed header terminator")
    dtype = _payload_dtype(bits)
    _check_payload_size(os.fstat(fh.fileno()).st_size - fh.tell(), dtype, count)
    if not 0 <= clipped <= count:
        raise ValueError(f"clipped count {clipped} outside 0..{count}")
    return (dtype, count, clipped, lines[6].removeprefix("run="),
            lines[7].removeprefix("created="))


def _check_payload_size(size: int, dtype: np.dtype, count: int) -> None:
    if size != count * dtype.itemsize:
        raise ValueError(f"payload holds {size} bytes, header says {count} codes "
                         f"of {dtype.itemsize} byte(s)")
