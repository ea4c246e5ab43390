"""Tunneling-current readout: line classification and synthetic traces.

The current under the tip is modulated at the local electron resonance, whose
position encodes the qubit-nucleus bit and the tip-carbon bit. Reading a qubit
means finding that line — here either exactly (noise-free mode) or by peak
detection on a synthesized noisy trace. Both routes read the four lines in Hz
of the electron under the tip in the one line table, ``physics.one_qubit_lines``
(the table the compiler's drives read; ``physics.modulation_frequency`` stays a
closed-form cross-check): its partners are the nucleus and the tip carbon, so
line ``2 * p + a`` is the one for nucleus bit p and tip bit a. A trace is set
up by the config alone, and its frequency scale divides the lines in
``synth_trace`` and multiplies the detected peak back to Hz once.

A traced read draws its noisy samples into a module-level buffer or
workspace per trace length, and peak detection reuses the workspace. One
module lock guards both: a traced read holds it from its draw through its
peak detection, and ``detect_peak`` holds it while it uses the workspace, so
traced reads from several threads run one at a time and give the bits they
give in sequence.

With two usable CPUs and a PCG64 stream (numpy's default), a traced read
also draws the next read's normals ahead, on one lazily started worker
thread, while this read runs its window, rFFT and classification. One draw
is in flight at a time. The worker draws from one clone of the stream, set
to where the next read's draws would start if only its two collapses drew
in between, into whichever of two buffers this read does not hold. The
next read first waits for that draw, stale or not. It adopts those normals
only if its stream stands at exactly the draw's start state, and then sets
the stream to the clone's end state; equal bit-generator states give equal
draws, so every read and the caller's stream are bit for bit what drawing
inline gives. Otherwise the read draws inline. A forked child forgets its
parent's worker, the draw in flight, the clone and the lock.
"""

import dataclasses
import functools
import itertools
import math
import os
import threading

import numpy as np

from . import engine, physics
from .errors import AliasingError, ConfigError, TipParked, UnclassifiableFrequency

#: The (p_bit, a_bit) of each readout line, in line order.
_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Most samples a synthesized trace may hold: 128 MiB per float64 array.
MAX_TRACE_SAMPLES = 1 << 24


@dataclasses.dataclass(frozen=True)
class MeasurementRecord:
    """One current readout: the line seen and the bits inferred from it."""

    qubit: int
    observed_frequency: float
    inferred_p_bit: int
    inferred_a_bit: int
    pre_measurement_probability: float


def classify_frequency(frequency, cfg):
    """Map an observed line in Hz back to (p_bit, a_bit).

    A line matches within a quarter of the smallest gap between lines (zero
    when a config makes two lines coincide, so nothing matches). No or
    several matches raise UnclassifiableFrequency.
    """
    lines = physics.one_qubit_lines(cfg)[0][1]
    tolerance = min(abs(a - b) for a, b in itertools.combinations(lines, 2)) / 4.0
    matches = [pair for pair, line in zip(_PAIRS, lines) if abs(frequency - line) <= tolerance]
    if len(matches) != 1:
        raise UnclassifiableFrequency(
            f"frequency {frequency!r} matched {len(matches)} modulation lines"
        )
    return matches[0]


def measure_via_current(state, qubit, layout, cfg, rng, trace_snr=None):
    """Read one qubit through the current; return (record, collapsed state).

    The nuclear bit collapses first, then the tip carbon bit, both off the
    same RNG stream — so the nuclear marginal matches a direct measure_spin
    with the same stream. Noise-free mode reports the exact modulation line;
    with ``trace_snr`` set, a noisy trace is synthesized and the line is
    recovered by peak detection before classification. The given state is
    collapsed (its tensor may be replaced) and returned. ``rng`` is consumed
    exactly as two collapse draws and, for a noisy trace, one
    ``standard_normal`` per sample, whether or not those normals were drawn
    ahead (see the module docstring).
    """
    if layout.tip_position != qubit:
        raise TipParked(f"cannot read qubit {qubit} with tip at {layout.tip_position!r}")
    rng = np.random.default_rng(rng)
    p_bit, state, probability = engine.measure_spin(state, layout.nucleus_site(qubit), rng)
    a_bit, state, _ = engine.measure_spin(state, layout.tip_site, rng)
    if trace_snr is None:
        observed = physics.one_qubit_lines(cfg)[0][1][2 * p_bit + a_bit]
        inferred_p, inferred_a = p_bit, a_bit
    else:
        sigma, tone = _clean_trace(p_bit, a_bit, cfg, trace_snr)
        with _lock:
            samples = tone if sigma == 0 else _noisy(tone, sigma, _normals(rng, tone.size))
            observed = detect_peak(samples, cfg.trace_sample_rate) * cfg.trace_frequency_scale
        inferred_p, inferred_a = classify_frequency(observed, cfg)
    record = MeasurementRecord(
        qubit=qubit,
        observed_frequency=float(observed),
        inferred_p_bit=inferred_p,
        inferred_a_bit=inferred_a,
        pre_measurement_probability=probability,
    )
    return record, state


def synth_trace(p_bit, a_bit, cfg, snr, rng):
    """Samples of a unit sinusoid at the (scaled) modulation line plus white noise.

    ``cfg`` sets the trace: ``trace_duration`` s at ``trace_sample_rate``, with
    lines divided by ``trace_frequency_scale`` — sampling the raw 1e11 Hz line
    would need absurd rates, and peak detection is scale-invariant. ``snr`` is
    signal power over noise power (``noise_sigma``); pass ``math.inf`` for a
    clean trace, whose samples are then the shared read-only tone; a noisy
    trace allocates one array, its own samples. An SNR that is not positive,
    or so small that the noise deviation overflows, is a ValueError. A trace
    of fewer than 2 or more than ``MAX_TRACE_SAMPLES`` samples is a
    ConfigError, raised before anything is allocated.
    """
    sigma, tone = _clean_trace(p_bit, a_bit, cfg, snr)
    if sigma == 0:
        return tone
    return _noisy(tone, sigma, np.random.default_rng(rng).standard_normal(tone.size))


def _clean_trace(p_bit, a_bit, cfg, snr):
    """(noise deviation, shared read-only tone) of a trace, every argument checked."""
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr!r}")
    sigma = noise_sigma(snr)
    if not math.isfinite(sigma):
        raise ValueError(f"snr {snr!r} is too small: the noise deviation overflows")
    if (p_bit, a_bit) not in _PAIRS:
        raise ValueError(f"bits must be 0 or 1, got {p_bit!r}, {a_bit!r}")
    lines = physics.one_qubit_lines(cfg)[0][1]
    scale, sample_rate = cfg.trace_frequency_scale, cfg.trace_sample_rate
    line = lines[_PAIRS.index((p_bit, a_bit))] / scale
    highest = max(lines) / scale
    if sample_rate <= 2.0 * highest:
        raise AliasingError(
            f"sample rate {sample_rate:g} cannot represent lines up to {highest:g}"
        )
    total = cfg.trace_duration * sample_rate
    if not 2 <= total <= MAX_TRACE_SAMPLES:
        raise ConfigError(
            f"a {cfg.trace_duration:g} s trace at {sample_rate:g} samples/s needs {total:g} "
            f"samples; traces take 2 to {MAX_TRACE_SAMPLES}"
        )
    return sigma, _tone(line, int(round(total)), sample_rate)


def _noisy(tone, sigma, normals):
    """``tone`` plus white noise of deviation ``sigma``, in place of ``normals``.

    The bits of ``rng.normal(0.0, sigma, n) + tone``: numpy draws that as
    ``0.0 + sigma * z`` from the same standard normals.
    """
    normals *= sigma
    normals += tone
    return normals


#: Held by a traced read from its draw through its peak detection, and by ``detect_peak``.
_lock = threading.RLock()
#: (future, buffer, stream state its draws start from) of the read drawn ahead, or None.
_pending = None
#: The worker thread's executor, started by the first read drawn ahead.
_executor = None


@functools.lru_cache(maxsize=1)
def _ahead(kind, count):
    """A clone stream of ``kind`` and two buffers, allocated here, in the reading thread."""
    return np.random.Generator(kind()), np.empty(count), np.empty(count)


@functools.cache
def _spare_cpu():
    """Whether a second usable CPU can draw ahead; with one, nothing does."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _normals(rng, count):
    """``count`` standard normals off ``rng``, as ``rng.standard_normal(count)`` draws them.

    Waits for the one read drawn ahead, stale or not, and adopts it when
    ``rng`` stands where it started; otherwise draws into ``detect_peak``'s
    windowing scratch. Either way it then draws the next read's normals
    ahead, into the buffer this read does not hold.
    """
    global _pending
    pending, _pending = _pending, None
    # Only PCG64 states are drawn ahead: they hold no arrays, so ``==`` compares
    # them. numpy.random is looked up here: importing it would slow every start.
    ahead = _spare_cpu() and type(rng.bit_generator) in (np.random.PCG64, np.random.PCG64DXSM)
    samples = None
    if pending is not None:
        future, buffer, start = pending
        end = future.result()  # stale or not: the next draw takes its clone
        if ahead and buffer.size == count and rng.bit_generator.state == start:
            rng.bit_generator.state = end
            samples = buffer
    if samples is None:
        samples = _workspace(count)[1]
        rng.standard_normal(out=samples)
    if ahead:
        clone, *buffers = _ahead(type(rng.bit_generator), count)
        buffer = buffers[samples is buffers[0]]
        clone.bit_generator.state = rng.bit_generator.state
        clone.random(), clone.random()  # the next read's nucleus and tip collapses
        start = clone.bit_generator.state
        _pending = _worker().submit(_draw, clone, buffer), buffer, start
    return samples


def _draw(clone, out):
    """The worker's task: fill ``out`` off ``clone``; return its end state."""
    clone.standard_normal(out=out)
    return clone.bit_generator.state


def _worker():
    """The one worker thread's executor, started on first use."""
    global _executor
    if _executor is None:
        # Imported here: importing it would slow every start, traced or not.
        from concurrent.futures import ThreadPoolExecutor

        _executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="spintip-readout")
    return _executor


def _forget_worker():
    """In a forked child: the parent's worker thread, its work and the lock are gone."""
    global _pending, _executor, _lock
    _pending = _executor = None
    _lock = threading.RLock()
    # The parent's worker may have held the clone's lock at the fork.
    _ahead.cache_clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def noise_sigma(snr):
    """Deviation of a trace's white noise at ``snr``: sqrt(1/(2 snr)), inf on overflow."""
    return math.sqrt(1.0 / (2.0 * snr))


@functools.lru_cache(maxsize=4)
def _tone(line, count, sample_rate):
    """Read-only clean unit sinusoid at ``line``; a config has four lines."""
    times = np.arange(count) / sample_rate
    tone = np.sin(2.0 * math.pi * line * times)
    tone.flags.writeable = False
    return tone


@functools.lru_cache(maxsize=1)
def _workspace(count):
    """``detect_peak``'s read-only Hann window, and scratch for the windowed
    samples, rFFT bins and magnitudes; a config has one trace length. A
    traced read that was not drawn ahead draws its samples into the windowed
    scratch, and the window is then applied in place.
    """
    window = np.hanning(count)
    window.flags.writeable = False
    bins = count // 2 + 1
    return window, np.empty(count), np.empty(bins, dtype=np.complex128), np.empty(bins)


def detect_peak(samples, sample_rate):
    """Strongest spectral line of a trace sampled at ``sample_rate``, in Hz at its scale.

    Hann-windowed rFFT, then a three-point parabolic refinement around the
    peak bin; good to a fraction of a bin on clean traces and robust at the
    SNRs the readout cares about. The windowed samples, spectrum and
    magnitudes live in one workspace per trace length, reused from read to
    read under the module lock, so a read allocates no trace-sized array.

    ``samples`` that are not one-dimensional are a ValueError, and so are
    samples whose peak magnitude is not finite: a NaN or infinite sample
    makes every bin so. The samples themselves are not scanned.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {samples.shape}")
    if len(samples) < 2:
        raise ValueError("trace too short for peak detection")
    with _lock:
        window, windowed, bins, spectrum = _workspace(len(samples))
        with np.errstate(invalid="ignore", over="ignore"):
            np.multiply(samples, window, out=windowed)
            np.fft.rfft(windowed, out=bins)
            np.abs(bins, out=spectrum)
        peak = 1 + int(np.argmax(spectrum[1:]))  # skip the DC bin
        if not math.isfinite(spectrum[peak]):
            raise ValueError(f"samples give a non-finite peak magnitude {float(spectrum[peak])!r}")
        offset = 0.0
        if 1 <= peak < len(spectrum) - 1:
            left, mid, right = spectrum[peak - 1], spectrum[peak], spectrum[peak + 1]
            denominator = left - 2.0 * mid + right
            if denominator != 0.0:
                offset = 0.5 * (left - right) / denominator
                offset = float(np.clip(offset, -0.5, 0.5))
    return (peak + offset) * sample_rate / len(samples)
