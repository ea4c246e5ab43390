"""Tunneling-current readout: line classification and synthetic traces.

The current under the tip is modulated at the local electron resonance, whose
position encodes the qubit-nucleus bit and the tip-carbon bit. Reading a qubit
means finding that line — here either exactly (noise-free mode) or by peak
detection on a synthesized noisy trace. Both routes read one line table in Hz;
a trace is set up by the config alone, and its frequency scale divides the
lines in ``synth_trace`` and multiplies the detected peak back to Hz once.

A traced read draws its noisy samples into a module-level spare or
workspace per trace length, and peak detection reuses the workspace, so
neither is reentrant: two threads must not read traces or detect peaks at
the same time.

With two usable CPUs and a PCG64 stream (numpy's default), a traced read
also draws the next read's normals ahead, on one lazily started worker
thread, while this read runs its window, rFFT and classification. The
worker draws from a clone of the stream, set to where the next read's
draws would start if only its two collapses drew in between, into a spare
buffer it owns until it finishes. The next read adopts those normals only
if its stream stands at exactly that state, and then sets the stream to
the clone's end state; equal bit-generator states give equal draws, so
every read and the caller's stream are bit for bit what drawing inline
gives. Otherwise the read draws inline and leaves the stale work alone. A
forked child forgets its parent's worker and pending work.
"""

import dataclasses
import functools
import itertools
import math
import os

import numpy as np

from . import engine, physics
from .errors import AliasingError, ConfigError, TipParked, UnclassifiableFrequency
from .register import RegisterLayout

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


@functools.lru_cache(maxsize=8)
def _line_table(cfg):
    """The four readout lines in Hz, keyed by (p_bit, a_bit), and their smallest gap.

    Each line is the ``physics.pattern_lines`` entry of the electron under the
    tip on a one-qubit register (nucleus, electron, tip carbon) with the tip
    engaged — the table ``compiler.drive_lines`` and the engine read;
    ``physics.modulation_frequency`` stays a closed-form cross-check. Both
    readout routes read it, memoised per config. Callers must not mutate the
    returned dict.
    """
    layout = RegisterLayout(1, tip_position=0)
    # The electron's partners are (nucleus, tip), so pattern 2p + a is (p, a).
    electron = physics.pattern_lines(layout, cfg, layout.electron_site(0))[1]
    lines = {(p, a): electron[2 * p + a] for p, a in _PAIRS}
    smallest_gap = min(abs(a - b) for a, b in itertools.combinations(lines.values(), 2))
    return lines, smallest_gap


def classify_frequency(frequency, cfg):
    """Map an observed line in Hz back to (p_bit, a_bit).

    A line matches within a quarter of the smallest gap between lines (zero
    when a config makes two lines coincide, so nothing matches). No or
    several matches raise UnclassifiableFrequency.
    """
    lines, smallest_gap = _line_table(cfg)
    tolerance = smallest_gap / 4.0
    matches = [pair for pair, line in lines.items() if abs(frequency - line) <= tolerance]
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
        observed = _line_table(cfg)[0][(p_bit, a_bit)]
        inferred_p, inferred_a = p_bit, a_bit
    else:
        sigma, tone = _clean_trace(p_bit, a_bit, cfg, trace_snr)
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
    lines = _line_table(cfg)[0]
    scale, sample_rate = cfg.trace_frequency_scale, cfg.trace_sample_rate
    line = lines[(p_bit, a_bit)] / scale
    highest = max(lines.values()) / scale
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


#: (spare, stream state its draws start from) of the read drawn ahead, or None.
_pending = None
#: The worker thread's executor, started by the first read drawn ahead.
_executor = None


class _Spare:
    """A buffer and a clone stream; one read drawn ahead at a time owns both."""

    def __init__(self, count):
        self.samples = np.empty(count)
        self.clone = None
        self.future = None

    def idle(self):
        return self.future is None or self.future.done()


@functools.lru_cache(maxsize=1)
def _spares(count):
    """Two spares per trace length, allocated here, in the reading thread."""
    return _Spare(count), _Spare(count)


@functools.cache
def _spare_cpu():
    """Whether a second usable CPU can draw ahead; with one, nothing does."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _normals(rng, count):
    """``count`` standard normals off ``rng``, as ``rng.standard_normal(count)`` draws them.

    Adopts the pending read drawn ahead when ``rng`` stands where it started,
    and otherwise draws into ``detect_peak``'s windowing scratch. Either way
    it then draws the next read's normals ahead, when a spare is idle.
    """
    global _pending
    pending, _pending = _pending, None
    # Only PCG64 states are drawn ahead: they hold no arrays, so ``==`` compares
    # them. numpy.random is looked up here: importing it would slow every start.
    ahead = _spare_cpu() and type(rng.bit_generator) in (np.random.PCG64, np.random.PCG64DXSM)
    if (ahead and pending is not None and pending[0].samples.size == count
            and rng.bit_generator.state == pending[1]):
        spare = pending[0]
        rng.bit_generator.state = spare.future.result()
        samples = spare.samples
    else:
        samples = _workspace(count)[1]
        rng.standard_normal(out=samples)
    if ahead:
        _pending = _draw_ahead(rng, count, samples)
    return samples


def _draw_ahead(rng, count, busy):
    """Start the next read's normals on the worker; (spare, start state) or None."""
    spare = next((s for s in _spares(count) if s.samples is not busy and s.idle()), None)
    if spare is None:
        return None
    kind = type(rng.bit_generator)
    if spare.clone is None or type(spare.clone.bit_generator) is not kind:
        spare.clone = np.random.Generator(kind())
    clone = spare.clone
    clone.bit_generator.state = rng.bit_generator.state
    clone.random(), clone.random()  # the next read's nucleus and tip collapses
    start = clone.bit_generator.state
    spare.future = _worker().submit(_draw, clone, spare.samples)
    return spare, start


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
    """In a forked child: the parent's worker thread and its work are gone."""
    global _pending, _executor
    _pending = _executor = None
    _spares.cache_clear()


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
    read, so a read allocates no trace-sized array and is not reentrant.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) < 2:
        raise ValueError("trace too short for peak detection")
    window, windowed, bins, spectrum = _workspace(len(samples))
    np.multiply(samples, window, out=windowed)
    np.fft.rfft(windowed, out=bins)
    np.abs(bins, out=spectrum)
    peak = 1 + int(np.argmax(spectrum[1:]))  # skip the DC bin
    offset = 0.0
    if 1 <= peak < len(spectrum) - 1:
        left, mid, right = spectrum[peak - 1], spectrum[peak], spectrum[peak + 1]
        denominator = left - 2.0 * mid + right
        if denominator != 0.0:
            offset = 0.5 * (left - right) / denominator
            offset = float(np.clip(offset, -0.5, 0.5))
    return (peak + offset) * sample_rate / len(samples)
