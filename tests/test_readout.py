"""Current-based readout: line classification, traces, and peak detection."""

import contextlib
import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintip import (
    MachineConfig,
    MeasurementRecord,
    PureState,
    RegisterLayout,
    classify_frequency,
    detect_peak,
    measure_spin,
    measure_via_current,
    modulation_frequency,
    synth_trace,
    transition_frequency,
)
from spintip import readout
from spintip.errors import AliasingError, ConfigError, TipParked, UnclassifiableFrequency

CFG = MachineConfig()
LAYOUT = RegisterLayout(1, tip_position=0)
PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


class TestClassification:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_classify_inverts_the_line_map(self, pair):
        line = modulation_frequency(*pair, CFG)
        assert classify_frequency(line, CFG) == pair
        # A few hundred kHz of drift must not change the verdict; the window
        # is a quarter of the smallest gap, 120 MHz, so 30 MHz.
        assert classify_frequency(line + 3e5, CFG) == pair

    def test_midway_frequency_is_unclassifiable(self):
        midway = (modulation_frequency(0, 0, CFG) + modulation_frequency(1, 0, CFG)) / 2.0
        with pytest.raises(UnclassifiableFrequency):  # 60 MHz from each
            classify_frequency(midway, CFG)

    def test_far_off_frequency_is_unclassifiable(self):
        with pytest.raises(UnclassifiableFrequency):
            classify_frequency(1.0, CFG)

    def test_scale_invariance(self):
        # Alternating scales, each with a rate and duration that keep 50,000
        # samples above Nyquist, so one bin is 20 MHz at every scale: the
        # memoised lines are keyed by config.
        for scale in (1e5, 1e6, 1e7, 1e6):
            cfg = dataclasses.replace(
                CFG,
                trace_frequency_scale=scale,
                trace_sample_rate=1e12 / scale,
                trace_duration=0.05 * scale / 1e6,
            )
            for pair in PAIRS:
                record, _ = measure_via_current(
                    PureState.from_bits((pair[0], 0, pair[1])), 0, LAYOUT, cfg,
                    np.random.default_rng(0), trace_snr=math.inf,
                )
                assert (record.inferred_p_bit, record.inferred_a_bit) == pair
                truth = modulation_frequency(*pair, CFG)
                assert record.observed_frequency == pytest.approx(truth, abs=2e7)


class TestMeasureViaCurrent:
    def test_basis_states_give_exact_lines(self):
        for p_bit in (0, 1):
            for a_bit in (0, 1):
                state = PureState.from_bits((p_bit, 0, a_bit))
                record, after = measure_via_current(
                    state, 0, LAYOUT, CFG, np.random.default_rng(0)
                )
                assert record.qubit == 0
                assert record.inferred_p_bit == p_bit
                assert record.inferred_a_bit == a_bit
                # The line is the engine's; the closed form is the cross-check.
                assert record.observed_frequency == transition_frequency(
                    (p_bit, 0, a_bit), LAYOUT.electron_site(0), LAYOUT, CFG
                )
                assert record.observed_frequency == modulation_frequency(p_bit, a_bit, CFG)
                assert record.pre_measurement_probability == pytest.approx(1.0, abs=1e-15)
                assert after.population(0, p_bit) == pytest.approx(1.0, abs=1e-15)

    def test_requires_the_tip_on_the_read_qubit(self):
        state = PureState.ground(LAYOUT)
        with pytest.raises(TipParked):
            measure_via_current(state, 0, RegisterLayout(1), CFG, np.random.default_rng(0))
        two = RegisterLayout(2, tip_position=0)
        with pytest.raises(TipParked):
            measure_via_current(PureState.ground(two), 1, two, CFG, np.random.default_rng(0))

    def test_superposed_nucleus_follows_born_statistics(self):
        state = PureState.product(LAYOUT, {0: (0.6, 0.8)})
        hits = 0
        for seed in range(500):
            record, _ = measure_via_current(
                state.copy(), 0, LAYOUT, CFG, np.random.default_rng(seed)
            )
            hits += record.inferred_p_bit
        sigma = math.sqrt(500 * 0.64 * 0.36)
        assert abs(hits - 320) < 4 * sigma  # p(1) = 0.8^2

    def test_nuclear_marginal_matches_a_direct_spin_measurement(self):
        state = PureState.product(LAYOUT, {0: (0.6, 0.8)})
        for seed in (3, 17, 40):
            record, _ = measure_via_current(
                state.copy(), 0, LAYOUT, CFG, np.random.default_rng(seed)
            )
            direct, _, _ = measure_spin(state.copy(), 0, np.random.default_rng(seed))
            assert record.inferred_p_bit == direct

    def test_trace_mode_recovers_the_same_bits(self):
        state = PureState.from_bits((1, 0, 0))
        record, _ = measure_via_current(
            state, 0, LAYOUT, CFG, np.random.default_rng(5), trace_snr=10.0
        )
        assert (record.inferred_p_bit, record.inferred_a_bit) == (1, 0)
        truth = modulation_frequency(1, 0, CFG)
        assert record.observed_frequency == pytest.approx(truth, abs=1e6)


class TestTraces:
    def test_clean_trace_peak_is_within_a_bin(self):
        for pair in PAIRS:
            samples = synth_trace(*pair, CFG, snr=math.inf, rng=np.random.default_rng(0))
            bin_width = CFG.trace_sample_rate / len(samples)
            truth = modulation_frequency(*pair, CFG) / CFG.trace_frequency_scale
            assert detect_peak(samples, CFG.trace_sample_rate) == pytest.approx(
                truth, abs=bin_width
            )

    def test_noisy_traces_classify_correctly(self):
        correct = 0
        trials = 0
        for seed in range(30):
            pair = PAIRS[seed % 4]
            samples = synth_trace(*pair, CFG, snr=10.0, rng=np.random.default_rng(seed))
            detected = detect_peak(samples, CFG.trace_sample_rate)
            trials += 1
            try:
                inferred = classify_frequency(detected * CFG.trace_frequency_scale, CFG)
            except UnclassifiableFrequency:
                continue
            correct += inferred == pair
        assert correct >= trials - 1

    def test_sampling_below_nyquist_raises(self):
        # The highest scaled line sits at ~141 kHz, so 200 kHz is too slow.
        slow = dataclasses.replace(CFG, trace_duration=0.01, trace_sample_rate=2e5)
        with pytest.raises(AliasingError):
            synth_trace(0, 0, slow, snr=math.inf, rng=np.random.default_rng(0))

    def test_non_positive_snr_rejected(self):
        short = dataclasses.replace(CFG, trace_duration=0.01)
        for snr in (0.0, -3.0):
            with pytest.raises(ValueError):
                synth_trace(0, 0, short, snr=snr, rng=np.random.default_rng(0))

    def test_bits_are_read_by_value(self):
        short = dataclasses.replace(CFG, trace_duration=0.01)
        trace = synth_trace(1, 1, short, snr=math.inf, rng=np.random.default_rng(0))
        assert np.array_equal(synth_trace(1.0, True, short, math.inf, 0), trace)
        with pytest.raises(ValueError, match="^bits must be 0 or 1, got 2, 0$"):
            synth_trace(2, 0, short, snr=math.inf, rng=np.random.default_rng(0))

    def test_duration_reflects_the_sample_count(self):
        cfg = dataclasses.replace(CFG, trace_duration=0.013)
        samples = synth_trace(0, 0, cfg, snr=math.inf, rng=np.random.default_rng(0))
        assert len(samples) == 13000


# In-test oracles for the traced route: the plain expressions, with no
# in-place noise, reused rFFT workspace or memoised lines.
RATE = 2.0**20  # above twice the highest scaled line; N / RATE is exact


def oracle_samples(p_bit, a_bit, snr, count, seed):
    line = modulation_frequency(p_bit, a_bit, CFG) / CFG.trace_frequency_scale
    tone = np.sin(2.0 * math.pi * line * (np.arange(count) / RATE))
    sigma = math.sqrt(1.0 / (2.0 * snr))
    if sigma > 0:
        return tone + np.random.default_rng(seed).normal(0.0, sigma, count)
    return tone


def oracle_peak(samples, sample_rate):
    if len(samples) < 2:
        raise ValueError("trace too short for peak detection")
    spectrum = np.abs(np.fft.rfft(samples * np.hanning(len(samples))))
    peak = 1 + int(np.argmax(spectrum[1:]))
    offset = 0.0
    if 1 <= peak < len(spectrum) - 1:
        left, mid, right = spectrum[peak - 1], spectrum[peak], spectrum[peak + 1]
        denominator = left - 2.0 * mid + right
        if denominator != 0.0:
            offset = float(np.clip(0.5 * (left - right) / denominator, -0.5, 0.5))
    return (peak + offset) * sample_rate / len(samples)


def traced(p_bit, a_bit, snr, count, seed):
    cfg = dataclasses.replace(CFG, trace_duration=count / RATE, trace_sample_rate=RATE)
    return synth_trace(p_bit, a_bit, cfg, snr=snr, rng=np.random.default_rng(seed))


BITS = st.sampled_from(PAIRS)
SNRS = st.one_of(st.floats(1e-3, 1e3), st.just(math.inf))
COUNTS = st.one_of(st.sampled_from([2, 3, 50_000]), st.integers(2, 5_000))
SEEDS = st.integers(0, 2**32 - 1)


class TestTracedRouteOracles:
    @settings(deadline=None, max_examples=60)
    @given(bits=BITS, snr=SNRS, count=COUNTS, seed=SEEDS)
    def test_samples_match_the_plain_tone_plus_noise(self, bits, snr, count, seed):
        samples = traced(*bits, snr, count, seed)
        expected = oracle_samples(*bits, snr, count, seed)
        assert samples.dtype == np.float64
        assert samples.tobytes() == expected.tobytes()
        # A clean trace is the shared read-only tone; a noisy one is its own array.
        assert samples.flags.writeable == (snr != math.inf)

    @settings(deadline=None, max_examples=60)
    @given(bits=BITS, snr=SNRS, count=COUNTS, seed=SEEDS)
    def test_peak_matches_the_plain_expression_and_leaves_samples_alone(
        self, bits, snr, count, seed
    ):
        samples = traced(*bits, snr, count, seed)
        before = samples.copy()
        assert detect_peak(samples, RATE) == oracle_peak(before, RATE)
        assert samples.tobytes() == before.tobytes()

    @settings(deadline=None, max_examples=30)
    @given(
        first=st.tuples(BITS, SNRS, COUNTS, SEEDS),
        second=st.tuples(BITS, SNRS, COUNTS, SEEDS),
    )
    def test_interleaved_lengths_give_the_same_peaks(self, first, second):
        traces = [traced(*bits, snr, count, seed) for bits, snr, count, seed in (first, second)]
        expected = [oracle_peak(samples, RATE) for samples in traces]
        for index in (0, 1, 0, 1, 1, 0):
            assert detect_peak(traces[index], RATE) == expected[index]

    @pytest.mark.parametrize("count", [0, 1])
    def test_short_traces_raise_what_the_plain_expression_raises(self, count):
        samples = np.zeros(count)
        with pytest.raises(ValueError) as expected:
            oracle_peak(samples, RATE)
        with pytest.raises(ValueError) as raised:
            detect_peak(samples, RATE)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("count", [0, 1])
    def test_short_traces_leave_the_workspace_alone(self, count):
        length = round(CFG.trace_duration * CFG.trace_sample_rate)
        workspace = readout._workspace(length)
        with pytest.raises(ValueError, match="^trace too short for peak detection$"):
            detect_peak(np.zeros(count), RATE)
        assert readout._workspace(length) is workspace
        assert readout._workspace.cache_info().currsize == 1

    @pytest.mark.parametrize("shape", [(), (2, 500), (1, 1000)])
    def test_samples_that_are_not_one_dimensional_are_refused(self, shape):
        with pytest.raises(ValueError, match="^samples must be one-dimensional"):
            detect_peak(np.ones(shape), RATE)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1, 499])
    def test_a_non_finite_sample_is_refused_without_a_warning(self, bad, where):
        samples = synth_trace(1, 0, CFG, snr=1.0, rng=np.random.default_rng(5))[:500].copy()
        samples[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^samples give a non-finite peak magnitude"):
                detect_peak(samples, RATE)

    def test_a_spectrum_that_overflows_is_refused(self):
        with pytest.raises(ValueError, match="^samples give a non-finite peak magnitude"):
            detect_peak(np.full(1000, 1e308), RATE)

    @pytest.mark.parametrize("count", [0, 1])
    def test_traces_under_two_samples_are_refused(self, count):
        with pytest.raises(ConfigError):
            traced(0, 0, 1.0, count, 0)


def traced_peak(call):
    """Peak traced bytes of ``call()`` and the value it returned."""
    tracemalloc.start()
    try:
        value = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, value


class TestTracedReadAllocations:
    # Bounds that hold by construction: after one warm-up read (which fills
    # the window, tone and workspace caches), a read allocates the trace's
    # samples and nothing else of trace size.
    def make(self):
        return synth_trace(1, 0, CFG, snr=1.0, rng=np.random.default_rng(3))

    def test_peak_detection_allocates_less_than_one_trace(self):
        samples = self.make()
        detect_peak(samples, CFG.trace_sample_rate)
        peak, _ = traced_peak(lambda: detect_peak(samples, CFG.trace_sample_rate))
        assert peak < samples.nbytes

    def test_synthesis_allocates_one_samples_array(self):
        detect_peak(self.make(), CFG.trace_sample_rate)
        peak, samples = traced_peak(self.make)
        assert samples.nbytes <= peak < 2 * samples.nbytes


class TestTracedReadInTheWorkspace:
    # A traced read draws its samples into detect_peak's scratch; it must
    # observe what synthesising a trace of its own and detecting its peak
    # observes, from the same stream.
    @settings(deadline=None, max_examples=60)
    @given(bits=BITS, snr=SNRS, count=st.integers(2, 5_000), seed=SEEDS)
    def test_a_traced_read_observes_the_oracle_peak(self, bits, snr, count, seed):
        cfg = dataclasses.replace(CFG, trace_duration=count / RATE, trace_sample_rate=RATE)
        state = PureState.from_bits((bits[0], 0, bits[1]))
        stream = np.random.default_rng(seed)
        stream.random(), stream.random()  # the nucleus and tip collapses
        line = modulation_frequency(*bits, CFG) / CFG.trace_frequency_scale
        samples = np.sin(2.0 * math.pi * line * (np.arange(count) / RATE))
        sigma = math.sqrt(1.0 / (2.0 * snr))
        if sigma > 0:
            samples = samples + stream.normal(0.0, sigma, count)
        expected = oracle_peak(samples, RATE) * CFG.trace_frequency_scale
        try:
            pair = classify_frequency(expected, cfg)
        except UnclassifiableFrequency:
            with pytest.raises(UnclassifiableFrequency):
                measure_via_current(state, 0, LAYOUT, cfg, seed, trace_snr=snr)
            return
        record, _ = measure_via_current(state, 0, LAYOUT, cfg, seed, trace_snr=snr)
        assert record.observed_frequency == expected
        assert (record.inferred_p_bit, record.inferred_a_bit) == pair

    def test_a_traced_read_allocates_less_than_one_trace(self):
        state = PureState.from_bits((1, 0, 1))

        def read():
            return measure_via_current(state.copy(), 0, LAYOUT, CFG, 3, trace_snr=1.0)

        read()
        peak, (record, _) = traced_peak(read)
        assert (record.inferred_p_bit, record.inferred_a_bit) == (1, 1)
        assert peak < 8 * round(CFG.trace_duration * CFG.trace_sample_rate)


# The reads drawn ahead on the worker thread must be invisible: every record,
# collapsed state and caller stream equals the inline route's, which draws a
# read's normals off the caller's stream where the read stands.
def inline_read(state, cfg, rng, snr):
    """The traced read with its normals drawn inline, from public pieces."""
    p_bit, state, probability = measure_spin(state, LAYOUT.nucleus_site(0), rng)
    a_bit, state, _ = measure_spin(state, LAYOUT.tip_site, rng)
    samples = synth_trace(p_bit, a_bit, cfg, snr, rng)
    observed = detect_peak(samples, cfg.trace_sample_rate) * cfg.trace_frequency_scale
    p_bit, a_bit = classify_frequency(observed, cfg)
    return MeasurementRecord(0, float(observed), p_bit, a_bit, probability), state


def outcome(read, state, cfg, rng, snr):
    """What a read shows: its record and collapsed amplitudes, or its error."""
    try:
        record, after = read(state.copy(), cfg, rng, snr)
    except UnclassifiableFrequency as error:
        return type(error), str(error)
    return record, after.amplitudes.tobytes()


def current_read(state, cfg, rng, snr):
    return measure_via_current(state, 0, LAYOUT, cfg, rng, trace_snr=snr)


def plain(state):
    """A bit generator's state with its arrays as lists, so ``==`` compares it."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def run_both(steps, kind, seed):
    """Outcomes and final caller states of ``steps`` down both routes."""
    results = []
    for read in (current_read, inline_read):
        stream = np.random.Generator(kind(seed))
        seen = [
            outcome(read, SUPERPOSED, STEP_CONFIGS[config], stream, snr)
            if action == "read" else draw(stream, action)
            for action, config, snr in steps
        ]
        results.append((seen, plain(stream.bit_generator.state)))
    return results


def draw(stream, action):
    if action == "random":
        return stream.random()
    return stream.standard_normal(3).tobytes()


SUPERPOSED = PureState.product(LAYOUT, {0: (0.6, 0.8)})
STEP_CONFIGS = (
    CFG,
    dataclasses.replace(CFG, trace_duration=64 / RATE, trace_sample_rate=RATE),
    dataclasses.replace(CFG, trace_duration=3_000 / RATE, trace_sample_rate=RATE),
)
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "read", "read", "random", "normals"]),
        st.integers(0, len(STEP_CONFIGS) - 1),
        st.one_of(st.floats(1e-3, 1e3), st.just(math.inf)),
    ),
    min_size=1,
    max_size=8,
)
KINDS = st.sampled_from(
    [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.MT19937]
)


def drawing_ahead():
    """Draw reads ahead whatever the host's CPU count."""
    return mock.patch.object(readout, "_spare_cpu", lambda: True)


def holding_draws(release, lock=False):
    """A patch that makes the worker wait for ``release`` before each draw.

    With ``lock`` the worker holds the clone's lock while it waits. Also
    returns a list that says, per draw, whether its buffer changed while it
    waited, and an event set once a draw waits.
    """
    original = readout._draw
    written_over, waiting = [], threading.Event()

    def held(clone, out):
        before = out.tobytes()
        with clone.bit_generator.lock if lock else contextlib.nullcontext():
            waiting.set()
            release.wait(timeout=30)
        written_over.append(out.tobytes() != before)
        return original(clone, out)

    return mock.patch.object(readout, "_draw", held), written_over, waiting


def spare_samples(call):
    """``call()``'s value and, per traced read, whether its samples were drawn ahead."""
    seen = []
    detect = readout.detect_peak

    def spy(samples, sample_rate):
        workspace = readout._workspace(len(samples))[1]
        seen.append(samples is not workspace)
        return detect(samples, sample_rate)

    with mock.patch.object(readout, "detect_peak", spy):
        return call(), seen


def settle():
    """Wait for every read drawn ahead to finish."""
    if readout._executor is not None:
        readout._executor.submit(lambda: None).result(timeout=30)


class TestReadsDrawnAhead:
    @settings(deadline=None, max_examples=40)
    @given(steps=STEPS, kind=KINDS, seed=SEEDS)
    def test_every_read_and_the_stream_match_the_inline_route(self, steps, kind, seed):
        with drawing_ahead():
            ahead, inline = run_both(steps, kind, seed)
        assert ahead == inline

    def test_consecutive_reads_take_the_normals_drawn_ahead(self):
        steps = [("read", 0, 3.0)] * 4
        with drawing_ahead():
            (ahead, inline), drawn_ahead = spare_samples(
                lambda: run_both(steps, np.random.PCG64, 11)
            )
        assert ahead == inline
        # Only the first read draws inline; the spy sees the current route alone.
        assert drawn_ahead == [False, True, True, True]

    def test_a_slow_worker_gives_the_same_bits(self):
        original = readout._draw

        def slow(clone, out):
            time.sleep(0.02)
            return original(clone, out)

        steps = [("read", 0, 3.0), ("read", 1, 10.0), ("read", 1, 10.0), ("read", 0, 1.0)]
        with drawing_ahead(), mock.patch.object(readout, "_draw", slow):
            (ahead, inline), drawn_ahead = spare_samples(
                lambda: run_both(steps, np.random.PCG64, 5)
            )
        assert ahead == inline
        # A new trace length draws inline; the same one takes the slow work.
        assert drawn_ahead == [False, False, True, False]

    def test_a_stale_draw_is_waited_for_never_adopted_and_never_written_over(self):
        release = threading.Event()
        streams = [np.random.default_rng(seed) for seed in (1, 2, 3)]
        expected = [outcome(inline_read, SUPERPOSED, CFG, np.random.default_rng(seed), 3.0)
                    for seed in (1, 2, 3)]
        settle()
        executor = readout._worker()
        submit = executor.submit
        submitted, unfinished, seen = [], [], []
        held, written_over, _ = holding_draws(release)

        def counted(fn, *args):
            submitted.append(submit(fn, *args))
            return submitted[-1]

        def read(stream):
            seen.append(outcome(current_read, SUPERPOSED, CFG, stream, 3.0))
            unfinished.append(sum(not future.done() for future in submitted))

        def reads():
            read(streams[0])
            # Another stream: the held draw is stale, and the read waits for it.
            reader = threading.Thread(target=read, args=(streams[1],))
            reader.start()
            reader.join(timeout=0.2)
            assert reader.is_alive() and not submitted[0].done()
            release.set()
            reader.join(timeout=30)
            assert not reader.is_alive()
            read(streams[2])

        try:
            with drawing_ahead(), held, mock.patch.object(executor, "submit", counted):
                _, drawn_ahead = spare_samples(reads)
        finally:
            release.set()
            settle()
        assert seen == expected
        assert drawn_ahead == [False, False, False]
        assert len(submitted) == 3 and max(unfinished) <= 1
        assert written_over == [False, False, False]

    @pytest.mark.parametrize("probe", ["affinity", "cpu_count"])
    def test_one_cpu_draws_nothing_ahead(self, monkeypatch, probe):
        if probe == "affinity":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(readout, "_worker", lambda: pytest.fail("a worker was asked for"))
        readout._spare_cpu.cache_clear()
        try:
            steps = [("read", 0, 3.0)] * 3
            (ahead, inline), drawn_ahead = spare_samples(
                lambda: run_both(steps, np.random.PCG64, 7)
            )
        finally:
            readout._spare_cpu.cache_clear()
        assert ahead == inline
        assert not any(drawn_ahead)
        assert readout._pending is None

    def test_importing_spintip_starts_no_thread(self):
        # Importing concurrent.futures or numpy.random would add milliseconds to every start.
        probe = (
            "import sys, threading, spintip\n"
            "print('concurrent.futures' in sys.modules, 'numpy.random' in sys.modules,"
            " threading.active_count())\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60
        )
        assert completed.stdout.split() == ["False", "False", "1"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("hold_lock", [False, True])
    def test_a_forked_child_reads_without_its_parents_worker(self, hold_lock):
        # With ``hold_lock`` the parent's worker holds the clone's lock at the
        # fork, which no thread in the child would ever release.
        release = threading.Event()
        stream, other = np.random.default_rng(9), np.random.default_rng(10)
        twin = np.random.default_rng(9)
        outcome(inline_read, SUPERPOSED, CFG, twin, 3.0)
        expected = [outcome(inline_read, SUPERPOSED, CFG, twin, 3.0),
                    outcome(inline_read, SUPERPOSED, CFG, np.random.default_rng(10), 3.0)]
        held, _, waiting = holding_draws(release, lock=hold_lock)
        settle()
        reader, writer = os.pipe()
        try:
            with drawing_ahead(), held:
                outcome(current_read, SUPERPOSED, CFG, stream, 3.0)
                assert readout._pending is not None  # held until after the fork
                assert waiting.wait(timeout=30)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:  # pragma: no cover - the child
                    try:
                        release.set()
                        seen = [outcome(current_read, SUPERPOSED, CFG, rng, 3.0)
                                for rng in (stream, other)]
                        os.write(writer, shown(seen).encode())
                    finally:
                        os._exit(0)
        finally:
            release.set()
            settle()
        os.close(writer)
        deadline = time.monotonic() + 30
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child waited on its parent's worker")
            time.sleep(0.01)
        with os.fdopen(reader, "rb") as pipe:
            received = pipe.read().decode()
        assert received == shown(expected)


def shown(outcomes):
    """Read outcomes as text, to pass from a forked child."""
    return repr([(dataclasses.astuple(record), amplitudes.hex())
                 for record, amplitudes in outcomes])


def traced_runs(seeds):
    """Seeded traced runs of a 4-qubit ROT-all / INIT / MEASURE-all program at SNR 0.5."""
    from spintip import compile_circuit, execute, parse_circuit

    layout = RegisterLayout(4)
    text = "".join(f"ROT {q} {0.7 + q} 0.0\n" for q in range(4))
    text += "INIT\n" + "".join(f"MEASURE {q}\n" for q in range(4))
    program = compile_circuit(parse_circuit(text), layout, CFG)
    state = PureState.ground(layout)
    results = []
    for seed in seeds:
        try:
            run = execute(program, state, layout, CFG, np.random.default_rng(seed), trace_snr=0.5)
        except UnclassifiableFrequency as error:
            results.append((seed, str(error)))
        else:
            results.append((seed, run.records, run.final_state.amplitudes.tobytes()))
    return results


class TestTracedReadsFromTwoThreads:
    def test_two_threads_give_the_sequential_records(self):
        seeds = list(range(40))
        expected = traced_runs(seeds)
        halves = [seeds[0::2], seeds[1::2]]
        seen = [None, None]

        def run(k):
            seen[k] = traced_runs(halves[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # switch threads often, inside a read too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        settle()
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(seen[0] + seen[1], key=lambda result: result[0]) == expected
