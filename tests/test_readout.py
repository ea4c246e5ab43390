"""Current-based readout: line classification, traces, and peak detection."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintip import (
    MachineConfig,
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
    spectrum = np.abs(np.fft.rfft(samples * np.hanning(len(samples))))
    if len(spectrum) < 2:
        raise ValueError("trace too short for peak detection")
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
