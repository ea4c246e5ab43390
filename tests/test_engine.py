"""Pulse application, measurement, and thermal-state behaviour."""

import bisect
import contextlib
import copy
import dataclasses
import io
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spintip import (
    ApplyPulse,
    Channel,
    CnotGate,
    ConditionalPulse,
    InitGate,
    MachineConfig,
    MeasureViaCurrent,
    MoveTip,
    Pulse,
    PulseMode,
    PulseProgram,
    PureState,
    RegisterLayout,
    RotGate,
    Species,
    ancilla_diagnostics,
    apply_selective_pulse,
    classify_frequency,
    compile_circuit,
    detect_peak,
    execute,
    measure_spin,
    measure_via_current,
    modulation_frequency,
    parse_circuit,
    site_flip_frequency_array,
    synth_trace,
    thermal_ground_probability,
    thermal_sample,
    transition_frequency,
)
from spintip import cli, compiler, engine, physics
from spintip.engine import IDLE_POPULATION
from spintip.errors import DegenerateState, MismatchedRegister, TipParked
from spintip.readout import MeasurementRecord

CFG = MachineConfig()
LAYOUT = RegisterLayout(1, tip_position=0)
# Independently frozen lines for the single-qubit register with the tip
# engaged (see test_physics.py for their derivation).
F_NUC_E0 = 146135303.48894662
F_NUC_E1 = 26135303.488946617
F_ELEC_00 = 141022449360.72705
F_TIP_PARKED = 53541094.841270894


def nuclear_pi(frequency=F_NUC_E0, angle=math.pi, phase=0.0, mode=PulseMode.LOGICAL_X):
    return Pulse(Channel.PHOSPHORUS_NUCLEAR_RF, frequency, angle, phase, 10e-6, mode)


class TestPulseValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(frequency=0.0),
            dict(frequency=-5e6),
            dict(angle=0.0),
            dict(angle=-0.1),
            dict(angle=2 * math.pi + 0.2),
            dict(duration=0.0),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        base = dict(
            channel=Channel.ELECTRON_RF,
            frequency=1e9,
            angle=math.pi,
            phase=0.0,
            duration=1e-7,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            Pulse(**base)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="phase must be finite"):
            Pulse(Channel.ELECTRON_RF, 1e9, math.pi, phase, 1e-7)

    def test_full_turn_allowed(self):
        Pulse(Channel.ELECTRON_RF, 1e9, 2 * math.pi, 0.0, 1e-7)


class TestSelectivePulses:
    def test_resonant_pi_swaps_the_addressed_pair(self):
        state = PureState.from_bits((0, 0, 0))
        after, outcome = apply_selective_pulse(state, nuclear_pi(), LAYOUT, CFG)
        assert after.population(0, 1) == pytest.approx(1.0, abs=1e-15)
        # The nuclear line is tip-bit independent, so both tip branches hit it.
        assert outcome.resonant_pair_count == 2
        assert outcome.resonant_population == pytest.approx(1.0, abs=1e-15)
        assert not outcome.no_resonant_transition

    def test_off_resonant_pulse_is_exactly_identity(self):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = PureState(amps / np.linalg.norm(amps), 3)
        before = state.amplitudes.copy()
        detuned = nuclear_pi(frequency=F_NUC_E0 + 3e3)  # 3 kHz > 1 kHz tolerance
        after, outcome = apply_selective_pulse(state, detuned, LAYOUT, CFG)
        assert np.array_equal(after.amplitudes, before)
        assert outcome.resonant_pair_count == 0
        assert outcome.no_resonant_transition

    def test_double_pi_returns_bit_exactly(self):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = PureState(amps / np.linalg.norm(amps), 3)
        before = state.amplitudes.copy()
        once, _ = apply_selective_pulse(state, nuclear_pi(), LAYOUT, CFG)
        twice, _ = apply_selective_pulse(once, nuclear_pi(), LAYOUT, CFG)
        # A pi flip is a pure amplitude swap, so undoing it is bit-exact.
        assert np.array_equal(twice.amplitudes, before)

    def test_full_turn_leaves_populations_alone(self):
        state = PureState.from_bits((0, 0, 0))
        pulse = nuclear_pi(angle=2 * math.pi)
        after, _ = apply_selective_pulse(state, pulse, LAYOUT, CFG)
        assert after.population(0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_phased_full_turn_gives_global_minus_sign(self):
        state = PureState.from_bits((0, 0, 0))
        pulse = nuclear_pi(angle=2 * math.pi, mode=PulseMode.PHASED_ROTATION)
        after, _ = apply_selective_pulse(state, pulse, LAYOUT, CFG)
        index = 0b000
        assert after.amplitudes[index] == pytest.approx(-1.0 + 0j, abs=1e-12)

    @pytest.mark.parametrize("angle", [math.pi / 3, math.pi / 2, 1.9 * math.pi])
    @pytest.mark.parametrize("phase", [0.0, 0.7, -2.0])
    def test_phased_rotation_matches_a_two_by_two_oracle(self, angle, phase):
        state = PureState.from_bits((0, 0, 0))
        pulse = nuclear_pi(angle=angle, phase=phase, mode=PulseMode.PHASED_ROTATION)
        after, _ = apply_selective_pulse(state, pulse, LAYOUT, CFG)
        c = math.cos(angle / 2)
        s = math.sin(angle / 2)
        # Column of the textbook phased-rotation matrix acting on |0>.
        lower = c  # stays on the start level
        upper = -1j * s * np.exp(1j * phase)
        i_stay = 0b000
        i_flip = 0b100  # nucleus bit is the leading bit of three sites
        assert after.amplitudes[i_stay] == pytest.approx(lower, abs=1e-12)
        assert after.amplitudes[i_flip] == pytest.approx(upper, abs=1e-12)

    @pytest.mark.parametrize("angle", [math.pi / 4, math.pi / 2, 2.5])
    def test_fractional_angles_transfer_sine_squared(self, angle):
        state = PureState.from_bits((0, 0, 0))
        after, _ = apply_selective_pulse(state, nuclear_pi(angle=angle), LAYOUT, CFG)
        assert after.population(0, 1) == pytest.approx(math.sin(angle / 2) ** 2, abs=1e-12)

    def test_norm_preserved_over_many_random_pulses(self):
        rng = np.random.default_rng(23)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = PureState(amps / np.linalg.norm(amps), 3)
        lines = sorted(
            {
                transition_frequency(bits, site, LAYOUT, CFG)
                for site in range(3)
                for bits in [(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)]
            }
        )
        channels = [
            Channel.PHOSPHORUS_NUCLEAR_RF,
            Channel.ELECTRON_RF,
            Channel.TIP_CARBON_NUCLEAR_RF,
        ]
        for _ in range(200):
            pulse = Pulse(
                channels[int(rng.integers(3))],
                float(rng.choice(lines)),
                float(rng.uniform(0.05, 2 * math.pi)),
                float(rng.uniform(-math.pi, math.pi)),
                1e-6,
                PulseMode.PHASED_ROTATION if rng.integers(2) else PulseMode.LOGICAL_X,
            )
            state, _ = apply_selective_pulse(state, pulse, LAYOUT, CFG)
            assert abs(state.norm() - 1.0) < 1e-12

    def test_pulse_only_touches_the_addressed_site(self):
        rng = np.random.default_rng(31)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = PureState(amps / np.linalg.norm(amps), 3)
        before = [state.population(site, 0) for site in (1, 2)]
        after, _ = apply_selective_pulse(state, nuclear_pi(), LAYOUT, CFG)
        for site, population in zip((1, 2), before):
            assert after.population(site, 0) == pytest.approx(population, abs=1e-12)

    def test_qubit_channels_need_the_tip(self):
        parked = RegisterLayout(1)
        state = PureState.ground(parked)
        with pytest.raises(TipParked):
            apply_selective_pulse(state, nuclear_pi(), parked, CFG)

    def test_tip_channel_works_while_parked(self):
        parked = RegisterLayout(1)
        state = PureState.ground(parked)
        pulse = Pulse(Channel.TIP_CARBON_NUCLEAR_RF, F_TIP_PARKED, math.pi, 0.0, 10e-6)
        after, outcome = apply_selective_pulse(state, pulse, parked, CFG)
        assert outcome.resonant_pair_count > 0
        assert after.population(2, 1) == pytest.approx(1.0, abs=1e-15)

    def test_resonant_but_unpopulated_pair_flags_idle(self):
        # The e=1 nuclear line exists in the spectrum, but the register sits
        # entirely on the e=0 branch, so nothing actually moves.
        state = PureState.from_bits((0, 0, 0))
        before = state.amplitudes.copy()
        after, outcome = apply_selective_pulse(
            state, nuclear_pi(frequency=F_NUC_E1), LAYOUT, CFG
        )
        assert outcome.resonant_pair_count >= 1
        assert outcome.resonant_population <= 1e-12
        assert outcome.no_resonant_transition
        assert np.array_equal(after.amplitudes, before)


class TestMeasurement:
    def test_basis_states_measure_deterministically(self):
        for bit in (0, 1):
            state = PureState.from_bits((bit, 0, 0))
            observed, collapsed, probability = measure_spin(state, 0, np.random.default_rng(0))
            assert observed == bit
            # The reported probability belongs to the observed outcome.
            assert probability == pytest.approx(1.0, abs=1e-15)
            assert collapsed.population(0, bit) == pytest.approx(1.0, abs=1e-15)

    def test_born_statistics(self):
        state = PureState.product(RegisterLayout(1), {0: (0.6, 0.8)})
        hits = sum(
            measure_spin(state.copy(), 0, np.random.default_rng(seed))[0] for seed in range(400)
        )
        # p(1) = 0.64; allow four binomial sigmas around the mean of 256.
        sigma = math.sqrt(400 * 0.64 * 0.36)
        assert abs(hits - 256) < 4 * sigma

    def test_collapse_is_contagious_for_entangled_sites(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = amps[0b110] = 1 / math.sqrt(2)
        state = PureState(amps, 3)
        for seed in range(12):
            observed, collapsed, _ = measure_spin(state.copy(), 0, np.random.default_rng(seed))
            partner, _, _ = measure_spin(collapsed, 1, np.random.default_rng(seed + 99))
            assert partner == observed

    def test_measuring_a_nan_state_raises(self):
        # nan fails every comparison, so the guard must be written to let
        # only a norm known to be large enough through.
        amplitudes = np.zeros(8, dtype=complex)
        amplitudes[0], amplitudes[5] = 1.0, math.nan
        with pytest.raises(DegenerateState):
            measure_spin(PureState(amplitudes, 3), 0, np.random.default_rng(0))

    def test_measuring_nothing_raises(self):
        empty = PureState(np.zeros(8, dtype=complex), 3)
        with pytest.raises(DegenerateState):
            measure_spin(empty, 0, np.random.default_rng(0))


class TestThermalStates:
    def oracle_probability(self, splitting_hz, temperature):
        x = 6.62607015e-34 * splitting_hz / (1.380649e-23 * temperature)
        return 1.0 / (1.0 + math.exp(-x))

    def test_ground_probabilities_match_the_boltzmann_oracle(self):
        for species, splitting in [
            (Species.ELECTRON, 139962449360.727),
            (Species.PHOSPHORUS_NUCLEUS, 86135303.48894662),
            (Species.TIP_CARBON_NUCLEUS, 53541094.841270894),
        ]:
            expected = self.oracle_probability(splitting, 1.0)
            assert thermal_ground_probability(species, CFG) == pytest.approx(expected, rel=1e-9)

    def test_frozen_default_values(self):
        assert thermal_ground_probability(Species.ELECTRON, CFG) == pytest.approx(
            0.9987914662377434, abs=1e-12
        )
        assert thermal_ground_probability(Species.PHOSPHORUS_NUCLEUS, CFG) == pytest.approx(
            0.5010334591749023, abs=1e-12
        )
        assert thermal_ground_probability(Species.TIP_CARBON_NUCLEUS, CFG) == pytest.approx(
            0.500642391467935, abs=1e-12
        )

    def test_hot_limit_is_a_coin_flip(self):
        hot = dataclasses.replace(CFG, temperature=1e9)
        assert thermal_ground_probability(Species.PHOSPHORUS_NUCLEUS, hot) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_sampling_is_reproducible(self):
        layout = RegisterLayout(2)
        first = thermal_sample(layout, CFG, np.random.default_rng(99))
        second = thermal_sample(layout, CFG, np.random.default_rng(99))
        assert first == second

    def test_samples_are_bit_tuples_with_cold_electrons(self):
        layout = RegisterLayout(2)
        electron_ground = 0
        for seed in range(300):
            bits = thermal_sample(layout, CFG, np.random.default_rng(seed))
            assert len(bits) == layout.num_sites
            assert set(bits) <= {0, 1}
            for site in (1, 3):
                electron_ground += int(bits[site] == 0)
        assert electron_ground >= 590  # 600 electron draws at p ~ 0.9988


class TestDiagnostics:
    def test_product_state_reports_exact_populations(self):
        state = PureState.product(RegisterLayout(2), {0: (0.6, 0.8)})
        report = ancilla_diagnostics(state, RegisterLayout(2))
        assert report.purity == pytest.approx(1.0, abs=1e-12)
        for name in ("e0", "e1", "tip"):
            assert report.populations[name] == pytest.approx(1.0, abs=1e-12)

    def test_entangled_ancillae_halve_the_purity(self):
        amps = np.zeros(32, dtype=complex)
        amps[0b00000] = amps[0b11111] = 1 / math.sqrt(2)
        state = PureState(amps, 5)
        report = ancilla_diagnostics(state, RegisterLayout(2))
        # Reduced state of two equal-weight orthogonal branches: purity 1/2.
        assert report.purity == pytest.approx(0.5, abs=1e-12)
        for name in ("e0", "e1", "tip"):
            assert report.populations[name] == pytest.approx(0.5, abs=1e-12)


    def test_complex_coherence_is_still_pure(self):
        # Ancillas in |0>|+i>: a pure product state with a complex coherence.
        # sum(rho * rho.conj().T) read 0 here; Tr(rho^2) is 1.
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = 1 / math.sqrt(2)
        amps[0b001] = 1j / math.sqrt(2)
        report = ancilla_diagnostics(PureState(amps, 3), LAYOUT)
        assert report.purity == pytest.approx(1.0, abs=1e-12)


class TestStateText:
    def test_dump_text_lists_populated_amplitudes(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = 0.6
        amps[0b101] = 0.8j
        state = PureState(amps, 3)
        text = state.dump_text()
        assert text == "000 0.6 0.0\n101 0.0 0.8\n"


# -- Index-array oracles ------------------------------------------------------
#
# The engine drives slabs of a reshaped view, one per partner pattern, and
# reads populations through views. These are the register-sized index-array
# routes it replaced, kept here as references: a line array over every basis
# index, fancy-indexed pair updates, arange masks, and the purity from the
# Gram matrix of the ancilla side (with its trace written correctly).


def oracle_pair_unitary(pulse):
    if pulse.mode is PulseMode.LOGICAL_X:
        w = np.exp(1j * math.pi * (pulse.angle / math.pi))
        u00 = u11 = (1.0 + w) / 2.0
        u01 = u10 = (1.0 - w) / 2.0
    else:
        c = math.cos(pulse.angle / 2.0)
        s = math.sin(pulse.angle / 2.0)
        u00 = u11 = complex(c, 0.0)
        u01 = -1j * s * np.exp(-1j * pulse.phase)
        u10 = -1j * s * np.exp(1j * pulse.phase)
    return u00, u01, u10, u11


def addressed_site(channel, layout):
    if channel is Channel.TIP_CARBON_NUCLEAR_RF:
        return layout.tip_site
    if channel is Channel.ELECTRON_RF:
        return layout.electron_site(layout.tip_position)
    return layout.nucleus_site(layout.tip_position)


def oracle_pulse(state, pulse, layout, cfg):
    """(amplitudes, pair count, population, idle) by register-sized index arrays."""
    site = addressed_site(pulse.channel, layout)
    shift = layout.num_sites - 1 - site
    lines = site_flip_frequency_array(layout, cfg, site)
    indices = np.arange(layout.dimension)
    lower = indices[((indices >> shift) & 1) == 0]
    resonant = np.abs(lines[lower] - pulse.frequency) <= cfg.selectivity_tolerance
    i0 = lower[resonant]
    i1 = i0 + (1 << shift)
    amps = state.amplitudes.copy()
    population = float(np.sum(np.abs(amps[i0]) ** 2) + np.sum(np.abs(amps[i1]) ** 2))
    if i0.size:
        if pulse.mode is PulseMode.LOGICAL_X and pulse.angle == math.pi:
            amps[i0], amps[i1] = amps[i1], amps[i0]
        else:
            u00, u01, u10, u11 = oracle_pair_unitary(pulse)
            a0 = amps[i0]
            a1 = amps[i1]
            amps[i0] = u00 * a0 + u01 * a1
            amps[i1] = u10 * a0 + u11 * a1
    return amps, int(i0.size), population, population <= IDLE_POPULATION


def oracle_population(state, site, bit):
    indices = np.arange(len(state.amplitudes))
    mask = ((indices >> (state.num_sites - 1 - site)) & 1) == bit
    return float(np.sum(np.abs(state.amplitudes[mask]) ** 2))


def oracle_measure(state, site, rng):
    """The collapse by index masks: each half summed once, the kept one rescaled by its root."""
    rng = np.random.default_rng(rng)
    amps = state.amplitudes
    indices = np.arange(len(amps))
    site_bits = (indices >> (state.num_sites - 1 - site)) & 1
    sums = [float(np.sum(np.abs(amps[site_bits == b]) ** 2)) for b in (0, 1)]
    p_one = sums[1] / (sums[0] + sums[1])
    bit = 1 if rng.random() < p_one else 0
    probability = p_one if bit == 1 else 1.0 - p_one
    collapsed = amps.copy()
    collapsed[site_bits != bit] = 0.0
    if math.sqrt(sums[bit]) != 1.0:
        collapsed /= math.sqrt(sums[bit])
    return bit, collapsed, float(probability)


def oracle_purity(state, sites):
    n = state.num_sites
    tensor = state.amplitudes.reshape((2,) * n)
    others = [s for s in range(n) if s not in sites]
    matrix = np.transpose(tensor, tuple(sites) + tuple(others)).reshape(1 << len(sites), -1)
    rho = matrix @ matrix.conj().T
    # Tr(rho^2) = sum_ij rho_ij rho_ji. The engine's former expression,
    # sum(rho * rho.conj().T), is sum_ij rho_ij^2: wrong once rho has
    # complex off-diagonals (see test_complex_coherence_is_still_pure).
    return float(np.real(np.sum(rho * rho.T)))


# Configs in which two partner patterns share a line, so one pulse drives
# several slabs: with no tip coupling the tip bit stops shifting the electron
# and tip lines, and a window wider than the hyperfine splitting takes in
# both nuclear lines.
SHARED_LINE_CONFIGS = (
    dataclasses.replace(CFG, tip_hyperfine=0.0),
    dataclasses.replace(CFG, selectivity_tolerance=2 * CFG.hyperfine_bare),
)
PROPERTY_SETTINGS = settings(deadline=None, max_examples=150)


@st.composite
def register_states(draw, min_qubits=1):
    """A layout of 1..4 qubits and a normalised complex state, some amplitudes zero."""
    num_qubits = draw(st.integers(min_qubits, 4))
    layout = RegisterLayout(num_qubits)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
    amps[rng.random(layout.dimension) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    if not np.any(amps):
        amps[0] = 1.0
    return layout, PureState(amps / np.linalg.norm(amps), layout.num_sites)


@st.composite
def pulse_cases(draw):
    layout, state = draw(register_states())
    cfg = draw(st.sampled_from((CFG,) + SHARED_LINE_CONFIGS))
    channel = draw(st.sampled_from(list(Channel)))
    tips = list(range(layout.num_qubits))
    if channel is Channel.TIP_CARBON_NUCLEAR_RF:
        tips.append(None)
    layout = layout.with_tip(draw(st.sampled_from(tips)))
    site = addressed_site(channel, layout)
    # Any configuration's line covers every partner pattern; the offsets land
    # on it, inside and on the edge of the window, and off it.
    bits = draw(st.tuples(*[st.integers(0, 1)] * layout.num_sites))
    line = transition_frequency(bits, site, layout, cfg)
    tolerance = cfg.selectivity_tolerance
    offset = draw(st.sampled_from(
        [0.0, 0.5 * tolerance, -tolerance, 3.0 * tolerance, -3.0 * tolerance, 0.37 * line]
    ))
    assume(line + offset > 0)
    mode, angle, phase = draw(st.one_of(
        st.just((PulseMode.LOGICAL_X, math.pi, 0.0)),
        st.tuples(
            st.just(PulseMode.LOGICAL_X),
            st.floats(0.01, 2 * math.pi),
            st.just(0.0),
        ),
        st.tuples(
            st.just(PulseMode.PHASED_ROTATION),
            st.floats(0.01, 2 * math.pi),
            st.floats(-math.pi, math.pi),
        ),
    ))
    pulse = Pulse(channel, line + offset, angle, phase, 1e-6, mode)
    return state, pulse, layout, cfg


class TestAgainstIndexArrayOracles:
    @PROPERTY_SETTINGS
    @given(pulse_cases())
    def test_pulse_matches_the_index_array_route(self, case):
        state, pulse, layout, cfg = case
        amps, pairs, population, idle = oracle_pulse(state, pulse, layout, cfg)
        after, outcome = apply_selective_pulse(state, pulse, layout, cfg)
        assert np.array_equal(after.amplitudes, amps)
        assert outcome.resonant_pair_count == pairs
        assert outcome.no_resonant_transition == idle
        assert outcome.resonant_population == pytest.approx(population, abs=1e-12)
        assert after is state

    def test_shared_line_configs_drive_several_patterns(self):
        # The multi-slab path runs: a pulse hits more pairs than one partner
        # pattern holds.
        for cfg, channel, expected in [
            (SHARED_LINE_CONFIGS[0], Channel.TIP_CARBON_NUCLEAR_RF, 4),
            (SHARED_LINE_CONFIGS[0], Channel.ELECTRON_RF, 2),
            (SHARED_LINE_CONFIGS[1], Channel.PHOSPHORUS_NUCLEAR_RF, 4),
        ]:
            site = addressed_site(channel, LAYOUT)
            line = transition_frequency((0, 0, 0), site, LAYOUT, cfg)
            pulse = Pulse(channel, line, math.pi, 0.0, 1e-6)
            _, outcome = apply_selective_pulse(PureState.ground(LAYOUT), pulse, LAYOUT, cfg)
            assert outcome.resonant_pair_count == expected

    @PROPERTY_SETTINGS
    @given(register_states(), st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_measurement_matches_the_masked_route(self, case, site_draw, seed):
        layout, state = case
        site = site_draw % layout.num_sites
        for value in (0, 1):
            assert state.population(site, value) == oracle_population(state, site, value)
        bit, collapsed, probability = oracle_measure(state, site, seed)
        observed, after, reported = measure_spin(state, site, seed)
        assert observed == bit
        assert reported == probability
        assert np.array_equal(after.amplitudes, collapsed)
        assert after is state

    @PROPERTY_SETTINGS
    @given(register_states(), st.data())
    def test_purity_matches_the_ancilla_side_gram(self, case, data):
        layout, state = case
        ancillas = tuple(layout.electron_site(q) for q in range(layout.num_qubits))
        ancillas += (layout.tip_site,)
        subset = data.draw(st.lists(
            st.sampled_from(range(layout.num_sites)), min_size=1, unique=True
        ))
        before = state.amplitudes.copy()
        for sites in (None, tuple(subset)):
            report = ancilla_diagnostics(state, layout, sites)
            expected = oracle_purity(state, ancillas if sites is None else sites)
            assert report.purity == pytest.approx(expected, abs=1e-12)
        assert np.array_equal(state.amplitudes, before)


# -- Purity over the ancillas' support ----------------------------------------


@st.composite
def few_row_states(draw):
    """A state whose ancillas sit in 1..3 configurations, each with random data.

    One configuration is a clean-ancilla state, whether ground or not; more
    are leaked ones. Some data amplitudes are zero.
    """
    num_qubits = draw(st.integers(1, 4))
    layout = RegisterLayout(num_qubits)
    n = layout.num_sites
    ancillas = [layout.electron_site(q) for q in range(num_qubits)] + [layout.tip_site]
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, 1)] * len(ancillas)), min_size=1, max_size=3, unique=True
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tensor = np.zeros((2,) * n, dtype=complex)
    for row in rows:
        index = [slice(None)] * n
        for site, bit in zip(ancillas, row):
            index[site] = bit
        data = rng.normal(size=(2,) * num_qubits) + 1j * rng.normal(size=(2,) * num_qubits)
        data[rng.random(data.shape) < 0.3] = 0.0
        tensor[tuple(index)] = data
    amps = tensor.reshape(-1)
    if not np.any(amps):
        amps[0] = 1.0
    return layout, PureState(amps / np.linalg.norm(amps), n), ancillas


class TestSupportPrunedPurity:
    @PROPERTY_SETTINGS
    @given(few_row_states(), st.data())
    def test_purity_matches_the_full_gram_oracle(self, case, data):
        layout, state, ancillas = case
        unsorted = data.draw(st.permutations(ancillas))
        subset = data.draw(st.lists(
            st.sampled_from(range(layout.num_sites)), min_size=1, unique=True
        ))
        for sites in (None, tuple(unsorted), tuple(subset)):
            chosen = ancillas if sites is None else sites
            report = ancilla_diagnostics(state, layout, sites)
            assert report.purity == pytest.approx(oracle_purity(state, chosen), abs=1e-12)

    def test_clean_ancillas_cost_less_than_one_state(self):
        layout = RegisterLayout(7)
        rng = np.random.default_rng(3)
        state = PureState.product(
            layout, {q: tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for q in range(7)}
        )
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = ancilla_diagnostics(state, layout)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.purity == pytest.approx(1.0, abs=1e-12)
        assert peak <= state.amplitudes.nbytes


class TestProduct:
    @PROPERTY_SETTINGS
    @given(st.integers(1, 11), st.data())
    def test_the_tensor_is_the_kron_chain(self, num_qubits, data):
        part = st.floats(-1e3, 1e3, allow_nan=False)
        chosen = data.draw(st.lists(st.integers(0, num_qubits - 1), unique=True))
        amplitudes = {q: (complex(*data.draw(st.tuples(part, part))),
                          complex(*data.draw(st.tuples(part, part)))) for q in sorted(chosen)}
        assume(all(np.linalg.norm(pair) > 1e-3 for pair in amplitudes.values()))
        state = PureState.product(RegisterLayout(num_qubits), amplitudes)
        expected = np.ones(1, dtype=np.complex128)
        for pair in amplitudes.values():
            factor = np.array(pair, dtype=np.complex128)
            expected = np.kron(expected, factor / np.linalg.norm(factor))
        assert state.tensor.tobytes() == expected.tobytes()
        assert state.sites == tuple(2 * q for q in sorted(chosen))


class TestOwnership:
    @PROPERTY_SETTINGS
    @given(pulse_cases(), register_states(), st.integers(0, 2**32 - 1))
    def test_the_kernels_return_their_argument(self, case, register, seed):
        state, pulse, layout, cfg = case
        assert apply_selective_pulse(state, pulse, layout, cfg)[0] is state
        layout, state = register
        assert measure_spin(state, seed % layout.num_sites, seed)[1] is state
        read = layout.with_tip(seed % layout.num_qubits)
        assert measure_via_current(state, read.tip_position, read, CFG, seed)[1] is state


class TestInPlace:
    # The kernels write into the state they are given; driving the state
    # itself must give what driving a fresh copy of it gives.
    @PROPERTY_SETTINGS
    @given(pulse_cases())
    def test_pulse_in_place_equals_the_copy(self, case):
        state, pulse, layout, cfg = case
        copied, expected = apply_selective_pulse(state.copy(), pulse, layout, cfg)
        driven, outcome = apply_selective_pulse(state, pulse, layout, cfg)
        assert driven is state
        assert np.array_equal(state.amplitudes, copied.amplitudes)
        assert outcome == expected

    @PROPERTY_SETTINGS
    @given(register_states(), st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_collapse_in_place_equals_the_copy(self, case, site_draw, seed):
        layout, state = case
        site = site_draw % layout.num_sites
        bit, copied, probability = measure_spin(state.copy(), site, seed)
        assert measure_spin(state, site, seed) == (bit, state, probability)
        assert np.array_equal(state.amplitudes, copied.amplitudes)


# -- Live sites against a dense replay ----------------------------------------
#
# The engine stores only the sites that carry amplitude. The replay below runs
# a compiled program on the dense register vector through the index-array
# oracles above, consuming the same RNG stream, so the two can be compared
# instruction by instruction. Sums over the live tensor add the same nonzero
# terms as sums over the dense vector, but in another order, so populations,
# probabilities and collapsed amplitudes may differ in the last ulps; bits,
# lines, pair counts and idle flags may not.


def dense_listing(amplitudes, num_sites, threshold=1e-12):
    """``dump_text`` of a dense vector: one line per amplitude above ``threshold``."""
    lines = []
    for index, amp in enumerate(amplitudes):
        if abs(amp) > threshold:
            bits = format(index, f"0{num_sites}b")
            lines.append(f"{bits} {float(amp.real)!r} {float(amp.imag)!r}")
    return "\n".join(lines) + "\n"


def dense_replay(program, amplitudes, layout, cfg, rng, trace_snr):
    """``execute`` on a dense vector: (final amplitudes, records, pulse log).

    Pulse log entries are (position, pair count, population, idle), or
    (position, None) for a conditional pulse that did not fire.
    """
    n = layout.num_sites
    current, records, pulse_log, last_inferred = layout, [], [], None
    for position, instruction in enumerate(program.instructions):
        if isinstance(instruction, MoveTip):
            current = current.with_tip(instruction.target)
        elif isinstance(instruction, MeasureViaCurrent):
            qubit = instruction.qubit
            p_bit, amplitudes, probability = oracle_measure(
                PureState(amplitudes, n), current.nucleus_site(qubit), rng
            )
            a_bit, amplitudes, _ = oracle_measure(PureState(amplitudes, n), current.tip_site, rng)
            observed, inferred = modulation_frequency(p_bit, a_bit, cfg), (p_bit, a_bit)
            if trace_snr is not None:
                samples = synth_trace(p_bit, a_bit, cfg, trace_snr, rng)
                observed = detect_peak(samples, cfg.trace_sample_rate) * cfg.trace_frequency_scale
                inferred = classify_frequency(observed, cfg)
            records.append(MeasurementRecord(qubit, float(observed), *inferred, probability))
            last_inferred = inferred[0]
        elif isinstance(instruction, ApplyPulse) or last_inferred == 1:
            amplitudes, pairs, population, idle = oracle_pulse(
                PureState(amplitudes, n), instruction.pulse, current, cfg
            )
            pulse_log.append((position, pairs, population, idle))
        else:
            assert isinstance(instruction, ConditionalPulse)
            pulse_log.append((position, None))
    return amplitudes, records, pulse_log


@st.composite
def live_site_runs(draw):
    """A random circuit of 1..7 qubits, a start state, a seed and an SNR.

    Starts: ground; a product with random nuclei; a basis state with random
    bits, excited ancillas included, so INIT's corrections both fire and
    skip; and, on up to 3 qubits, a random dense vector with every site live.
    """
    num_qubits = draw(st.integers(1, 7))
    layout = RegisterLayout(num_qubits)
    qubit = st.integers(0, num_qubits - 1)
    gate = st.one_of(
        st.just("INIT"),
        st.tuples(qubit, st.floats(0.05, 7.0), st.floats(-4.0, 4.0)).map(
            lambda g: f"ROT {g[0]} {g[1]!r} {g[2]!r}"
        ),
        st.builds("MEASURE {}".format, qubit),
    )
    if num_qubits > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        gate = st.one_of(gate, pair.map(lambda p: f"CNOT {p[0]} {p[1]}"))
    lines = draw(st.lists(gate, min_size=1, max_size=5))
    program = compile_circuit(parse_circuit("\n".join(lines)), layout, CFG)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = ["ground", "product", "bits"] + (["dense"] if num_qubits <= 3 else [])
    start = draw(st.sampled_from(starts))
    if start == "ground":
        state = PureState.ground(layout)
    elif start == "product":
        chosen = [q for q in range(num_qubits) if rng.random() < 0.7]
        state = PureState.product(layout, {
            q: tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for q in chosen
        })
    elif start == "bits":
        state = PureState.from_bits(tuple(int(b) for b in rng.random(layout.num_sites) < 0.3))
    else:
        amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
        state = PureState(amps / np.linalg.norm(amps), layout.num_sites)
    seed = draw(st.integers(0, 2**32 - 1))
    trace_snr = draw(st.sampled_from([None, 0.1, 10.0]))
    return layout, program, state, start, seed, trace_snr


def without_probability(record):
    return dataclasses.replace(record, pre_measurement_probability=None)


def assert_matches_the_dense_replay(layout, program, state, seed, trace_snr):
    """Run ``program`` through ``execute`` and the dense replay; return the final state.

    Bits, lines, pair counts and idle flags must be equal; probabilities,
    populations and amplitudes may differ in the last ulps.
    """
    result = execute(program, state, layout, CFG, np.random.default_rng(seed), trace_snr)
    amps, records, pulse_log = dense_replay(
        program, state.amplitudes.copy(), layout, CFG, np.random.default_rng(seed), trace_snr
    )
    assert list(map(without_probability, result.records)) == list(
        map(without_probability, records)
    )
    for ours, theirs in zip(result.records, records):
        assert ours.pre_measurement_probability == pytest.approx(
            theirs.pre_measurement_probability, abs=1e-12
        )
    assert len(result.pulse_log) == len(pulse_log)
    for (position, outcome), replayed in zip(result.pulse_log, pulse_log):
        if outcome is None:
            assert replayed == (position, None)
            continue
        assert (position, outcome.resonant_pair_count, outcome.no_resonant_transition) == (
            replayed[0], replayed[1], replayed[3]
        )
        assert outcome.resonant_population == pytest.approx(replayed[2], abs=1e-12)
    final = result.final_state
    np.testing.assert_allclose(final.amplitudes, amps, rtol=0, atol=1e-12)
    assert final.dump_text() == dense_listing(final.amplitudes, layout.num_sites)
    return final


@st.composite
def cut_cnot_runs(draw):
    """A compiled circuit cut inside a CNOT, probed, and maybe resumed.

    The cut leaves the CNOT's control electron, tip carbon or target
    electron slaved or live. One to three probes follow: a tip move, a
    current readout of the qubit under the tip (which measures the tip
    carbon), or, most often, a pulse on any channel at any of its pattern
    lines under the current tip, as an exact pi swap, a fractional
    ``LOGICAL_X`` or a ``PHASED_ROTATION``. So slaved sites are rotated and
    measured, and sources with slaves are driven. Then the rest of the
    program may run.
    """
    num_qubits = draw(st.integers(2, 5))
    layout = RegisterLayout(num_qubits)
    qubit = st.integers(0, num_qubits - 1)
    control, target = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
    before = draw(st.lists(st.one_of(
        st.tuples(qubit, st.floats(0.05, 7.0)).map(lambda g: f"ROT {g[0]} {g[1]!r} 0.3"),
        st.lists(qubit, min_size=2, max_size=2, unique=True).map(
            lambda p: f"CNOT {p[0]} {p[1]}"
        ),
    ), max_size=2))
    prefix = compile_circuit(parse_circuit("\n".join(before)), layout, CFG).instructions[:-1]
    cnot = compile_circuit(parse_circuit(f"CNOT {control} {target}"), layout, CFG).instructions
    cut = len(prefix) + draw(st.integers(1, len(cnot) - 2))
    instructions = list(prefix + cnot)
    tip = [i.target for i in instructions[:cut] if isinstance(i, MoveTip)][-1]
    probes = []
    kinds = st.sampled_from(["move", "read", "pulse", "pulse", "pulse"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind == "move":
            tip = draw(qubit)
            probes.append(MoveTip(tip))
        elif kind == "read":
            probes.append(MeasureViaCurrent(tip))
        else:
            channel = draw(st.sampled_from(list(Channel)))
            here = layout.with_tip(tip)
            line = draw(st.sampled_from(
                physics.pattern_lines(here, CFG, addressed_site(channel, here))[1]
            ))
            mode, angle, phase = draw(st.one_of(
                st.just((PulseMode.LOGICAL_X, math.pi, 0.0)),
                st.tuples(st.just(PulseMode.LOGICAL_X), st.floats(0.01, 2 * math.pi),
                          st.just(0.0)),
                st.tuples(st.just(PulseMode.PHASED_ROTATION), st.floats(0.01, 2 * math.pi),
                          st.floats(-math.pi, math.pi)),
            ))
            probes.append(ApplyPulse(Pulse(channel, line, angle, phase, 1e-6, mode)))
    rest = instructions[cut:] if draw(st.booleans()) else []
    program = PulseProgram(tuple(instructions[:cut] + probes + rest))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chosen = [q for q in range(num_qubits) if rng.random() < 0.7]
    state = PureState.product(layout, {
        q: tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for q in chosen
    })
    seed = draw(st.integers(0, 2**32 - 1))
    trace_snr = draw(st.sampled_from([None, 10.0]))
    return layout, program, state, seed, trace_snr


class TestLiveSitesAgainstTheDenseReplay:
    @settings(deadline=None, max_examples=100)
    @given(live_site_runs())
    def test_execute_matches_the_dense_replay(self, case):
        layout, program, state, start, seed, trace_snr = case
        final = assert_matches_the_dense_replay(layout, program, state, seed, trace_snr)
        if start in ("ground", "product"):
            # Compiled gates hand every ancilla back in |0>, so only nuclei
            # stay live or slaved.
            assert all(site % 2 == 0 and site != layout.tip_site for site in final.sites)
            assert all(site % 2 == 0 and site != layout.tip_site for site in final.slaves)

    @settings(deadline=None, max_examples=150)
    @given(cut_cnot_runs())
    def test_a_cut_and_probed_cnot_matches_the_dense_replay(self, case):
        assert_matches_the_dense_replay(*case)

    @pytest.mark.parametrize("probe", [
        "stop", "rotate the source", "rotate the control electron",
        "half-swap the tip carbon", "read the slaved tip carbon",
    ])
    @pytest.mark.parametrize("cut", range(1, 10))
    def test_each_probe_after_each_cnot_pulse_matches_the_dense_replay(self, probe, cut):
        # CNOT 0 2 on three superposed nuclei, cut after its ``cut``-th pulse,
        # when the control electron and the tip carbon are slaved or dormant.
        layout = RegisterLayout(3)
        rng = np.random.default_rng(cut)
        state = PureState.product(layout, {
            q: tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for q in range(3)
        })
        cnot = compile_circuit(parse_circuit("CNOT 0 2"), layout, CFG).instructions
        pulses = [i for i, instruction in enumerate(cnot) if isinstance(instruction, ApplyPulse)]
        head, rest = list(cnot[:pulses[cut - 1] + 1]), list(cnot[pulses[cut - 1] + 1:])
        lines = compiler.drive_lines(CFG)
        probes = {
            "stop": [],
            "rotate the source": [Pulse(
                Channel.PHOSPHORUS_NUCLEAR_RF, lines["target_nucleus"], 1.1, 0.4, 1e-6,
                PulseMode.PHASED_ROTATION,
            )],
            "rotate the control electron": [Pulse(
                Channel.ELECTRON_RF, lines["control_electron"], 0.7, -0.2, 1e-6,
                PulseMode.PHASED_ROTATION,
            )],
            "half-swap the tip carbon": [Pulse(
                Channel.TIP_CARBON_NUCLEAR_RF, lines["tip_nucleus"], math.pi / 2, 0.0, 1e-6,
            )],
            "read the slaved tip carbon": [],
        }[probe]
        tip = [i.target for i in head if isinstance(i, MoveTip)][-1]
        inserted = [MoveTip(0)] + [ApplyPulse(pulse) for pulse in probes] + [MoveTip(tip)]
        if probe == "read the slaved tip carbon":
            inserted.insert(1, MeasureViaCurrent(0))
        program = PulseProgram(tuple(head + inserted + (rest if probe != "stop" else [])))
        assert_matches_the_dense_replay(layout, program, state, cut, None)


class TestLiveSites:
    def test_dormant_partner_keeps_the_dense_pair_count(self):
        # The electron's partners are its nucleus and the tip carbon, both
        # dormant in the ground state. The (nucleus 1, tip 0) line hits a
        # pattern that holds nothing here, yet its pairs still count.
        layout = RegisterLayout(3, tip_position=1)
        state = PureState.ground(layout)
        electron = layout.electron_site(1)
        bits = [0] * layout.num_sites
        bits[layout.nucleus_site(1)] = 1
        line = transition_frequency(tuple(bits), electron, layout, CFG)
        pulse = Pulse(Channel.ELECTRON_RF, line, math.pi, 0.0, 1e-7)
        _, pairs, _, _ = oracle_pulse(state, pulse, layout, CFG)
        before = state.amplitudes.copy()
        after, outcome = apply_selective_pulse(state, pulse, layout, CFG)
        assert outcome.resonant_pair_count == pairs == 1 << (layout.num_sites - 3)
        assert outcome.no_resonant_transition
        assert after.sites == ()
        assert np.array_equal(after.amplitudes, before)

    def test_compiled_gates_keep_at_most_one_ancilla_live(self, monkeypatch):
        # The control electron and the tip carbon only copy the control
        # nucleus, so they stay slaved; the target electron alone gets an axis.
        layout = RegisterLayout(5)
        rng = np.random.default_rng(4)
        state = PureState.product(
            layout, {q: tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for q in range(5)}
        )
        circuit = parse_circuit("ROT 2 1.1 0.3\nCNOT 0 4\nCNOT 3 1\nMEASURE 2\nINIT")
        live = []
        pulse = engine.apply_selective_pulse

        def counted(*args, **kwargs):
            driven, outcome = pulse(*args, **kwargs)
            live.append(len(driven.sites))
            return driven, outcome

        monkeypatch.setattr(engine, "apply_selective_pulse", counted)
        result = execute(compile_circuit(circuit, layout, CFG), state, layout, CFG, 0)
        assert max(live) == layout.num_qubits + 1
        # INIT leaves every nucleus in |0>
        assert (result.final_state.sites, result.final_state.slaves) == ((), {})

    def test_a_dropped_site_leaves_no_buffer_behind(self):
        # The target electron is the last live axis when it drops; its |0>
        # half must be a tensor of its own, not a view that keeps the whole
        # woken buffer alive.
        layout = RegisterLayout(2)
        state = PureState.product(layout, {0: (0.6, 0.8), 1: (0.6, 0.8)})
        program = compile_circuit(parse_circuit("CNOT 0 1"), layout, CFG)
        final = execute(program, state, layout, CFG, 0).final_state
        buffer = final.tensor if final.tensor.base is None else final.tensor.base
        assert buffer.nbytes == final.tensor.nbytes == 64

    @pytest.mark.parametrize("num_qubits", [12, 14])
    def test_a_cnot_peaks_within_the_memory_estimate(self, num_qubits):
        # One CNOT on superposed nuclei keeps 2^(n+1) amplitudes at most, and
        # the command line's memory estimate counts PEAK_STATE_COPIES of those.
        layout = RegisterLayout(num_qubits)
        state = PureState.product(layout, {q: (0.6, 0.8) for q in range(num_qubits)})
        program = compile_circuit(parse_circuit(f"CNOT 0 {num_qubits - 1}"), layout, CFG)
        execute(program, state, layout, CFG, 0)  # fill the memos first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            execute(program, state, layout, CFG, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= cli.PEAK_STATE_COPIES * 16 * 2 ** (num_qubits + 1)

    def test_dense_vector_is_read_only(self):
        state = PureState.product(RegisterLayout(2), {0: (0.6, 0.8)})
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


# -- Planned slabs against the dict route ------------------------------------
#
# A frozen copy of the kernel that built every slab from a {site: bit} dict
# through ``_pinned``. The planned kernel reads the same views from a
# memoised plan and reduces through the same C loops, so it must agree bit
# for bit: tensors, sites, outcomes, bits and probabilities, with ``==``.


def dict_pinned(amplitudes, fixed):
    shape, index, start = [], [], 0
    for axis, bit in sorted(fixed.items()):
        shape += [1 << (axis - start), 2]
        index += [slice(None), slice(bit, bit + 1)]
        start = axis + 1
    return amplitudes.reshape(shape + [-1])[tuple(index)]


def dict_slab(sites, tensor, fixed):
    axes = {}
    for site, bit in fixed.items():
        if site in sites:
            axes[sites.index(site)] = bit
        elif bit:
            return None
    return dict_pinned(tensor, axes)


def dict_drop(sites, tensor, site):
    axis = sites.index(site)
    return sites[:axis] + sites[axis + 1:], dict_pinned(tensor, {axis: 0}).reshape(-1)


def dict_pulse(state, pulse, layout, cfg):
    """(sites, tensor, outcome) of the dict-and-``_pinned`` kernel, on a copy."""
    sites, tensor = list(state.sites), state.tensor.copy()
    site = addressed_site(pulse.channel, layout)
    partners, lines = physics.pattern_lines(layout, cfg, site)
    patterns = itertools.product((0, 1), repeat=len(partners))
    hits = [bits for bits, line in zip(patterns, lines)
            if abs(line - pulse.frequency) <= cfg.selectivity_tolerance]
    occupied = [fixed for fixed in (dict(zip(partners, bits)) for bits in hits)
                if dict_slab(sites, tensor, fixed) is not None]
    if site not in sites and any(np.any(dict_slab(sites, tensor, f)) for f in occupied):
        axis = bisect.bisect_left(sites, site)
        woken = np.zeros(2 * tensor.size, dtype=np.complex128)
        half = dict_pinned(woken, {axis: 0})
        half[...] = tensor.reshape(half.shape)
        sites.insert(axis, site)
        tensor = woken
    swap = pulse.mode is PulseMode.LOGICAL_X and pulse.angle == math.pi
    u00, u01, u10, u11 = oracle_pair_unitary(pulse)
    population = 0.0
    if site in sites:
        for fixed in occupied:
            a0 = dict_slab(sites, tensor, {**fixed, site: 0})
            a1 = dict_slab(sites, tensor, {**fixed, site: 1})
            population += float(np.sum(np.abs(a0) ** 2) + np.sum(np.abs(a1) ** 2))
            if swap:
                held = a0.copy()
                a0[...] = a1
                a1[...] = held
            else:
                rotated0 = u00 * a0 + u01 * a1
                a1[...] = u10 * a0 + u11 * a1
                a0[...] = rotated0
        if not np.any(dict_slab(sites, tensor, {site: 1})):
            sites, tensor = dict_drop(sites, tensor, site)
    outcome = engine.PulseOutcome(
        resonant_pair_count=len(hits) << (layout.num_sites - 1 - len(partners)),
        resonant_population=population,
        no_resonant_transition=population <= IDLE_POPULATION,
    )
    return tuple(sites), tensor, outcome


def dict_measure(state, site, rng):
    """(bit, probability, sites, tensor) of the dict-and-``_pinned`` collapse.

    Each half is summed once (a dormant site's |1> half is empty), and the
    kept tensor is divided by the root of its own sum unless that is 1.0.
    """
    rng = np.random.default_rng(rng)
    sites, tensor = list(state.sites), state.tensor.copy()
    sums = []
    for bit in (0, 1):
        slab = dict_slab(sites, tensor, {site: bit})
        sums.append(0.0 if slab is None else float(np.sum(np.abs(slab) ** 2)))
    p_one = sums[1] / (sums[0] + sums[1])
    bit = 1 if rng.random() < p_one else 0
    probability = p_one if bit == 1 else 1.0 - p_one
    lost = dict_slab(sites, tensor, {site: 1 - bit})
    if lost is not None:
        lost[...] = 0.0
    if bit == 0 and site in sites:
        sites, tensor = dict_drop(sites, tensor, site)
    if math.sqrt(sums[bit]) != 1.0:
        tensor /= math.sqrt(sums[bit])
    return bit, float(probability), tuple(sites), tensor


@st.composite
def live_subset_states(draw):
    """A layout of 1..4 qubits and a state over a drawn subset of live sites.

    The subset is every site, or each site live at random, so the addressed
    site and its partners are dormant in some draws; in some, each site that
    is not live is slaved at random to a live one. The tensor is random with
    some zeros, or a basis state.
    """
    layout = RegisterLayout(draw(st.integers(1, 4)))
    every = draw(st.booleans())
    live = tuple(s for s in range(layout.num_sites) if every or draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << len(live)
    if draw(st.booleans()):
        tensor = rng.normal(size=size) + 1j * rng.normal(size=size)
        tensor[rng.random(size) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    else:
        tensor = np.zeros(size, dtype=np.complex128)
    if not np.any(tensor):
        tensor[rng.integers(size)] = 1.0
    tensor /= np.linalg.norm(tensor)
    slaves = {}
    if live and draw(st.booleans()):
        slaves = {site: draw(st.sampled_from(live)) for site in range(layout.num_sites)
                  if site not in live and draw(st.booleans())}
    return layout, PureState._over(layout.num_sites, live, tensor, slaves)


@st.composite
def planned_pulse_cases(draw):
    """A live-subset state, a tip, a channel and a pulse on or off one of its lines.

    The line is any partner pattern's, so patterns that pin a dormant partner
    to 1 are driven too; the modes are exact pi swaps, fractional
    ``LOGICAL_X`` and ``PHASED_ROTATION``.
    """
    layout, state = draw(live_subset_states())
    cfg = draw(st.sampled_from((CFG,) + SHARED_LINE_CONFIGS))
    channel = draw(st.sampled_from(list(Channel)))
    tips = list(range(layout.num_qubits))
    if channel is Channel.TIP_CARBON_NUCLEAR_RF:
        tips.append(None)
    layout = layout.with_tip(draw(st.sampled_from(tips)))
    _, lines = physics.pattern_lines(layout, cfg, addressed_site(channel, layout))
    line = draw(st.sampled_from(lines))
    tolerance = cfg.selectivity_tolerance
    offset = draw(st.sampled_from([0.0, -tolerance, 3.0 * tolerance]))
    assume(line + offset > 0)
    mode, angle, phase = draw(st.one_of(
        st.just((PulseMode.LOGICAL_X, math.pi, 0.0)),
        st.tuples(st.just(PulseMode.LOGICAL_X), st.floats(0.01, 2 * math.pi), st.just(0.0)),
        st.tuples(
            st.just(PulseMode.PHASED_ROTATION),
            st.floats(0.01, 2 * math.pi),
            st.floats(-math.pi, math.pi),
        ),
    ))
    return state, Pulse(channel, line + offset, angle, phase, 1e-6, mode), layout, cfg


def zero_signs_cleared(tensor):
    """The bytes of ``tensor`` with every zero-modulus amplitude written as +0.0."""
    return np.where(tensor == 0, 0j, tensor).tobytes()


def slaved_rotation_case():
    """A rotation beside a slaved site, where the dict route rotates zeros into -0.0.

    Site 5 copies nucleus 0, so the materialised state holds exact zeros
    wherever the two bits differ; a rotation by 4.0 (cos 2 < 0) turns those
    into -0.0, while the engine never stores them and materialises +0.0.
    """
    layout = RegisterLayout(3).with_tip(0)
    tensor = np.full(4, 0.5, dtype=np.complex128)
    state = PureState._over(layout.num_sites, (0, 1), tensor, {5: 0})
    line = physics.pattern_lines(layout, CFG, 1)[1][0]
    pulse = Pulse(Channel.ELECTRON_RF, line, 4.0, 2.0, 1e-6, PulseMode.PHASED_ROTATION)
    return state, pulse, layout, CFG


class TestSlabPlanAgainstTheDictRoute:
    # The dict route knows no slaves, so it runs on the materialised state:
    # the layout a live-site engine holds. The planned kernel must end in
    # that layout once materialised, bit for bit. Its outcome is bit for bit
    # too unless a site was slaved: a slab pinned on a source, or a
    # rewritten copy's source slab, sums the same weight in another order.
    # A slaved state's materialised zeros are +0.0, where the dict route's
    # rotation of the same zeros may give -0.0, so a state that held slaves
    # is compared with the signs of its zero-modulus amplitudes cleared; no
    # report, dump line or norm reads a zero's sign.
    @PROPERTY_SETTINGS
    @given(planned_pulse_cases())
    @example(slaved_rotation_case())
    def test_pulse_equals_the_dict_route_bit_for_bit(self, case):
        state, pulse, layout, cfg = case
        slaved = bool(state.slaves)
        sites, tensor, expected = dict_pulse(state._materialised(), pulse, layout, cfg)
        after, outcome = apply_selective_pulse(state, pulse, layout, cfg)
        assert after is state
        materialised = after._materialised()
        assert materialised.sites == sites
        if slaved:
            assert zero_signs_cleared(materialised.tensor) == zero_signs_cleared(tensor)
        else:
            assert materialised.tensor.tobytes() == tensor.tobytes()
        if slaved or after.slaves:
            assert (outcome.resonant_pair_count, outcome.no_resonant_transition) == (
                expected.resonant_pair_count, expected.no_resonant_transition
            )
            assert outcome.resonant_population == pytest.approx(
                expected.resonant_population, rel=1e-14, abs=0.0
            )
        else:
            assert outcome == expected

    @PROPERTY_SETTINGS
    @given(live_subset_states(), st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_collapse_equals_the_dict_route_bit_for_bit(self, case, site_draw, seed):
        layout, state = case
        site = site_draw % layout.num_sites
        bit, probability, sites, tensor = dict_measure(state._materialised(), site, seed)
        observed, after, reported = measure_spin(state, site, seed)
        assert (observed, reported, after.sites, after.slaves) == (bit, probability, sites, {})
        assert after.tensor.tobytes() == tensor.tobytes()

    def test_the_plan_memo_is_bounded(self):
        assert engine._slab_plan.cache_info().maxsize is not None


# -- Readers of a slaved state against the live-site engine ------------------
#
# During a CNOT the control electron, the tip carbon and sometimes the target
# electron or nucleus are slaved. After every one of the nine pulses, each
# reader of the state must give what it gives on the live-site engine's
# state (the dict route, which slaves nothing), with ``==``, and must leave
# the live sites, the tensor and the slave map as they were.


@st.composite
def cnot_runs(draw):
    """A register of 2..5 qubits, a product state and one compiled CNOT.

    Each nucleus is dormant, random, or an exact 0 or 1 factor, so the CNOT's
    sources are live, empty or full.
    """
    num_qubits = draw(st.integers(2, 5))
    layout = RegisterLayout(num_qubits)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = {}
    for qubit in range(num_qubits):
        kind = draw(st.sampled_from(["dormant", "random", "random", "zero", "one"]))
        if kind == "random":
            factors[qubit] = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        elif kind != "dormant":
            factors[qubit] = (1.0, 0.0) if kind == "zero" else (0.0, 1.0)
    control, target = draw(st.lists(
        st.integers(0, num_qubits - 1), min_size=2, max_size=2, unique=True
    ))
    program = compile_circuit(parse_circuit(f"CNOT {control} {target}"), layout, CFG)
    return layout, PureState.product(layout, factors), program


def readings(state, layout):
    """Everything the readers of a state say about it."""
    return (
        state.amplitudes.tobytes(),
        state.dump_text(),
        state.norm(),
        [state.population(site, bit) for site in range(layout.num_sites) for bit in (0, 1)],
        state.copy().amplitudes.tobytes(),
        ancilla_diagnostics(state, layout),
    )


def slab_population(state, site, bit):
    """A frozen copy of ``PureState.population`` as it read through a ``_slab`` view.

    A dormant site pinned to 0 selected the whole tensor and one pinned to 1
    selected nothing.
    """
    state = state._materialised()
    axis = state._axis(site)
    if axis is None:
        slab = None if bit else state.tensor
    else:
        slab = engine._half(state.tensor, axis, bit)
    return 0.0 if slab is None else engine._sum_squares(slab)


class TestSlavedReaders:
    @PROPERTY_SETTINGS
    @given(cnot_runs())
    def test_every_reader_equals_the_live_site_engine_after_every_pulse(self, case):
        layout, state, program = case
        reference = state.copy()
        current = layout
        for instruction in program.instructions:
            if isinstance(instruction, MoveTip):
                current = current.with_tip(instruction.target)
                continue
            sites, tensor, expected = dict_pulse(reference, instruction.pulse, current, CFG)
            reference = PureState._over(layout.num_sites, sites, tensor)
            state, outcome = apply_selective_pulse(state, instruction.pulse, current, CFG)
            assert (outcome.resonant_pair_count, outcome.no_resonant_transition) == (
                expected.resonant_pair_count, expected.no_resonant_transition
            )
            assert outcome.resonant_population == pytest.approx(
                expected.resonant_population, rel=1e-14, abs=0.0
            )
            held_tensor = state.tensor
            held = (state.sites, held_tensor.tobytes(), dict(state.slaves))
            assert readings(state, layout) == readings(reference, layout)
            for site in range(layout.num_sites):  # live, dormant and slaved sites
                for bit in (0, 1):
                    assert state.population(site, bit) == slab_population(state, site, bit)
            assert state.tensor is held_tensor
            assert (state.sites, state.tensor.tobytes(), state.slaves) == held
        assert state.slaves == {} or all(site % 2 == 0 for site in state.slaves)


# -- Resolved and idle pulses against the un-memoised route ------------------
#
# A frozen copy of the pulse route before pulses were resolved once and idle
# ones returned early: every call finds its site, lines and resonant
# patterns afresh, plans its slabs and builds its own outcome. The memoised
# route must leave the same state bits and slave map and give an equal
# outcome, on a memo miss and on the hit that follows it. Its slab drive and
# its sum of squares are frozen too, as they were before each axis was found
# once per call, so the oracle does not follow the kernel it checks.


def frozen_sum_squares(view):
    return float(np.add.reduce(np.abs(view) ** 2, axis=None))


def frozen_plan(state, site, sources):
    shape, slabs, one = engine._slab_plan(state._axis(site), tuple(map(state._axis, sources)))
    return state.tensor.reshape(shape), slabs, one


def frozen_drive(state, pulse, site, sources, hits, swap):
    view, slabs, one = frozen_plan(state, site, sources)
    occupied = [index for index in hits if slabs[index] is not None]
    if one is None and any(engine._any(view[slabs[index][0]]) for index in occupied):
        state._wake(site)
        view, slabs, one = frozen_plan(state, site, sources)
    population = 0.0
    if one is not None:
        if not swap:
            u00, u01, u10, u11 = engine._pair_unitary(pulse)
        for index in occupied:
            key0, key1 = slabs[index]
            a0, a1 = view[key0], view[key1]
            population += frozen_sum_squares(a0) + frozen_sum_squares(a1)
            if swap:
                held = a0.copy()
                a0[...] = a1
                a1[...] = held
            else:
                rotated0 = u00 * a0 + u01 * a1
                a1[...] = u10 * a0 + u11 * a1
                a0[...] = rotated0
        if not engine._any(view[one]):
            state._drop(state._axis(site))
    return population


def unmemoised_pulse(state, pulse, layout, cfg):
    site = engine._addressed_site(pulse.channel, layout)
    partners, lines = physics.pattern_lines(layout, cfg, site)
    hits = tuple(index for index, line in enumerate(lines)
                 if abs(line - pulse.frequency) <= cfg.selectivity_tolerance)
    for slave in [slave for slave, of in state.slaves.items() if of == site]:
        state._materialise(slave)
    sources = tuple(state.slaves.get(partner, partner) for partner in partners)
    source = state.slaves.get(site)
    swap = pulse.mode is PulseMode.LOGICAL_X and pulse.angle == math.pi
    copied = None
    if swap and state._axis(site) is None:
        copied = engine._copied_axis(tuple(map(state._axis, sources)), hits)
    if copied is not None and source in (None, state.sites[copied]):
        half = engine._half(state.tensor, copied, 1)
        population = frozen_sum_squares(half)
        if source is not None:
            del state.slaves[site]
        elif population > 0.0 or engine._any(half):
            state.slaves[site] = state.sites[copied]
    else:
        if source is not None:
            state._materialise(site)
        population = frozen_drive(state, pulse, site, sources, hits, swap)
    outcome = engine.PulseOutcome(
        resonant_pair_count=len(hits) << (layout.num_sites - 1 - len(partners)),
        resonant_population=population,
        no_resonant_transition=population <= IDLE_POPULATION,
    )
    return state, outcome


def held(state):
    return state.sites, state.tensor.tobytes(), state.slaves


#: Moduli from subnormal to huge; the huge ones overflow a square or a sum.
MODULI = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-160, 1e150, 1e154, 1e200]),
    st.floats(1e-320, 1e-300),
    st.floats(1e150, 1e200),
)


@st.composite
def slab_views(draw):
    """A view the kernels sum over: a whole tensor of 1 to 2^12 amplitudes, or one
    of its ``_slab_plan`` slabs, contiguous or not."""
    k = draw(st.integers(0, 12))
    size = 1 << k
    parts = draw(st.lists(MODULI, min_size=2, max_size=2 * size)) * (2 * size)
    values = np.array(parts[: 2 * size]) * draw(st.sampled_from([1.0, -1.0]))
    tensor = values[0::2] + 1j * values[1::2]
    if k == 0 or draw(st.booleans()):
        return tensor
    axes = st.one_of(st.none(), st.integers(0, k - 1))
    axis = draw(axes)
    partner_axes = tuple(draw(st.lists(axes, max_size=2)))
    shape, slabs, one = engine._slab_plan(axis, partner_axes)
    keys = [key for slab in slabs if slab is not None for key in slab]
    if one is not None:
        keys.append(one)
    if not keys:
        return tensor
    return tensor.reshape(shape)[draw(st.sampled_from(keys))]


class TestSumOfSquares:
    @PROPERTY_SETTINGS
    @given(slab_views())
    @example(np.array([5e-324 + 1e-310j]))
    @example(np.full(4096, 1e154 + 1e154j))
    def test_the_sum_is_the_former_expression_bit_for_bit(self, view):
        with np.errstate(over="ignore", under="ignore"):
            expected = float(np.add.reduce(np.abs(view) ** 2, axis=None))
            produced = engine._sum_squares(view)
        assert type(produced) is float
        assert np.float64(produced).tobytes() == np.float64(expected).tobytes()


# -- The collapse against the former BLAS-normalised one ---------------------
#
# A frozen copy of ``measure_spin`` before each half was summed once: p(1)
# was the |1> half's sum over the whole tensor's, and the kept tensor was
# divided by ``np.linalg.norm``, a BLAS dot whose bits depend on the host's
# thread count. The two sum the same squares in other orders, so they must
# read the same bit, and agree to a few ulps in the probability and in every
# amplitude.

#: Largest gap between the two probabilities: 4 ulps of 1.0. (A probability
#: of bit 0 is 1 - p(1), so a gap of an ulp of p(1) is not an ulp of it.)
PROBABILITY_GAP = 4 * np.finfo(float).eps
#: Largest relative gap between the two routes' amplitudes: 8 ulps.
AMPLITUDE_RTOL = 8 * np.finfo(float).eps


def frozen_measure_spin(state, site, rng):
    rng = np.random.default_rng(rng)
    for slave in tuple(state.slaves):
        state._materialise(slave)
    tensor = state.tensor
    total = frozen_sum_squares(tensor)
    axis = state._axis(site)
    p_one = 0.0
    if axis is not None:
        shape, slabs, _ = engine._slab_plan(axis, ())
        view = tensor.reshape(shape)
        halves = slabs[0]
        p_one = frozen_sum_squares(view[halves[1]]) / total
    bit = 1 if rng.random() < p_one else 0
    probability = p_one if bit == 1 else 1.0 - p_one
    if axis is not None:
        view[halves[1 - bit]] = 0.0
    norm = np.linalg.norm(tensor)
    if bit == 0 and axis is not None:
        state._drop(axis)
    state.tensor /= norm
    return bit, state, float(probability)


class TestAgainstTheFrozenCollapse:
    @PROPERTY_SETTINGS
    @given(live_subset_states(), st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_the_collapse_moves_only_ulps(self, case, site_draw, seed):
        layout, state = case
        site = site_draw % layout.num_sites
        bit, former, probability = frozen_measure_spin(state.copy(), site, seed)
        observed, after, reported = measure_spin(state, site, seed)
        assert (observed, after.sites, after.slaves) == (bit, former.sites, former.slaves)
        assert abs(reported - probability) <= PROBABILITY_GAP
        np.testing.assert_allclose(after.tensor, former.tensor, rtol=AMPLITUDE_RTOL, atol=0)

    def test_a_rescale_by_one_is_skipped(self):
        # Reading a dormant site of a state of norm exactly 1.0 zeroes nothing
        # and divides by nothing, so it never writes to the tensor.
        state = PureState.from_bits((1, 0, 1))
        state.tensor.flags.writeable = False
        assert measure_spin(state, 1, 0)[::2] == (0, 1.0)
        assert state.sites == (0, 2)


# Collapses of 2^18-amplitude library states, one line per seed: the bit, the
# probability, the collapsed tensor's digest and the state's norm. Long
# enough that OpenBLAS splits a dot across threads; the state is normalised
# by a pairwise sum, not by a BLAS norm.
BLAS_PROBE = """
import hashlib, math
import numpy as np
from spintip import PureState, measure_spin
for seed in range(6):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << 18) + 1j * rng.normal(size=1 << 18)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    bit, state, probability = measure_spin(PureState(amps, 18), 0, seed)
    digest = hashlib.sha256(state.tensor.tobytes()).hexdigest()
    print(seed, bit, probability.hex(), digest, state.norm().hex())
"""


class TestBlasThreads:
    def test_a_collapse_does_not_depend_on_the_blas_thread_count(self):
        # At most two BLAS threads, so the check is safe on a small host.
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout.splitlines())
        assert len(outputs[0]) == 6
        assert outputs[0] == outputs[1]


@st.composite
def compiled_pulse_cases(draw):
    """A live-subset state and one pulse of a compiled gate, at its tip position.

    The state's live, slaved and dormant sites are drawn independently of
    the gate, so a compiled pulse meets every kind of site.
    """
    layout, state = draw(live_subset_states())
    n = layout.num_qubits
    qubits = st.integers(0, n - 1)
    texts = [st.builds("ROT {} {!r}".format, qubits, st.floats(0.01, 2 * math.pi)),
             st.just("INIT")]
    if n > 1:
        pair = st.lists(qubits, min_size=2, max_size=2, unique=True)
        texts.append(pair.map(lambda p: f"CNOT {p[0]} {p[1]}"))
    program = compile_circuit(parse_circuit(draw(st.one_of(texts))), layout, CFG)
    current, cases = layout, []
    for instruction in program.instructions:
        if isinstance(instruction, MoveTip):
            current = current.with_tip(instruction.target)
        elif isinstance(instruction, (ApplyPulse, ConditionalPulse)):
            cases.append((instruction.pulse, current))
    pulse, at = draw(st.sampled_from(cases))
    return state, pulse, at, CFG


class TestChannelHash:
    @pytest.mark.parametrize("channel", list(Channel))
    def test_round_trips_give_the_same_member_and_hash(self, channel):
        pulse = Pulse(channel, 1e8, 1.0, 0.5, 1e-6)
        for twin in (pickle.loads(pickle.dumps(channel)), copy.copy(channel),
                     copy.deepcopy(channel)):
            assert twin is channel and hash(twin) == hash(channel)
        for twin in (pickle.loads(pickle.dumps(pulse)), copy.deepcopy(pulse)):
            assert twin == pulse and hash(twin) == hash(pulse)

    def test_resolve_hits_and_misses_on_a_small_batch_circuit(self, tmp_path, capsys):
        # The counts the Enum hash gave: a second run resolves nothing anew.
        path = tmp_path / "job.circuit"
        path.write_text("INIT\nROT 0 1.1 0.3\nCNOT 0 2\nROT 2 0.7 0.0\nCNOT 2 1\n"
                        "MEASURE 1\nMEASURE 0\n", encoding="utf-8")
        argv = ["--circuit", str(path), "--seed", "5", "--tips", "2"]
        engine._resolve.cache_clear()
        counts = []
        for _ in range(2):
            assert cli.main(argv) == 0
            info = engine._resolve.cache_info()
            counts.append((info.hits, info.misses))
        capsys.readouterr()
        assert counts == [(8, 12), (28, 12)]


class TestResolvedPulses:
    @PROPERTY_SETTINGS
    @given(st.one_of(compiled_pulse_cases(), planned_pulse_cases()))
    def test_memoised_route_equals_the_unmemoised_route(self, case):
        state, pulse, layout, cfg = case
        expected_state, expected = unmemoised_pulse(state.copy(), pulse, layout, cfg)
        for _ in range(2):  # a miss or a hit, then a hit
            after, outcome = apply_selective_pulse(state.copy(), pulse, layout, cfg)
            assert held(after) == held(expected_state)
            assert outcome == expected

    def test_an_idle_pulse_leaves_the_state_object_alone(self):
        layout = RegisterLayout(2).with_tip(0)
        state = PureState.product(layout, {1: (0.6, 0.8)})
        tensor = state.tensor
        pulse = Pulse(Channel.ELECTRON_RF, compiler.drive_lines(CFG)["control_electron"],
                      math.pi, 0.0, 1e-7)
        after, outcome = apply_selective_pulse(state, pulse, layout, CFG)
        assert after is state and state.tensor is tensor and state.sites == (2,)
        assert outcome == engine.PulseOutcome(4, 0.0, True)
        assert apply_selective_pulse(state, pulse, layout, CFG)[1] is outcome

    @pytest.mark.parametrize("mode", [PulseMode.LOGICAL_X, PulseMode.PHASED_ROTATION])
    def test_a_weight_below_the_idle_threshold_is_reported_as_it_is(self, mode):
        # Idle by the threshold, but not zero: the outcome keeps the weight.
        layout = RegisterLayout(2).with_tip(0)
        state = PureState.product(layout, {0: (1.0, 1e-7)})
        pulse = Pulse(Channel.ELECTRON_RF, compiler.drive_lines(CFG)["control_electron"],
                      math.pi, 0.0, 1e-7, mode)
        expected_state, expected = unmemoised_pulse(state.copy(), pulse, layout, CFG)
        after, outcome = apply_selective_pulse(state, pulse, layout, CFG)
        assert 0.0 < expected.resonant_population <= IDLE_POPULATION
        assert outcome == expected and held(after) == held(expected_state)

    def test_distinct_configs_and_registers_get_their_own_resolution(self):
        # One pulse object, resonant under CFG and off every line under a
        # config whose couplings differ; two registers of different size.
        pulse = nuclear_pi(F_NUC_E0)
        shifted = dataclasses.replace(CFG, hyperfine_tip_modified=100e6)
        cases = [
            (RegisterLayout(1, tip_position=0), CFG),
            (RegisterLayout(1, tip_position=0), shifted),
            (RegisterLayout(2).with_tip(0), CFG),
            (RegisterLayout(2, ((0, 0), (1, 0))).with_tip(0), CFG),
            (RegisterLayout(1, tip_position=0), CFG),
        ]
        for layout, cfg in cases:
            state = PureState.product(layout, {0: (0.6, 0.8)})
            expected_state, expected = unmemoised_pulse(state.copy(), pulse, layout, cfg)
            after, outcome = apply_selective_pulse(state, pulse, layout, cfg)
            assert held(after) == held(expected_state)
            assert outcome == expected
        outcomes = [apply_selective_pulse(PureState.ground(layout), pulse, layout, cfg)[1]
                    for layout, cfg in cases]
        assert [o.resonant_pair_count for o in outcomes] == [2, 0, 8, 8, 2]

    def test_an_equal_config_is_served_the_same_resolution(self):
        # An equal config, an equal pulse built twice and a register that
        # differs only in its coordinates all share one entry.
        twin = MachineConfig(**{f.name: getattr(CFG, f.name) for f in dataclasses.fields(CFG)})
        assert twin == CFG and twin is not CFG
        pulse, again = nuclear_pi(F_NUC_E0), nuclear_pi(F_NUC_E0)
        assert pulse == again and pulse is not again
        layout = RegisterLayout(2).with_tip(1)
        moved = RegisterLayout(2, ((3, 0), (0, 5))).with_tip(1)
        assert moved.coordinates != layout.coordinates
        resolve = engine._resolve
        first = resolve(pulse.channel, pulse.frequency, layout.num_qubits, layout.tip_position, CFG)
        assert resolve(again.channel, again.frequency, moved.num_qubits, moved.tip_position,
                       twin) is first
        for at in (layout, moved):
            state = PureState.product(at, {1: (0.6, 0.8)})
            expected_state, expected = unmemoised_pulse(state.copy(), pulse, at, CFG)
            after, outcome = apply_selective_pulse(state, again, at, twin)
            assert held(after) == held(expected_state) and outcome == expected

    def test_threads_sharing_the_memo_get_their_own_outcomes(self):
        # More threads than cores, a short switch interval, and a memo that
        # every round clears, so misses insert while other threads read.
        state = PureState.product(LAYOUT, {0: (0.6, 0.8)})
        pulses = [nuclear_pi(angle=angle) for angle in np.linspace(0.1, 3.0, 40)]
        expected = [unmemoised_pulse(state.copy(), p, LAYOUT, CFG)[1] for p in pulses]
        errors, mismatches = [], []

        def work():
            try:
                for _ in range(20):
                    engine._resolve.cache_clear()
                    for pulse, outcome in zip(pulses, expected):
                        if apply_selective_pulse(state.copy(), pulse, LAYOUT, CFG)[1] != outcome:
                            mismatches.append(pulse)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        engine._resolve.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (errors, mismatches) == ([], [])
        assert engine._resolve.cache_info().currsize <= len(pulses)

    def test_rot_pulses_of_any_angle_and_phase_share_one_resolution(self):
        # A resolution reads the channel, frequency, register size, tip and
        # config, not the angle, phase, duration or mode.
        layout = RegisterLayout(3).with_tip(1)
        state = PureState.product(layout, {0: (0.6, 0.8), 1: (0.8, 0.6), 2: (0.0, 1.0)})
        rng = np.random.default_rng(50)
        engine._resolve.cache_clear()
        for angle, phase in zip(rng.uniform(1e-3, 2 * math.pi, 50), rng.uniform(-7.0, 7.0, 50)):
            program = compiler.compile_rotation(1, float(angle), float(phase), layout, CFG)
            pulse = program.instructions[-1].pulse
            expected_state, expected = unmemoised_pulse(state.copy(), pulse, layout, CFG)
            state, outcome = apply_selective_pulse(state, pulse, layout, CFG)
            assert held(state) == held(expected_state) and outcome == expected
        info = engine._resolve.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 49)

    def test_the_memo_stays_at_its_bound_after_a_sweep_of_drive_frequencies(self):
        # Distinct drives, each off every line but the first, and a register
        # size per round, so every resolution is its own entry.
        maxsize = engine._resolve.cache_info().maxsize
        frequencies = F_NUC_E0 + np.arange(maxsize + 64) * 10 * CFG.selectivity_tolerance
        for num_qubits in (1, 2):
            layout = RegisterLayout(num_qubits).with_tip(0)
            state = PureState.product(layout, {0: (0.6, 0.8)})
            for frequency in frequencies:
                pulse = nuclear_pi(float(frequency))
                expected_state, expected = unmemoised_pulse(state.copy(), pulse, layout, CFG)
                after, outcome = apply_selective_pulse(state.copy(), pulse, layout, CFG)
                assert held(after) == held(expected_state) and outcome == expected
            assert engine._resolve.cache_info().currsize == maxsize


# -- Whole circuits against a gate-level oracle --------------------------------
#
# The oracle is an n-qubit vector, qubit 0 most significant like the sites:
# ROT is exp(-i angle/2 (cos(phase) X + sin(phase) Y)), CNOT a permutation,
# and a read consumes two draws as ``measure_via_current`` does, one for the
# nucleus and one for the tip carbon, which a compiled gate leaves in |0>.
# INIT is, per qubit: read, flip on 1, read again, flip on 1. The compiler
# folds a rotation angle into (0, 2*pi], and a rotation by theta and by
# theta + 2*pi differ by a global -1, so states agree up to that sign.

ORACLE_SETTINGS = settings(deadline=None, max_examples=100)
ORACLE_ANGLES = st.one_of(
    st.floats(-4 * math.pi, 4 * math.pi),
    st.floats(0.1, 3.0),
    st.sampled_from([0.0, -0.0, math.pi, 2 * math.pi, -2 * math.pi, 4 * math.pi,
                     1e-300, 5e-324, -5e-324]),
)


def oracle_bit_mask(n, qubit):
    return ((np.arange(1 << n) >> (n - 1 - qubit)) & 1).astype(bool)


def oracle_rot(vector, n, qubit, angle, phase):
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    u = np.array([[c, -1j * s * np.exp(-1j * phase)], [-1j * s * np.exp(1j * phase), c]])
    tensor = np.tensordot(u, vector.reshape((2,) * n), axes=([1], [qubit]))
    return np.moveaxis(tensor, 0, qubit).reshape(-1)


def oracle_flip(vector, n, qubit, control=None):
    index = np.arange(1 << n)
    flip = 1 << (n - 1 - qubit)
    if control is not None:
        flip = flip * oracle_bit_mask(n, control)
    return vector[index ^ flip]


def oracle_read(vector, n, qubit, rng):
    """(bit, pre-measurement probability, collapsed vector)."""
    ones = oracle_bit_mask(n, qubit)
    weights = np.abs(vector) ** 2
    p_one = weights[ones].sum() / weights.sum()
    bit = 1 if rng.random() < p_one else 0
    rng.random()  # the tip carbon's draw; it is |0> and reads 0
    kept = np.where(ones == bool(bit), vector, 0.0)
    return bit, (p_one if bit else 1.0 - p_one), kept / np.linalg.norm(kept)


def oracle_gate(gate, vector, n, rng):
    """(vector after ``gate``, [(bit, probability)] of its reads)."""
    reads = []

    def read(qubit):
        nonlocal vector
        bit, probability, vector = oracle_read(vector, n, qubit, rng)
        reads.append((bit, probability))
        return bit

    if isinstance(gate, InitGate):
        for qubit in range(n):
            for _ in range(2):
                if read(qubit):
                    vector = oracle_flip(vector, n, qubit)
    elif isinstance(gate, RotGate):
        vector = oracle_rot(vector, n, gate.qubit, gate.angle, gate.phase)
    elif isinstance(gate, CnotGate):
        vector = oracle_flip(vector, n, gate.target, gate.control)
    else:
        read(gate.qubit)
    return vector, reads


def nuclear_index(layout):
    """Index of the dense register tensor with every ancilla pinned to 0."""
    return tuple(slice(None) if site < layout.tip_site and site % 2 == 0 else 0
                 for site in range(layout.num_sites))


def ground_vector(n):
    vector = np.zeros(1 << n, dtype=np.complex128)
    vector[0] = 1.0
    return vector


def assert_agree_up_to_sign(amplitudes, vector, tolerance=1e-12):
    error = min(np.max(np.abs(amplitudes - vector)), np.max(np.abs(amplitudes + vector)))
    assert error <= tolerance


def assert_reads_agree(seen, reads):
    """``seen`` holds (inferred p bit, inferred a bit, probability) per read."""
    assert [(p_bit, a_bit) for p_bit, a_bit, _ in seen] == [(bit, 0) for bit, _ in reads]
    for (_, _, seen_probability), (_, probability) in zip(seen, reads):
        assert abs(seen_probability - probability) <= 1e-12


@st.composite
def oracle_circuits(draw, max_qubits=6):
    """Circuit text on 1..``max_qubits`` qubits: ROT, CNOT, MEASURE and INIT."""
    n = draw(st.integers(1, max_qubits))
    qubits = st.integers(0, n - 1)
    rot = st.builds("ROT {} {!r} {!r}".format, qubits, ORACLE_ANGLES, st.floats(-10.0, 10.0))
    gates = [rot, rot, st.builds("MEASURE {}".format, qubits), st.just("INIT")]
    if n > 1:  # rotations and CNOTs twice as often as reads
        pair = st.lists(qubits, min_size=2, max_size=2, unique=True)
        gates += [pair.map(lambda p: f"CNOT {p[0]} {p[1]}")] * 2
    lines = draw(st.lists(st.one_of(gates), max_size=8))
    return n, "\n".join(lines + [f"MEASURE {draw(qubits)}"])


@st.composite
def oracle_inputs(draw, n):
    """(library state, oracle vector): ground, a random product, or entangled."""
    layout = RegisterLayout(n)
    kind = draw(st.sampled_from(["ground", "product", "entangled"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ground":
        return PureState.ground(layout), ground_vector(n)
    if kind == "product":
        factors = {q: tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
                   for q in range(n) if rng.random() < 0.7}
        vector = np.ones(1, dtype=np.complex128)
        for qubit in range(n):
            factor = np.array(factors.get(qubit, (1.0, 0.0)))
            vector = np.kron(vector, factor / np.linalg.norm(factor))
        return PureState.product(layout, factors), vector
    vector = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    vector /= np.linalg.norm(vector)
    dense = np.zeros(layout.dimension, dtype=np.complex128)
    dense.reshape((2,) * layout.num_sites)[nuclear_index(layout)] = vector.reshape((2,) * n)
    state = PureState(dense, layout.num_sites)
    for site in [*range(1, layout.tip_site, 2), layout.tip_site]:
        measure_spin(state, site, 0)  # every electron and the tip read 0 and drop out
    assert state.sites == tuple(range(0, layout.tip_site, 2))
    return state, vector


class TestWholeCircuitsAgainstTheGateOracle:
    @ORACLE_SETTINGS
    @given(oracle_circuits(), st.data(), st.integers(0, 2**32 - 1))
    def test_compiled_circuits_do_what_their_gates_say(self, case, data, seed):
        n, text = case
        state, vector = data.draw(oracle_inputs(n))
        layout = RegisterLayout(n)
        circuit = parse_circuit(text)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        start = state  # execute leaves its input alone
        ancillas = {*range(1, layout.tip_site, 2), layout.tip_site}
        real = engine.apply_selective_pulse

        def checked(state, pulse, layout, cfg):
            expected_state, expected = unmemoised_pulse(state.copy(), pulse, layout, cfg)
            after, outcome = real(state, pulse, layout, cfg)
            assert held(after) == held(expected_state) and outcome == expected
            return after, outcome

        records = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "apply_selective_pulse", checked)
            for gate in circuit.gates:
                result = execute(compiler.compile_gate(gate, layout, CFG), state, layout,
                                 CFG, rng=rng)
                state = result.final_state
                vector, reads = oracle_gate(gate, vector, n, oracle_rng)
                # Every ancilla is dormant; a CNOT onto a dormant target
                # nucleus leaves it a copy of its control.
                assert ancillas.isdisjoint(state.sites) and ancillas.isdisjoint(state.slaves)
                dense = state.amplitudes.reshape((2,) * layout.num_sites)
                assert_agree_up_to_sign(dense[nuclear_index(layout)].reshape(-1), vector)
                assert_reads_agree([(r.inferred_p_bit, r.inferred_a_bit,
                                     r.pre_measurement_probability) for r in result.records],
                                   reads)
                records += result.records
        # The linked program, read from the memoised tasks, runs the same bits.
        whole = execute(compile_circuit(circuit, layout, CFG), start, layout, CFG, rng=seed)
        assert held(whole.final_state) == held(state)
        assert whole.records == tuple(records)

    @settings(deadline=None, max_examples=4)
    @given(oracle_circuits(max_qubits=4), st.integers(0, 2**32 - 1))
    def test_the_command_line_dumps_what_the_oracle_holds(self, case, seed):
        text = case[1]
        circuit = parse_circuit(text)
        n = circuit.num_qubits  # the command line's register ends at the highest qubit named
        vector, reads = ground_vector(n), []
        oracle_rng = np.random.default_rng(seed)
        for gate in circuit.gates:
            vector, gate_reads = oracle_gate(gate, vector, n, oracle_rng)
            reads += gate_reads
        with tempfile.TemporaryDirectory() as scratch:
            path, dump = f"{scratch}/c.circuit", f"{scratch}/final.state"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["--circuit", path, "--seed", str(seed), "--dump-state", dump])
            with open(dump, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        assert code == 0
        report = json.loads(out.getvalue())
        assert_reads_agree([(m["inferred_p_bit"], m["inferred_a_bit"],
                             m["pre_measurement_probability"]) for m in report["measurements"]],
                           reads)
        dumped = np.zeros(1 << n, dtype=np.complex128)
        for line in lines:
            bits, re, im = line.split()
            assert set(bits[1::2] + bits[-1]) == {"0"}  # every electron and the tip in |0>
            dumped[int(bits[0::2][:n], 2)] = complex(float(re), float(im))
        # The dump leaves out amplitudes of modulus up to 1e-12.
        assert_agree_up_to_sign(dumped, vector, tolerance=2e-12)


TWO_QUBITS = RegisterLayout(2)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: measure_spin(PureState.ground(TWO_QUBITS), 99, 0), MismatchedRegister),
        (lambda: measure_spin(PureState.from_bits((0, 0, 0, 0, 1)), -1, 0), MismatchedRegister),
        (lambda: PureState.ground(TWO_QUBITS).population(99, 0), MismatchedRegister),
        (lambda: PureState.ground(TWO_QUBITS).population(-1, 0), MismatchedRegister),
        (lambda: PureState.ground(TWO_QUBITS).population(0, 2), ValueError),
        (lambda: PureState.from_bits((2, 0, 0, 0, 0)), ValueError),
        (lambda: PureState.from_bits((0, 0, 0, 0, -1)), ValueError),
        (lambda: ancilla_diagnostics(PureState.ground(TWO_QUBITS), TWO_QUBITS, sites=(99,)),
         MismatchedRegister),
    ],
    ids=["measure-99", "measure-minus-1", "population-99", "population-minus-1",
         "population-bit-2", "from-bits-2", "from-bits-minus-1", "ancilla-site-99"],
)
def test_a_site_or_bit_outside_the_register_is_refused_where_it_enters(call, error):
    # A site that does not exist, or a bit that is not 0 or 1, is refused at
    # the public entry instead of being answered for.
    with pytest.raises(error):
        call()
