"""Wall-clock accounting for instructions, programs, and the gate budget."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintip import (
    PARKED,
    ApplyPulse,
    Channel,
    ConditionalPulse,
    ConfigError,
    MachineConfig,
    MeasureViaCurrent,
    MoveTip,
    Pulse,
    PulseProgram,
    PureState,
    RegisterLayout,
    TimingReport,
    analyze_program,
    compile_circuit,
    compile_cnot,
    decoherence_budget,
    execute,
    move_duration,
    parse_circuit,
)
from spintip.timing import walk

CFG = MachineConfig()
CHAIN = RegisterLayout(4)


def oracle_duration(instruction, layout, cfg, tip_position):
    """Wall time of one instruction with the tip at ``tip_position``, judged on its own."""
    if isinstance(instruction, MoveTip):
        return move_duration(layout, cfg, tip_position, instruction.target)
    if isinstance(instruction, (ApplyPulse, ConditionalPulse)):
        return instruction.pulse.duration
    if isinstance(instruction, MeasureViaCurrent):
        return cfg.measurement_dwell_time
    raise TypeError(f"not an instruction: {instruction!r}")


def oracle_category(instruction):
    """Accounting bucket of one instruction, judged on its own."""
    if isinstance(instruction, MoveTip):
        return "tip_motion"
    if isinstance(instruction, (ApplyPulse, ConditionalPulse)):
        if instruction.pulse.channel is Channel.ELECTRON_RF:
            return "electron_pulses"
        return "nuclear_pulses"
    if isinstance(instruction, MeasureViaCurrent):
        return "measurement"
    raise TypeError(f"not an instruction: {instruction!r}")


def oracle_report(program, layout, cfg):
    """The TimingReport of plain left-to-right sums over the oracle's prices."""
    categories = dict.fromkeys(
        ("tip_motion", "nuclear_pulses", "electron_pulses", "measurement"), 0.0
    )
    durations = []
    total = 0.0
    tip = layout.tip_position
    for instruction in program.instructions:
        duration = oracle_duration(instruction, layout, cfg, tip)
        categories[oracle_category(instruction)] += duration
        durations.append(duration)
        total += duration
        if isinstance(instruction, MoveTip):
            tip = instruction.target
    capacity = None
    if program.gate_count and total > 0:
        capacity = decoherence_budget(cfg, total / program.gate_count)
    return TimingReport(
        per_instruction=tuple(durations),
        category_totals=categories,
        total_wall_time=total,
        gate_capacity=capacity,
        feasible=total <= cfg.coherence_time,
    )


def random_circuit(rng, num_qubits, gates):
    lines = []
    for _ in range(gates):
        kind = rng.integers(4)
        if kind == 0:
            lines.append(f"ROT {rng.integers(num_qubits)} {rng.uniform(-7.0, 7.0)!r} 0.3")
        elif kind == 1:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            lines.append(f"CNOT {a} {b}")
        elif kind == 2:
            lines.append(f"MEASURE {rng.integers(num_qubits)}")
        else:
            lines.append("INIT")
    return parse_circuit("\n".join(lines))


class TestInstructionDurations:
    def test_tip_moves_scale_with_manhattan_hops(self):
        assert move_duration(CHAIN, CFG, None, 0) == pytest.approx(15e-6)
        assert move_duration(CHAIN, CFG, 0, 1) == pytest.approx(15e-6)
        assert move_duration(CHAIN, CFG, 0, 3) == pytest.approx(45e-6)
        assert move_duration(CHAIN, CFG, 2, 2) == 0.0
        assert move_duration(CHAIN, CFG, 2, None) == pytest.approx(15e-6)

    def test_pulse_duration_is_taken_from_the_pulse(self):
        pulse = Pulse(Channel.PHOSPHORUS_NUCLEAR_RF, 2.6e7, math.pi, 0.0, 5e-6)
        [(duration, _)] = walk([ApplyPulse(pulse)], CHAIN, CFG, 0)
        assert duration == 5e-6

    def test_measurement_uses_the_dwell_time(self):
        assert walk([MeasureViaCurrent(0)], CHAIN, CFG, 0) == [(15e-6, "measurement")]

    def test_unknown_objects_are_rejected(self):
        with pytest.raises(TypeError, match="not an instruction: 'PULSE'"):
            walk([MoveTip(0), "PULSE"], CHAIN, CFG, 0)

    def test_categories(self):
        electron = Pulse(Channel.ELECTRON_RF, 1.4e11, math.pi, 0.0, 1e-7)
        nuclear = Pulse(Channel.TIP_CARBON_NUCLEAR_RF, 9.4e8, math.pi, 0.0, 1e-5)
        instructions = [
            MoveTip(1),
            ApplyPulse(electron),
            ConditionalPulse(nuclear),
            MeasureViaCurrent(1),
        ]
        categories = [category for _, category in walk(instructions, CHAIN, CFG, 0)]
        assert categories == ["tip_motion", "electron_pulses", "nuclear_pulses", "measurement"]


class TestBudget:
    def test_budget_oracle_values(self):
        # 10 s of coherence over 100 us gates: exactly 100000 operations.
        assert decoherence_budget(CFG, 100e-6) == 100000
        assert isinstance(decoherence_budget(CFG, 100e-6), int)
        # The two-qubit protocol at defaults: floor(10 / 7.56e-5) = 132275.
        assert decoherence_budget(CFG, 7.56e-5) == 132275

    def test_budget_floor_not_round(self):
        cfg = dataclasses.replace(CFG, coherence_time=1.0)
        assert decoherence_budget(cfg, 0.30001) == 3

    def test_non_positive_mean_rejected(self):
        with pytest.raises(ValueError):
            decoherence_budget(CFG, 0.0)

    def test_an_infinite_gate_count_is_a_config_error(self):
        # 1e308 s over 1e-300 s overflows, and math.floor cannot take infinity.
        cfg = dataclasses.replace(CFG, coherence_time=1e308)
        with pytest.raises(ConfigError, match="not a finite count"):
            decoherence_budget(cfg, 1e-300)


class TestProgramAnalysis:
    def test_totals_are_the_plain_sum(self):
        layout = RegisterLayout(2)
        program = compile_cnot(0, 1, layout, CFG)
        report = analyze_program(program, layout, CFG)
        total = 0.0
        for duration in report.per_instruction:
            total += duration
        assert report.total_wall_time == total
        assert sum(report.category_totals.values()) == pytest.approx(total, rel=1e-12)

    def test_cnot_wall_time_oracle(self):
        # 3 moves from parked (1 + 2 + 2 hops... actually parked->0, 0->1,
        # 1->0: 3 hops of 15 us), 6 electron pi pulses at 0.1 us, 3 nuclear
        # pi pulses at 10 us: 45e-6 + 0.6e-6 + 30e-6 = 75.6 us.
        layout = RegisterLayout(2)
        report = analyze_program(compile_cnot(0, 1, layout, CFG), layout, CFG)
        oracle = 3 * 15e-6 + 6 * 0.1e-6 + 3 * 10e-6
        assert report.total_wall_time == pytest.approx(oracle, rel=1e-12)
        assert report.total_wall_time == pytest.approx(7.56e-5, abs=1e-12)
        assert report.category_totals["tip_motion"] == pytest.approx(45e-6, rel=1e-12)
        assert report.category_totals["electron_pulses"] == pytest.approx(0.6e-6, rel=1e-12)
        assert report.category_totals["nuclear_pulses"] == pytest.approx(30e-6, rel=1e-12)
        assert report.category_totals["measurement"] == 0.0

    def test_static_analysis_agrees_with_execution(self):
        layout = RegisterLayout(2)
        program = compile_cnot(0, 1, layout, CFG)
        static = analyze_program(program, layout, CFG)
        result = execute(program, PureState.ground(layout), layout, CFG, np.random.default_rng(0))
        assert result.timing.total_wall_time == static.total_wall_time
        assert result.timing.per_instruction == static.per_instruction
        assert result.timing.gate_capacity == static.gate_capacity

    def test_conditionals_are_charged_even_when_skipped(self):
        # Executing on the ground state skips every conditional correction,
        # yet the wall clock must match the static worst case exactly.
        from spintip import compile_init

        layout = RegisterLayout(2)
        program = compile_init(layout, CFG)
        static = analyze_program(program, layout, CFG)
        result = execute(program, PureState.ground(layout), layout, CFG, np.random.default_rng(1))
        skipped = [entry for entry in result.pulse_log if entry[1] is None]
        assert skipped  # the point of the test
        assert result.timing.total_wall_time == static.total_wall_time

    def test_gate_capacity_comes_from_the_mean_gate_time(self):
        layout = RegisterLayout(2)
        program = compile_cnot(0, 1, layout, CFG)
        report = analyze_program(program, layout, CFG)
        assert program.gate_count == 1
        assert report.gate_capacity == decoherence_budget(CFG, report.total_wall_time)

    def test_empty_program_has_no_capacity_estimate(self):
        report = analyze_program(PulseProgram(()), CHAIN, CFG)
        assert report.total_wall_time == 0.0
        assert report.gate_capacity is None
        assert report.feasible

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_qubits=st.integers(2, 4),
        gates=st.integers(0, 12),
        grid=st.booleans(),
        tip=st.sampled_from([PARKED, 0, 1]),
    )
    def test_the_walk_agrees_with_an_instruction_by_instruction_oracle(
        self, seed, num_qubits, gates, grid, tip
    ):
        rng = np.random.default_rng(seed)
        coordinates = ()
        if grid:
            cells = rng.choice(36, size=num_qubits, replace=False)
            coordinates = tuple((int(cell) // 6, int(cell) % 6) for cell in cells)
        layout = RegisterLayout(num_qubits, coordinates=coordinates, tip_position=tip)
        program = compile_circuit(random_circuit(rng, num_qubits, gates), layout, CFG)
        assert repr(analyze_program(program, layout, CFG)) == repr(
            oracle_report(program, layout, CFG)
        )

    def test_feasibility_flag(self):
        layout = RegisterLayout(2)
        program = compile_cnot(0, 1, layout, CFG)
        tight = dataclasses.replace(CFG, coherence_time=1e-6)
        assert analyze_program(program, layout, CFG).feasible
        assert not analyze_program(program, layout, tight).feasible
