"""Wall-clock accounting for instructions, programs, and the gate budget."""

import dataclasses
import math

import numpy as np
import pytest

from spintip import (
    ApplyPulse,
    Channel,
    ConfigError,
    MachineConfig,
    MeasureViaCurrent,
    MoveTip,
    Pulse,
    PulseProgram,
    PureState,
    RegisterLayout,
    analyze_program,
    compile_cnot,
    decoherence_budget,
    duration_category,
    execute,
    instruction_duration,
    move_duration,
)

CFG = MachineConfig()
CHAIN = RegisterLayout(4)


class TestInstructionDurations:
    def test_tip_moves_scale_with_manhattan_hops(self):
        assert move_duration(CHAIN, CFG, None, 0) == pytest.approx(15e-6)
        assert move_duration(CHAIN, CFG, 0, 1) == pytest.approx(15e-6)
        assert move_duration(CHAIN, CFG, 0, 3) == pytest.approx(45e-6)
        assert move_duration(CHAIN, CFG, 2, 2) == 0.0
        assert move_duration(CHAIN, CFG, 2, None) == pytest.approx(15e-6)

    def test_pulse_duration_is_taken_from_the_pulse(self):
        pulse = Pulse(Channel.PHOSPHORUS_NUCLEAR_RF, 2.6e7, math.pi, 0.0, 5e-6)
        assert instruction_duration(ApplyPulse(pulse), CHAIN, CFG, 0) == 5e-6

    def test_measurement_uses_the_dwell_time(self):
        assert instruction_duration(MeasureViaCurrent(0), CHAIN, CFG, 0) == 15e-6

    def test_unknown_objects_are_rejected(self):
        with pytest.raises(TypeError):
            instruction_duration("PULSE", CHAIN, CFG, 0)
        with pytest.raises(TypeError):
            duration_category("PULSE")

    def test_categories(self):
        electron = Pulse(Channel.ELECTRON_RF, 1.4e11, math.pi, 0.0, 1e-7)
        nuclear = Pulse(Channel.TIP_CARBON_NUCLEAR_RF, 9.4e8, math.pi, 0.0, 1e-5)
        assert duration_category(MoveTip(1)) == "tip_motion"
        assert duration_category(ApplyPulse(electron)) == "electron_pulses"
        assert duration_category(ApplyPulse(nuclear)) == "nuclear_pulses"
        assert duration_category(MeasureViaCurrent(0)) == "measurement"


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

    def test_feasibility_flag(self):
        layout = RegisterLayout(2)
        program = compile_cnot(0, 1, layout, CFG)
        tight = dataclasses.replace(CFG, coherence_time=1e-6)
        assert analyze_program(program, layout, CFG).feasible
        assert not analyze_program(program, layout, tight).feasible
