"""Circuit text format, instruction text format, and program validation."""

import math

import pytest

from spintip import (
    ApplyPulse,
    Channel,
    Circuit,
    CnotGate,
    ConditionalPulse,
    InitGate,
    MachineConfig,
    MeasureGate,
    MeasureViaCurrent,
    MoveTip,
    Pulse,
    PulseProgram,
    RegisterLayout,
    RotGate,
    format_circuit,
    parse_circuit,
    program_to_text,
    validate_program,
)
from spintip.errors import CircuitParseError, IllFormedProgram, SameQubit

CFG = MachineConfig()


def electron_pulse(frequency=1.41e11):
    return Pulse(Channel.ELECTRON_RF, frequency, math.pi, 0.0, 1e-7)


class TestCircuitParsing:
    def test_happy_path(self):
        text = """
        # prepare and entangle
        INIT
        rot 0 1.5707963 0.0
        CNOT 0 1
        measure 1   # trailing comment
        """
        circuit = parse_circuit(text)
        assert circuit.gates == (
            InitGate(),
            RotGate(0, 1.5707963, 0.0),
            CnotGate(0, 1),
            MeasureGate(1),
        )
        assert circuit.num_qubits == 2

    def test_rot_phase_is_optional(self):
        circuit = parse_circuit("ROT 2 0.5")
        assert circuit.gates == (RotGate(2, 0.5, 0.0),)
        assert circuit.num_qubits == 3

    def test_empty_circuit_still_has_one_qubit(self):
        assert parse_circuit("").num_qubits == 1

    def test_round_trip(self):
        text = "INIT\nROT 0 0.5 0.25\nCNOT 1 0\nMEASURE 0\n"
        assert format_circuit(parse_circuit(text)) == text
        assert parse_circuit(format_circuit(parse_circuit(text))) == parse_circuit(text)

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("WIGGLE 0", "WIGGLE"),
            ("ROT 0", "ROT"),
            ("CNOT 0", "CNOT"),
            ("CNOT 0 1 2", "CNOT"),
            ("MEASURE", "MEASURE"),
            ("ROT -1 0.5", "non-negative"),
            ("ROT zero 0.5", "zero"),
            ("CNOT 3 3", "qubit 3"),
            ("INIT 0", "INIT"),
        ],
    )
    def test_errors_carry_the_line_number(self, line, fragment):
        text = "INIT\n" + line + "\n"
        with pytest.raises(CircuitParseError, match=r"(?s)job\.circuit:2.*" + fragment):
            parse_circuit(text, source="job.circuit")

    def test_source_name_appears_in_errors(self):
        with pytest.raises(CircuitParseError, match="job.circuit"):
            parse_circuit("BAD", source="job.circuit")

    def test_cnot_on_one_qubit_rejected_at_construction(self):
        with pytest.raises(SameQubit):
            CnotGate(2, 2)


class TestProgramText:
    def test_each_instruction_renders_one_line(self):
        program = PulseProgram(
            (
                MoveTip(1),
                ApplyPulse(Pulse(Channel.PHOSPHORUS_NUCLEAR_RF, 2.5e7, math.pi, 0.5, 1e-5)),
                MeasureViaCurrent(1),
                ConditionalPulse(Pulse(Channel.ELECTRON_RF, 1.41e11, math.pi, 0.0, 1e-7)),
                MoveTip(None),
            )
        )
        lines = program_to_text(program).splitlines()
        assert lines == [
            "MOVE 1",
            "PULSE PHOSPHORUS 25000000.0 3.141592653589793 0.5",
            "MEASURE 1",
            "CONDPULSE ELECTRON 141000000000.0 3.141592653589793 0.0",
            "MOVE PARK",
        ]


class TestProgramValidation:
    def test_clean_program_passes(self):
        layout = RegisterLayout(2)
        program = PulseProgram(
            (
                MoveTip(0),
                ApplyPulse(electron_pulse()),
                MeasureViaCurrent(0),
                ConditionalPulse(electron_pulse()),
                MoveTip(None),
            )
        )
        validate_program(program, layout)

    def test_qubit_pulse_while_parked_rejected(self):
        layout = RegisterLayout(1)
        program = PulseProgram((ApplyPulse(electron_pulse()),))
        with pytest.raises(IllFormedProgram, match="0"):
            validate_program(program, layout)

    def test_conditional_before_any_measurement_rejected(self):
        layout = RegisterLayout(1)
        program = PulseProgram((MoveTip(0), ConditionalPulse(electron_pulse())))
        with pytest.raises(IllFormedProgram, match="measurement"):
            validate_program(program, layout)

    def test_measure_needs_the_tip_on_that_qubit(self):
        layout = RegisterLayout(2)
        program = PulseProgram((MoveTip(0), MeasureViaCurrent(1)))
        with pytest.raises(IllFormedProgram):
            validate_program(program, layout)

    def test_move_target_must_exist(self):
        layout = RegisterLayout(2)
        program = PulseProgram((MoveTip(5),))
        with pytest.raises(IllFormedProgram):
            validate_program(program, layout)

    def test_tip_channel_is_fine_while_parked(self):
        layout = RegisterLayout(1)
        pulse = Pulse(Channel.TIP_CARBON_NUCLEAR_RF, 5.35e7, math.pi, 0.0, 1e-5)
        validate_program(PulseProgram((ApplyPulse(pulse),)), layout)

    @pytest.mark.parametrize(
        "instructions, message",
        [
            (
                (MoveTip(0), MoveTip(None), MoveTip(5)),
                "instruction 2: move to 5, not a qubit",
            ),
            (
                (MoveTip(0), MoveTip(1.0)),
                "instruction 1: move to 1.0, not a qubit",
            ),
            (
                (MoveTip(0), MoveTip(None), ApplyPulse(electron_pulse())),
                "instruction 2: electron_rf pulse with the tip parked",
            ),
            (
                (MoveTip(0), ApplyPulse(electron_pulse()), ConditionalPulse(electron_pulse())),
                "instruction 2: conditional pulse before any measurement",
            ),
            (
                (MoveTip(0), MeasureViaCurrent(0), MeasureViaCurrent(1)),
                "instruction 2: measuring qubit 1 with tip at 0",
            ),
            (
                (MoveTip(0), MeasureViaCurrent(0), "PULSE"),
                "instruction 2: unknown instruction 'PULSE'",
            ),
        ],
    )
    def test_each_message_names_the_instruction_exactly(self, instructions, message):
        with pytest.raises(IllFormedProgram) as raised:
            validate_program(PulseProgram(instructions), RegisterLayout(2))
        assert str(raised.value) == message


class TestCircuitContainer:
    def test_num_qubits_spans_the_largest_index(self):
        circuit = Circuit((MeasureGate(4),))
        assert circuit.num_qubits == 5
