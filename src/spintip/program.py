"""Circuits, pulse programs, and both text formats.

A Circuit is what the user writes (gate level); a PulseProgram is what the
machine runs (tip moves, RF pulses, current measurements). The compiler maps
one to the other; this module only defines the data and the serializations.
"""

import dataclasses
import math

from .engine import Channel, Pulse
from .errors import CircuitParseError, IllFormedProgram, SameQubit
from .register import PARKED, is_index


# --------------------------------------------------------------------------
# Gate level


@dataclasses.dataclass(frozen=True)
class InitGate:
    """Reset every qubit nucleus to |0> by measure-and-correct."""


@dataclasses.dataclass(frozen=True)
class RotGate:
    qubit: int
    angle: float
    phase: float = 0.0


@dataclasses.dataclass(frozen=True)
class CnotGate:
    control: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise SameQubit(f"CNOT control and target are both qubit {self.control}")


@dataclasses.dataclass(frozen=True)
class MeasureGate:
    qubit: int


@dataclasses.dataclass(frozen=True)
class Circuit:
    gates: tuple

    @property
    def num_qubits(self):
        """Register size implied by the highest qubit index (at least 1)."""
        highest = -1
        for gate in self.gates:
            for attr in ("qubit", "control", "target"):
                value = getattr(gate, attr, None)
                if value is not None:
                    highest = max(highest, value)
        return max(highest + 1, 1)


def _parse_qubit(token, where):
    try:
        value = int(token)
    except ValueError:
        raise CircuitParseError(f"{where}: qubit index {token!r} is not an integer") from None
    if value < 0:
        raise CircuitParseError(f"{where}: qubit index must be non-negative, got {value}")
    return value


def _parse_float(token, what, where):
    try:
        value = float(token)
    except ValueError:
        raise CircuitParseError(f"{where}: {what} {token!r} is not a number") from None
    if not math.isfinite(value):
        raise CircuitParseError(f"{where}: {what} {token!r} is not finite")
    return value


def parse_circuit(text, source="circuit"):
    """Parse gate-per-line circuit text; ``#`` comments and blank lines skipped.

    Grammar: ``INIT`` | ``ROT q angle phase`` | ``CNOT control target`` |
    ``MEASURE q``. Angles in radians.
    """
    gates = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        tokens = line.split()
        name, args = tokens[0].upper(), tokens[1:]
        if name == "INIT":
            if args:
                raise CircuitParseError(f"{where}: INIT takes no arguments")
            gates.append(InitGate())
        elif name == "ROT":
            if len(args) not in (2, 3):
                raise CircuitParseError(f"{where}: ROT needs qubit and angle (phase optional)")
            phase = _parse_float(args[2], "phase", where) if len(args) == 3 else 0.0
            gates.append(
                RotGate(
                    _parse_qubit(args[0], where),
                    _parse_float(args[1], "angle", where),
                    phase,
                )
            )
        elif name == "CNOT":
            if len(args) != 2:
                raise CircuitParseError(f"{where}: CNOT needs control and target")
            control = _parse_qubit(args[0], where)
            target = _parse_qubit(args[1], where)
            try:
                gates.append(CnotGate(control, target))
            except SameQubit as exc:
                raise CircuitParseError(f"{where}: {exc}") from None
        elif name == "MEASURE":
            if len(args) != 1:
                raise CircuitParseError(f"{where}: MEASURE needs exactly one qubit")
            gates.append(MeasureGate(_parse_qubit(args[0], where)))
        else:
            raise CircuitParseError(f"{where}: unknown gate {tokens[0]!r}")
    return Circuit(tuple(gates))


def format_circuit(circuit):
    """Inverse of parse_circuit (up to whitespace and comments)."""
    lines = []
    for gate in circuit.gates:
        if isinstance(gate, InitGate):
            lines.append("INIT")
        elif isinstance(gate, RotGate):
            lines.append(f"ROT {gate.qubit} {gate.angle!r} {gate.phase!r}")
        elif isinstance(gate, CnotGate):
            lines.append(f"CNOT {gate.control} {gate.target}")
        elif isinstance(gate, MeasureGate):
            lines.append(f"MEASURE {gate.qubit}")
        else:
            raise TypeError(f"not a gate: {gate!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------
# Instruction level


@dataclasses.dataclass(frozen=True)
class MoveTip:
    """Send the tip to a qubit, or park it (``target=None``)."""

    target: "int | None"


@dataclasses.dataclass(frozen=True)
class ApplyPulse:
    pulse: Pulse


@dataclasses.dataclass(frozen=True)
class ConditionalPulse:
    """Fire ``pulse`` only if the last current measurement inferred p-bit 1."""

    pulse: Pulse


@dataclasses.dataclass(frozen=True)
class MeasureViaCurrent:
    qubit: int


@dataclasses.dataclass(frozen=True)
class PulseProgram:
    """Machine instructions plus the logical gate count they implement."""

    instructions: tuple
    gate_count: int = 0


_CHANNEL_NAMES = {
    Channel.ELECTRON_RF: "ELECTRON",
    Channel.PHOSPHORUS_NUCLEAR_RF: "PHOSPHORUS",
    Channel.TIP_CARBON_NUCLEAR_RF: "TIPCARBON",
}


def _pulse_text(keyword, pulse):
    channel = _CHANNEL_NAMES[pulse.channel]
    return f"{keyword} {channel} {pulse.frequency!r} {pulse.angle!r} {pulse.phase!r}"


def instruction_text(instruction):
    """One instruction's line of the program listing."""
    if isinstance(instruction, MoveTip):
        return "MOVE " + ("PARK" if instruction.target is PARKED else str(instruction.target))
    if isinstance(instruction, ApplyPulse):
        return _pulse_text("PULSE", instruction.pulse)
    if isinstance(instruction, ConditionalPulse):
        return _pulse_text("CONDPULSE", instruction.pulse)
    if isinstance(instruction, MeasureViaCurrent):
        return f"MEASURE {instruction.qubit}"
    raise TypeError(f"not an instruction: {instruction!r}")


def program_to_text(program):
    """Line-per-instruction listing of a pulse program."""
    lines = [instruction_text(instruction) for instruction in program.instructions]
    return "\n".join(lines) + ("\n" if lines else "")


def validate_program(program, layout):
    """Structural checks a program must pass before execution.

    Tracks the tip through the instruction list starting from the layout's
    current position: qubit-channel pulses need the tip on a qubit, a current
    measurement needs the tip on that very qubit, and a conditional pulse
    needs some earlier measurement to condition on.
    """
    tip = layout.tip_position
    measured = False
    for position, instruction in enumerate(program.instructions):
        if isinstance(instruction, MoveTip):
            target = instruction.target
            if target is not PARKED and not is_index(target, layout.num_qubits):
                raise IllFormedProgram(
                    f"instruction {position}: move to {target!r}, not a qubit"
                )
            tip = target
        elif isinstance(instruction, (ApplyPulse, ConditionalPulse)):
            if instruction.pulse.channel is not Channel.TIP_CARBON_NUCLEAR_RF and tip is PARKED:
                raise IllFormedProgram(
                    f"instruction {position}: {instruction.pulse.channel.value} pulse"
                    " with the tip parked"
                )
            if isinstance(instruction, ConditionalPulse) and not measured:
                raise IllFormedProgram(
                    f"instruction {position}: conditional pulse before any measurement"
                )
        elif isinstance(instruction, MeasureViaCurrent):
            if tip != instruction.qubit:
                raise IllFormedProgram(
                    f"instruction {position}: measuring qubit {instruction.qubit}"
                    f" with tip at {tip!r}"
                )
            measured = True
        else:
            raise IllFormedProgram(f"instruction {position}: unknown instruction {instruction!r}")
    return program
