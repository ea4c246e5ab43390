"""Gate-to-pulse compilation, the gate task list, and program execution.

Every pulse frequency a compiled program carries is the ``physics.pattern_lines``
entry of the *intended* conditional flip — the very float the executor tests
resonance against — so compiled programs cannot silently drift off their own
machine model. The closed forms in ``physics`` stay an independent cross-check
route, never a compilation input.

The lines are derived once per config on a one-qubit register (``drive_lines``)
and reused for every qubit of every register. That holds because couplings are
uniform across qubits: a site's ``pattern_lines`` depend only on the config and
on the bits of its partners (its own nucleus or electron, and the tip carbon
while the tip sits on its qubit), never on which qubit or how many.
"""

import dataclasses
import functools
import math
import types

import numpy as np

from . import engine, physics, readout, timing
from .engine import Channel, Pulse, PulseMode
from .errors import MismatchedRegister, SameQubit
from .program import (
    ApplyPulse,
    CnotGate,
    ConditionalPulse,
    InitGate,
    MeasureGate,
    MeasureViaCurrent,
    MoveTip,
    PulseProgram,
    RotGate,
    validate_program,
)
from .register import PARKED, RegisterLayout

_PI = math.pi


@functools.lru_cache(maxsize=8)
def drive_lines(cfg):
    """The six distinct drive lines of the gate set, as a read-only mapping.

    Each is the ``physics.pattern_lines`` entry of the intended flip on a
    one-qubit register with the tip engaged, keyed by role:

    - rotation: the qubit nucleus with its electron ground (Rot, and INIT's
      first correction)
    - control_electron: the control electron while its nucleus is |1> (tip
      carbon still ground)
    - tip_nucleus: the tip carbon while the local electron is excited
    - target_electron_n1 / _n0: the target electron for either target-nucleus
      bit while the tip carbon is |1>
    - target_nucleus: the qubit nucleus with its electron excited (the CNOT's
      conditional flip, and INIT's second correction)
    """
    layout = RegisterLayout(1, tip_position=0)
    # Partners: nucleus -> (electron,), electron -> (nucleus, tip), tip -> (electron,).
    nucleus, electron, tip = (
        physics.pattern_lines(layout, cfg, site)[1]
        for site in (layout.nucleus_site(0), layout.electron_site(0), layout.tip_site)
    )
    return types.MappingProxyType(
        {
            "rotation": nucleus[0],
            "control_electron": electron[0b10],
            "tip_nucleus": tip[1],
            "target_electron_n1": electron[0b11],
            "target_electron_n0": electron[0b01],
            "target_nucleus": nucleus[1],
        }
    )


def _nuclear_pulse(cfg, frequency, angle=_PI, phase=0.0, mode=PulseMode.LOGICAL_X):
    return Pulse(
        channel=Channel.PHOSPHORUS_NUCLEAR_RF,
        frequency=frequency,
        angle=angle,
        phase=phase,
        duration=cfg.nuclear_pi_duration * angle / _PI,
        mode=mode,
    )


def _tip_pulse(cfg, frequency):
    return Pulse(
        channel=Channel.TIP_CARBON_NUCLEAR_RF,
        frequency=frequency,
        angle=_PI,
        duration=cfg.nuclear_pi_duration,
    )


def _electron_pulse(cfg, frequency):
    return Pulse(
        channel=Channel.ELECTRON_RF,
        frequency=frequency,
        angle=_PI,
        duration=cfg.electron_pi_duration,
    )


def compile_rotation(qubit, angle, phase, layout, cfg):
    """Rotate one qubit nucleus: park the tip on it, drive its shifted line.

    The drive sits on the nuclear line with the local electron in its ground
    state, so the rotation is implicitly conditioned on the ancilla being
    clean — which compiled sequences guarantee. The angle is folded into
    (0, 2*pi]; a zero rotation, or one too small for its pulse duration to
    stay above 0.0 s, compiles to just the tip move. A non-finite angle or
    phase is a ValueError.
    """
    layout.check_qubit(qubit)
    for name, value in (("angle", angle), ("phase", phase)):
        if not math.isfinite(value):
            raise ValueError(f"rotation {name} must be finite, got {value!r}")
    folded = math.fmod(angle, 2.0 * _PI)
    if folded < 0:
        folded += 2.0 * _PI
    if folded == 0.0 and angle != 0.0:
        folded = 2.0 * _PI
    instructions = [MoveTip(qubit)]
    if cfg.nuclear_pi_duration * folded / _PI > 0.0:  # the duration _nuclear_pulse gives
        pulse = _nuclear_pulse(
            cfg, drive_lines(cfg)["rotation"], folded, phase, PulseMode.PHASED_ROTATION
        )
        instructions.append(ApplyPulse(pulse))
    return PulseProgram(tuple(instructions), gate_count=1)


def compile_cnot(control, target, layout, cfg):
    """Entangle two qubits through the travelling tip carbon.

    The sequence copies the control nucleus onto its electron, moves that one
    bit of information into the tip carbon, carries it to the target, applies
    the conditional nuclear flip there, and then retraces every step to
    restore all three ancillas: 3 tip moves, 9 pulses, no measurements.
    """
    if control == target:
        raise SameQubit(f"CNOT control and target are both qubit {control}")
    layout.check_qubit(control)
    layout.check_qubit(target)
    f = drive_lines(cfg)
    when_set = ApplyPulse(_electron_pulse(cfg, f["target_electron_n1"]))
    when_clear = ApplyPulse(_electron_pulse(cfg, f["target_electron_n0"]))
    instructions = (
        # control nucleus -> control electron (conditional excitation)
        MoveTip(control),
        ApplyPulse(_electron_pulse(cfg, f["control_electron"])),
        # control electron -> tip carbon
        ApplyPulse(_tip_pulse(cfg, f["tip_nucleus"])),
        # carry to the target; flip its electron iff the tip carbon is |1>
        MoveTip(target),
        when_set,
        when_clear,
        # the conditional flip itself
        ApplyPulse(_nuclear_pulse(cfg, f["target_nucleus"])),
        # uncompute target electron
        when_set,
        when_clear,
        # walk the control bit back and clean up
        MoveTip(control),
        ApplyPulse(_tip_pulse(cfg, f["tip_nucleus"])),
        ApplyPulse(_electron_pulse(cfg, f["control_electron"])),
    )
    return PulseProgram(instructions, gate_count=1)


def compile_init(layout, cfg):
    """Force every qubit nucleus to |0> by measure-and-correct.

    Per qubit: measure the nucleus through the current, flip it back if it
    read |1>, then re-measure and retry on the electron-shifted line — the
    second round catches the (rare but real) thermally excited electron that
    detunes the first correction pulse. On an already initialized register no
    conditional pulse fires.
    """
    lines = drive_lines(cfg)
    ground_pulse = _nuclear_pulse(cfg, lines["rotation"])
    shifted_pulse = _nuclear_pulse(cfg, lines["target_nucleus"])
    instructions = []
    for qubit in range(layout.num_qubits):
        instructions += [
            MoveTip(qubit),
            MeasureViaCurrent(qubit),
            ConditionalPulse(ground_pulse),
            MeasureViaCurrent(qubit),
            ConditionalPulse(shifted_pulse),
        ]
    return PulseProgram(tuple(instructions), gate_count=layout.num_qubits)


def compile_gate(gate, layout, cfg):
    """Pulse program for one gate (no trailing park)."""
    if isinstance(gate, InitGate):
        return compile_init(layout, cfg)
    if isinstance(gate, RotGate):
        return compile_rotation(gate.qubit, gate.angle, gate.phase, layout, cfg)
    if isinstance(gate, CnotGate):
        return compile_cnot(gate.control, gate.target, layout, cfg)
    if isinstance(gate, MeasureGate):
        layout.check_qubit(gate.qubit)
        return PulseProgram(
            (MoveTip(gate.qubit), MeasureViaCurrent(gate.qubit)), gate_count=1
        )
    raise TypeError(f"not a gate: {gate!r}")


@dataclasses.dataclass(frozen=True)
class GateTask:
    """One schedulable unit: a gate's instructions and the qubits it binds.

    ``work`` holds the durations of the instructions after the first MoveTip,
    entered with the tip at ``first_position``; ``end_position`` is where the
    task leaves the tip.
    """

    gate_index: int
    label: str
    qubits: tuple
    instructions: tuple
    work: tuple
    end_position: "int | None"

    @property
    def first_position(self):
        return self.instructions[0].target


def expand_tasks(circuit, layout, cfg):
    """Per-gate tasks in circuit order; INIT becomes one task per qubit.

    Each gate is compiled once; the serial program (``link``) and the
    multi-tip schedule are both built from this list.
    """
    tasks = []
    for gate_index, gate in enumerate(circuit.gates):
        instructions = compile_gate(gate, layout, cfg).instructions
        if isinstance(gate, InitGate):
            units = [(f"INIT {qubit}", (qubit,)) for qubit in range(layout.num_qubits)]
        elif isinstance(gate, CnotGate):
            qubits = tuple(sorted((gate.control, gate.target)))
            units = [(f"CNOT {gate.control} {gate.target}", qubits)]
        else:
            name = "ROT" if isinstance(gate, RotGate) else "MEASURE"
            units = [(f"{name} {gate.qubit}", (gate.qubit,))]
        size = len(instructions) // len(units)
        for unit, (label, qubits) in enumerate(units):
            chunk = instructions[unit * size : (unit + 1) * size]
            entered = layout.with_tip(chunk[0].target)
            work = timing.analyze_program(PulseProgram(chunk[1:]), entered, cfg)
            end = [i.target for i in chunk if isinstance(i, MoveTip)][-1]
            tasks.append(GateTask(gate_index, label, qubits, chunk, work.per_instruction, end))
    return tasks


def link(tasks):
    """The serial program: every task's instructions in order, then the park."""
    instructions = [instruction for task in tasks for instruction in task.instructions]
    instructions.append(MoveTip(PARKED))
    return PulseProgram(tuple(instructions), gate_count=len(tasks))


def compile_circuit(circuit, layout, cfg):
    """The serial program of a circuit: its tasks linked, the tip parked at the end."""
    return link(expand_tasks(circuit, layout, cfg))


@dataclasses.dataclass(frozen=True)
class ExecutionResult:
    """Everything a program run produced."""

    final_state: engine.PureState
    records: tuple
    timing: timing.TimingReport
    pulse_log: tuple  # (instruction index, PulseOutcome | None if skipped)
    final_tip_position: "int | None"


def execute(program, state, layout, cfg, rng, trace_snr=None):
    """Run a pulse program against a state; return an ExecutionResult.

    Instructions run in order; moves update the tip, conditional pulses fire
    when the most recent measurement inferred p-bit 1. ``rng`` seeds one
    stream that all measurements consume in order, so a seed pins the run.
    The timing is the program's static analysis, which charges conditional
    pulses whether or not they fire.

    The caller's state is copied once, and every pulse and readout collapse
    then acts on that one state object, which replaces its tensor when a
    site wakes or drops; it becomes the final state. The input state is left
    alone.
    """
    validate_program(program, layout)
    if state.num_sites != layout.num_sites:
        raise MismatchedRegister(
            f"state of {state.num_sites} sites under a {layout.num_sites}-site layout"
        )
    rng = np.random.default_rng(rng)
    current = layout
    state = state.copy()
    records = []
    pulse_log = []
    last_inferred = None
    for position, instruction in enumerate(program.instructions):
        if isinstance(instruction, MoveTip):
            current = current.with_tip(instruction.target)
        elif isinstance(instruction, (ApplyPulse, ConditionalPulse)):
            outcome = None
            if isinstance(instruction, ApplyPulse) or last_inferred == 1:
                state, outcome = engine.apply_selective_pulse(
                    state, instruction.pulse, current, cfg
                )
            pulse_log.append((position, outcome))
        elif isinstance(instruction, MeasureViaCurrent):
            record, state = readout.measure_via_current(
                state, instruction.qubit, current, cfg, rng, trace_snr
            )
            records.append(record)
            last_inferred = record.inferred_p_bit
    return ExecutionResult(
        final_state=state,
        records=tuple(records),
        timing=timing.analyze_program(program, layout, cfg),
        pulse_log=tuple(pulse_log),
        final_tip_position=current.tip_position,
    )
