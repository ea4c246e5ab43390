"""Greedy multi-tip scheduling of compiled circuits.

Each gate becomes one task (INIT expands to a task per qubit — the resets
commute). Tasks bind their qubits for the duration of their pulses and
measurements; tip travel happens beforehand with the tip retracted, so it
never counts as qubit occupancy. Gates are assigned in circuit order to
whichever tip can start them earliest — list scheduling, deliberately simple,
checked by an independent validator rather than trusted.

The clock arithmetic accumulates durations left to right exactly as serial
execution does, so a one-tip schedule reproduces the serial wall time to the
last bit, conditional slots included.
"""

import dataclasses

from . import compiler, timing
from .program import CnotGate, InitGate, MoveTip, PulseProgram, RotGate
from .register import PARKED


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
    """Per-gate tasks in circuit order; INIT becomes one task per qubit."""
    units = []
    for gate_index, gate in enumerate(circuit.gates):
        if isinstance(gate, InitGate):
            program = compiler.compile_init(layout, cfg)
            per_qubit = len(program.instructions) // layout.num_qubits
            for qubit in range(layout.num_qubits):
                chunk = program.instructions[qubit * per_qubit : (qubit + 1) * per_qubit]
                units.append((gate_index, f"INIT {qubit}", (qubit,), chunk))
        elif isinstance(gate, CnotGate):
            program = compiler.compile_gate(gate, layout, cfg)
            label = f"CNOT {gate.control} {gate.target}"
            qubits = tuple(sorted((gate.control, gate.target)))
            units.append((gate_index, label, qubits, program.instructions))
        else:
            program = compiler.compile_gate(gate, layout, cfg)
            name = "ROT" if isinstance(gate, RotGate) else "MEASURE"
            units.append((gate_index, f"{name} {gate.qubit}", (gate.qubit,), program.instructions))
    tasks = []
    for gate_index, label, qubits, instructions in units:
        entered = layout.with_tip(instructions[0].target)
        work = timing.analyze_program(PulseProgram(instructions[1:]), entered, cfg)
        end = [i.target for i in instructions if isinstance(i, MoveTip)][-1]
        tasks.append(
            GateTask(gate_index, label, qubits, instructions, work.per_instruction, end)
        )
    return tasks


@dataclasses.dataclass(frozen=True)
class TimelineEntry:
    """One tip's occupancy of one task (or its final park run)."""

    tip: int
    start: float
    end: float
    label: str
    gate_index: "int | None"


@dataclasses.dataclass(frozen=True)
class TipAssignment:
    """A complete schedule: who does what when, and how long it all takes."""

    num_tips: int
    per_task_tip: tuple
    timeline: tuple
    makespan: float

    def table(self):
        """``tip start_s end_s gate`` lines, one per timeline entry."""
        entries = sorted(self.timeline, key=lambda e: (e.tip, e.start, e.end))
        lines = [f"{e.tip} {e.start!r} {e.end!r} {e.label}" for e in entries]
        return "\n".join(lines) + ("\n" if lines else "")


def schedule_multi_tip(circuit, num_tips, layout, cfg):
    """Assign each gate to the tip that can start it earliest.

    A task's start is bounded below by its dependencies (earlier gates sharing
    a qubit) and by the chosen tip's travel; ties go to the lowest tip index.
    Every tip that worked parks afterwards, and the makespan includes those
    final retreats — mirroring what serial compilation emits.
    """
    if num_tips < 1:
        raise ValueError(f"need at least one tip, got {num_tips}")
    tasks = expand_tasks(circuit, layout, cfg)
    free = [0.0] * num_tips
    position = [PARKED] * num_tips
    qubit_release = {}
    assignment = []
    timeline = []
    for task in tasks:
        ready = max((qubit_release.get(q, 0.0) for q in task.qubits), default=0.0)
        best = None
        for tip in range(num_tips):
            travel = timing.move_duration(layout, cfg, position[tip], task.first_position)
            arrival = free[tip] + travel
            start = arrival if arrival >= ready else ready
            if best is None or start < best[1]:
                best = (tip, start)
        tip, start = best
        end = start
        for duration in task.work:
            end += duration
        assignment.append(tip)
        timeline.append(TimelineEntry(tip, start, end, task.label, task.gate_index))
        free[tip] = end
        position[tip] = task.end_position
        for qubit in task.qubits:
            qubit_release[qubit] = end
    makespan = 0.0
    for tip in range(num_tips):
        if position[tip] is PARKED:
            continue
        park = timing.move_duration(layout, cfg, position[tip], PARKED)
        timeline.append(TimelineEntry(tip, free[tip], free[tip] + park, "PARK", None))
        free[tip] += park
    for clock in free:
        makespan = max(makespan, clock)
    return TipAssignment(
        num_tips=num_tips,
        per_task_tip=tuple(assignment),
        timeline=tuple(timeline),
        makespan=makespan,
    )


def validate_assignment(assignment, circuit, layout, cfg, slack=1e-9):
    """Independent schedule checks; returns a list of violations (empty = clean).

    Recomputes everything from the circuit: per-tip travel consistency, no
    qubit bound by two tasks at once, circuit order preserved on every qubit,
    task durations honest, makespan correct.
    """
    problems = []
    tasks = expand_tasks(circuit, layout, cfg)
    entries = [e for e in assignment.timeline if e.gate_index is not None]
    parks = [e for e in assignment.timeline if e.gate_index is None]
    if len(entries) != len(tasks):
        problems.append(f"{len(tasks)} tasks but {len(entries)} timeline entries")
        return problems

    # Per-tip: travel feasibility and duration honesty, in time order.
    by_tip = {}
    for entry, task in zip(entries, tasks):
        if not 0 <= entry.tip < assignment.num_tips:
            problems.append(f"task {task.label!r} on nonexistent tip {entry.tip}")
        by_tip.setdefault(entry.tip, []).append((entry, task))
    for tip, items in sorted(by_tip.items()):
        items.sort(key=lambda pair: pair[0].start)
        previous_end, previous_position = 0.0, PARKED
        for entry, task in items:
            travel = timing.move_duration(layout, cfg, previous_position, task.first_position)
            if entry.start + slack < previous_end + travel:
                problems.append(
                    f"tip {tip} cannot reach {task.label!r} by {entry.start!r}"
                )
            work = 0.0
            for duration in task.work:
                work += duration
            if abs((entry.end - entry.start) - work) > slack:
                problems.append(
                    f"task {task.label!r} lasts {entry.end - entry.start!r}, needs {work!r}"
                )
            previous_end, previous_position = entry.end, task.end_position

    # Per-qubit: tasks must run disjointly and in circuit order.
    by_qubit = {}
    for task_order, (entry, task) in enumerate(zip(entries, tasks)):
        for qubit in task.qubits:
            by_qubit.setdefault(qubit, []).append((task_order, entry, task))
    for qubit, items in sorted(by_qubit.items()):
        for (_, earlier, a), (_, later, b) in zip(items, items[1:]):
            if later.start + slack < earlier.end:
                problems.append(
                    f"qubit {qubit}: {b.label!r} starts before {a.label!r} ends"
                )

    # Makespan covers every entry including parks.
    latest = 0.0
    for entry in entries + parks:
        latest = max(latest, entry.end)
    if abs(assignment.makespan - latest) > slack:
        problems.append(f"makespan {assignment.makespan!r} but latest end {latest!r}")
    return problems
