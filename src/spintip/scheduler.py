"""Greedy multi-tip scheduling of compiled gate tasks.

Tasks come from ``compiler.expand_tasks`` (INIT gives a task per qubit — the
resets commute). Tasks bind their qubits for the duration of their pulses and
measurements; tip travel happens beforehand with the tip retracted, so it
never counts as qubit occupancy. Gates are assigned in circuit order to
whichever tip can start them earliest — list scheduling, deliberately simple,
run for each tip count up to the one asked for, so that more tips never give a
longer plan, and checked by an independent validator rather than trusted.

The clock arithmetic accumulates durations left to right exactly as serial
execution does, so a one-tip schedule reproduces the serial wall time to the
last bit, conditional slots included.
"""

import dataclasses

from . import timing
from .register import PARKED

#: Seconds of clock rounding the validator forgives.
_SLACK = 1e-9


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


def schedule_multi_tip(tasks, num_tips, layout, cfg):
    """The shortest greedy plan on at most ``num_tips`` tips.

    Greedy list scheduling can get longer with more tips (Graham, SIAM J.
    Appl. Math. 17, 416 (1969)), so the plan on each k = 1, 2, ... tips is
    tried and the shortest kept. A tie keeps the plan on more tips, so the
    result is the plain ``num_tips`` plan unless fewer tips are strictly
    shorter. The search stops at the first plan that leaves a tip idle: idle
    tips are identical and ties go to the lowest index, so every larger k
    gives that same plan. Only the kept plan's rows become ``TimelineEntry``
    objects.
    """
    if num_tips < 1:
        raise ValueError(f"need at least one tip, got {num_tips}")
    best = None
    for tips in range(1, max(1, min(num_tips, len(tasks))) + 1):
        plan = _list_schedule(tasks, tips, layout, cfg)  # (per-task tips, rows, makespan)
        if best is None or plan[2] <= best[2]:
            best = plan
        if len(set(plan[0])) < tips:
            break
    per_task_tip, rows, makespan = best
    return TipAssignment(num_tips, per_task_tip, tuple(TimelineEntry(*row) for row in rows),
                         makespan)


def _list_schedule(tasks, num_tips, layout, cfg):
    """Assign each task to the tip that can start it earliest.

    A task's start is bounded below by its dependencies (earlier gates sharing
    a qubit) and by the chosen tip's travel; ties go to the lowest tip index.
    Every tip that worked parks afterwards, and the makespan includes those
    final retreats — mirroring what serial compilation emits. Returns the
    per-task tips, the timeline as ``TimelineEntry`` field tuples and the
    makespan.
    """
    moves = timing.move_table(layout.num_qubits, layout.coordinates, cfg)
    free = [0.0] * num_tips
    position = [PARKED] * num_tips
    qubit_release = {}
    assignment = []
    timeline = []
    for task in tasks:
        ready = 0.0  # the latest release of the task's qubits; times are never negative
        for qubit in task.qubits:
            release = qubit_release.get(qubit, 0.0)
            if release > ready:
                ready = release
        first = task.first_position
        best = None
        for tip in range(num_tips):
            arrival = free[tip] + moves(position[tip], first)
            start = arrival if arrival >= ready else ready
            if best is None or start < best[1]:
                best = (tip, start)
        tip, start = best
        end = start
        for duration in task.work:
            end += duration
        assignment.append(tip)
        timeline.append((tip, start, end, task.label, task.gate_index))
        free[tip] = end
        position[tip] = task.end_position
        for qubit in task.qubits:
            qubit_release[qubit] = end
    for tip in range(num_tips):
        if position[tip] is PARKED:
            continue
        park = moves(position[tip], PARKED)
        timeline.append((tip, free[tip], free[tip] + park, "PARK", None))
        free[tip] += park
    return tuple(assignment), tuple(timeline), max(free)


def validate_assignment(assignment, tasks, layout, cfg):
    """Independent schedule checks; returns a list of violations (empty = clean).

    Recomputes everything from the tasks: per-tip travel consistency, no
    qubit bound by two tasks at once, circuit order preserved on every qubit,
    task durations honest, makespan correct.
    """
    problems = []
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
            if entry.start + _SLACK < previous_end + travel:
                problems.append(
                    f"tip {tip} cannot reach {task.label!r} by {entry.start!r}"
                )
            work = 0.0
            for duration in task.work:
                work += duration
            if abs((entry.end - entry.start) - work) > _SLACK:
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
            if later.start + _SLACK < earlier.end:
                problems.append(
                    f"qubit {qubit}: {b.label!r} starts before {a.label!r} ends"
                )

    # Makespan covers every entry including parks.
    latest = 0.0
    for entry in entries + parks:
        latest = max(latest, entry.end)
    if abs(assignment.makespan - latest) > _SLACK:
        problems.append(f"makespan {assignment.makespan!r} but latest end {latest!r}")
    return problems
