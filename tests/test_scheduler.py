"""Multi-tip scheduling: serial equivalence, optimality on a known case,
makespans that never rise with more tips, and structural validation of
random schedules."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintip import (
    PARKED,
    MachineConfig,
    MoveTip,
    PureState,
    RegisterLayout,
    analyze_program,
    compile_circuit,
    execute,
    expand_tasks,
    move_duration,
    parse_circuit,
    program_to_text,
    schedule_multi_tip,
    validate_assignment,
)
from spintip import cli, compiler, scheduler, timing
from spintip.timing import walk

CFG = MachineConfig()


def random_circuit(rng, num_qubits=4, gates=12):
    lines = ["INIT"]
    for _ in range(gates):
        kind = rng.integers(3)
        if kind == 0:
            lines.append(f"ROT {rng.integers(num_qubits)} {rng.uniform(0.1, 3.0):.4f} 0.0")
        elif kind == 1:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            lines.append(f"CNOT {a} {b}")
        else:
            lines.append(f"MEASURE {rng.integers(num_qubits)}")
    return parse_circuit("\n".join(lines))


class TestSerialEquivalence:
    def test_one_tip_matches_the_executed_wall_clock(self):
        circuit = parse_circuit("INIT\nROT 0 1.2 0.0\nCNOT 0 1\nMEASURE 1")
        layout = RegisterLayout(2)
        assignment = schedule_multi_tip(expand_tasks(circuit, layout, CFG), 1, layout, CFG)
        program = compile_circuit(circuit, layout, CFG)
        result = execute(program, PureState.ground(layout), layout, CFG, np.random.default_rng(0))
        # Identical left-to-right accumulation: the equality is exact.
        assert assignment.makespan == result.timing.total_wall_time

    def test_one_tip_matches_execution_on_random_circuits(self):
        layout = RegisterLayout(4)
        for seed in range(10):
            circuit = random_circuit(np.random.default_rng(seed))
            assignment = schedule_multi_tip(expand_tasks(circuit, layout, CFG), 1, layout, CFG)
            program = compile_circuit(circuit, layout, CFG)
            result = execute(
                program, PureState.ground(layout), layout, CFG, np.random.default_rng(0)
            )
            assert assignment.makespan == result.timing.total_wall_time, f"seed {seed}"


class TestKnownOptimum:
    def brute_force_two_tips(self, circuit, layout):
        """Try every task->tip map and both per-tip orders; keep the best."""
        tasks = expand_tasks(circuit, layout, CFG)
        best = float("inf")
        for choice in itertools.product((0, 1), repeat=len(tasks)):
            clock = {0: 0.0, 1: 0.0}
            position = {0: None, 1: None}
            for task, tip in zip(tasks, choice):
                t = clock[tip]
                here = position[tip]
                for duration, _ in walk(task.instructions, layout, CFG, here):
                    t += duration
                for instruction in task.instructions:
                    if hasattr(instruction, "target"):
                        here = instruction.target
                clock[tip] = t
                position[tip] = here
            # Used tips park afterwards, as the scheduler charges.
            for tip in (0, 1):
                if position[tip] is not None:
                    clock[tip] += move_duration(layout, CFG, position[tip], None)
            best = min(best, max(clock.values()))
        return best

    def test_disjoint_cnots_run_fully_parallel(self):
        circuit = parse_circuit("CNOT 0 1\nCNOT 2 3")
        layout = RegisterLayout(4)
        assignment = schedule_multi_tip(expand_tasks(circuit, layout, CFG), 2, layout, CFG)
        # Independent tasks on disjoint qubits: the brute-force optimum is
        # one CNOT's serial cost (7.56e-5 plus 1.5e-5 to park).
        assert assignment.makespan == pytest.approx(9.06e-5, abs=1e-12)
        assert assignment.makespan == pytest.approx(
            self.brute_force_two_tips(circuit, layout), rel=1e-12
        )
        assert sorted(set(assignment.per_task_tip)) == [0, 1]

    def test_adding_tips_never_hurts(self):
        layout = RegisterLayout(4)
        for seed in range(20):
            tasks = expand_tasks(random_circuit(np.random.default_rng(100 + seed)), layout, CFG)
            spans = [schedule_multi_tip(tasks, k, layout, CFG).makespan for k in (1, 2, 3, 4)]
            for slower, faster in zip(spans, spans[1:]):
                assert faster <= slower + 1e-12, f"seed {seed}: {spans}"


# Greedy list scheduling can lengthen with more tips (Graham 1969); this
# 6-qubit circuit did, 496.8 us on 3 tips against 505.6 us on 4.
ANOMALY = """INIT
CNOT 4 5
CNOT 2 5
ROT 1 1.0 0.0
MEASURE 1
ROT 2 1.0 0.0
INIT
ROT 1 1.0 0.0
MEASURE 0
CNOT 5 4
"""


@st.composite
def small_circuits(draw):
    num_qubits = draw(st.integers(2, 6))
    qubit = st.integers(0, num_qubits - 1)
    gate = st.one_of(
        st.just("INIT"),
        st.builds("ROT {} {!r} 0.0".format, qubit, st.floats(0.1, 3.0)),
        st.builds("MEASURE {}".format, qubit),
        st.tuples(qubit, qubit).filter(lambda pair: pair[0] != pair[1]).map(
            lambda pair: f"CNOT {pair[0]} {pair[1]}"
        ),
    )
    lines = draw(st.lists(gate, min_size=1, max_size=12))
    return num_qubits, parse_circuit("\n".join(lines))


class TestMoreTipsNeverHurt:
    def test_the_anomaly_keeps_its_three_tip_makespan(self):
        layout = RegisterLayout(6)
        tasks = expand_tasks(parse_circuit(ANOMALY), layout, CFG)
        three = schedule_multi_tip(tasks, 3, layout, CFG)
        four = schedule_multi_tip(tasks, 4, layout, CFG)
        assert three.makespan == pytest.approx(496.8e-6, abs=1e-12)
        assert four.makespan == three.makespan
        assert four.num_tips == 4
        assert validate_assignment(four, tasks, layout, CFG) == []

    @settings(deadline=None, max_examples=60)
    @given(case=small_circuits())
    def test_makespan_never_rises_with_more_tips(self, case):
        num_qubits, circuit = case
        layout = RegisterLayout(num_qubits)
        tasks = expand_tasks(circuit, layout, CFG)
        spans = []
        for tips in range(1, 6):
            assignment = schedule_multi_tip(tasks, tips, layout, CFG)
            assert validate_assignment(assignment, tasks, layout, CFG) == []
            spans.append(assignment.makespan)
        assert all(later <= earlier for earlier, later in zip(spans, spans[1:])), spans


class TestValidation:
    def test_scheduler_output_is_always_clean(self):
        layout = RegisterLayout(4)
        for seed in range(20):
            tasks = expand_tasks(random_circuit(np.random.default_rng(300 + seed)), layout, CFG)
            for k in (1, 2, 3):
                assignment = schedule_multi_tip(tasks, k, layout, CFG)
                problems = validate_assignment(assignment, tasks, layout, CFG)
                assert problems == [], f"seed {seed} k {k}: {problems}"

    def test_validator_catches_a_forged_makespan(self):
        layout = RegisterLayout(2)
        tasks = expand_tasks(parse_circuit("CNOT 0 1"), layout, CFG)
        assignment = schedule_multi_tip(tasks, 1, layout, CFG)
        import dataclasses

        forged = dataclasses.replace(assignment, makespan=assignment.makespan / 2)
        problems = validate_assignment(forged, tasks, layout, CFG)
        assert problems

    def test_validator_catches_dependency_violations(self):
        # Run two gates on the same qubit: forging overlapping start times
        # must be reported.
        layout = RegisterLayout(1)
        tasks = expand_tasks(parse_circuit("ROT 0 1.0 0.0\nROT 0 2.0 0.0"), layout, CFG)
        assignment = schedule_multi_tip(tasks, 2, layout, CFG)
        assert validate_assignment(assignment, tasks, layout, CFG) == []
        import dataclasses

        entries = sorted(assignment.timeline, key=lambda e: e.start)
        moved = [
            dataclasses.replace(e, start=0.0) if e.gate_index == 1 else e
            for e in assignment.timeline
        ]
        forged = dataclasses.replace(assignment, timeline=tuple(moved))
        assert validate_assignment(forged, tasks, layout, CFG)
        assert entries[0].start <= entries[1].start


class TestDeterminismAndShape:
    def test_same_inputs_same_schedule(self):
        layout = RegisterLayout(4)
        tasks = expand_tasks(random_circuit(np.random.default_rng(555)), layout, CFG)
        first = schedule_multi_tip(tasks, 3, layout, CFG)
        second = schedule_multi_tip(tasks, 3, layout, CFG)
        assert first == second

    def test_table_is_tip_start_end_label(self):
        layout = RegisterLayout(1)
        tasks = expand_tasks(parse_circuit("ROT 0 1.0 0.0"), layout, CFG)
        assignment = schedule_multi_tip(tasks, 1, layout, CFG)
        lines = assignment.table().splitlines()
        assert len(lines) == 2  # the rotation, then the park
        tip, start, end, *label = lines[0].split()
        assert tip == "0"
        # Occupancy starts once the tip has travelled in (one hop from park).
        assert float(start) == pytest.approx(1.5e-5, abs=1e-15)
        assert float(end) > float(start)
        assert " ".join(label) == "ROT 0"
        assert lines[1].split()[3] == "PARK"

    def test_unused_tips_do_not_park(self):
        layout = RegisterLayout(1)
        tasks = expand_tasks(parse_circuit("ROT 0 1.0 0.0"), layout, CFG)
        assignment = schedule_multi_tip(tasks, 4, layout, CFG)
        used_tips = {entry.tip for entry in assignment.timeline}
        assert used_tips == {0}
        assert assignment.num_tips == 4

    def test_zero_tips_rejected(self):
        with pytest.raises(ValueError):
            layout = RegisterLayout(1)
            schedule_multi_tip(expand_tasks(parse_circuit("INIT"), layout, CFG), 0, layout, CFG)

    def test_init_expands_to_one_task_per_qubit(self):
        layout = RegisterLayout(3)
        tasks = expand_tasks(parse_circuit("INIT\nCNOT 2 0"), layout, CFG)
        labels = [task.label for task in tasks]
        assert labels == ["INIT 0", "INIT 1", "INIT 2", "CNOT 2 0"]
        assert tasks[3].qubits == (0, 2)


class TestOneTaskList:
    def test_each_task_works_its_slice_of_the_serial_timing(self):
        layout = RegisterLayout(4)
        for seed in range(10):
            circuit = random_circuit(np.random.default_rng(700 + seed))
            tasks = expand_tasks(circuit, layout, CFG)
            program = compile_circuit(circuit, layout, CFG)
            assert program.gate_count == len(tasks)
            serial = analyze_program(program, layout, CFG).per_instruction
            offset = 0
            for task in tasks:
                end = offset + len(task.instructions)
                assert task.instructions == program.instructions[offset:end]
                assert task.work == serial[offset + 1 : end]
                offset = end
            assert program.instructions[offset:] == (MoveTip(PARKED),)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tip=st.sampled_from([PARKED, 0, 2]),
        grid=st.booleans(),
    )
    def test_the_task_sums_equal_the_walk_bit_for_bit(self, seed, tip, grid):
        coordinates = ((0, 0), (0, 3), (2, 1), (5, 5)) if grid else ()
        layout = RegisterLayout(4, coordinates=coordinates, tip_position=tip)
        tasks = expand_tasks(random_circuit(np.random.default_rng(seed)), layout, CFG)
        program = compiler.link(tasks)
        walked = analyze_program(program, layout, CFG).per_instruction
        offset = 0
        for task in tasks:
            end = offset + len(task.instructions)
            assert repr(task.work) == repr(walked[offset + 1 : end])
            offset = end
        assert compiler.listing(tasks) == program_to_text(program).splitlines()

    def test_a_scheduled_run_compiles_each_gate_once(self, monkeypatch, tmp_path, capsys):
        calls = []
        original = compiler.compile_gate

        def counting(gate, layout, cfg):
            calls.append(gate)
            return original(gate, layout, cfg)

        monkeypatch.setattr(compiler, "compile_gate", counting)
        compiler._gate_tasks.cache_clear()  # gates compiled earlier in the session
        path = tmp_path / "job.circuit"
        path.write_text("INIT\nROT 0 1.2 0.0\nCNOT 0 1\nMEASURE 1\n", encoding="utf-8")
        argv = ["--circuit", str(path), "--seed", "0", "--tips", "2"]
        assert cli.main(argv) == 0
        assert len(calls) == 4
        first = capsys.readouterr().out
        assert json.loads(first)["scheduler"]["validator_problems"] == []
        # A second run of the same gates in this process compiles only the
        # ROT, which is compiled on every occurrence.
        assert cli.main(argv) == 0
        assert len(calls) == 5 and calls[4] == calls[1]
        assert capsys.readouterr().out == first

    def test_surplus_tips_change_nothing(self):
        layout = RegisterLayout(4)
        tasks = expand_tasks(random_circuit(np.random.default_rng(808)), layout, CFG)
        enough = schedule_multi_tip(tasks, len(tasks), layout, CFG)
        surplus = schedule_multi_tip(tasks, 10**6, layout, CFG)
        assert surplus.num_tips == 10**6
        assert surplus.per_task_tip == enough.per_task_tip
        assert surplus.timeline == enough.timeline
        assert surplus.makespan == enough.makespan
        assert validate_assignment(surplus, tasks, layout, CFG) == []


# -- The schedule against a frozen copy of the plan-per-tip-count search -------
#
# The scheduler as it was before only the kept plan built its timeline
# entries: every candidate plan builds a frozen entry per task. The kept
# assignment must be the same, by repr, so every float of it is the same.


def frozen_list_schedule(tasks, num_tips, layout, cfg):
    moves = timing.move_table(layout.num_qubits, layout.coordinates, cfg)
    free = [0.0] * num_tips
    position = [PARKED] * num_tips
    qubit_release = {}
    assignment = []
    timeline = []
    for task in tasks:
        ready = max((qubit_release.get(q, 0.0) for q in task.qubits), default=0.0)
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
        timeline.append(scheduler.TimelineEntry(tip, start, end, task.label, task.gate_index))
        free[tip] = end
        position[tip] = task.end_position
        for qubit in task.qubits:
            qubit_release[qubit] = end
    for tip in range(num_tips):
        if position[tip] is PARKED:
            continue
        park = moves(position[tip], PARKED)
        timeline.append(scheduler.TimelineEntry(tip, free[tip], free[tip] + park, "PARK", None))
        free[tip] += park
    return tuple(assignment), tuple(timeline), max(free)


def frozen_schedule_multi_tip(tasks, num_tips, layout, cfg):
    best = None
    for tips in range(1, max(1, min(num_tips, len(tasks))) + 1):
        plan = frozen_list_schedule(tasks, tips, layout, cfg)
        if best is None or plan[2] <= best[2]:
            best = plan
        if len(set(plan[0])) < tips:
            break
    return scheduler.TipAssignment(num_tips, *best)


GRID = ((0, 0), (0, 3), (2, 1), (5, 5), (4, 0))


@st.composite
def scheduled_cases(draw):
    """Tasks of a random circuit on 1 to 5 qubits, a row or grid layout, and 1 to 4 tips."""
    num_qubits = draw(st.integers(1, 5))
    qubit = st.integers(0, num_qubits - 1)
    gates = [st.just("INIT"), st.builds("ROT {} {!r} {!r}".format, qubit,
                                        st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)),
             st.builds("MEASURE {}".format, qubit)]
    if num_qubits > 1:
        gates.append(st.lists(qubit, min_size=2, max_size=2, unique=True).map(
            lambda pair: f"CNOT {pair[0]} {pair[1]}"))
    lines = draw(st.lists(st.one_of(gates), min_size=1, max_size=16))
    # The circuit's register ends at its highest qubit, as on the command line.
    circuit = parse_circuit("\n".join(lines))
    size = circuit.num_qubits
    coordinates = GRID[:size] if draw(st.booleans()) else ()
    layout = RegisterLayout(size, coordinates=coordinates)
    return expand_tasks(circuit, layout, CFG), draw(st.integers(1, 4)), layout


class TestAgainstTheFrozenScheduler:
    @settings(deadline=None, max_examples=150)
    @given(case=scheduled_cases())
    def test_the_kept_plan_is_the_frozen_one_by_repr(self, case):
        tasks, tips, layout = case
        expected = frozen_schedule_multi_tip(tasks, tips, layout, CFG)
        produced = schedule_multi_tip(tasks, tips, layout, CFG)
        assert repr(produced) == repr(expected)
        assert produced == expected
        assert all(type(entry) is scheduler.TimelineEntry for entry in produced.timeline)
