"""Gate compilation and program execution against independent oracles.

The CNOT oracle here is a plain index permutation built in the test; the
compiled sequence must reproduce it through nine physical pulses without ever
being told what a CNOT matrix looks like.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintip import (
    PARKED,
    ApplyPulse,
    Channel,
    Circuit,
    CnotGate,
    ConditionalPulse,
    MachineConfig,
    MeasureGate,
    MeasureViaCurrent,
    MoveTip,
    Pulse,
    PulseProgram,
    PureState,
    RegisterLayout,
    RotGate,
    ancilla_diagnostics,
    apply_selective_pulse,
    compile_circuit,
    compile_cnot,
    compile_gate,
    compile_init,
    compile_rotation,
    drive_lines,
    execute,
    expand_tasks,
    measure_via_current,
    parse_circuit,
    program_to_text,
    thermal_sample,
    transition_frequency,
)
from spintip import compiler
from spintip.compiler import listing
from spintip.errors import IllFormedProgram, MismatchedRegister, SameQubit
from spintip.physics import pattern_lines
from spintip.timing import move_table

CFG = MachineConfig()
PAIR = RegisterLayout(2)
SOLO = RegisterLayout(1)


def random_product(layout, rng):
    """Product state with random nucleus superpositions, ancillas ground."""
    pairs = {}
    for qubit in range(layout.num_qubits):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        pairs[qubit] = (complex(raw[0]), complex(raw[1]))
    return PureState.product(layout, pairs)


def ideal_cnot_vector(amplitudes, control, target, num_sites):
    """Apply the textbook CNOT permutation directly to the index bits."""
    out = np.zeros_like(amplitudes)
    for index, amp in enumerate(amplitudes):
        c_bit = (index >> (num_sites - 1 - 2 * control)) & 1
        if c_bit:
            index ^= 1 << (num_sites - 1 - 2 * target)
        out[index] = amp
    return out


def fidelity(a, b):
    return abs(np.vdot(a, b)) ** 2


class TestRotationCompilation:
    def test_drive_sits_on_the_ground_electron_nuclear_line(self):
        # Frozen from the transition oracle: |-86135303.49 - 120e6/2| + nothing
        # else, because the drive assumes a clean (ground) local electron.
        assert drive_lines(CFG)["rotation"] == pytest.approx(146135303.48894662, abs=1e-5)

    def test_program_is_move_plus_one_pulse(self):
        program = compile_rotation(0, math.pi / 2, 0.25, SOLO, CFG)
        assert len(program.instructions) == 2
        assert program.instructions[0] == MoveTip(0)
        pulse = program.instructions[1].pulse
        assert pulse.channel is Channel.PHOSPHORUS_NUCLEAR_RF
        assert pulse.angle == pytest.approx(math.pi / 2)
        assert pulse.phase == 0.25
        assert pulse.duration == pytest.approx(5e-6, rel=1e-12)
        assert program.gate_count == 1

    def test_zero_angle_compiles_to_just_the_move(self):
        program = compile_rotation(0, 0.0, 0.0, SOLO, CFG)
        assert [type(i) for i in program.instructions] == [MoveTip]

    def test_sub_resolution_angle_compiles_to_just_the_move(self):
        # 10 us * 1e-320 / pi underflows to a 0.0 s pulse, which no Pulse takes.
        program = compile_rotation(0, 1e-320, 0.0, SOLO, CFG)
        assert program.instructions == (MoveTip(0),)

    @pytest.mark.parametrize(
        "angle, folded",
        [
            (2 * math.pi + math.pi / 2, math.pi / 2),
            (-math.pi / 2, 3 * math.pi / 2),
            (2 * math.pi, 2 * math.pi),
            (4 * math.pi, 2 * math.pi),
        ],
    )
    def test_angles_fold_into_one_turn(self, angle, folded):
        program = compile_rotation(0, angle, 0.0, SOLO, CFG)
        assert program.instructions[1].pulse.angle == pytest.approx(folded, abs=1e-12)

    @pytest.mark.parametrize(
        "angle, phase",
        [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)],
    )
    def test_non_finite_angle_or_phase_rejected(self, angle, phase):
        # A nan angle used to compile to a bare move, an infinite one to fail
        # in fmod, and a nan phase to run into a state of norm nan.
        bad = angle if not math.isfinite(angle) else phase
        with pytest.raises(ValueError, match=f"must be finite, got {bad!r}"):
            compile_rotation(0, angle, phase, SOLO, CFG)

    def test_executed_rotation_matches_the_two_level_formula(self):
        theta, phi = 1.1, -0.6
        program = compile_rotation(0, theta, phi, SOLO, CFG)
        result = execute(program, PureState.ground(SOLO), SOLO, CFG, np.random.default_rng(0))
        amps = result.final_state.amplitudes
        assert amps[0b000] == pytest.approx(math.cos(theta / 2), abs=1e-12)
        assert amps[0b100] == pytest.approx(
            -1j * math.sin(theta / 2) * np.exp(1j * phi), abs=1e-12
        )

    def test_tip_presence_shifts_the_drive_line(self):
        # With distinct bare/modified couplings the same nucleus sits 20 MHz
        # away when the tip leaves: (130e6 - 90e6) / 2.
        cfg = dataclasses.replace(CFG, hyperfine_bare=90e6, hyperfine_tip_modified=130e6)
        engaged = drive_lines(cfg)["rotation"]
        parked = transition_frequency((0, 0, 0), 0, RegisterLayout(1), cfg)
        assert engaged - parked == pytest.approx(20e6, abs=1e-3)


class TestDriveLineTable:
    @pytest.mark.parametrize(
        "cfg",
        [CFG, dataclasses.replace(CFG, hyperfine_bare=90e6, hyperfine_tip_modified=130e6)],
        ids=["default", "distinct_couplings"],
    )
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_table_equals_the_lines_of_the_full_register(self, num_qubits, cfg):
        # The table is derived once on one qubit; every line a gate drives on
        # any qubit of a larger register must be the very same float.
        layout = RegisterLayout(num_qubits)
        table = drive_lines(cfg)
        tip = layout.tip_site

        def line(engaged, site, *excited):
            config = [0] * layout.num_sites
            for excited_site in excited:
                config[excited_site] = 1
            return transition_frequency(tuple(config), site, layout.with_tip(engaged), cfg)

        for q in range(num_qubits):
            n, e = layout.nucleus_site(q), layout.electron_site(q)
            assert line(q, n) == table["rotation"]
            assert line(q, n, e) == table["target_nucleus"]  # INIT's shifted retry
        for c, t in itertools.permutations(range(num_qubits), 2):
            n_c, e_c = layout.nucleus_site(c), layout.electron_site(c)
            n_t, e_t = layout.nucleus_site(t), layout.electron_site(t)
            assert line(c, e_c, n_c) == table["control_electron"]
            assert line(c, tip, e_c) == table["tip_nucleus"]
            assert line(t, e_t, n_t, tip) == table["target_electron_n1"]
            assert line(t, e_t, tip) == table["target_electron_n0"]
            assert line(t, n_t, e_t, tip) == table["target_nucleus"]

    @pytest.mark.parametrize(
        "cfg",
        [CFG, dataclasses.replace(CFG, hyperfine_bare=90e6, hyperfine_tip_modified=130e6)],
        ids=["default", "distinct_couplings"],
    )
    def test_every_compiled_pulse_sits_exactly_on_a_line(self, cfg):
        # A drive must equal a line of its addressed site bit for bit, so it
        # stays resonant under a window far below one ulp of the line.
        tight = dataclasses.replace(cfg, selectivity_tolerance=1e-300).validate()
        layout = RegisterLayout(3)
        programs = [compile_init(layout, cfg)]
        programs += [compile_rotation(q, 1.1, 0.3, layout, cfg) for q in range(3)]
        programs += [compile_cnot(c, t, layout, cfg)
                     for c, t in itertools.permutations(range(3), 2)]
        sites = {
            Channel.PHOSPHORUS_NUCLEAR_RF: lambda at: at.nucleus_site(at.tip_position),
            Channel.ELECTRON_RF: lambda at: at.electron_site(at.tip_position),
            Channel.TIP_CARBON_NUCLEAR_RF: lambda at: at.tip_site,
        }
        pulses = 0
        for program in programs:
            at = layout
            for instruction in program.instructions:
                if isinstance(instruction, MoveTip):
                    at = at.with_tip(instruction.target)
                elif isinstance(instruction, (ApplyPulse, ConditionalPulse)):
                    pulse = instruction.pulse
                    site = sites[pulse.channel](at)
                    assert pulse.frequency in pattern_lines(at, cfg, site)[1]
                    state = PureState.ground(layout)
                    _, outcome = apply_selective_pulse(state, pulse, at, tight)
                    assert outcome.resonant_pair_count > 0
                    pulses += 1
        assert pulses == 3 * 2 + 3 + 6 * 9

    def test_table_is_read_only(self):
        with pytest.raises(TypeError):
            drive_lines(CFG)["rotation"] = 1.0

    def test_the_table_memo_is_bounded(self):
        # A run uses one config; a field sweep must not keep one table each.
        bound = drive_lines.cache_info().maxsize
        assert bound is not None
        for step in range(3 * bound):
            drive_lines(dataclasses.replace(CFG, magnetic_field=1.0 + step / 8))
        assert drive_lines.cache_info().currsize == bound


class TestCnotCompilation:
    def test_control_equals_target_rejected(self):
        with pytest.raises(SameQubit):
            compile_cnot(1, 1, PAIR, CFG)

    def test_sequence_shape(self):
        program = compile_cnot(0, 1, PAIR, CFG)
        assert len(program.instructions) == 12
        moves = [i for i in program.instructions if isinstance(i, MoveTip)]
        pulses = [i for i in program.instructions if isinstance(i, ApplyPulse)]
        assert [m.target for m in moves] == [0, 1, 0]
        assert len(pulses) == 9
        channels = [p.pulse.channel for p in pulses]
        assert channels.count(Channel.ELECTRON_RF) == 6
        assert channels.count(Channel.TIP_CARBON_NUCLEAR_RF) == 2
        assert channels.count(Channel.PHOSPHORUS_NUCLEAR_RF) == 1
        # Compute/uncompute symmetry: every line is driven twice except the
        # central conditional nuclear flip.
        frequencies = [p.pulse.frequency for p in pulses]
        assert sorted(frequencies[:4]) == sorted(frequencies[5:])
        counts = {f: frequencies.count(f) for f in frequencies}
        assert sorted(counts.values()) == [1, 2, 2, 2, 2]

    def test_drive_lines_frozen_values(self):
        lines = drive_lines(CFG)
        assert lines["control_electron"] == pytest.approx(140902449360.72705, abs=1e-4)
        assert lines["tip_nucleus"] == pytest.approx(946458905.1587291, abs=1e-5)
        assert lines["target_electron_n1"] == pytest.approx(138902449360.72705, abs=1e-4)
        assert lines["target_electron_n0"] == pytest.approx(139022449360.72705, abs=1e-4)
        assert lines["target_nucleus"] == pytest.approx(26135303.488946617, abs=1e-5)

    def test_every_drive_line_is_selective(self):
        # All six distinct working lines must clear twice the resonance
        # tolerance of each other, or pulses would cross-talk.
        lines = sorted(drive_lines(CFG).values())
        for a, b in zip(lines, lines[1:]):
            assert b - a > 2 * CFG.selectivity_tolerance

    @pytest.mark.parametrize("control_bit", [0, 1])
    @pytest.mark.parametrize("target_bit", [0, 1])
    def test_truth_table(self, control_bit, target_bit):
        state = PureState.from_bits((control_bit, 0, target_bit, 0, 0))
        program = compile_cnot(0, 1, PAIR, CFG)
        result = execute(program, state, PAIR, CFG, np.random.default_rng(0))
        expected = (control_bit, 0, control_bit ^ target_bit, 0, 0)
        index = int("".join(map(str, expected)), 2)
        assert result.final_state.amplitudes[index] == 1.0 + 0j

    def test_clear_control_leaves_any_target_untouched(self):
        state = PureState.product(PAIR, {1: (0.6, 0.8j)})
        program = compile_cnot(0, 1, PAIR, CFG)
        result = execute(program, state, PAIR, CFG, np.random.default_rng(0))
        assert np.array_equal(result.final_state.amplitudes, state.amplitudes)

    def test_superposed_control_builds_the_bell_pair(self):
        state = PureState.product(PAIR, {0: (0.6, 0.8)})
        program = compile_cnot(0, 1, PAIR, CFG)
        result = execute(program, state, PAIR, CFG, np.random.default_rng(0))
        expected = np.zeros(32, dtype=complex)
        expected[0b00000] = 0.6
        expected[0b10100] = 0.8
        assert np.array_equal(result.final_state.amplitudes, expected)

    def test_random_product_states_match_the_permutation_oracle(self):
        rng = np.random.default_rng(2024)
        program = compile_cnot(0, 1, PAIR, CFG)
        for _ in range(20):
            state = random_product(PAIR, rng)
            result = execute(program, state, PAIR, CFG, rng)
            ideal = ideal_cnot_vector(state.amplitudes, 0, 1, 5)
            assert fidelity(result.final_state.amplitudes, ideal) >= 1.0 - 1e-12

    def test_reversed_direction_uses_the_other_nucleus(self):
        rng = np.random.default_rng(7)
        state = random_product(PAIR, rng)
        program = compile_cnot(1, 0, PAIR, CFG)
        result = execute(program, state, PAIR, CFG, rng)
        ideal = ideal_cnot_vector(state.amplitudes, 1, 0, 5)
        assert fidelity(result.final_state.amplitudes, ideal) >= 1.0 - 1e-12

    def test_cnot_is_its_own_inverse(self):
        rng = np.random.default_rng(11)
        state = random_product(PAIR, rng)
        program = compile_cnot(0, 1, PAIR, CFG)
        once = execute(program, state, PAIR, CFG, rng).final_state
        twice = execute(program, once, PAIR, CFG, rng).final_state
        assert np.array_equal(twice.amplitudes, state.amplitudes)

    def test_branch_pulse_order_is_irrelevant(self):
        # The two target-electron pulses address disjoint resonances, so
        # swapping them inside the sequence cannot change the result.
        program = compile_cnot(0, 1, PAIR, CFG)
        instructions = list(program.instructions)
        instructions[4], instructions[5] = instructions[5], instructions[4]
        swapped = PulseProgram(tuple(instructions), gate_count=1)
        rng = np.random.default_rng(13)
        state = random_product(PAIR, rng)
        original = execute(program, state, PAIR, CFG, np.random.default_rng(0)).final_state
        reordered = execute(swapped, state, PAIR, CFG, np.random.default_rng(0)).final_state
        assert np.array_equal(original.amplitudes, reordered.amplitudes)

    def test_ancillas_come_back_clean(self):
        rng = np.random.default_rng(17)
        program = compile_cnot(0, 1, PAIR, CFG)
        state = random_product(PAIR, rng)
        result = execute(program, state, PAIR, CFG, rng)
        report = ancilla_diagnostics(result.final_state, PAIR)
        assert report.purity == pytest.approx(1.0, abs=1e-12)
        for name in ("e0", "e1", "tip"):
            assert report.populations[name] == pytest.approx(1.0, abs=1e-12)

    def test_tip_carries_the_control_population_mid_sequence(self):
        # After the first three instructions the control bit lives on the
        # travelling tip carbon: P(tip=1) equals |beta|^2 of the control.
        state = PureState.product(PAIR, {0: (0.6, 0.8)})
        program = compile_cnot(0, 1, PAIR, CFG)
        head = PulseProgram(program.instructions[:3])
        result = execute(head, state, PAIR, CFG, np.random.default_rng(0))
        assert result.final_state.population(4, 1) == pytest.approx(0.64, abs=1e-12)


class TestInitCompilation:
    def test_five_instructions_per_qubit(self):
        program = compile_init(PAIR, CFG)
        assert len(program.instructions) == 10
        assert program.gate_count == 2
        kinds = [type(i) for i in program.instructions[:5]]
        assert kinds == [
            MoveTip,
            MeasureViaCurrent,
            ConditionalPulse,
            MeasureViaCurrent,
            ConditionalPulse,
        ]

    def test_ground_register_fires_no_corrections(self):
        program = compile_init(PAIR, CFG)
        result = execute(program, PureState.ground(PAIR), PAIR, CFG, np.random.default_rng(0))
        assert all(outcome is None for _, outcome in result.pulse_log)
        assert len(result.records) == 4
        assert result.final_state.population(0, 0) == pytest.approx(1.0, abs=1e-15)

    def test_set_nucleus_takes_exactly_one_correction(self):
        state = PureState.from_bits((1, 0, 0, 0, 0))
        program = compile_init(PAIR, CFG)
        result = execute(program, state, PAIR, CFG, np.random.default_rng(0))
        fired = [pos for pos, outcome in result.pulse_log if outcome is not None]
        assert fired == [2]
        assert result.records[0].inferred_p_bit == 1
        assert result.records[1].inferred_p_bit == 0
        assert result.final_state.population(0, 0) == pytest.approx(1.0, abs=1e-15)

    def test_excited_electron_is_caught_by_the_second_round(self):
        # With the local electron thermally excited the first correction
        # pulse is detuned; the retry on the shifted line must land.
        state = PureState.from_bits((1, 1, 0, 0, 0))
        program = compile_init(PAIR, CFG)
        result = execute(program, state, PAIR, CFG, np.random.default_rng(0))
        fired = [pos for pos, outcome in result.pulse_log if outcome is not None]
        assert fired == [2, 4]
        outcomes = dict(result.pulse_log)
        assert outcomes[2].no_resonant_transition  # detuned attempt
        assert not outcomes[4].no_resonant_transition
        assert result.final_state.population(0, 0) == pytest.approx(1.0, abs=1e-15)

    def test_every_thermal_sample_initializes(self):
        layout = PAIR
        program = compile_init(layout, CFG)
        for seed in range(100):
            bits = thermal_sample(layout, CFG, np.random.default_rng(seed))
            state = PureState.from_bits(bits)
            result = execute(program, state, layout, CFG, np.random.default_rng(seed + 5000))
            for qubit in range(2):
                assert result.final_state.population(2 * qubit, 0) == pytest.approx(
                    1.0, abs=1e-12
                ), f"seed {seed} left qubit {qubit} uninitialized"


class TestCircuitCompilation:
    def test_measure_gate_compiles_to_move_and_read(self):
        program = compile_gate(MeasureGate(1), PAIR, CFG)
        assert [type(i) for i in program.instructions] == [MoveTip, MeasureViaCurrent]
        assert program.instructions[0].target == 1
        assert program.gate_count == 1

    def test_circuit_concatenates_and_parks(self):
        circuit = parse_circuit("INIT\nROT 0 1.5707963 0.0\nCNOT 0 1\nMEASURE 1")
        program = compile_circuit(circuit, PAIR, CFG)
        assert program.gate_count == 5  # INIT counts per qubit: 2 + 1 + 1 + 1
        assert program.instructions[-1] == MoveTip(None)

    def test_unknown_gate_type_rejected(self):
        with pytest.raises(TypeError):
            compile_gate("INIT", PAIR, CFG)


class TestGateTaskMemo:
    """A gate's tasks are memoised; a hit must be the very task a fresh compile gives."""

    @staticmethod
    def fresh_listing(gates, layout):
        """The listing of each gate compiled on its own, then the park: no memo involved."""
        lines = []
        for gate in gates:
            lines += program_to_text(compile_gate(gate, layout, CFG)).splitlines()
        return lines + ["MOVE PARK"]

    def test_signed_zero_phases_keep_their_sign(self):
        # RotGate(0, 1.0, 0.0) == RotGate(0, 1.0, -0.0), and they hash equal,
        # but each phase is listed as written.
        both = parse_circuit("ROT 0 1.0 0.0\nROT 0 1.0 -0.0\nROT 0 1.0 0.0")
        tasks = expand_tasks(both, PAIR, CFG)
        lines = listing(tasks)
        assert lines == self.fresh_listing(both.gates, PAIR)
        assert [line.split()[-1] for line in lines if line.startswith("PULSE")] == [
            "0.0", "-0.0", "0.0"
        ]
        for first, second in (("0.0", "-0.0"), ("-0.0", "0.0")):
            expand_tasks(parse_circuit(f"ROT 1 2.0 {first}"), PAIR, CFG)
            later = parse_circuit(f"ROT 1 2.0 {second}")
            assert listing(expand_tasks(later, PAIR, CFG)) == self.fresh_listing(later.gates, PAIR)

    @pytest.mark.parametrize(
        "gate, twin",
        [
            (RotGate(0, 1, 0), RotGate(0, 1.0, 0.0)),
            (RotGate(0, 2.0, 1), RotGate(0, 2.0, 1.0)),
            (RotGate(0, 2.0, np.float64(0.5)), RotGate(0, 2.0, 0.5)),
            (RotGate(1.0, 2.0, 0.5), RotGate(1, 2.0, 0.5)),
            (RotGate(np.int64(1), 2.0, 0.5), RotGate(1.0, 2.0, 0.5)),
            (MeasureGate(1.0), MeasureGate(1)),
        ],
    )
    def test_library_gates_list_their_values_as_given(self, gate, twin):
        # An int or numpy phase equals its float twin but prints differently.
        assert gate == twin and hash(gate) == hash(twin)
        for circuit in (Circuit((twin,)), Circuit((gate,)), Circuit((twin,))):
            program = compile_circuit(circuit, PAIR, CFG)
            expected = self.fresh_listing(circuit.gates, PAIR)
            assert program_to_text(program).splitlines() == expected

    def test_a_repeated_gate_is_compiled_once(self, monkeypatch):
        calls = []
        original = compiler.compile_gate
        monkeypatch.setattr(
            compiler, "compile_gate", lambda *args: calls.append(args[0]) or original(*args)
        )
        compiler._gate_tasks.cache_clear()
        circuit = parse_circuit("CNOT 0 1\nMEASURE 1\nCNOT 0 1\nMEASURE 1\nCNOT 1 0")
        tasks = expand_tasks(circuit, PAIR, CFG)
        assert len(calls) == 3
        assert [task.gate_index for task in tasks] == [0, 1, 2, 3, 4]
        assert tasks[0].instructions == tasks[2].instructions
        # Another geometry is another key.
        expand_tasks(circuit, RegisterLayout(2, coordinates=((0, 0), (1, 1))), CFG)
        assert len(calls) == 6

    def test_the_task_memo_is_bounded(self):
        # Distinct gates each compile their own tasks; the memo keeps at most
        # its bound of them.
        bound = compiler._gate_tasks.cache_info().maxsize
        assert bound is not None
        wide = RegisterLayout(3 * bound)
        for qubit in range(3 * bound):
            expand_tasks(Circuit((MeasureGate(qubit),)), wide, CFG)
        assert compiler._gate_tasks.cache_info().currsize == bound

    def test_rotations_evict_no_memoised_gate(self, monkeypatch):
        # More distinct ROT angles than the memo holds, between two equal
        # CNOTs: the second CNOT is still a hit, and the memo holds no ROT.
        calls = []
        original = compiler.compile_gate
        monkeypatch.setattr(
            compiler, "compile_gate", lambda *args: calls.append(args[0]) or original(*args)
        )
        compiler._gate_tasks.cache_clear()
        rotations = tuple(RotGate(0, 0.1 + step / 100, 0.0) for step in range(300))
        assert len(set(rotations)) > compiler._gate_tasks.cache_info().maxsize
        cnot = CnotGate(0, 1)
        expand_tasks(Circuit((cnot,) + rotations + (cnot,)), PAIR, CFG)
        assert calls.count(cnot) == 1
        assert compiler._gate_tasks.cache_info().currsize == 1

    @staticmethod
    def general_route(gate, layout):
        """The fields ``_compile_tasks`` compiles for one gate on ``layout``."""
        (fields,) = compiler._compile_tasks(gate, layout, CFG)
        return fields

    def test_a_sweep_of_rotation_angles_memoises_nothing(self):
        # Every ROT is what the general route compiles, bit for bit, and
        # none enters the task memo.
        compiler._gate_tasks.cache_clear()
        gates = [RotGate(1, 0.1 + step / 7, math.sin(step)) for step in range(50)]
        tasks = expand_tasks(Circuit(tuple(gates)), PAIR, CFG)
        assert compiler._gate_tasks.cache_info().currsize == 0
        for index, (gate, task) in enumerate(zip(gates, tasks)):
            expected = dataclasses.replace(task, **self.general_route(gate, PAIR))
            assert repr(task) == repr(expected) and task.gate_index == index

    @pytest.mark.parametrize("angle", [0.0, -0.0, 5e-324, 2 * math.pi, -4 * math.pi, 7.5])
    def test_a_rotation_is_its_frame_exactly_when_it_has_no_pulse(self, angle):
        gate = RotGate(0, angle, 0.25)
        (task,) = expand_tasks(Circuit((gate,)), PAIR, CFG)
        assert task.__dict__ == dict(self.general_route(gate, PAIR), gate_index=0)
        bare = task.instructions == (MoveTip(0),)
        assert bare == (angle in (0.0, 5e-324))
        assert bare == (task.work == ()) == (task.lines == ("MOVE 0",))

    def test_a_rotation_is_checked_as_compile_rotation_checks_it(self):
        # The qubit first, then the angle and phase, on every occurrence.
        with pytest.raises(MismatchedRegister):
            expand_tasks(Circuit((RotGate(2, math.nan, 0.0),)), PAIR, CFG)
        for gate in (RotGate(0, math.inf, 0.0), RotGate(0, 1.0, math.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                expand_tasks(Circuit((RotGate(0, 1.0, 0.0), gate)), PAIR, CFG)

    def test_the_move_table_memo_is_bounded(self):
        bound = move_table.cache_info().maxsize
        assert bound is not None
        for num_qubits in range(1, 3 * bound + 1):
            layout = RegisterLayout(num_qubits)
            assert move_table(num_qubits, layout.coordinates, CFG)(PARKED, 0) == CFG.tip_move_time
        assert move_table.cache_info().currsize == bound


class TestExecution:
    def test_gate_order_matters(self):
        rot = compile_rotation(0, math.pi / 2, 0.0, PAIR, CFG)
        cnot = compile_cnot(0, 1, PAIR, CFG)
        ground = PureState.ground(PAIR)
        ab = execute(cnot, execute(rot, ground, PAIR, CFG, 0).final_state, PAIR, CFG, 0)
        ba = execute(rot, execute(cnot, ground, PAIR, CFG, 0).final_state, PAIR, CFG, 0)
        assert fidelity(ab.final_state.amplitudes, ba.final_state.amplitudes) < 0.99

    def test_cnot_wall_time(self):
        program = compile_cnot(0, 1, PAIR, CFG)
        result = execute(program, PureState.ground(PAIR), PAIR, CFG, np.random.default_rng(0))
        assert result.timing.total_wall_time == pytest.approx(7.56e-5, abs=1e-12)
        assert result.final_tip_position == 0

    def test_wildly_detuned_pulse_is_flagged_and_harmless(self):
        program = PulseProgram(
            (
                MoveTip(0),
                ApplyPulse(Pulse(Channel.ELECTRON_RF, 123.0, math.pi, 0.0, 1e-7)),
            )
        )
        state = PureState.ground(PAIR)
        result = execute(program, state, PAIR, CFG, np.random.default_rng(0))
        (_, outcome), = result.pulse_log
        assert outcome.resonant_pair_count == 0
        assert outcome.no_resonant_transition
        assert np.array_equal(result.final_state.amplitudes, state.amplitudes)

    def test_invalid_program_rejected_before_running(self):
        program = PulseProgram(
            (ApplyPulse(Pulse(Channel.ELECTRON_RF, 1.4e11, math.pi, 0.0, 1e-7)),)
        )
        with pytest.raises(IllFormedProgram):
            execute(program, PureState.ground(PAIR), PAIR, CFG, np.random.default_rng(0))

    def test_state_register_mismatch_rejected(self):
        program = compile_cnot(0, 1, PAIR, CFG)
        with pytest.raises(MismatchedRegister):
            execute(program, PureState.ground(SOLO), PAIR, CFG, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 3])  # the control reads 0, then 1
    def test_a_cnot_across_64_qubits_runs_like_one_across_31(self, seed):
        # The lines come from the partners' bits, never from a basis index,
        # which needs more than 64 bits from 32 qubits on.
        runs = []
        for n in (31, 32, 64):
            layout = RegisterLayout(n)
            circuit = parse_circuit(f"ROT 0 1.0\nCNOT 0 {n - 1}\nMEASURE 0\nMEASURE {n - 1}")
            program = compile_circuit(circuit, layout, CFG)
            result = execute(program, PureState.ground(layout), layout, CFG, seed)
            assert result.final_state.norm() == pytest.approx(1.0, abs=1e-12)
            runs.append([(r.inferred_p_bit, r.pre_measurement_probability)
                         for r in result.records])
        assert runs[0] == runs[1] == runs[2]
        (control, _), (target, certainty) = runs[0]
        assert control == target == seed // 3 and certainty == 1.0

    def test_seed_pins_the_whole_run(self):
        circuit = parse_circuit("INIT\nROT 0 0.9 0.1\nCNOT 0 1\nMEASURE 0\nMEASURE 1")
        program = compile_circuit(circuit, PAIR, CFG)
        state = PureState.product(PAIR, {0: (0.6, 0.8)})
        first = execute(program, state, PAIR, CFG, 424242)
        second = execute(program, state, PAIR, CFG, 424242)
        assert np.array_equal(first.final_state.amplitudes, second.final_state.amplitudes)
        assert [r.inferred_p_bit for r in first.records] == [
            r.inferred_p_bit for r in second.records
        ]


# -- One owned buffer ----------------------------------------------------------


def stepwise_execute(program, state, layout, cfg, rng, trace_snr):
    """``execute`` unrolled into one public copy-returning call per instruction."""
    current, records, pulse_log, last_inferred = layout, [], [], None
    for position, instruction in enumerate(program.instructions):
        if isinstance(instruction, MoveTip):
            current = current.with_tip(instruction.target)
        elif isinstance(instruction, MeasureViaCurrent):
            record, state = measure_via_current(
                state, instruction.qubit, current, cfg, rng, trace_snr
            )
            records.append(record)
            last_inferred = record.inferred_p_bit
        elif isinstance(instruction, ApplyPulse) or last_inferred == 1:
            state, outcome = apply_selective_pulse(state, instruction.pulse, current, cfg)
            pulse_log.append((position, outcome))
        else:
            pulse_log.append((position, None))
    return state, tuple(records), tuple(pulse_log)


@st.composite
def circuit_runs(draw):
    """A random circuit of 1..4 qubits, a random input state, a seed and an SNR.

    Input states have some excited ancillas, so INIT's conditional pulses
    both fire and skip, on either correction line.
    """
    num_qubits = draw(st.integers(1, 4))
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
    amps = rng.normal(size=layout.dimension) + 1j * rng.normal(size=layout.dimension)
    amps[rng.random(layout.dimension) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    if not np.any(amps):
        amps[0] = 1.0
    state = PureState(amps / np.linalg.norm(amps), layout.num_sites)
    seed = draw(st.integers(0, 2**32 - 1))
    trace_snr = draw(st.sampled_from([None, 0.1, 10.0]))
    return layout, program, state, seed, trace_snr


class TestOwnedBuffer:
    @settings(deadline=None, max_examples=60)
    @given(circuit_runs())
    def test_execute_equals_the_stepwise_public_route(self, case):
        layout, program, state, seed, trace_snr = case
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        result = execute(program, state, layout, CFG, ours, trace_snr)
        final, records, pulse_log = stepwise_execute(
            program, state, layout, CFG, theirs, trace_snr
        )
        assert np.array_equal(result.final_state.amplitudes, final.amplitudes)
        assert result.pulse_log == pulse_log
        assert result.records == records
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(deadline=None, max_examples=30)
    @given(circuit_runs())
    def test_execute_leaves_the_input_state_alone(self, case):
        layout, program, state, seed, trace_snr = case
        before = state.amplitudes.copy()
        result = execute(program, state, layout, CFG, seed, trace_snr)
        assert np.array_equal(state.amplitudes, before)
        assert not np.shares_memory(result.final_state.amplitudes, state.amplitudes)

    def test_peak_memory_stays_within_two_and_a_quarter_states(self):
        # The one working buffer and at most three quarter-state slab
        # temporaries of a rotation. Exact readout: a synthesized trace has a
        # fixed size, not a share of the state.
        layout = RegisterLayout(7)
        state = random_product(layout, np.random.default_rng(5))
        circuit = parse_circuit("INIT\nROT 0 1.1 0.3\nCNOT 0 6\nCNOT 5 1\nMEASURE 5\nMEASURE 1")
        program = compile_circuit(circuit, layout, CFG)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            execute(program, state, layout, CFG, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * state.amplitudes.nbytes
