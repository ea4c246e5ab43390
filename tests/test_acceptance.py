"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the scoreboard.
Every expected value is computed inside this module from first principles
(explicit permutations, literal constants, brute-force enumeration) — the
package under test never supplies its own expectations.
"""

import contextlib
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import spintip
from spintip import (
    MachineConfig,
    PureState,
    RegisterLayout,
    ancilla_diagnostics,
    classify_frequency,
    compile_circuit,
    compile_cnot,
    compile_init,
    decoherence_budget,
    detect_peak,
    execute,
    frequency_audit,
    modulation_frequency,
    parse_circuit,
    schedule_multi_tip,
    synth_trace,
    thermal_sample,
    validate_assignment,
)

CFG = MachineConfig()
PAIR = RegisterLayout(2)

EXAMPLE = "INIT\nROT 0 3.14159265 0.0\nCNOT 0 1\nMEASURE 0\nMEASURE 1\n"


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:02d} FAIL {label}")
        raise
    print(f"CRITERION {number:02d} PASS {label}")


def ideal_cnot(amplitudes, layout, control, target):
    """Independent oracle: CNOT as an explicit basis permutation."""
    n = layout.num_sites
    indices = np.arange(len(amplitudes))
    control_bits = (indices >> (n - 1 - 2 * control)) & 1
    flipped = indices ^ (control_bits << (n - 1 - 2 * target))
    out = np.zeros_like(amplitudes)
    out[flipped] = amplitudes
    return out


def fidelity(a, b):
    return float(abs(np.vdot(a, b)) ** 2)


def random_product(layout, rng):
    pairs = {}
    for qubit in range(layout.num_qubits):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw /= np.linalg.norm(raw)
        pairs[qubit] = (complex(raw[0]), complex(raw[1]))
    return PureState.product(layout, pairs)


def test_criterion_01_cnot_correctness():
    with criterion(1, "CNOT truth table and 200 random product inputs"):
        begin = time.perf_counter()
        program = compile_cnot(0, 1, PAIR, CFG)
        inputs = [
            PureState.from_bits((c, 0, t, 0, 0)) for c in (0, 1) for t in (0, 1)
        ]
        rng = np.random.default_rng(12345)
        inputs += [random_product(PAIR, rng) for _ in range(200)]
        for state in inputs:
            result = execute(program, state, PAIR, CFG, rng=0)
            ideal = ideal_cnot(state.amplitudes, PAIR, 0, 1)
            assert fidelity(result.final_state.amplitudes, ideal) >= 1.0 - 1e-12
            report = ancilla_diagnostics(result.final_state, PAIR)
            assert report.purity >= 1.0 - 1e-12
            for name in ("e0", "e1", "tip"):
                assert report.populations[name] >= 1.0 - 1e-12
        assert time.perf_counter() - begin < 5.0


def test_criterion_02_entanglement_linearity():
    with criterion(2, "superposed control becomes a Bell pair"):
        half = 1.0 / math.sqrt(2.0)
        state = PureState.product(PAIR, {0: (half, half)})
        result = execute(compile_cnot(0, 1, PAIR, CFG), state, PAIR, CFG, rng=0)
        bell = np.zeros(32, dtype=complex)
        bell[0b00000] = half  # both nuclei |0>, ancillas ground
        bell[0b10100] = half  # both nuclei |1>, ancillas ground
        assert fidelity(result.final_state.amplitudes, bell) >= 1.0 - 1e-12
        report = ancilla_diagnostics(result.final_state, PAIR)
        assert report.purity >= 1.0 - 1e-12


def test_criterion_03_distance_independence():
    with criterion(3, "identical fidelity across all 56 pairs of 8 qubits"):
        layout = RegisterLayout(8)
        state = PureState.product(
            layout, {q: (0.8, 0.6j) for q in range(8)}
        )
        fidelities = []
        for control, target in itertools.permutations(range(8), 2):
            program = compile_cnot(control, target, layout, CFG)
            result = execute(program, state, layout, CFG, rng=0)
            ideal = ideal_cnot(state.amplitudes, layout, control, target)
            fidelities.append(fidelity(result.final_state.amplitudes, ideal))
        assert len(fidelities) == 56
        assert min(fidelities) >= 1.0 - 1e-12
        assert max(fidelities) - min(fidelities) < 1e-12


def test_criterion_04_formula_engine_audit():
    with criterion(4, "closed-form lines match engine transitions"):
        entries = frequency_audit(CFG)
        assert len(entries) == 6
        for entry in entries:
            assert entry["matched"], entry["formula"]
            assert entry["best_residual_hz"] <= 1e-6
            for match in entry["matches"]:
                spectators = match["spectators"]
                assert spectators and all(bit in (0, 1) for bit in spectators.values())


def test_criterion_05_timing_reproduction():
    with criterion(5, "protocol wall time and exact gate budget"):
        program = compile_cnot(0, 1, PAIR, CFG)
        result = execute(program, PureState.ground(PAIR), PAIR, CFG, rng=0)
        total = result.timing.total_wall_time
        assert 50e-6 <= total <= 150e-6
        # Independent tally: 3 moves, 3 nuclear pi flips, 6 electron flips.
        assert total == pytest.approx(3 * 15e-6 + 3 * 10e-6 + 6 * 0.1e-6, rel=1e-12)
        budget = decoherence_budget(CFG, 100e-6)
        assert budget == 100000
        assert isinstance(budget, int)


def test_criterion_06_initialization():
    with criterion(6, "thermal samples all initialize to ground nuclei"):
        program = compile_init(PAIR, CFG)
        nucleus_ground = 0
        electron_ground = 0
        for seed in range(1000):
            bits = thermal_sample(PAIR, CFG, np.random.default_rng(seed))
            nucleus_ground += (bits[0] == 0) + (bits[2] == 0)
            electron_ground += (bits[1] == 0) + (bits[3] == 0)
            state = PureState.from_bits(bits)
            result = execute(program, state, PAIR, CFG, np.random.default_rng(seed + 10**6))
            for qubit in (0, 1):
                assert result.final_state.population(2 * qubit, 0) >= 1.0 - 1e-12, (
                    f"seed {seed}: qubit {qubit} not initialized"
                )
        assert 0.47 <= nucleus_ground / 2000 <= 0.53
        assert electron_ground / 2000 >= 0.99


def test_criterion_07_readout_round_trip():
    with criterion(7, "line classification and noisy-trace readout"):
        for pair in ((0, 0), (0, 1), (1, 0), (1, 1)):
            line = modulation_frequency(*pair, CFG)
            assert classify_frequency(line, CFG) == pair
        for a_bit in (0, 1):
            gap = modulation_frequency(0, a_bit, CFG) - modulation_frequency(1, a_bit, CFG)
            assert gap == pytest.approx(120e6, abs=1e-3)
        # The synthesized trace must cover >= 1000 modulation cycles.
        scale = CFG.trace_frequency_scale
        slowest = min(
            modulation_frequency(*pair, CFG) / scale
            for pair in ((0, 0), (0, 1), (1, 0), (1, 1))
        )
        assert slowest * CFG.trace_duration >= 1000
        correct = 0
        for seed in range(100):
            pair = ((0, 0), (0, 1), (1, 0), (1, 1))[seed % 4]
            samples = synth_trace(*pair, CFG, snr=10.0, rng=np.random.default_rng(seed))
            detected = detect_peak(samples, CFG.trace_sample_rate) * scale
            try:
                inferred = classify_frequency(detected, CFG)
            except spintip.errors.UnclassifiableFrequency:
                continue
            correct += inferred == pair
        assert correct >= 99


def test_criterion_08_engine_invariants():
    with criterion(8, "norm preservation, exact off-resonance, involution"):
        layout = RegisterLayout(1, tip_position=0)
        lines = sorted(
            {
                spintip.transition_frequency(bits, site, layout, CFG)
                for site in range(3)
                for bits in itertools.product((0, 1), repeat=3)
            }
        )
        channel_of_site = {
            0: spintip.Channel.PHOSPHORUS_NUCLEAR_RF,
            1: spintip.Channel.ELECTRON_RF,
            2: spintip.Channel.TIP_CARBON_NUCLEAR_RF,
        }
        rng = np.random.default_rng(777)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = PureState(amps / np.linalg.norm(amps), 3)
        for _ in range(10**4):
            site = int(rng.integers(3))
            pulse = spintip.Pulse(
                channel_of_site[site],
                float(rng.choice(lines)),
                float(rng.uniform(0.01, 2 * math.pi)),
                float(rng.uniform(-math.pi, math.pi)),
                1e-6,
                spintip.PulseMode.PHASED_ROTATION
                if rng.integers(2)
                else spintip.PulseMode.LOGICAL_X,
            )
            state, _ = spintip.apply_selective_pulse(state, pulse, layout, CFG)
            assert abs(state.norm() - 1.0) <= 1e-12
        # Detuned pulses must be exact identities, not merely tiny rotations.
        for line in lines:
            pulse = spintip.Pulse(
                spintip.Channel.ELECTRON_RF, line + 5e3, math.pi, 0.0, 1e-7
            )
            before = state.amplitudes.copy()
            state, _ = spintip.apply_selective_pulse(state, pulse, layout, CFG)
            assert np.array_equal(state.amplitudes, before)
        # A pi flip twice in LogicalX mode is a bit-exact round trip.
        for seed in range(20):
            loop_rng = np.random.default_rng(seed)
            raw = loop_rng.normal(size=8) + 1j * loop_rng.normal(size=8)
            start = PureState(raw / np.linalg.norm(raw), 3)
            before = start.amplitudes.copy()
            pulse = spintip.Pulse(
                spintip.Channel.PHOSPHORUS_NUCLEAR_RF,
                float(loop_rng.choice(lines[:2])),
                math.pi,
                0.0,
                1e-5,
            )
            once, _ = spintip.apply_selective_pulse(start, pulse, layout, CFG)
            twice, _ = spintip.apply_selective_pulse(once, pulse, layout, CFG)
            assert np.array_equal(twice.amplitudes, before)


def random_circuit(rng, num_qubits, gates):
    lines = []
    for _ in range(gates):
        kind = rng.integers(4)
        if kind == 0:
            lines.append(f"ROT {rng.integers(num_qubits)} {rng.uniform(0.1, 3.0):.4f} 0.0")
        elif kind == 1:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            lines.append(f"CNOT {a} {b}")
        elif kind == 2:
            lines.append(f"MEASURE {rng.integers(num_qubits)}")
        else:
            lines.append("INIT")
    return parse_circuit("\n".join(lines))


def test_criterion_09_scheduler():
    with criterion(9, "serial equivalence, known optimum, clean random plans"):
        layout = RegisterLayout(4)
        # Two CNOTs on disjoint qubits: with two tips the best possible
        # makespan is one CNOT's serial cost plus its parking retreat,
        # found here by brute force over assignments.
        disjoint = parse_circuit("CNOT 0 1\nCNOT 2 3")
        brute_best = float("inf")
        tasks = spintip.expand_tasks(disjoint, layout, CFG)
        for choice in itertools.product((0, 1), repeat=len(tasks)):
            clock = {0: 0.0, 1: 0.0}
            position = {0: None, 1: None}
            for task, tip in zip(tasks, choice):
                here = position[tip]
                for duration, _ in spintip.timing.walk(task.instructions, layout, CFG, here):
                    clock[tip] += duration
                for instruction in task.instructions:
                    if hasattr(instruction, "target"):
                        here = instruction.target
                position[tip] = here
            for tip in (0, 1):
                if position[tip] is not None:
                    clock[tip] += spintip.move_duration(layout, CFG, position[tip], None)
            brute_best = min(brute_best, max(clock.values()))
        two_tips = schedule_multi_tip(tasks, 2, layout, CFG)
        assert two_tips.makespan == pytest.approx(brute_best, rel=1e-12)

        for index in range(100):
            circuit = random_circuit(np.random.default_rng(9000 + index), 4, 20)
            tasks = spintip.expand_tasks(circuit, layout, CFG)
            serial = schedule_multi_tip(tasks, 1, layout, CFG)
            program = compile_circuit(circuit, layout, CFG)
            result = execute(
                program, PureState.ground(layout), layout, CFG, np.random.default_rng(index)
            )
            assert serial.makespan == result.timing.total_wall_time
            spans = []
            for k in (1, 2, 3, 4):
                assignment = schedule_multi_tip(tasks, k, layout, CFG)
                assert validate_assignment(assignment, tasks, layout, CFG) == []
                spans.append(assignment.makespan)
            for slower, faster in zip(spans, spans[1:]):
                assert faster <= slower + 1e-12


def run_cli_suite(directory, seed):
    """One full CLI pass: a batch of circuits plus a fully loaded single run."""
    circuits = {
        "entangle.circuit": EXAMPLE,
        "idle.circuit": "# deliberately empty\n",
        "spread.circuit": "ROT 0 0.7853981633974483 0.5\nMEASURE 0\n",
        "swap_back.circuit": "INIT\nCNOT 1 0\nCNOT 0 1\nMEASURE 0\nMEASURE 1\n",
    }
    for name, text in circuits.items():
        (directory / name).write_text(text, encoding="utf-8")
    batch = subprocess.run(
        [sys.executable, "-m", "spintip", "--batch", str(directory), "--seed", str(seed)],
        capture_output=True,
        text=True,
    )
    assert batch.returncode == 0, batch.stderr
    reports = {
        path.name: path.read_bytes()
        for path in sorted(directory.glob("*.report.json"))
    }
    single = subprocess.run(
        [
            sys.executable, "-m", "spintip",
            "--circuit", str(directory / "entangle.circuit"),
            "--seed", str(seed), "--tips", "2", "--verify-frequencies",
        ],
        capture_output=True,
        text=True,
    )
    assert single.returncode == 0, single.stderr
    return batch.stdout, reports, single.stdout


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "same seed, byte-identical reports"):
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        first_dir.mkdir()
        second_dir.mkdir()
        first = run_cli_suite(first_dir, seed=20260815)
        second = run_cli_suite(second_dir, seed=20260815)
        assert first[0] == second[0]  # batch summary lines
        assert first[1].keys() == second[1].keys()
        assert len(first[1]) == 4
        for name in first[1]:
            assert first[1][name] == second[1][name], f"{name} differs between runs"
        assert first[2] == second[2]  # single-run report including verification
        json.loads(first[2])  # and it is valid JSON
