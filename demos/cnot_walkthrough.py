"""
CNOT, one pulse at a time
=========================

Compiles the two-qubit entangling sequence and replays it instruction by
instruction on a superposed control, watching the control bit hop onto the
travelling tip carbon, ride to the target, and come back out — leaving a Bell
pair on the nuclei and every ancilla back in its ground state.
"""

import numpy as np

from spintip import (
    MachineConfig,
    PulseProgram,
    PureState,
    RegisterLayout,
    ancilla_diagnostics,
    compile_cnot,
    drive_lines,
    execute,
    program_to_text,
)

cfg = MachineConfig()
layout = RegisterLayout(2)

# The machine's drive lines, derived from the engine once per config; the
# CNOT sequence uses every one of them except the rotation line.
print("drive lines (MHz)")
for name, value in drive_lines(cfg).items():
    print(f"  {name:20s} {value / 1e6:16.6f}")

program = compile_cnot(0, 1, layout, cfg)
print("\ncompiled sequence")
for line in program_to_text(program).splitlines():
    print(f"  {line}")

# Control nucleus in 0.6|0> + 0.8|1>, everything else ground.
state = PureState.product(layout, {0: (0.6, 0.8)})

print("\nsite populations of |1> after each instruction")
print(f"  {'instruction':44s} {'n0':>5s} {'e0':>5s} {'n1':>5s} {'e1':>5s} {'tip':>5s}")
for cut in range(1, len(program.instructions) + 1):
    head = PulseProgram(program.instructions[:cut])
    snapshot = execute(head, state, layout, cfg, rng=0).final_state
    populations = " ".join(f"{snapshot.population(s, 1):5.2f}" for s in range(5))
    label = program_to_text(PulseProgram(program.instructions[cut - 1 : cut])).strip()
    print(f"  {label:44s} {populations}")

# The final state is the Bell pair with the input amplitudes intact.
result = execute(program, state, layout, cfg, rng=0)
print("\nfinal amplitudes above 1e-12")
print("  " + result.final_state.dump_text().replace("\n", "\n  ").rstrip())

report = ancilla_diagnostics(result.final_state, layout)
print(f"\nancilla ground populations {report.populations}")
print(f"ancilla purity {report.purity:.15f}")
print(f"wall time {result.timing.total_wall_time * 1e6:.1f} us")

# Running it twice undoes it: the sequence is its own inverse.
twice = execute(program, result.final_state, layout, cfg, rng=0).final_state
match = np.array_equal(twice.amplitudes, state.amplitudes)
print(f"applied twice returns the input bit-exactly: {match}")
