"""
Wall clocks, gate budgets, and extra tips
=========================================

Everything the machine does takes time: 15 us per lattice hop of the tip,
10 us nuclear pi pulses, 0.1 us electron flips, 15 us per current readout.
This script prices a circuit, checks it against the coherence budget, and
then hands the same circuit to one, two, and three tips to see what actually
parallelizes.
"""

import numpy as np

from spintip import (
    MachineConfig,
    PureState,
    RegisterLayout,
    analyze_program,
    compile_circuit,
    decoherence_budget,
    execute,
    expand_tasks,
    parse_circuit,
    schedule_multi_tip,
    validate_assignment,
)

cfg = MachineConfig()
layout = RegisterLayout(4)

circuit = parse_circuit("""
INIT
ROT 0 1.5707963267948966 0.0
CNOT 0 1
CNOT 2 3
MEASURE 1
MEASURE 3
""")

program = compile_circuit(circuit, layout, cfg)
report = analyze_program(program, layout, cfg)

print(f"{len(program.instructions)} instructions for {program.gate_count} gates")
print("\ntime by category (us)")
for category, total in sorted(report.category_totals.items()):
    print(f"  {category:16s} {total * 1e6:10.1f}")
print(f"  {'total':16s} {report.total_wall_time * 1e6:10.1f}")

mean = report.total_wall_time / program.gate_count
print(f"\nmean gate time {mean * 1e6:.1f} us")
print(f"gates that fit in the {cfg.coherence_time:.0f} s coherence window: "
      f"{report.gate_capacity}")
print(f"a 100 us gate fits {decoherence_budget(cfg, 100e-6)} times")
print(f"this program feasible: {report.feasible}")

# The static analysis and an actual run charge identical time: conditionals
# are billed whether or not they fire.
result = execute(program, PureState.ground(layout), layout, cfg, rng=1)
print(f"executed wall time matches the static sum: "
      f"{result.timing.total_wall_time == report.total_wall_time}")

# More tips: gates on disjoint qubits can overlap, travel can pipeline.
print("\nmakespan vs number of tips")
tasks = expand_tasks(circuit, layout, cfg)
for tips in (1, 2, 3):
    assignment = schedule_multi_tip(tasks, tips, layout, cfg)
    problems = validate_assignment(assignment, tasks, layout, cfg)
    print(f"  k={tips}  {assignment.makespan * 1e6:8.1f} us  "
          f"validator problems: {problems or 'none'}")

best = schedule_multi_tip(tasks, 2, layout, cfg)
print("\ntwo-tip timeline (tip, start, end, task)")
for line in best.table().splitlines():
    tip, start, end, *label = line.split()
    print(f"  tip {tip}  {float(start) * 1e6:8.1f} -> {float(end) * 1e6:8.1f} us"
          f"  {' '.join(label)}")
