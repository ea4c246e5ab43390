"""Command-line front end: compile a circuit, run it, emit a JSON report.

Reports are deterministic by construction — sorted keys, no timestamps, float
repr — so the same inputs and seed produce byte-identical output, which is
what makes them diffable regression artifacts.

Exit codes: 0 success, 2 unusable input (flags, a negative seed, a trace SNR
whose noise deviation overflows, config, circuit, a register too large for
memory, a trace sample rate that aliases the readout lines, a non-finite
report number), 3 physics failure (a compiled pulse that hits no transition
line, a failed --verify-frequencies check, or a readout line that matches no
or several modulation lines), 4 infeasible decoherence budget under
--enforce-budget. Every failure prints one ``error:`` line to stderr.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import compiler, engine, physics, program, readout, scheduler
from .config import MachineConfig, load_machine_config
from .errors import (
    CircuitParseError,
    ConfigError,
    DegenerateState,
    RegisterTooLarge,
    SimulationError,
    UnclassifiableFrequency,
)
from .register import RegisterLayout

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PHYSICS = 3
EXIT_BUDGET = 4

#: Peak bytes of a run over the bytes of a 2^(n+1)-amplitude state, the most a
#: compiled gate keeps live: the state a site is woken into next to the one it
#: leaves, and the half kept when a site drops. tracemalloc measured 1.63 on
#: n = 18 and 19 circuits that rotate every qubit and then run CNOTs, INIT and
#: MEASURE, exact and traced readout and ``--tips 2``; below n = 17 fixed
#: buffers of about 2 MiB, such as the traced readout's, weigh more.
PEAK_STATE_COPIES = 2.0


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spintip",
        description="Compile and simulate a spin-register circuit, reporting as JSON.",
    )
    parser.add_argument("--config", metavar="FILE", help="machine config (key = value)")
    parser.add_argument("--circuit", metavar="FILE", help="circuit to run")
    parser.add_argument(
        "--batch", metavar="DIR", help="run every *.circuit in DIR, writing *.report.json"
    )
    parser.add_argument("--seed", type=int, help="RNG seed (batch: base seed + file index)")
    parser.add_argument("--tips", type=int, metavar="K", help="also schedule for K tips")
    parser.add_argument(
        "--verify-frequencies",
        action="store_true",
        help="audit closed-form lines against the engine and self-test a CNOT",
    )
    parser.add_argument("--dump-state", metavar="FILE", help="write the final state vector")
    parser.add_argument(
        "--trace-snr",
        type=float,
        metavar="SNR",
        help="read out through synthesized noisy traces instead of exact lines",
    )
    parser.add_argument(
        "--enforce-budget",
        action="store_true",
        help="fail (exit 4) if the program exceeds the coherence time",
    )
    return parser


def _config_dict(cfg):
    return {field.name: getattr(cfg, field.name) for field in dataclasses.fields(cfg)}


def _cnot_reference(amplitudes, layout, control, target):
    """Ideal CNOT between two qubit nuclei, as a basis permutation."""
    n = layout.num_sites
    indices = np.arange(layout.dimension)
    control_bit = (indices >> (n - 1 - layout.nucleus_site(control))) & 1
    flipped = indices ^ (control_bit << (n - 1 - layout.nucleus_site(target)))
    expected = np.empty_like(amplitudes)
    expected[flipped] = amplitudes
    return expected


def run_verification(cfg):
    """The --verify-frequencies payload: formula audit plus a CNOT self-test.

    The audit compares every closed-form line against engine transitions; the
    self-test entangles a superposed control with a ground target and checks
    fidelity against the ideal gate and the cleanliness of the ancillas.
    """
    audit = physics.frequency_audit(cfg)
    layout = RegisterLayout(2)
    state = engine.PureState.product(layout, {0: (0.6, 0.8)})
    result = compiler.execute(
        compiler.compile_cnot(0, 1, layout, cfg), state, layout, cfg, rng=0
    )
    expected = _cnot_reference(state.amplitudes, layout, 0, 1)
    overlap = np.vdot(expected, result.final_state.amplitudes)
    fidelity = float(np.abs(overlap) ** 2)
    diagnostics = engine.ancilla_diagnostics(result.final_state, layout)
    all_matched = all(entry["matched"] for entry in audit)
    passed = all_matched and fidelity >= 1.0 - 1e-9 and diagnostics.purity >= 1.0 - 1e-9
    return {
        "frequency_audit": audit,
        "all_formulas_matched": all_matched,
        "worst_formula_residual_hz": max(entry["best_residual_hz"] for entry in audit),
        "min_spectral_gap_hz": physics.min_spectral_gap(cfg),
        "cnot_fidelity": fidelity,
        "ancilla_purity": diagnostics.purity,
        "ancilla_ground_populations": diagnostics.populations,
        "passed": passed,
    }


def _record_dict(record):
    return {
        "qubit": record.qubit,
        "observed_frequency_hz": record.observed_frequency,
        "inferred_p_bit": record.inferred_p_bit,
        "inferred_a_bit": record.inferred_a_bit,
        "pre_measurement_probability": record.pre_measurement_probability,
    }


def _check_memory(num_qubits):
    """Raise RegisterTooLarge if a run on ``num_qubits`` would not fit in memory.

    A run starts in the ground state, where every site is dormant, and
    compiled gates keep at most n + 1 sites live: the n nuclei, and during a
    CNOT the target electron. The control electron and the tip carbon only
    copy the control nucleus, so they stay slaved and take no axis. The
    estimate is ``PEAK_STATE_COPIES`` states of 2^(n+1) 16-byte amplitudes,
    against the host's physical memory, before the layout or any state is
    built. It is an integer byte count, printed as its leading power of two,
    because the dimension of a register a circuit can name exceeds the float
    range, and converting such an integer to decimal takes seconds. The bit
    lengths are compared before any shift, so a huge qubit index never builds
    a huge integer.
    """
    bytes_per_amplitude = math.ceil(PEAK_STATE_COPIES * np.dtype(np.complex128).itemsize)
    shift = num_qubits + 1
    estimate_bits = bytes_per_amplitude.bit_length() + shift
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if estimate_bits > physical.bit_length() or bytes_per_amplitude << shift > physical:
        raise RegisterTooLarge(
            f"a {num_qubits}-qubit register needs about "
            f"2^{estimate_bits - 31} GiB at peak, more than the "
            f"{physical / 2**30:.3g} GiB of physical memory"
        )


def run_circuit_file(path, cfg, args, seed, dump_path):
    """Compile, execute and report one circuit file.

    Returns (report, exit code, final state). ``dump_path`` only names the
    dump in the report: the caller writes it, once the report has serialised.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CircuitParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    circuit = program.parse_circuit(text, source=str(path))
    _check_memory(circuit.num_qubits)
    layout = RegisterLayout(circuit.num_qubits)
    tasks = compiler.expand_tasks(circuit, layout, cfg)
    compiled = compiler.link(tasks)
    state = engine.PureState.ground(layout)
    result = compiler.execute(
        compiled, state, layout, cfg, rng=seed, trace_snr=args.trace_snr
    )

    spectral_misses = sorted(
        index
        for index, outcome in result.pulse_log
        if outcome is not None and outcome.resonant_pair_count == 0
    )
    idle_pulses = sorted(
        index
        for index, outcome in result.pulse_log
        if outcome is not None and outcome.no_resonant_transition
    )
    skipped = sorted(index for index, outcome in result.pulse_log if outcome is None)

    reasons = []
    verification = None
    if args.verify_frequencies:
        verification = run_verification(cfg)
        if not verification["passed"]:
            reasons.append("closed-form frequency audit failed")
    if spectral_misses:
        reasons.append(
            f"pulses at instructions {spectral_misses} hit no transition line"
        )
    if reasons:
        code = EXIT_PHYSICS
    elif args.enforce_budget and not result.timing.feasible:
        reasons.append("program exceeds the coherence time")
        code = EXIT_BUDGET
    else:
        code = EXIT_OK

    schedule = None
    if args.tips:
        assignment = scheduler.schedule_multi_tip(tasks, args.tips, layout, cfg)
        problems = scheduler.validate_assignment(assignment, tasks, layout, cfg)
        schedule = {
            "tips": args.tips,
            "makespan_s": assignment.makespan,
            "per_task_tip": list(assignment.per_task_tip),
            "table": assignment.table().splitlines(),
            "validator_problems": problems,
        }

    report = {
        "seed": seed,
        "config": _config_dict(cfg),
        "register": {
            "num_qubits": layout.num_qubits,
            "coordinates": [list(c) for c in layout.coordinates],
        },
        "circuit": program.format_circuit(circuit).splitlines(),
        "program": program.program_to_text(compiled).splitlines(),
        "measurements": [_record_dict(r) for r in result.records],
        "pulses": {
            "applied": len(result.pulse_log) - len(skipped),
            "conditional_skipped": skipped,
            "idle": idle_pulses,
            "spectral_misses": spectral_misses,
        },
        "timing": result.timing.to_dict(),
        "final_state": {
            "norm": result.final_state.norm(),
            "dump_file": str(dump_path) if dump_path else None,
        },
        "scheduler": schedule,
        "verification": verification,
        "status": {"exit_code": code, "reasons": reasons},
    }
    return report, code, result.final_state


def _failure_code(exc):
    """Exit code of a run that raised: 3 if the readout failed, else 2."""
    if isinstance(exc, (UnclassifiableFrequency, DegenerateState)):
        return EXIT_PHYSICS
    return EXIT_USAGE


def _print_reasons(report):
    """The one ``error:`` line of a run that failed through its report."""
    if report["status"]["reasons"]:
        print(f"error: {'; '.join(report['status']['reasons'])}", file=sys.stderr)


def _report_json(report):
    """The report as JSON text; a non-finite number in it is a ConfigError."""
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ConfigError("the report would hold a non-finite number") from None


def _fresh_seed():
    return int(np.random.SeedSequence().entropy)


def _run_batch(args, cfg):
    directory = Path(args.batch)
    files = sorted(directory.glob("*.circuit"))
    if not files:
        print(f"error: no *.circuit files in {directory}", file=sys.stderr)
        return EXIT_USAGE
    base_seed = args.seed if args.seed is not None else _fresh_seed()
    worst = EXIT_OK
    for index, path in enumerate(files):
        seed = base_seed + index
        try:
            report, code, _ = run_circuit_file(path, cfg, args, seed, dump_path=None)
            out = path.with_suffix(".report.json")
            out.write_text(_report_json(report) + "\n", encoding="utf-8")
        except (SimulationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = _failure_code(exc)
        else:
            _print_reasons(report)
        print(f"{path.name}: exit {code}")
        worst = max(worst, code)
    return worst


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if bool(args.circuit) == bool(args.batch):
        parser.error("exactly one of --circuit or --batch is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.tips is not None and args.tips < 1:
        parser.error("--tips must be at least 1")
    if args.trace_snr is not None and not args.trace_snr > 0:
        parser.error("--trace-snr must be positive")
    if args.trace_snr is not None and not math.isfinite(readout.noise_sigma(args.trace_snr)):
        parser.error("--trace-snr is too small: the trace noise deviation overflows")
    if args.batch and args.dump_state:
        parser.error("--dump-state needs --circuit: a batch writes no state dump")
    try:
        # A questionable value warns; the warning becomes one stderr line,
        # whatever the interpreter's warning filters say.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = load_machine_config(args.config) if args.config else MachineConfig().validate()
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)

    if args.batch:
        return _run_batch(args, cfg)

    seed = args.seed if args.seed is not None else _fresh_seed()
    if args.seed is None:
        print(f"seed: {seed}", file=sys.stderr)
    try:
        report, code, final_state = run_circuit_file(
            args.circuit, cfg, args, seed, args.dump_state
        )
        text = _report_json(report)
        if args.dump_state:
            Path(args.dump_state).write_text(final_state.dump_text(), encoding="utf-8")
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _failure_code(exc)
    print(text)
    _print_reasons(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
