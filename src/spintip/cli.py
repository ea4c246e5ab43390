"""Command-line front end: compile a circuit, run it, emit a JSON report.

Reports are deterministic by construction — sorted keys, no timestamps, float
repr — so the same inputs and seed produce byte-identical output, which is
what makes them diffable regression artifacts.

Exit codes: 0 success, 2 unusable input (flags, a negative seed, a trace SNR
whose noise deviation overflows, config, circuit, a register or a gate count
too large for memory, a trace sample rate that aliases the readout lines, a
non-finite report number), 3 physics failure (a compiled pulse that hits no
transition line, a failed --verify-frequencies check, or a readout line that
matches no or several modulation lines), 4 infeasible decoherence budget under
--enforce-budget, 130 interrupted (SIGINT), 141 stdout closed early (a
closed pipe, as ``| head`` leaves it). Every failure but 141 prints one
``error:`` line to stderr; 141 prints nothing. A write to stdout that
fails for another reason exits 2. A stderr line that cannot be written is
dropped, and the run keeps its code.
"""

import argparse
import contextlib
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
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

#: Peak bytes of a run over the bytes of a 2^(n+1)-amplitude state, the most a
#: compiled gate keeps live: the state a site is woken into next to the one it
#: leaves, and the half kept when a site drops. tracemalloc measured 1.63 on
#: n = 18 and 19 circuits that rotate every qubit and then run CNOTs, INIT and
#: MEASURE, exact and traced readout and ``--tips 2``; below n = 17 fixed
#: buffers of about 2 MiB, such as the traced readout's, weigh more.
PEAK_STATE_COPIES = 2.0

#: Peak bytes of a run's bookkeeping per gate, an INIT counting once per
#: qubit: its tasks, instructions and timing, the report and its JSON text.
#: tracemalloc measured 2.64-2.70 kB per gate between 1,000 and 8,000 CNOTs,
#: the costliest gate, on 2 and 6 qubits with ``--tips`` 2 to 4 (2.55 kB
#: without), and a run of 1,500 CNOTs on 6 qubits peaked at 2.97 kB per gate
#: with its fixed part. Resident memory grew by 2.8-3.0 KiB per gate, so the
#: bound rounds up to 4 KiB for the allocator's slack.
GATE_BYTES = 4096


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
    """(payload, failures) of --verify-frequencies: formula audit plus a CNOT self-test.

    The audit compares every closed-form line against engine transitions; the
    self-test entangles a superposed control with a ground target and checks
    fidelity against the ideal gate and the cleanliness of the ancillas.
    ``failures`` names each check that failed, the self-test with its numbers.
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
    failures = [] if all_matched else ["closed-form frequency audit failed"]
    if not (fidelity >= 1.0 - 1e-9 and diagnostics.purity >= 1.0 - 1e-9):
        failures.append(f"CNOT self-test failed: fidelity {fidelity!r}, "
                        f"ancilla purity {diagnostics.purity!r}")
    return {
        "frequency_audit": audit,
        "all_formulas_matched": all_matched,
        "worst_formula_residual_hz": max(entry["best_residual_hz"] for entry in audit),
        "min_spectral_gap_hz": physics.min_spectral_gap(cfg),
        "cnot_fidelity": fidelity,
        "ancilla_purity": diagnostics.purity,
        "ancilla_ground_populations": diagnostics.populations,
        "passed": not failures,
    }, failures


def _record_dict(record):
    return {
        "qubit": record.qubit,
        "observed_frequency_hz": record.observed_frequency,
        "inferred_p_bit": record.inferred_p_bit,
        "inferred_a_bit": record.inferred_a_bit,
        "pre_measurement_probability": record.pre_measurement_probability,
    }


def _check_memory(num_qubits, num_gates):
    """Raise RegisterTooLarge if ``num_gates`` gate tasks on ``num_qubits`` would not fit.

    A run starts in the ground state, where every site is dormant, and
    compiled gates keep at most n + 1 sites live: the n nuclei, and during a
    CNOT the target electron. The control electron and the tip carbon only
    copy the control nucleus, so they stay slaved and take no axis. The
    estimate is ``PEAK_STATE_COPIES`` states of 2^(n+1) 16-byte amplitudes
    plus ``GATE_BYTES`` per gate task, against the host's physical memory, before
    the layout or any state is built and before anything compiles. The state
    alone is an integer byte count, printed as its leading power of two,
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
    estimate = (bytes_per_amplitude << shift) + GATE_BYTES * num_gates
    if estimate > physical:
        raise RegisterTooLarge(
            f"{num_gates} gate tasks (an INIT counts once per qubit) on {num_qubits} "
            f"qubits need about {estimate / 2**30:.3g} GiB at peak, more than the "
            f"{physical / 2**30:.3g} GiB of physical memory"
        )


def run_circuit_file(path, cfg, args, seed):
    """Compile, execute and report one circuit file.

    Returns (report, exit code, final state). The report names the
    ``--dump-state`` file; the caller writes it, once the report has
    serialised. A leading byte-order mark is dropped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CircuitParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    circuit = program.parse_circuit(text.removeprefix("\ufeff"), source=str(path))
    num_qubits = circuit.num_qubits
    _check_memory(num_qubits, sum(
        num_qubits if isinstance(gate, program.InitGate) else 1 for gate in circuit.gates
    ))
    layout = RegisterLayout(num_qubits)
    tasks = compiler.expand_tasks(circuit, layout, cfg)
    state = engine.PureState.ground(layout)
    result = compiler.execute(
        compiler.link(tasks), state, layout, cfg, rng=seed, trace_snr=args.trace_snr
    )

    # The log runs in instruction order, so each list is sorted.
    spectral_misses, idle_pulses, skipped = [], [], []
    for index, outcome in result.pulse_log:
        if outcome is None:
            skipped.append(index)
            continue
        if outcome.resonant_pair_count == 0:
            spectral_misses.append(index)
        if outcome.no_resonant_transition:
            idle_pulses.append(index)

    reasons = []
    verification = None
    if args.verify_frequencies:
        verification, failures = run_verification(cfg)
        reasons += failures
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
        "program": compiler.listing(tasks),
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
            "dump_file": str(args.dump_state) if args.dump_state else None,
        },
        "scheduler": schedule,
        "verification": verification,
        "status": {"exit_code": code, "reasons": reasons},
    }
    return report, code, result.final_state


def _report_json(report):
    """The report as JSON text; a non-finite number in it is a ConfigError.

    The text is ``json.dumps(report, indent=2, sort_keys=True,
    allow_nan=False)``, which is also the route where json has no C encoder.
    """
    try:
        if json.encoder.c_make_encoder is None:
            return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        chunks = []
        _json_chunks(report, 0, chunks)
        return "".join(chunks)
    except ValueError:
        raise ConfigError("the report would hold a non-finite number") from None


#: Types json writes as one token; a subclass of one goes through ``_json_chunks`` alone.
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _flat_encoder(depth):
    """json's C encoder, writing the items of a container at ``depth`` indents."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ",\n" + "  " * depth, True, False, False,
    )


def _json_chunks(value, depth, chunks):
    """Append ``value`` at ``depth`` indents, as ``json.dumps(indent=2, sort_keys=True)`` writes it.

    A container whose values are all scalars goes through json's C encoder
    in one call, with the newline and indent in its item separator; only the
    nesting is written here. Keys of a nested dict are strings, as in every
    report.
    """
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        chunks += _flat_encoder(depth)(value, 0)
        return
    if not value:
        chunks.append("{}" if is_dict else "[]")
        return
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if _SCALAR_TYPES.issuperset(map(type, value.values() if is_dict else value)):
        text = "".join(_flat_encoder(depth + 1)(value, 0))
        chunks += (text[0], inner, text[1:-1], outer, text[-1])
        return
    separator = inner
    if is_dict:
        chunks.append("{")
        for key in sorted(value):
            chunks += (separator, json.encoder.encode_basestring_ascii(key), ": ")
            _json_chunks(value[key], depth + 1, chunks)
            separator = "," + inner
    else:
        chunks.append("[")
        for item in value:
            chunks.append(separator)
            _json_chunks(item, depth + 1, chunks)
            separator = "," + inner
    chunks += (outer, "}" if is_dict else "]")


@functools.cache
def _default_config():
    """The default config, built once per process.

    Every run without ``--config`` shares this one object, so each memo
    keyed by a config finds it by identity, not by comparing fields. Each
    run still validates it, as it validates a config file.
    """
    return MachineConfig()


def _run_file(path, cfg, args, seed, report_path=None):
    """Run one circuit file and write its report; return the run's exit code.

    The report goes to ``report_path``, or to stdout when that is None. The
    dump (``--dump-state``, single runs only) is written once the report has
    serialised. A run that raises prints one ``error:`` line and exits 3 if
    its readout failed, else 2; a run that fails through its report prints
    the report, then its reasons as one ``error:`` line.
    """
    try:
        report, code, final_state = run_circuit_file(path, cfg, args, seed)
        text = _report_json(report)
        if args.dump_state:
            Path(args.dump_state).write_text(final_state.dump_text(), encoding="utf-8")
        if report_path is not None:
            report_path.write_text(text + "\n", encoding="utf-8")
    except (SimulationError, OSError) as exc:
        _print_stderr(f"error: {exc}")
        readout_failed = isinstance(exc, (UnclassifiableFrequency, DegenerateState))
        return EXIT_PHYSICS if readout_failed else EXIT_USAGE
    if report_path is None:
        failed = _print_stdout(text)
        if failed is not None:
            return failed
    if report["status"]["reasons"]:
        _print_stderr(f"error: {'; '.join(report['status']['reasons'])}")
    return code


def _print_stdout(text):
    """Print ``text`` to stdout and flush it; None, or the exit code of a failed write.

    The flush makes a write fail here, not at interpreter exit.
    """
    try:
        print(text, flush=True)
    except OSError as exc:
        _discard(sys.stdout)
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        _print_stderr(f"error: cannot write the output: {exc}")
        return EXIT_USAGE
    return None


def _print_stderr(line):
    """Print one line to stderr; a failed write is dropped, as nowhere is left to report it."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _discard(sys.stderr)


def _discard(stream):
    """Point the file descriptor of ``stream``, after a failed write, at ``os.devnull``.

    What the stream still buffers then writes nowhere at interpreter exit,
    instead of failing again there and turning the exit code into 120. An
    in-memory stream has no descriptor (io.UnsupportedOperation, an OSError).
    """
    with contextlib.suppress(AttributeError, OSError):
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def main(argv=None):
    """Run the command line; return its exit code (see the module docstring)."""
    try:
        return _main(argv)
    except KeyboardInterrupt:
        _print_stderr("error: interrupted")
        return EXIT_INTERRUPTED


def _main(argv):
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
            cfg = load_machine_config(args.config) if args.config else _default_config().validate()
    except (ConfigError, OSError) as exc:
        _print_stderr(f"error: {exc}")
        return EXIT_USAGE
    for warning in caught:
        _print_stderr(f"warning: {warning.message}")

    if args.batch:
        files = sorted(Path(args.batch).glob("*.circuit"))
        if not files:
            _print_stderr(f"error: no *.circuit files in {Path(args.batch)}")
            return EXIT_USAGE

    # File k runs with base seed + k; a single run is file 0.
    base_seed = args.seed
    if base_seed is None:
        base_seed = int(np.random.SeedSequence().entropy)
        _print_stderr(f"seed: {base_seed}")
    if args.circuit:
        return _run_file(args.circuit, cfg, args, base_seed)
    worst = EXIT_OK
    for index, path in enumerate(files):
        code = _run_file(path, cfg, args, base_seed + index, path.with_suffix(".report.json"))
        failed = _print_stdout(f"{path.name}: exit {code}")
        if failed is not None:
            return failed
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
