"""One run of one workload in a fresh interpreter: the closed loop and the traced run.

Usage: python3 perfbench/worker.py RUN_DIR --seconds S --trace 0|1

RUN_DIR holds the generated circuits and ``ops.json``; the result goes to
RUN_DIR/result.json and, with ``--trace 1``, the spans of one traced pass to
RUN_DIR/spans.jsonl.gz, one ``[name, start, end, parent, op, error, data]``
row a line. ``spintip`` must be importable (run.py puts the checkout's
``src`` on PYTHONPATH).

The loop has one client: each op starts when the previous one has been
checked. It runs whole passes over the op set, at least two, and stops at
the pass boundary nearest to S seconds. On workloads whose time goes to the
interpreter, the fixed loop of hostspeed.py is timed between ops and each
op's host time is scaled to the reference host speed from the loop times just
before and after it. dense_n10's time goes to memory-bound numpy kernels
over a 32 MiB state, whose slow spells the loop did not track in trials, so
its times are left unscaled. An op's time is the
median of its runs. ``attempted`` and ``failed`` count each op once,
however many passes ran, so they are the same on every run of a seed; every
later run of an op must give the output digest of its first.
"""

import argparse
import collections
import contextlib
import ctypes
import gzip
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import spintip
import spintip.cli
import hostspeed
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CIRCUIT = ROOT / "tests" / "data" / "golden.circuit"
GOLDEN_REPORT = ROOT / "tests" / "data" / "golden_report.json"
GOLDEN_SEED = 42

#: Share of --seconds given to the untraced and to the traced passes of a traced run.
TRACE_SHARE = 0.35
#: Passes an untraced run makes at least, so every op runs again and its output is compared.
MIN_PASSES = 2


class Loop:
    """Runs passes over ``ops``, times each op, and checks each against its first run."""

    def __init__(self, runner, ops, scale):
        self.runner = runner
        self.ops = ops
        self.scale = scale    # scale host times to the reference host speed
        self.reference = {}   # op index -> Outcome of its first, fully checked run
        self.times = collections.defaultdict(list)  # op index -> (scaled) seconds of its runs
        self.samples = []     # (scaled) seconds per op, in run order
        self.raw = []         # unscaled host seconds per op, in run order
        self.pass_seconds = []  # (scaled) seconds per pass
        self.mismatches = 0
        self.set_op = None    # callback(op index) before each op, for span op ids

    def run_pass(self):
        total = 0.0
        before = hostspeed.loop_seconds() if self.scale else None
        for index, op in enumerate(self.ops):
            if self.set_op is not None:
                self.set_op(index)
            start = time.perf_counter()
            try:
                raw, error = self.runner.run(op), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                raw, error = None, exc
            elapsed = time.perf_counter() - start
            seconds = elapsed
            if self.scale:
                after = hostspeed.loop_seconds()
                seconds = hostspeed.scaled(elapsed, before, after)
                before = after
            total += seconds
            self.samples.append(seconds)
            self.raw.append(elapsed)
            self.times[index].append(seconds)
            self._check(index, op, raw, error)
        self.pass_seconds.append(total)

    def _check(self, index, op, raw, error):
        """Check an op fully on its first run; later runs must repeat its digest."""
        first = index not in self.reference
        if error is not None:
            outcome = wl.Outcome(f"raised {type(error).__name__}: {error}",
                                 failure=f"raised {type(error).__name__}")
            if first:
                outcome.instructions = self.runner.instruction_count(op)
        else:
            outcome = self.runner.finish(op, raw, check=first)
        if first:
            self.reference[index] = outcome
        elif outcome.digest != self.reference[index].digest:
            self.mismatches += 1

    @property
    def attempted(self):
        return len(self.reference)

    @property
    def failures(self):
        """Failure reason -> ops that failed for it, each op counted once."""
        return collections.Counter(o.failure for o in self.reference.values() if o.failure)

    @property
    def instructions(self):
        """Compiled instructions of one pass."""
        return sum(o.instructions for o in self.reference.values())

    def run_for(self, seconds, min_passes=MIN_PASSES):
        """Whole passes, at least ``min_passes``, until the pass boundary nearest ``seconds``."""
        start = time.perf_counter()
        while True:
            self.run_pass()
            wall = time.perf_counter() - start
            passes = len(self.pass_seconds)
            if passes >= min_passes and wall + 0.5 * wall / passes >= seconds:
                return


def golden_matches():
    """The golden circuit at seed 42 must reproduce the checked-in report byte for byte."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = spintip.cli.main(["--circuit", str(GOLDEN_CIRCUIT), "--seed", str(GOLDEN_SEED)])
    return code == 0 and out.getvalue().encode("utf-8") == GOLDEN_REPORT.read_bytes()


def tail(samples):
    """(value, percentile, count): the highest percentile with ten samples beyond it.

    That is the 11th-largest sample. With fewer than 11 samples no percentile
    qualifies and the maximum is reported as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def cache_sizes():
    """Cache level -> size string, read from the CPU topology when available."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else ():
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(runner):
    qubits = max(spintip.parse_circuit(runner.circuit_text(op)).num_qubits for op in runner.ops)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "caches": cache_sizes(),
        "largest_state_bytes": 16 << (2 * qubits + 1),  # complex128 over 2n+1 sites
    }


def end_to_end(loop):
    """The gated end-to-end metrics, and the printed-only ones with their bases.

    An op's host time is the median of its (scaled) runs; the median of those is
    the latency, and one pass at those times gives the throughputs.
    """
    per_op = [statistics.median(times) for times in loop.times.values()]
    busy = sum(per_op)
    value, percentile, count = tail(loop.samples)
    sims = [o.sim_time for o in loop.reference.values() if o.sim_time is not None]
    return {
        "latency_p50_s": (statistics.median(per_op), "s"),
        "circuits_per_s": (len(per_op) / busy, "1/s"),
        "instructions_per_s": (loop.instructions / busy, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "sim_time_s": (sum(sims), "s"),
    }, {
        "latency_tail_s": value,
        "latency_tail_percentile": percentile,
        "latency_samples": count,
        "sim_time_ops": len(sims),
        "passes": len(loop.pass_seconds),
        "unscaled_latency_p50_s": statistics.median(loop.raw),
        "host_speed": statistics.median(loop.samples[i] / loop.raw[i]
                                        for i in range(len(loop.raw))),
    }


# -- traced run --------------------------------------------------------------

PULSE = "engine.apply_selective_pulse"
MEASURE_SPIN = "engine.measure_spin"
READ = "readout.measure_via_current"


def _pulse_data(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    new_state, outcome = result
    return {
        "pairs": outcome.resonant_pair_count,
        "idle": outcome.no_resonant_transition,
        "bytes": state.amplitudes.nbytes + new_state.amplitudes.nbytes,
    }


OBSERVERS = {
    PULSE: _pulse_data,
    MEASURE_SPIN: lambda args, kwargs, result: {"bit": result[0]},
    READ: lambda args, kwargs, result: {"p": result[0].inferred_p_bit,
                                        "a": result[0].inferred_a_bit},
}


def layer_metrics(spans, passes, ops, outcomes, peak_ratio, overhead_ratio):
    """Per-layer numbers per pass over ``ops``, from the spans of ``passes`` passes.

    ``outcomes`` are the ops' checked outcomes, from an untraced pass.
    """
    gates = sum(op["gates"] for op in ops)
    instructions = sum(outcome.instructions for outcome in outcomes)
    scheduled = [outcome for outcome in outcomes if outcome.makespan is not None]
    children = collections.defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    selfs = tr.self_times(spans)
    by_name = collections.defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    def has_ancestor(index, names):
        parent = spans[index].parent
        while parent is not None:
            if spans[parent].name in names:
                return True
            parent = spans[parent].parent
        return False

    def calls(name):
        return len(by_name[name]) / passes

    def inclusive(*names):
        return sum(spans[i].duration for name in names for i in by_name[name]
                   if not has_ancestor(i, names)) / passes

    def self_time(name):
        return sum(selfs[i] for i in by_name[name]) / passes

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    pulses = [spans[i].data for i in by_name[PULSE] if spans[i].data is not None]
    gate_compiles = len(by_name["compiler.compile_gate"]) + sum(
        1 for i in by_name["compiler.compile_init"]
        if not has_ancestor(i, ("compiler.compile_gate",))
    )
    reads = by_name[READ]
    completed = [i for i in reads if spans[i].data is not None]
    misread_bits = 0
    for i in completed:
        collapsed = [spans[c].data["bit"] for c in children[i] if spans[c].name == MEASURE_SPIN]
        inferred = [spans[i].data["p"], spans[i].data["a"]]
        misread_bits += sum(x != y for x, y in zip(collapsed, inferred))
    main_s = inclusive("cli.main")
    in_main = sum(spans[i].duration for i in by_name["cli.run_circuit_file"]
                  if has_ancestor(i, ("cli.main",))) / passes
    pulse_s = inclusive(PULSE)
    return {
        "engine.pulse.calls": (calls(PULSE), "count"),
        "engine.pulse.s": (pulse_s, "s"),
        "engine.pulse.s_per_call": (ratio(pulse_s, calls(PULSE)), "s"),
        "engine.pulse.resonant_pairs": (sum(p["pairs"] for p in pulses) / passes, "count"),
        "engine.pulse.idle_ratio": (ratio(sum(p["idle"] for p in pulses), len(pulses)), "ratio"),
        "engine.pulse.bytes_computed": (sum(p["bytes"] for p in pulses) / passes, "B"),
        "engine.measure_spin.calls": (calls(MEASURE_SPIN), "count"),
        "engine.measure_spin.s": (inclusive(MEASURE_SPIN), "s"),
        "engine.ancilla.s": (inclusive("engine.ancilla_diagnostics"), "s"),
        "engine.product.s": (inclusive("engine.PureState.product"), "s"),
        "compiler.compile.s": (inclusive("compiler.compile_circuit"), "s"),
        "compiler.compile_gate.per_gate": (ratio(gate_compiles / passes, gates), "call/gate"),
        "compiler.execute.self_s": (self_time("compiler.execute"), "s"),
        "physics.transition_frequency.calls": (calls("physics.transition_frequency"), "count"),
        "physics.transition_frequency.s": (inclusive("physics.transition_frequency"), "s"),
        "physics.site_flip_array.s": (inclusive("physics.site_flip_frequency_array"), "s"),
        "scheduler.expand.s": (inclusive("scheduler.expand_tasks"), "s"),
        "scheduler.schedule.s": (inclusive("scheduler.schedule_multi_tip"), "s"),
        "scheduler.validate.s": (inclusive("scheduler.validate_assignment"), "s"),
        "scheduler.makespan_ratio": (ratio(sum(o.makespan for o in scheduled),
                                           sum(o.sim_time for o in scheduled)), "ratio"),
        "timing.walks_per_instruction": (
            ratio(calls("timing.instruction_duration"), instructions), "call/instr"),
        "readout.measure.calls": (calls(READ), "count"),
        "readout.measure.s": (inclusive(READ), "s"),
        "readout.synth.s": (inclusive("readout.synth_trace"), "s"),
        "readout.detect.s": (inclusive("readout.detect_peak"), "s"),
        "readout.classify.s": (inclusive("readout.classify_frequency"), "s"),
        "readout.misread_ratio": (ratio(misread_bits, 2 * len(completed)), "ratio"),
        "readout.unclassified_ratio": (ratio(
            sum(spans[i].error == "UnclassifiableFrequency" for i in reads), len(reads)), "ratio"),
        "program.parse.s": (inclusive("program.parse_circuit"), "s"),
        "program.text.s": (inclusive("program.program_to_text", "program.format_circuit"), "s"),
        "program.validate.s": (inclusive("program.validate_program"), "s"),
        "config.validate.s": (inclusive("config.MachineConfig.validate"), "s"),
        "cli.run_circuit.self_s": (self_time("cli.run_circuit_file"), "s"),
        "cli.report.s": (main_s - in_main, "s"),
        "engine.pulse.peak_ratio": (peak_ratio, "ratio"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


def pulse_peak_ratio(runner, op):
    """Largest tracemalloc peak during one pulse over the state's bytes, for one op."""
    engine = sys.modules["spintip.engine"]
    original = engine.apply_selective_pulse
    ratios = []

    def measured(state, *args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = original(state, *args, **kwargs)
        ratios.append((tracemalloc.get_traced_memory()[1] - base) / state.amplitudes.nbytes)
        return result

    engine.apply_selective_pulse = measured
    tracemalloc.start()
    try:
        runner.run(op)
    except Exception:  # the op's failure is already counted by the loops
        pass
    finally:
        tracemalloc.stop()
        engine.apply_selective_pulse = original
    return max(ratios, default=0.0)


def traced_run(runner, ops, scale, seconds, run_dir):
    """Untraced passes, then traced passes over ``ops``, then one op under tracemalloc."""
    untraced = Loop(runner, ops, scale)
    untraced.run_for(TRACE_SHARE * seconds, min_passes=1)

    traced = Loop(runner, ops, scale)
    traced.reference = dict(untraced.reference)  # traced outputs must equal untraced ones
    tracer = tr.Tracer(observers=OBSERVERS)
    traced.set_op = lambda index: setattr(tracer, "op", index)
    before = tr.snapshot()
    with tracer.installed():
        traced.run_for(TRACE_SHARE * seconds, min_passes=1)
    not_restored = tr.changed(before, tr.snapshot())
    passes = len(traced.pass_seconds)

    outcomes = [untraced.reference[i] for i in range(len(ops))]
    overhead = statistics.median(traced.pass_seconds) / statistics.median(untraced.pass_seconds)
    metrics = layer_metrics(tracer.spans, passes, ops, outcomes,
                            pulse_peak_ratio(runner, ops[0]), overhead)

    per_pass = len(tracer.spans) // passes
    with gzip.open(run_dir / "spans.jsonl.gz", "wt", encoding="utf-8", compresslevel=1) as out:
        for span in tracer.spans[:per_pass]:
            out.write(json.dumps(span.to_row()) + "\n")
    checks = {
        "wrappers_restored": not not_restored,
        "traced_equals_untraced": traced.mismatches == 0 and untraced.mismatches == 0,
    }
    info = {
        "untraced_passes": len(untraced.pass_seconds),
        "traced_passes": passes,
        "spans_per_pass": per_pass,
        "not_restored": [list(key) for key in not_restored],
    }
    return metrics, checks, info, untraced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    manifest = json.loads((args.run_dir / "ops.json").read_text(encoding="utf-8"))
    runner = wl.Runner(spintip, manifest, args.run_dir)
    checks = {"golden_report": golden_matches()}
    try:
        runner.run(runner.ops[0])  # warm-up: first-touch allocations and lazy imports
    except Exception:  # its failure, if any, is counted when the loop runs it
        pass

    scale = manifest["params"]["scale_host_time"]
    if args.trace:
        metrics, trace_checks, info, loop = traced_run(runner, runner.ops, scale, args.seconds,
                                                       args.run_dir)
        checks.update(trace_checks)
    else:
        loop = Loop(runner, runner.ops, scale)
        loop.run_for(args.seconds)
        checks["repeats_identical"] = loop.mismatches == 0
        metrics, info = end_to_end(loop)
    failures = loop.failures
    result = {
        "correct": all(checks.values()),
        "attempted": loop.attempted,
        "failed": sum(failures.values()),
        "checks": checks,
        "failures": dict(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": info,
        "environment": environment(runner),
    }
    (args.run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
