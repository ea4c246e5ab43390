"""Seeded workload generation, the timed operations, and their output checks.

A workload is a list of ops generated from the workload seed and written to
disk as circuit files plus a manifest (``ops.json``) holding every op's
parameters and input state; the program under test only sees those files.
One op is one circuit, compiled, executed and checked. Checks run after the
op's clock has stopped.

Why these three workloads (each keeps the other layers' shares small):

* ``dense_n10`` -- the library path of the README quick tour on a 10-qubit
  register (21 sites, 2^21 amplitudes, 32 MiB). The dense engine dominates:
  unitary pulses, collapsing measurement and the ancilla reduction. The gate
  skeleton is fixed and the seed picks the chain orientation, the rotation
  and the input product state, so the engine work per op and the simulated
  time hardly vary from seed to seed.
* ``small_batch`` -- random INIT + 5..20 gate circuits on 2..5 qubits through
  ``cli.main`` with 1..4 tips. States stay at most 2^11 amplitudes, so Python
  overhead in parse, compile, scheduling, validation and reporting dominates.
  The op set holds one circuit for every (qubits, gate count, tips) triple, in
  a seeded order, so every seed has the same mix of sizes; the seed draws the
  gates, their qubits (a circuit's register ends at the highest qubit it
  names) and angles, and the CLI seed.
* ``traced_init`` -- 4-qubit ROT-all / INIT / MEASURE-all circuits read out
  through synthesized noisy traces at an SNR drawn log-uniformly from
  [1e-2, 10], one draw per equal slice of that range. Readout (synth + FFT)
  dominates, and no read failed there in trials. Reads at SNR 1e-3 often
  raise the known ``UnclassifiableFrequency``; a fixed block of probe ops at
  that SNR keeps it visible as failed ops. The probes are the same circuits
  and CLI seeds on every workload seed, so their failures count the same on
  every run.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

#: Per-workload parameters. One pass over a workload's ops takes a few
#: seconds at the parent commit, so a run makes several passes and an op's
#: time is the median of its runs; small_batch has one op per (qubits, gates,
#: tips) triple. ``scale_host_time`` says whether op times are scaled to the
#: reference host speed (see worker.py).
WORKLOADS = {
    "dense_n10": {
        "scale_host_time": False,
        "ops": 1,
        "num_qubits": 10,
        "rot_angle": (math.pi / 4, 3 * math.pi / 4),
    },
    "small_batch": {
        "scale_host_time": True,
        "num_qubits": (2, 5),
        "gates": (5, 20),
        "tips": (1, 4),
    },
    "traced_init": {
        "scale_host_time": True,
        "ops": 56,
        "num_qubits": 4,
        "snr_log10": (-2.0, 1.0),
        "probe_ops": 8,
        "probe_snr_log10": -3.0,
    },
}
#: Seeds the traced_init probe block; it does not depend on the workload seed.
PROBE_SEED = 20030700

#: Tolerance of the dense_n10 fidelity and purity checks.
DENSE_TOLERANCE = 1e-9
#: Tolerance of the small_batch norm check.
NORM_TOLERANCE = 1e-9


def _reflect(num_qubits, flip):
    return (lambda q: num_qubits - 1 - q) if flip else (lambda q: q)


def _dense_op(rng, params):
    n = params["num_qubits"]
    r = _reflect(n, bool(rng.integers(2)))
    angle = float(rng.uniform(*params["rot_angle"]))
    phase = float(rng.uniform(0.0, 2 * math.pi))
    # The skeleton is fixed so the tip walks the same hop count on every seed:
    # ROT where the first CNOT starts, two CNOTs spanning the chain, then the
    # two qubits the last CNOT touched.
    lines = [
        f"ROT {r(0)} {angle!r} {phase!r}",
        f"CNOT {r(0)} {r(n - 1)}",
        f"CNOT {r(n - 2)} {r(1)}",
        f"MEASURE {r(n - 2)}",
        f"MEASURE {r(1)}",
    ]
    thetas = rng.uniform(0.0, math.pi, n)
    betas = rng.uniform(0.0, 2 * math.pi, n)
    state = [[math.cos(t / 2), math.sin(t / 2) * math.cos(b), math.sin(t / 2) * math.sin(b)]
             for t, b in zip(thetas.tolist(), betas.tolist())]
    return lines, {"state": state, "rng_seed": int(rng.integers(2**31))}


def _small_batch_op(rng, n, count, tips):
    lines = ["INIT"]
    for _ in range(count):
        kind = int(rng.integers(3))
        if kind == 0:
            angle = float(rng.uniform(0.0, 2 * math.pi))
            phase = float(rng.uniform(0.0, 2 * math.pi))
            lines.append(f"ROT {int(rng.integers(n))} {angle!r} {phase!r}")
        elif kind == 1:
            control, target = (int(q) for q in rng.choice(n, 2, replace=False))
            lines.append(f"CNOT {control} {target}")
        else:
            lines.append(f"MEASURE {int(rng.integers(n))}")
    return lines, {"qubits": n, "seed": int(rng.integers(2**31)), "tips": tips}


def _traced_init_op(rng, n, snr_log10):
    lines = [f"ROT {q} {float(rng.uniform(0.0, 2 * math.pi))!r} 0.0" for q in range(n)]
    lines.append("INIT")
    lines += [f"MEASURE {q}" for q in range(n)]
    return lines, {"seed": int(rng.integers(2**31)), "snr": float(10.0 ** snr_log10)}


def _stratified(rng, bounds, count):
    """``count`` draws from [lo, hi), one uniform draw in each of ``count`` equal slices."""
    lo, hi = bounds
    return [lo + (hi - lo) * (i + float(rng.uniform())) / count for i in range(count)]


def _make_ops(workload, rng, params):
    """(circuit lines, op parameters) of every op of one pass, in run order."""
    if workload == "dense_n10":
        return [_dense_op(rng, params) for _ in range(params["ops"])]
    if workload == "small_batch":
        triples = [(n, count, tips)
                   for n in range(params["num_qubits"][0], params["num_qubits"][1] + 1)
                   for count in range(params["gates"][0], params["gates"][1] + 1)
                   for tips in range(params["tips"][0], params["tips"][1] + 1)]
        ops = [_small_batch_op(rng, *triple) for triple in triples]
    else:
        n = params["num_qubits"]
        ops = [_traced_init_op(rng, n, x)
               for x in _stratified(rng, params["snr_log10"], params["ops"])]
        probe_rng = np.random.default_rng(PROBE_SEED)
        ops += [_traced_init_op(probe_rng, n, params["probe_snr_log10"])
                for _ in range(params["probe_ops"])]
    return [ops[i] for i in rng.permutation(len(ops))]


def generate(workload, seed, directory):
    """Write the workload's circuits and manifest under ``directory``; return the manifest.

    The same (workload, seed) always writes the same bytes.
    """
    params = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for index, (lines, extra) in enumerate(_make_ops(workload, rng, params)):
        name = f"op{index:04d}.circuit"
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        ops.append({"circuit": name, "gates": len(lines), **extra})
    manifest = {
        "workload": workload,
        "seed": seed,
        "params": params,
        "ops": ops,
    }
    (directory / "ops.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


@dataclasses.dataclass
class Outcome:
    """What one op produced: enough to check it, digest it and account for it."""

    digest: str
    instructions: int = 0            # compiled pulse-program instructions the op ran
    sim_time: "float | None" = None  # simulated seconds, when the op produced a timing report
    makespan: "float | None" = None  # simulated multi-tip makespan, when the op scheduled one
    failure: "str | None" = None     # why the op failed, or None


class Runner:
    """Runs one workload's ops against an imported ``spintip`` package."""

    def __init__(self, spintip, manifest, directory):
        self.sp = spintip
        self.workload = manifest["workload"]
        self.directory = Path(directory)
        self.ops = manifest["ops"]
        self.cfg = spintip.MachineConfig().validate()

    def instruction_count(self, op):
        """Compiled instructions of an op that raised before reporting them."""
        sp = self.sp
        circuit = sp.parse_circuit(self.circuit_text(op))
        layout = sp.RegisterLayout(circuit.num_qubits)
        return len(sp.compile_circuit(circuit, layout, self.cfg).instructions)

    def circuit_text(self, op):
        return (self.directory / op["circuit"]).read_text(encoding="utf-8")

    def run(self, op):
        """The timed part of an op. Returns an opaque value for ``finish``."""
        if self.workload == "dense_n10":
            return self._run_dense(op)
        return self._run_cli(op)

    def finish(self, op, raw, check):
        """An op's Outcome: only its digest, or, if ``check``, everything, checked."""
        if self.workload == "dense_n10":
            return self._finish_dense(op, raw, check)
        return self._finish_cli(op, raw, check)

    # -- dense_n10: the library path ------------------------------------------

    def _run_dense(self, op):
        sp = self.sp
        layout = sp.RegisterLayout(len(op["state"]))
        amplitudes = {q: (a, complex(b, c)) for q, (a, b, c) in enumerate(op["state"])}
        state = sp.PureState.product(layout, amplitudes)
        circuit = sp.parse_circuit(self.circuit_text(op))
        program = sp.compile_circuit(circuit, layout, self.cfg)
        result = sp.execute(program, state, layout, self.cfg, rng=op["rng_seed"])
        diagnostics = sp.ancilla_diagnostics(result.final_state, layout)
        return circuit, program, result, diagnostics

    def _finish_dense(self, op, raw, check):
        circuit, program, result, diagnostics = raw
        amplitudes = result.final_state.amplitudes
        digest = hashlib.sha256(amplitudes.tobytes())
        summary = (result.records, diagnostics.purity, result.timing.total_wall_time)
        digest.update(repr(summary).encode())
        if not check:
            return Outcome(digest.hexdigest())
        failure = None
        if not diagnostics.purity >= 1.0 - DENSE_TOLERANCE:
            failure = f"ancilla purity {diagnostics.purity!r}"
        else:
            fidelity = dense_fidelity(op, circuit, result)
            if not fidelity >= 1.0 - DENSE_TOLERANCE:
                failure = f"fidelity {fidelity!r} against the ideal circuit"
        return Outcome(digest.hexdigest(), len(program.instructions),
                       result.timing.total_wall_time, failure=failure)

    # -- small_batch and traced_init: the command line, in process ------------

    def _argv(self, op):
        argv = ["--circuit", str(self.directory / op["circuit"]), "--seed", str(op["seed"])]
        if "tips" in op:
            argv += ["--tips", str(op["tips"])]
        if "snr" in op:
            argv += ["--trace-snr", repr(op["snr"])]
        return argv

    def _run_cli(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sp.cli.main(self._argv(op))
        return code, out.getvalue()

    def _finish_cli(self, op, raw, check):
        code, text = raw
        digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
        if not check:
            return Outcome(digest)
        if code != 0:
            return Outcome(digest, self.instruction_count(op), failure=f"exit {code}")
        report = json.loads(text)
        schedule = report["scheduler"]
        return Outcome(digest, len(report["program"]), report["timing"]["total_wall_time_s"],
                       schedule["makespan_s"] if schedule else None,
                       cli_report_problem(self.workload, op, report))


def cli_report_problem(workload, op, report):
    """The output check of one CLI op; None when the report is right."""
    if workload == "traced_init":
        n = report["register"]["num_qubits"]
        final = [m["inferred_p_bit"] for m in report["measurements"][-n:]]
        if final != [0] * n:
            return f"final MEASUREs after INIT read {final}"
        return None
    if report["pulses"]["spectral_misses"]:
        return f"spectral misses {report['pulses']['spectral_misses']}"
    if abs(report["final_state"]["norm"] - 1.0) > NORM_TOLERANCE:
        return f"norm {report['final_state']['norm']!r}"
    schedule = report["scheduler"]
    if schedule["validator_problems"]:
        return f"validator problems {schedule['validator_problems']}"
    if schedule["tips"] == 1 and schedule["makespan_s"] != report["timing"]["total_wall_time_s"]:
        return "1-tip makespan differs from the serial wall time"
    return None


def dense_fidelity(op, circuit, result):
    """|<ideal|final>|^2 with the ideal circuit built here, projected on the measured bits.

    The oracle is independent of the engine: a Kronecker product of the input
    factors (the ROT applied to its factor analytically), CNOTs as index
    permutations, and each measurement as a projection onto the recorded bits.
    """
    n = len(op["state"])
    sites = 2 * n + 1
    factors = [np.array([a, complex(b, c)]) for a, b, c in op["state"]]
    factors = [f / np.linalg.norm(f) for f in factors]
    ground = np.array([1.0, 0.0], dtype=complex)
    gates = circuit.gates
    rot = gates[0]
    c, s = math.cos(rot.angle / 2), math.sin(rot.angle / 2)
    a0, a1 = factors[rot.qubit]
    factors[rot.qubit] = np.array([
        c * a0 - 1j * s * np.exp(-1j * rot.phase) * a1,
        -1j * s * np.exp(1j * rot.phase) * a0 + c * a1,
    ])
    expected = np.ones(1, dtype=complex)
    for q in range(n):
        expected = np.kron(np.kron(expected, factors[q]), ground)
    expected = np.kron(expected, ground)
    index = np.arange(expected.size)

    def bit(site):
        return (index >> (sites - 1 - site)) & 1

    for gate in gates[1:]:
        if hasattr(gate, "control"):
            flipped = index ^ (bit(2 * gate.control) << (sites - 1 - 2 * gate.target))
            permuted = np.empty_like(expected)
            permuted[flipped] = expected
            expected = permuted
    for record in result.records:
        keep = (bit(2 * record.qubit) == record.inferred_p_bit) & (
            bit(sites - 1) == record.inferred_a_bit
        )
        expected = np.where(keep, expected, 0.0)
        expected /= np.linalg.norm(expected)
    return float(abs(np.vdot(expected, result.final_state.amplitudes)) ** 2)
