"""Self-tests of the benchmark harness.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench -q
"""

import collections
import contextlib
import io
import json
import types
from pathlib import Path

import pytest

import spintip
import spintip.cli
import hostspeed
import tracer as tr
import worker
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden.circuit"


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        wl.generate(workload, seed, tmp_path / name)
    first, again, other = (_files(tmp_path / name) for name in "abc")
    assert first == again
    assert first != other


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == sorted(wl.WORKLOADS)
    loop = types.SimpleNamespace(samples=[0.1, 0.2], raw=[0.1, 0.2], times={0: [0.1, 0.2]},
                                 instructions=3, pass_seconds=[0.1, 0.2],
                                 reference={0: wl.Outcome("digest", 3, 1e-3)})
    gated, _ = worker.end_to_end(loop)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "setup_s": "s", **{name: unit for name, (_, unit) in gated.items()}
    }
    layers = worker.layer_metrics([], 1, [], [], 0.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()
    }


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        tr.Span("root", 0.0, 10.0, None, 0),
        tr.Span("a", 1.0, 3.0, 0, 0),
        tr.Span("c", 1.5, 2.5, 1, 0),
        tr.Span("b", 5.0, 6.0, 0, 0),
        tr.Span("d", 9.0, 12.0, 0, 0),  # sticks out of its parent: only [9, 10] counts
        tr.Span("e", 5.5, 6.5, 0, 0),   # overlaps b: the overlap is covered once
    ]
    assert tr.self_times(spans) == [10.0 - 2.0 - 1.5 - 1.0, 1.0, 1.0, 1.0, 3.0, 1.0]


def test_scaled_seconds_follow_the_host_speed():
    reference = hostspeed.REFERENCE_S
    assert hostspeed.scaled(2.0, reference, reference) == 2.0
    assert hostspeed.scaled(2.0, 2 * reference, 2 * reference) == 1.0
    assert hostspeed.scaled(2.0, reference, 3 * reference) == 1.0
    assert hostspeed.loop_seconds() > 0.0


def test_tail_is_the_eleventh_largest_sample():
    samples = list(range(100))
    assert worker.tail(samples) == (89, 90.0, 100)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _golden_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert spintip.cli.main(["--circuit", str(GOLDEN), "--seed", "42"]) == 0
    return out.getvalue()


def test_wrappers_are_uninstalled_after_a_traced_run():
    before = tr.snapshot()
    untraced = _golden_report()
    tracer = tr.Tracer(observers=worker.OBSERVERS)
    with tracer.installed():
        assert tr.changed(before, tr.snapshot())
        traced = _golden_report()
    assert tr.changed(before, tr.snapshot()) == []
    assert traced == untraced
    names = {span.name for span in tracer.spans}
    assert {"cli.main", "compiler.execute", "engine.apply_selective_pulse",
            "config.MachineConfig.validate", "program.validate_program"} <= names
    execute = next(i for i, s in enumerate(tracer.spans) if s.name == "compiler.execute")
    assert any(s.parent == execute for s in tracer.spans)


def test_wrappers_are_uninstalled_when_a_traced_call_raises():
    before = tr.snapshot()
    tracer = tr.Tracer()
    with pytest.raises(spintip.CircuitParseError):
        with tracer.installed():
            spintip.parse_circuit("NOT-A-GATE\n")
    assert tr.changed(before, tr.snapshot()) == []
    assert tracer.spans[-1].error == "CircuitParseError"


def test_small_batch_has_one_op_per_size_triple(tmp_path):
    manifest = wl.generate("small_batch", 3, tmp_path)
    params = wl.WORKLOADS["small_batch"]
    triples = collections.Counter()
    for op in manifest["ops"]:
        circuit = spintip.parse_circuit((tmp_path / op["circuit"]).read_text(encoding="utf-8"))
        assert circuit.num_qubits <= op["qubits"]
        triples[op["qubits"], op["gates"] - 1, op["tips"]] += 1
    (n_lo, n_hi), (g_lo, g_hi), (t_lo, t_hi) = params["num_qubits"], params["gates"], params["tips"]
    assert set(triples.values()) == {1}
    assert len(triples) == (n_hi - n_lo + 1) * (g_hi - g_lo + 1) * (t_hi - t_lo + 1)


def test_traced_init_probe_block_is_the_same_on_every_seed(tmp_path):
    params = wl.WORKLOADS["traced_init"]
    probes = []
    for seed in (1, 2):
        manifest = wl.generate("traced_init", seed, tmp_path / str(seed))
        low = [op for op in manifest["ops"] if op["snr"] < 10.0 ** params["snr_log10"][0]]
        assert len(low) == params["probe_ops"]
        probes.append(sorted(
            (op["seed"], op["snr"], (tmp_path / str(seed) / op["circuit"]).read_text())
            for op in low
        ))
    assert probes[0] == probes[1]


class _FlakyRunner:
    """Gives op 0 a different output on its second run, and fails op 1 every time."""

    def __init__(self):
        self.calls = 0

    def run(self, op):
        self.calls += 1
        if op["fails"]:
            raise ValueError("always")
        return self.calls

    def finish(self, op, raw, check):
        return wl.Outcome("first" if raw == 1 else "later")

    def instruction_count(self, op):
        return 2


def test_loop_compares_repeats_and_counts_each_op_once():
    loop = worker.Loop(_FlakyRunner(), [{"fails": False}, {"fails": True}], scale=True)
    loop.run_for(0.0)
    assert len(loop.pass_seconds) == worker.MIN_PASSES
    assert loop.mismatches == 1
    assert loop.attempted == 2
    assert loop.failures == {"raised ValueError": 1}
    assert loop.instructions == 2
    assert {index: len(times) for index, times in loop.times.items()} == {
        0: worker.MIN_PASSES, 1: worker.MIN_PASSES}
    assert len(loop.samples) == 2 * worker.MIN_PASSES
