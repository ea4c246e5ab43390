"""End-to-end command line behaviour: exit codes, reports, batch runs."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

DATA = Path(__file__).parent / "data"

# A register-spanning workload whose measurements are deterministic: the pi
# rotation puts qubit 0 fully in |1> (up to 1e-18, which rounds away in
# float64), the CNOT copies it, and both reads then always see 1.
EXAMPLE = "INIT\nROT 0 3.14159265 0.0\nCNOT 0 1\nMEASURE 0\nMEASURE 1\n"


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "spintip", *args], capture_output=True, text=True,
        timeout=timeout,
    )


def strict_json(text):
    """Parse ``text`` as JSON, refusing the NaN and Infinity that JSON lacks."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def example_circuit(tmp_path):
    path = tmp_path / "example.circuit"
    path.write_text(EXAMPLE, encoding="utf-8")
    return path


class TestSingleRuns:
    def test_example_circuit_reports_ones(self, example_circuit):
        done = run_cli("--circuit", str(example_circuit), "--seed", "3")
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["seed"] == 3
        assert len(report["measurements"]) == 6  # 4 init reads + 2 finals
        finals = report["measurements"][-2:]
        assert [m["inferred_p_bit"] for m in finals] == [1, 1]
        assert report["status"] == {"exit_code": 0, "reasons": []}
        assert report["final_state"]["norm"] == pytest.approx(1.0, abs=1e-12)
        assert report["pulses"]["spectral_misses"] == []

    def test_reports_are_byte_identical_for_a_seed(self, example_circuit):
        first = run_cli("--circuit", str(example_circuit), "--seed", "11")
        second = run_cli("--circuit", str(example_circuit), "--seed", "11")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_unseeded_runs_announce_their_seed(self, example_circuit):
        done = run_cli("--circuit", str(example_circuit))
        assert done.returncode == 0
        assert "seed:" in done.stderr
        announced = int(done.stderr.split("seed:", 1)[1].split()[0])
        assert json.loads(done.stdout)["seed"] == announced

    def test_empty_circuit_is_fine(self, tmp_path):
        path = tmp_path / "empty.circuit"
        path.write_text("# nothing yet\n", encoding="utf-8")
        done = run_cli("--circuit", str(path), "--seed", "0")
        assert done.returncode == 0
        report = json.loads(done.stdout)
        assert report["measurements"] == []
        assert report["circuit"] == []

    def test_dump_state_writes_the_final_vector(self, example_circuit, tmp_path):
        dump = tmp_path / "final.state"
        done = run_cli(
            "--circuit", str(example_circuit), "--seed", "5", "--dump-state", str(dump)
        )
        assert done.returncode == 0
        report = json.loads(done.stdout)
        assert report["final_state"]["dump_file"] == str(dump)
        lines = dump.read_text().splitlines()
        assert len(lines) == 1
        bits, real, imag = lines[0].split()
        assert bits == "10100"
        assert abs(float(real)) < 1e-12
        assert float(imag) == pytest.approx(-1.0, abs=1e-12)

    def test_scheduler_section_appears_with_tips(self, example_circuit):
        done = run_cli("--circuit", str(example_circuit), "--seed", "2", "--tips", "2")
        assert done.returncode == 0
        section = json.loads(done.stdout)["scheduler"]
        assert section["tips"] == 2
        assert section["makespan_s"] > 0
        assert section["validator_problems"] == []
        assert len(section["per_task_tip"]) == 6  # 2 init tasks + 4 gates

    def test_a_trillion_tips_schedule_like_enough_tips(self, example_circuit, capsys):
        import spintip.cli as cli

        argv = ["--circuit", str(example_circuit), "--seed", "2", "--tips"]
        assert cli.main([*argv, "1000000000000"]) == 0
        huge = json.loads(capsys.readouterr().out)["scheduler"]
        assert cli.main([*argv, "6"]) == 0
        enough = json.loads(capsys.readouterr().out)["scheduler"]
        assert huge["tips"] == 1000000000000
        assert huge["validator_problems"] == []
        assert {k: v for k, v in huge.items() if k != "tips"} == {
            k: v for k, v in enough.items() if k != "tips"
        }

    def test_verification_payload(self, example_circuit):
        done = run_cli("--circuit", str(example_circuit), "--seed", "1", "--verify-frequencies")
        assert done.returncode == 0
        verification = json.loads(done.stdout)["verification"]
        assert verification["passed"] is True
        assert verification["all_formulas_matched"] is True
        assert verification["worst_formula_residual_hz"] <= 1e-6
        assert verification["cnot_fidelity"] >= 1.0 - 1e-9
        assert verification["ancilla_purity"] >= 1.0 - 1e-9
        assert len(verification["frequency_audit"]) == 6

    def test_trace_readout_still_infers_the_right_bits(self, example_circuit):
        done = run_cli(
            "--circuit", str(example_circuit), "--seed", "9", "--trace-snr", "10"
        )
        assert done.returncode == 0
        finals = json.loads(done.stdout)["measurements"][-2:]
        assert [m["inferred_p_bit"] for m in finals] == [1, 1]


class TestFailureModes:
    def test_parse_errors_point_at_the_line(self, tmp_path):
        path = tmp_path / "broken.circuit"
        path.write_text("INIT\nWOBBLE 3\n", encoding="utf-8")
        done = run_cli("--circuit", str(path), "--seed", "0")
        assert done.returncode == 2
        assert "broken.circuit:2" in done.stderr

    def test_missing_circuit_file(self, tmp_path):
        done = run_cli("--circuit", str(tmp_path / "ghost.circuit"), "--seed", "0")
        assert done.returncode == 2
        assert "error" in done.stderr

    def test_bad_config_exits_two(self, example_circuit, tmp_path):
        config = tmp_path / "bad.config"
        config.write_text("warp_speed = 9\n", encoding="utf-8")
        done = run_cli("--circuit", str(example_circuit), "--config", str(config))
        assert done.returncode == 2
        assert "warp_speed" in done.stderr

    def test_needs_exactly_one_input_mode(self, example_circuit, tmp_path):
        assert run_cli().returncode == 2
        both = run_cli("--circuit", str(example_circuit), "--batch", str(tmp_path))
        assert both.returncode == 2

    def test_unknown_flag_exits_two(self):
        assert run_cli("--warp").returncode == 2

    def test_zero_tips_rejected(self, example_circuit):
        done = run_cli("--circuit", str(example_circuit), "--tips", "0")
        assert done.returncode == 2

    @pytest.mark.parametrize("mode", ["--circuit", "--batch"])
    def test_negative_seed_exits_two(self, example_circuit, mode):
        target = example_circuit if mode == "--circuit" else example_circuit.parent
        done = run_cli(mode, str(target), "--seed", "-1")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "--seed must be non-negative" in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("snr", ["0", "-1", "nan"])
    def test_non_positive_trace_snr_exits_two(self, example_circuit, snr):
        done = run_cli("--circuit", str(example_circuit), f"--trace-snr={snr}")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "--trace-snr must be positive" in done.stderr

    @pytest.mark.parametrize("mode", ["--circuit", "--batch"])
    def test_overflowing_trace_snr_exits_two(self, tmp_path, mode):
        # Below about 1e-308 the noise deviation sqrt(1/(2 snr)) is infinite,
        # so the run is refused before a trace fills with inf and NaN.
        path = tmp_path / "read.circuit"
        path.write_text("MEASURE 0\n", encoding="utf-8")
        target = path if mode == "--circuit" else tmp_path
        done = run_cli(mode, str(target), "--seed", "0", "--trace-snr", "1e-320")
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Warning" not in done.stderr
        assert "Traceback" not in done.stderr
        assert [line for line in done.stderr.splitlines() if "error:" in line] == [
            "spintip: error: --trace-snr is too small: the trace noise deviation overflows"
        ]

    def test_infinite_trace_snr_is_a_clean_trace(self, example_circuit):
        done = run_cli("--circuit", str(example_circuit), "--seed", "9", "--trace-snr", "inf")
        assert done.returncode == 0
        finals = json.loads(done.stdout)["measurements"][-2:]
        assert [m["inferred_p_bit"] for m in finals] == [1, 1]

    def test_unphysical_drive_line_exits_three(self, monkeypatch, tmp_path, capsys):
        # Force the compiler to emit a drive at 1 Hz: it can hit nothing, and
        # the run must say so loudly rather than quietly doing nothing.
        import spintip.cli as cli
        import spintip.compiler as compiler
        from spintip import MachineConfig

        detuned = {**compiler.drive_lines(MachineConfig()), "rotation": 1.0}
        monkeypatch.setattr(compiler, "drive_lines", lambda cfg: detuned)
        path = tmp_path / "detuned.circuit"
        path.write_text("ROT 0 1.0 0.0\n", encoding="utf-8")
        code = cli.main(["--circuit", str(path), "--seed", "1"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["status"]["exit_code"] == 3
        assert report["pulses"]["spectral_misses"] == [1]
        assert any("no transition line" in reason for reason in report["status"]["reasons"])

    def test_golden_circuit_runs_under_a_sub_ulp_window(self, tmp_path):
        # Every drive equals its engine line bit for bit, so a window of 1e-9
        # Hz (below one ulp of the 1.4e11 Hz electron lines) still hits.
        config = tmp_path / "tight.config"
        config.write_text("selectivity_tolerance = 1e-9\n", encoding="utf-8")
        done = run_cli("--circuit", str(DATA / "golden.circuit"), "--seed", "42",
                       "--config", str(config))
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        golden = json.loads((DATA / "golden_report.json").read_text(encoding="utf-8"))
        assert report["pulses"]["spectral_misses"] == []
        assert report["measurements"] == golden["measurements"]

    def test_lines_beyond_float64_exit_two(self, example_circuit, tmp_path):
        config = tmp_path / "huge.config"
        config.write_text("magnetic_field = 1e300\n", encoding="utf-8")
        done = run_cli("--circuit", str(example_circuit), "--seed", "0",
                       "--config", str(config))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert "overflow float64" in done.stderr
        assert done.stderr.count("\n") == 1

    def test_a_config_warning_is_one_line_even_under_w_error(self, example_circuit, tmp_path):
        # A questionable value warns but runs; the warning must not surface as
        # a raw Python warning, nor as a traceback when warnings are errors.
        config = tmp_path / "tight.config"
        config.write_text("lattice_spacing = 1e-300\n", encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "spintip", "--circuit", str(example_circuit),
             "--config", str(config), "--seed", "0"],
            capture_output=True, text=True,
        )
        assert done.returncode == 0
        assert strict_json(done.stdout)["status"]["exit_code"] == 0
        assert done.stderr.splitlines() == [
            "warning: lattice_spacing 1e-300 m is below the 30 nm tip-addressability margin"
        ]

    def test_register_too_large_for_memory_exits_two(self, tmp_path):
        # 41 qubits is 2^83 amplitudes: the run must refuse before allocating.
        path = tmp_path / "huge.circuit"
        path.write_text("MEASURE 40\n", encoding="utf-8")
        done = run_cli("--circuit", str(path), "--seed", "0")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: a 41-qubit register needs about ")
        assert "GiB" in done.stderr
        assert done.stderr.count("\n") == 1

    def test_a_vast_register_is_refused_before_its_layout_is_built(self, tmp_path):
        # Two million qubits: the layout alone would take seconds and hundreds
        # of MiB, and a decimal estimate of the 2^(n+6)-byte peak seconds more.
        path = tmp_path / "vast.circuit"
        path.write_text("MEASURE 2000000\n", encoding="utf-8")
        done = run_cli("--circuit", str(path), "--seed", "0", timeout=5)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: a 2000001-qubit register needs about 2^")
        assert done.stderr.count("\n") == 1

    def test_an_index_past_any_shift_exits_two(self, tmp_path, capsys):
        # The estimate's exponent is compared before its bytes are built: a
        # 2^(10^21)-byte integer cannot be built at all.
        import spintip.cli as cli

        path = tmp_path / "vast.circuit"
        path.write_text("MEASURE 1000000000000000000000\n", encoding="utf-8")
        assert cli.main(["--circuit", str(path), "--seed", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(
            "error: a 1000000000000000000001-qubit register needs about "
            "2^999999999999999999977 GiB at peak"
        )
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("key", ["bohr_magneton", "nuclear_magneton",
                                     "boltzmann_constant", "planck_constant"])
    def test_a_constant_of_nature_is_not_a_config_key(self, example_circuit, tmp_path,
                                                      capsys, key):
        import spintip.cli as cli

        config = tmp_path / "machine.config"
        config.write_text(f"{key} = 1.0\n", encoding="utf-8")
        argv = ["--circuit", str(example_circuit), "--seed", "0", "--config", str(config)]
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {config}:1: unknown config key {key!r}\n"

    @pytest.mark.parametrize("text", ["MEASURE 600\n", "CNOT 0 100000\n"])
    def test_register_past_the_float_range_exits_two(self, tmp_path, capsys, text):
        # 2^(2n+1) amplitudes overflow a float estimate for n >= 512.
        import spintip.cli as cli

        path = tmp_path / "vast.circuit"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["--circuit", str(path), "--seed", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: a ")
        assert "GiB" in out.err
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["angle", "phase"])
    def test_non_finite_rot_values_exit_two(self, tmp_path, capsys, value, where):
        import spintip.cli as cli

        angle, phase = (value, "0.0") if where == "angle" else ("1.0", value)
        path = tmp_path / "bad.circuit"
        path.write_text(f"ROT 0 {angle} {phase}\n", encoding="utf-8")
        assert cli.main(["--circuit", str(path), "--seed", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {path}:1: {where} {value!r} is not finite\n"

    def test_largest_finite_rot_values_run(self, tmp_path, capsys):
        import spintip.cli as cli

        path = tmp_path / "big.circuit"
        path.write_text("ROT 0 1e308 1e308\n", encoding="utf-8")
        assert cli.main(["--circuit", str(path), "--seed", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["final_state"]["norm"] == pytest.approx(1.0, abs=1e-12)

    def test_sub_resolution_rot_angle_runs(self, tmp_path, capsys):
        import spintip.cli as cli

        path = tmp_path / "tiny.circuit"
        path.write_text("ROT 0 1e-320\n", encoding="utf-8")
        assert cli.main(["--circuit", str(path), "--seed", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["program"] == ["MOVE 0", "MOVE PARK"]

    @pytest.mark.parametrize(
        "config, message",
        [
            ("tip_move_time = 1e308\n", "non-finite number"),
            (
                "coherence_time = 1e308\ntip_move_time = 1e-300\n"
                "measurement_dwell_time = 1e-300\n",
                "not a finite count",
            ),
        ],
    )
    def test_reports_that_would_not_be_json_exit_two(self, tmp_path, capsys, config, message):
        import spintip.cli as cli

        path = tmp_path / "extreme.config"
        path.write_text(config, encoding="utf-8")
        circuit = tmp_path / "read.circuit"
        circuit.write_text("MEASURE 0\n", encoding="utf-8")
        dump = tmp_path / "final.state"
        argv = ["--circuit", str(circuit), "--config", str(path), "--seed", "0",
                "--dump-state", str(dump)]
        assert cli.main(argv) == 2
        assert not dump.exists()  # a run with no report leaves no dump either
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")
        assert message in out.err
        assert out.err.count("\n") == 1

    def test_aliasing_trace_sample_rate_exits_two(self, example_circuit, tmp_path):
        config = tmp_path / "slow.config"
        config.write_text("trace_sample_rate = 1e3\n", encoding="utf-8")
        done = run_cli(
            "--circuit", str(example_circuit), "--config", str(config),
            "--seed", "0", "--trace-snr", "5",
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: sample rate 1000 cannot represent")
        assert done.stderr.count("\n") == 1

    def test_coinciding_readout_lines_exit_three(self, example_circuit, tmp_path):
        # Without tip coupling the tip bit no longer moves the readout line,
        # so a traced read cannot tell the lines apart.
        config = tmp_path / "untipped.config"
        config.write_text("tip_hyperfine = 0\n", encoding="utf-8")
        done = run_cli(
            "--circuit", str(example_circuit), "--config", str(config),
            "--seed", "0", "--trace-snr", "10",
        )
        assert done.returncode == 3
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("setting", ["trace_duration = 1e-30", "trace_sample_rate = 1e30"])
    def test_trace_length_out_of_range_exits_two(self, example_circuit, tmp_path, setting):
        config = tmp_path / "trace.config"
        config.write_text(setting + "\n", encoding="utf-8")
        done = run_cli(
            "--circuit", str(example_circuit), "--config", str(config),
            "--seed", "0", "--trace-snr", "10",
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: a ")
        assert "samples; traces take 2 to" in done.stderr
        assert done.stderr.count("\n") == 1

    def test_non_utf8_circuit_exits_two(self, tmp_path):
        path = tmp_path / "latin.circuit"
        path.write_bytes("MEASURE 0  # \u00b5s\n".encode("latin-1"))
        done = run_cli("--circuit", str(path), "--seed", "0")
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert "not UTF-8" in done.stderr
        assert done.stderr.count("\n") == 1

    def test_unclassifiable_readout_exits_three(self, tmp_path):
        # At this SNR the noise peak of seed 7 lands on no modulation line.
        path = tmp_path / "noisy.circuit"
        path.write_text("MEASURE 0\n", encoding="utf-8")
        done = run_cli("--circuit", str(path), "--seed", "7", "--trace-snr", "0.001")
        assert done.returncode == 3
        assert "matched 0 modulation lines" in done.stderr
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1

    def test_budget_enforcement_exits_four(self, example_circuit, tmp_path):
        config = tmp_path / "short.config"
        config.write_text("coherence_time = 1e-6\n", encoding="utf-8")
        done = run_cli(
            "--circuit", str(example_circuit), "--config", str(config),
            "--seed", "0", "--enforce-budget",
        )
        assert done.returncode == 4
        report = json.loads(done.stdout)
        assert report["timing"]["feasible"] is False
        assert any("coherence" in reason for reason in report["status"]["reasons"])

    def test_report_failures_print_their_error_line(self, example_circuit, tmp_path):
        config = tmp_path / "short.config"
        config.write_text("coherence_time = 1e-6\n", encoding="utf-8")
        done = run_cli(
            "--circuit", str(example_circuit), "--config", str(config),
            "--seed", "0", "--enforce-budget",
        )
        assert done.returncode == 4
        assert json.loads(done.stdout)["status"]["exit_code"] == 4
        assert done.stderr == "error: program exceeds the coherence time\n"

    def test_spectral_misses_print_their_error_line(self, monkeypatch, tmp_path, capsys):
        import spintip.cli as cli
        import spintip.compiler as compiler
        from spintip import MachineConfig

        detuned = {**compiler.drive_lines(MachineConfig()), "rotation": 1.0}
        monkeypatch.setattr(compiler, "drive_lines", lambda cfg: detuned)
        path = tmp_path / "detuned.circuit"
        path.write_text("ROT 0 1.0 0.0\n", encoding="utf-8")
        assert cli.main(["--circuit", str(path), "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert err == "error: pulses at instructions [1] hit no transition line\n"

    def test_dump_state_to_a_directory_exits_two(self, example_circuit, tmp_path):
        done = run_cli("--circuit", str(example_circuit), "--seed", "0", "--dump-state", str(tmp_path))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1

    def test_dump_state_with_batch_is_refused(self, tmp_path):
        (tmp_path / "a.circuit").write_text(EXAMPLE, encoding="utf-8")
        dump = tmp_path / "final.state"
        done = run_cli("--batch", str(tmp_path), "--seed", "0", "--dump-state", str(dump))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines()[-1].startswith("spintip: error: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a.circuit"]

    def test_twenty_qubit_register_runs(self, tmp_path, capsys):
        # Compiled gates keep at most n + 1 sites live (the nuclei and a CNOT's
        # target electron), so the memory cap admits a register whose dense
        # vector (2^41 amplitudes) never exists.
        import spintip.cli as cli

        path = tmp_path / "long.circuit"
        path.write_text("ROT 0 1.0 0.0\nCNOT 0 19\nMEASURE 19\n", encoding="utf-8")
        assert cli.main(["--circuit", str(path), "--seed", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["register"]["num_qubits"] == 20
        assert report["final_state"]["norm"] == pytest.approx(1.0, abs=1e-12)

    def test_budget_not_enforced_by_default(self, example_circuit, tmp_path):
        config = tmp_path / "short.config"
        config.write_text("coherence_time = 1e-6\n", encoding="utf-8")
        done = run_cli(
            "--circuit", str(example_circuit), "--config", str(config), "--seed", "0"
        )
        assert done.returncode == 0


class TestBatchRuns:
    def test_batch_runs_every_circuit_with_derived_seeds(self, tmp_path):
        (tmp_path / "a.circuit").write_text("INIT\nMEASURE 0\n", encoding="utf-8")
        (tmp_path / "b.circuit").write_text(EXAMPLE, encoding="utf-8")
        done = run_cli("--batch", str(tmp_path), "--seed", "7")
        assert done.returncode == 0
        assert done.stdout.splitlines() == ["a.circuit: exit 0", "b.circuit: exit 0"]
        report_a = json.loads((tmp_path / "a.report.json").read_text())
        report_b = json.loads((tmp_path / "b.report.json").read_text())
        assert report_a["seed"] == 7
        assert report_b["seed"] == 8

    def test_batch_keeps_going_after_a_bad_file(self, tmp_path):
        (tmp_path / "bad.circuit").write_text("NOPE\n", encoding="utf-8")
        (tmp_path / "good.circuit").write_text(EXAMPLE, encoding="utf-8")
        done = run_cli("--batch", str(tmp_path), "--seed", "0")
        assert done.returncode == 2
        assert "bad.circuit: exit 2" in done.stdout
        assert "good.circuit: exit 0" in done.stdout
        assert (tmp_path / "good.report.json").exists()
        assert not (tmp_path / "bad.report.json").exists()

    def test_batch_keeps_going_past_simulation_errors(self, tmp_path):
        (tmp_path / "a.circuit").write_text("MEASURE 0\n", encoding="utf-8")
        (tmp_path / "b.circuit").write_text("MEASURE 40\n", encoding="utf-8")
        (tmp_path / "c.circuit").write_text("# nothing to read\n", encoding="utf-8")
        done = run_cli("--batch", str(tmp_path), "--seed", "7", "--trace-snr", "0.001")
        assert done.returncode == 3
        assert done.stdout.splitlines() == [
            "a.circuit: exit 3",  # seed 7: the readout line is unclassifiable
            "b.circuit: exit 2",  # too large for memory
            "c.circuit: exit 0",
        ]
        assert "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) == 2
        assert (tmp_path / "c.report.json").exists()
        assert not (tmp_path / "a.report.json").exists()
        assert not (tmp_path / "b.report.json").exists()

    def test_report_failures_print_their_error_line(self, tmp_path):
        config = tmp_path / "short.config"
        config.write_text("coherence_time = 1e-6\n", encoding="utf-8")
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        (circuits / "a.circuit").write_text(EXAMPLE, encoding="utf-8")
        done = run_cli(
            "--batch", str(circuits), "--config", str(config), "--seed", "0", "--enforce-budget"
        )
        assert done.returncode == 4
        assert done.stdout.splitlines() == ["a.circuit: exit 4"]
        assert done.stderr == "error: program exceeds the coherence time\n"
        assert (circuits / "a.report.json").exists()

    def test_unwritable_report_exits_two_and_the_batch_goes_on(self, tmp_path):
        (tmp_path / "a.circuit").write_text("MEASURE 0\n", encoding="utf-8")
        (tmp_path / "a.report.json").mkdir()
        (tmp_path / "b.circuit").write_text("MEASURE 0\n", encoding="utf-8")
        done = run_cli("--batch", str(tmp_path), "--seed", "0")
        assert done.returncode == 2
        assert done.stdout.splitlines() == ["a.circuit: exit 2", "b.circuit: exit 0"]
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
        assert (tmp_path / "b.report.json").is_file()

    def test_a_directory_named_like_a_circuit_exits_two(self, tmp_path):
        (tmp_path / "x.circuit").mkdir()
        (tmp_path / "y.circuit").write_text("MEASURE 0\n", encoding="utf-8")
        done = run_cli("--batch", str(tmp_path), "--seed", "0")
        assert done.returncode == 2
        assert done.stdout.splitlines() == ["x.circuit: exit 2", "y.circuit: exit 0"]
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1

    def test_sub_resolution_rot_angle_does_not_stop_the_batch(self, tmp_path):
        (tmp_path / "a.circuit").write_text("ROT 0 1e-320\n", encoding="utf-8")
        (tmp_path / "b.circuit").write_text("MEASURE 0\n", encoding="utf-8")
        done = run_cli("--batch", str(tmp_path), "--seed", "0")
        assert done.returncode == 0
        assert done.stdout.splitlines() == ["a.circuit: exit 0", "b.circuit: exit 0"]
        assert done.stderr == ""

    @pytest.mark.parametrize(
        "config",
        [
            "tip_move_time = 1e308\n",
            "coherence_time = 1e308\ntip_move_time = 1e-300\nmeasurement_dwell_time = 1e-300\n",
        ],
    )
    def test_reports_that_would_not_be_json_are_not_written(self, tmp_path, config):
        path = tmp_path / "extreme.config"
        path.write_text(config, encoding="utf-8")
        circuits = tmp_path / "circuits"
        circuits.mkdir()
        (circuits / "a.circuit").write_text("MEASURE 0\n", encoding="utf-8")
        (circuits / "b.circuit").write_text("MEASURE 0\n", encoding="utf-8")
        done = run_cli("--batch", str(circuits), "--config", str(path), "--seed", "0")
        assert done.returncode == 2
        assert done.stdout.splitlines() == ["a.circuit: exit 2", "b.circuit: exit 2"]
        assert "Traceback" not in done.stderr
        errors = done.stderr.splitlines()
        assert len(errors) == 2 and all(line.startswith("error: ") for line in errors)
        assert not list(circuits.glob("*.report.json"))

    def test_empty_batch_directory_exits_two(self, tmp_path):
        done = run_cli("--batch", str(tmp_path))
        assert done.returncode == 2


QUBIT = st.sampled_from(["0", "1", "2", "-1", "x", "600"])
FLOAT = st.sampled_from(["0.5", "nan", "inf", "1e308", "1e-320", "abc"])
JUNK = st.sampled_from(["INIT", "ROT", "CNOT", "MEASURE", "WOBBLE", "#", "0", "inf", "abc"])
GATE_LINES = st.lists(
    st.one_of(
        st.tuples(st.just("INIT")),
        st.tuples(st.just("ROT"), QUBIT, FLOAT, FLOAT),
        st.tuples(st.just("ROT"), QUBIT, FLOAT),
        st.tuples(st.just("CNOT"), QUBIT, QUBIT),
        st.tuples(st.just("MEASURE"), QUBIT),
        st.lists(JUNK, max_size=4),
    ).map(" ".join),
    max_size=6,
)


class TestExitCodeFuzz:
    # Qubit tokens stay below 3 or reach 600: every register either runs in
    # a few kilobytes or is refused before it is allocated.
    @settings(deadline=None, max_examples=60)
    @given(
        lines=GATE_LINES,
        tips=st.integers(1, 3),
        snr=st.sampled_from([None, "1e-3", "10", "1e-320"]),
    )
    def test_every_input_ends_in_a_documented_code(self, lines, tips, snr):
        import spintip.cli as cli

        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "fuzz.circuit"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv = ["--circuit", str(path), "--seed", "0", "--tips", str(tips)]
            if snr is not None:
                argv += ["--trace-snr", snr]
            stdout, stderr = io.StringIO(), io.StringIO()
            refused = False
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # the flags themselves are refused
                    code, refused = exc.code, True
        assert code in (0, 2, 3, 4)
        assert caught == []
        assert "Traceback" not in stderr.getvalue()
        if refused:
            assert code == 2
            assert stdout.getvalue() == ""
            assert stderr.getvalue().splitlines()[-1].startswith("spintip: error: ")
        elif code == 2:
            assert stderr.getvalue().startswith("error: ")
            assert stderr.getvalue().count("\n") == 1
        if stdout.getvalue():
            strict_json(stdout.getvalue())


CONFIG_KEY = st.sampled_from([
    "magnetic_field", "selectivity_tolerance", "temperature", "lattice_spacing",
    "tip_hyperfine", "hyperfine_bare", "trace_sample_rate", "nuclear_pi_duration",
    "coherence_time", "trace_duration", "tip_move_time", "magnetic_feild", "", "=",
])
CONFIG_VALUE = st.sampled_from([
    "5.0", "0", "-1", "1e-300", "1e300", "1e308", "1e400", "nan", "inf", "-inf",
    "5 T", "120e6 Hz", "1_000", "abc", "",
])
CONFIG_LINES = st.lists(
    st.one_of(
        st.tuples(CONFIG_KEY, CONFIG_VALUE).map(lambda kv: f"{kv[0]} = {kv[1]}"),
        st.sampled_from(["", "# comment", "magnetic_field", "= 5", "==", "key value"]),
    ),
    max_size=5,
)


class TestConfigFuzz:
    # Config files of known and junk keys, repeated keys, unit suffixes,
    # non-finite and extreme values, and files that are empty, missing, a
    # directory or not UTF-8, under a two-qubit circuit.
    @settings(deadline=None, max_examples=80)
    @given(
        lines=CONFIG_LINES,
        kind=st.sampled_from(["text", "text", "text", "empty", "missing", "directory",
                              "latin-1"]),
        flags=st.sampled_from([[], ["--tips", "2"], ["--verify-frequencies"],
                               ["--enforce-budget"], ["--trace-snr", "10"]]),
    )
    def test_every_config_ends_in_a_documented_code(self, lines, kind, flags):
        import spintip.cli as cli

        with tempfile.TemporaryDirectory() as directory:
            circuit = Path(directory) / "fuzz.circuit"
            circuit.write_text(EXAMPLE, encoding="utf-8")
            config = Path(directory) / "fuzz.cfg"
            if kind == "text":
                config.write_text("\n".join(lines) + "\n", encoding="utf-8")
            elif kind == "empty":
                config.write_text("", encoding="utf-8")
            elif kind == "directory":
                config.mkdir()
            elif kind == "latin-1":
                config.write_bytes("temperature = 1.0 # \u00b0K\n".encode("latin-1"))
            argv = ["--config", str(config), "--circuit", str(circuit), "--seed", "0", *flags]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        assert caught == []
        assert "Traceback" not in stderr.getvalue()
        if code == 2:
            assert stderr.getvalue().startswith("error: ")
            assert stderr.getvalue().count("\n") == 1
        if stdout.getvalue():
            strict_json(stdout.getvalue())
        if kind == "empty":
            assert code == 0


BATCH_FILES = st.lists(
    st.one_of(
        GATE_LINES.map(lambda lines: ("text", lines)),
        st.sampled_from(["latin-1", "directory", "dangling", "loop", "unreadable"]).map(
            lambda kind: (kind, [])
        ),
    ),
    min_size=1,
    max_size=3,
)


class TestBatchFuzz:
    # Batches of fuzzed circuits and of files that cannot be read (not UTF-8,
    # a directory, a dangling or looping symlink, no read permission) under
    # --tips and --trace-snr. Traced reads cost about a millisecond each, so
    # the example count stays small.
    @settings(deadline=None, max_examples=25)
    @given(
        files=BATCH_FILES,
        tips=st.sampled_from([None, "1", "2"]),
        snr=st.sampled_from([None, "1e-3", "10"]),
    )
    def test_every_file_ends_in_one_documented_code(self, files, tips, snr):
        import spintip.cli as cli

        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            names = []
            for index, (kind, lines) in enumerate(files):
                path = root / f"f{index}.circuit"
                names.append(path.name)
                if kind == "text":
                    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                elif kind == "latin-1":
                    path.write_bytes("MEASURE 0 # \u00b0\n".encode("latin-1"))
                elif kind == "directory":
                    path.mkdir()
                elif kind == "dangling":
                    path.symlink_to(root / "missing")
                elif kind == "loop":
                    path.symlink_to(path)
                else:
                    path.write_text("MEASURE 0\n", encoding="utf-8")
                    path.chmod(0)
            argv = ["--batch", directory, "--seed", "0"]
            if tips is not None:
                argv += ["--tips", tips]
            if snr is not None:
                argv += ["--trace-snr", snr]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        lines = stdout.getvalue().splitlines()
        assert [line.rpartition(": exit ")[0] for line in lines] == names
        codes = [int(line.rpartition(": exit ")[2]) for line in lines]
        assert set(codes) <= {0, 2, 3, 4}
        assert code == max(codes)
        errors = stderr.getvalue().splitlines()
        assert all(line.startswith("error: ") for line in errors)
        assert len(errors) == sum(c != 0 for c in codes)


class TestEntryPoints:
    def test_console_script_is_installed(self):
        script = shutil.which("spintip")
        assert script, "console script missing from PATH"
        done = subprocess.run([script, "--help"], capture_output=True, text=True)
        assert done.returncode == 0
        assert "--circuit" in done.stdout


class TestOneParserPerProcess:
    def test_the_parser_is_built_once(self):
        import spintip.cli as cli

        assert cli.build_parser() is cli.build_parser()

    def test_runs_in_one_process_print_what_fresh_processes_print(self, example_circuit, capsys):
        # The shared parser must carry nothing from one run into the next.
        import spintip.cli as cli

        base = ["--circuit", str(example_circuit), "--seed", "4"]
        for extra in (["--tips", "2", "--trace-snr", "5"], [], ["--verify-frequencies"]):
            code = cli.main(base + extra)
            alone = run_cli(*base, *extra)
            assert (code, capsys.readouterr().out) == (alone.returncode, alone.stdout)


class TestGoldenReport:
    def test_report_matches_the_checked_in_golden_file(self, capsys):
        # Pin the whole report surface against a reviewed artifact; any
        # change to physics, compilation, timing, or report layout shows up
        # here as a diff to explain.
        import spintip.cli as cli

        code = cli.main(["--circuit", str(DATA / "golden.circuit"), "--seed", "42"])
        assert code == 0
        produced = json.loads(capsys.readouterr().out)
        golden = json.loads((DATA / "golden_report.json").read_text(encoding="utf-8"))
        assert produced == golden

    def test_traced_report_matches_the_checked_in_golden_bytes(self, capsys):
        # The traced route (--trace-snr: synthesis, rFFT peak, classification)
        # under a two-tip schedule, pinned byte for byte: every observed
        # frequency depends on the exact bits of the noise and the spectrum.
        import spintip.cli as cli

        argv = ["--circuit", str(DATA / "golden.circuit"), "--seed", "42",
                "--trace-snr", "1.0", "--tips", "2"]
        assert cli.main(argv) == 0
        produced = capsys.readouterr().out.encode("utf-8")
        assert produced == (DATA / "golden_traced_report.json").read_bytes()

    def test_golden_state_dump_bytes(self, tmp_path, capsys):
        import spintip.cli as cli

        dump = tmp_path / "golden.state"
        argv = ["--circuit", str(DATA / "golden.circuit"), "--seed", "42",
                "--dump-state", str(dump)]
        assert cli.main(argv) == 0
        assert dump.read_bytes() == b"10100 0.0 -1.0\n"
