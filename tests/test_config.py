"""Machine-config defaults, species data, file loading, validation."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintip import SPECIES_INFO, MachineConfig, Species, config, load_machine_config
from spintip.errors import ConfigError


def write_config(tmp_path, text):
    path = tmp_path / "machine.cfg"
    path.write_text(text)
    return path


def test_defaults_describe_the_reference_machine():
    cfg = MachineConfig()
    assert cfg.magnetic_field == 5.0
    assert cfg.hyperfine_bare == 120e6
    assert cfg.hyperfine_tip_modified == 120e6
    assert cfg.tip_hyperfine == 2e9
    assert cfg.temperature == 1.0
    assert cfg.coherence_time == 10.0
    assert cfg.lattice_spacing == 30e-9
    assert cfg.tip_move_time == 15e-6
    assert cfg.nuclear_pi_duration == 10e-6
    assert cfg.electron_pi_duration == 0.1e-6
    assert cfg.measurement_dwell_time == 15e-6
    assert cfg.selectivity_tolerance == 1e3


def test_species_table():
    electron = SPECIES_INFO[Species.ELECTRON]
    nucleus = SPECIES_INFO[Species.PHOSPHORUS_NUCLEUS]
    tip = SPECIES_INFO[Species.TIP_CARBON_NUCLEUS]
    assert (electron.g_factor, electron.ground_orientation) == (2.0, "down")
    assert (nucleus.g_factor, nucleus.ground_orientation) == (2.26, "up")
    assert (tip.g_factor, tip.ground_orientation) == (1.4048, "up")
    assert electron.uses_bohr_magneton
    assert not nucleus.uses_bohr_magneton and not tip.uses_bohr_magneton


@pytest.mark.parametrize("species", list(Species))
def test_bit_zero_is_the_lower_zeeman_level(species):
    # Energy is coefficient * m with a positive coefficient for the electron
    # and negative for nuclei; bit 0 must pick whichever m minimizes it.
    info = SPECIES_INFO[species]
    m0, m1 = info.m_of_bit(0), info.m_of_bit(1)
    assert m0 == -m1 and abs(m0) == 0.5
    sign = 1.0 if info.uses_bohr_magneton else -1.0
    assert sign * m0 < sign * m1


def test_load_overrides_comments_and_blanks(tmp_path):
    path = write_config(
        tmp_path,
        "# reference machine, reduced field\n"
        "magnetic_field = 2.5   # tesla\n"
        "tip_hyperfine = 1.5e9\n"
        "\n"
        "temperature=0.3\n",
    )
    cfg = load_machine_config(path)
    assert cfg.magnetic_field == 2.5
    assert cfg.tip_hyperfine == 1.5e9
    assert cfg.temperature == 0.3
    assert cfg.hyperfine_bare == 120e6  # untouched default


def test_unknown_key_rejected_with_location(tmp_path):
    path = write_config(tmp_path, "magnetic_field = 5\nhyperfine = 1\n")
    with pytest.raises(ConfigError, match=r":2.*hyperfine"):
        load_machine_config(path)


def test_non_numeric_value_rejected(tmp_path):
    path = write_config(tmp_path, "magnetic_field = strong\n")
    with pytest.raises(ConfigError, match="not a number"):
        load_machine_config(path)


def test_repeated_key_rejected_with_location(tmp_path):
    path = write_config(tmp_path, "magnetic_field = 5\ntemperature = 1\nmagnetic_field = 2\n")
    with pytest.raises(ConfigError, match=r":3.*magnetic_field.*twice"):
        load_machine_config(path)


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "machine.cfg"
    path.write_bytes("temperature = 1.0  # \u00b0K\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_machine_config(path)


def test_missing_equals_rejected(tmp_path):
    path = write_config(tmp_path, "magnetic_field 5\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_machine_config(path)


COUPLINGS = ("hyperfine_bare", "hyperfine_tip_modified", "tip_hyperfine")


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(MachineConfig) if f.name not in COUPLINGS]
)
def test_positive_quantities_enforced(field):
    cfg = dataclasses.replace(MachineConfig(), **{field: 0.0})
    with pytest.raises(ConfigError, match=f"{field} must be positive"):
        cfg.validate()


@pytest.mark.parametrize("field", ["hyperfine_bare"])
def test_a_coupling_may_vanish(field):
    # No compiled drive addresses a site whose line the bare coupling splits.
    cfg = dataclasses.replace(MachineConfig(), **{field: 0.0})
    assert cfg.validate() is cfg


@pytest.mark.parametrize(
    "field, value, role, count",
    [
        ("hyperfine_tip_modified", 0.0, "rotation", 2),
        ("tip_hyperfine", 0.0, "control_electron", 2),
        # Electron lines near 2.8e26 Hz, whose ulp of 3.4e10 Hz exceeds every coupling.
        ("magnetic_field", 1e16, "control_electron", 4),
    ],
)
def test_a_drive_that_meets_several_lines_of_its_site_is_refused(field, value, role, count):
    # min_spectral_gap clusters lines that coincide, so it accepts all three;
    # each compiled CNOT would then drive several partner patterns.
    cfg = dataclasses.replace(MachineConfig(), **{field: value})
    from spintip import physics

    gap = physics.min_spectral_gap(cfg)
    assert not (gap > 0 and cfg.selectivity_tolerance >= gap)
    with pytest.raises(ConfigError, match=f"^the {role} drive is not selective: {count} lines "):
        cfg.validate()


def test_the_selectivity_check_runs_once_per_config():
    # The gap and the selectivity check read one line table, derived once per
    # config: validating equal configs misses it once.
    from spintip import physics

    cfg = dataclasses.replace(MachineConfig(), magnetic_field=4.25)
    physics.one_qubit_lines.cache_clear()
    for twin in (cfg, cfg, dataclasses.replace(cfg), MachineConfig(**_values(cfg))):
        assert twin.validate() is twin
    assert physics.one_qubit_lines.cache_info().misses == 1


def _values(cfg):
    return {field.name: getattr(cfg, field.name) for field in dataclasses.fields(cfg)}


def _decades(low, high):
    return st.floats(low, high).map(lambda exponent: 10.0**exponent)


@settings(deadline=None, max_examples=120)
@given(
    field=st.one_of(st.just(5.0), _decades(-3, 17)),
    couplings=st.tuples(*[st.one_of(st.just(0.0), _decades(0, 12))] * 3),
    tolerance=st.one_of(st.just(1e3), _decades(-9, 10)),
)
def test_an_accepted_config_runs_every_compiled_pulse_on_its_one_line(field, couplings, tolerance):
    from spintip import MoveTip, RegisterLayout, cli, compiler, engine

    bare, modified, tip = couplings
    cfg = MachineConfig(magnetic_field=field, hyperfine_bare=bare, hyperfine_tip_modified=modified,
                        tip_hyperfine=tip, selectivity_tolerance=tolerance)
    try:
        cfg.validate()
    except ConfigError:
        return
    layout = RegisterLayout(2)
    programs = [compiler.compile_cnot(0, 1, layout, cfg), compiler.compile_cnot(1, 0, layout, cfg),
                compiler.compile_rotation(1, 1.0, 0.5, layout, cfg),
                compiler.compile_init(layout, cfg)]
    for program in programs:
        tip = layout.tip_position
        for instruction in program.instructions:
            if isinstance(instruction, MoveTip):
                tip = instruction.target
            else:
                pulse = getattr(instruction, "pulse", None)
                if pulse is not None:
                    hits = engine._resolve(pulse.channel, pulse.frequency, 2, tip, cfg)[2]
                    assert len(hits) == 1, (pulse, hits)
    verification, _ = cli.run_verification(cfg)
    assert verification["cnot_fidelity"] >= 1.0 - 1e-9
    assert verification["ancilla_purity"] >= 1.0 - 1e-9


def test_equal_configs_hash_equal_through_copies_and_pickles():
    import copy
    import pickle

    cfg = MachineConfig(magnetic_field=3, tip_hyperfine=1.5e9)
    twins = [
        MachineConfig(**_values(cfg)),
        copy.copy(cfg),
        copy.deepcopy(cfg),
        dataclasses.replace(cfg),
        pickle.loads(pickle.dumps(cfg)),
        MachineConfig(magnetic_field=3.0, tip_hyperfine=1500000000),
    ]
    for twin in twins:
        assert twin == cfg and hash(twin) == hash(cfg)
        assert hash(twin) == hash(tuple(_values(twin).values()))
    changed = dataclasses.replace(cfg, magnetic_field=4.0)
    assert changed != cfg and hash(changed) == hash(tuple(_values(changed).values()))
    assert pickle.loads(pickle.dumps(changed)) == changed
    assert len({cfg, *twins, changed}) == 2


def test_constants_of_nature_are_not_settable():
    # CODATA 2018 magnetons and the exact SI constants live in the module.
    assert len(dataclasses.fields(MachineConfig)) == 15
    assert (config.BOHR_MAGNETON, config.NUCLEAR_MAGNETON) == (9.2740100783e-24, 5.0507837461e-27)
    assert (config.BOLTZMANN_CONSTANT, config.PLANCK_CONSTANT) == (1.380649e-23, 6.62607015e-34)
    for name in ("bohr_magneton", "nuclear_magneton", "boltzmann_constant", "planck_constant"):
        with pytest.raises(TypeError):
            MachineConfig(**{name: 1.0})


@pytest.mark.parametrize("field, value", [("magnetic_field", "nan"), ("temperature", "inf")])
def test_non_finite_values_rejected(tmp_path, field, value):
    path = write_config(tmp_path, f"{field} = {value}\n")
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        load_machine_config(path)


def test_negative_coupling_rejected():
    cfg = dataclasses.replace(MachineConfig(), tip_hyperfine=-1.0)
    with pytest.raises(ConfigError, match="tip_hyperfine"):
        cfg.validate()


def test_lines_beyond_float64_rejected():
    # Finite inputs whose electron lines round to inf would compile pulses
    # that hit nothing and print Infinity into the report.
    cfg = dataclasses.replace(MachineConfig(), magnetic_field=1e300)
    with pytest.raises(ConfigError, match="overflow float64"):
        cfg.validate()


def test_tight_spacing_warns_but_validates():
    cfg = dataclasses.replace(MachineConfig(), lattice_spacing=20e-9)
    with pytest.warns(UserWarning, match="30 nm"):
        assert cfg.validate() is cfg


def test_unselective_tolerance_rejected():
    # Smallest line gap at defaults is ~27.4 MHz (parked tip-carbon line vs
    # the hyperfine-shifted nuclear line); 50 MHz cannot resolve it, 20 can.
    wide = dataclasses.replace(MachineConfig(), selectivity_tolerance=50e6)
    with pytest.raises(ConfigError, match="resolve"):
        wide.validate()
    dataclasses.replace(MachineConfig(), selectivity_tolerance=20e6).validate()


def test_loading_validates(tmp_path):
    path = write_config(tmp_path, "selectivity_tolerance = 5e7\n")
    with pytest.raises(ConfigError):
        load_machine_config(path)


def test_every_value_is_a_float_from_construction_on():
    import numpy as np

    cfg = MachineConfig(measurement_dwell_time=1, tip_move_time=np.float32(2), temperature=True)
    values = [getattr(cfg, field.name) for field in dataclasses.fields(cfg)]
    assert all(type(value) is float for value in values)
    assert (cfg.measurement_dwell_time, cfg.tip_move_time, cfg.temperature) == (1.0, 2.0, 1.0)
    assert dataclasses.replace(cfg, coherence_time=3).coherence_time.hex() == (3.0).hex()


@pytest.mark.parametrize("value", ["1.0", None, 1j, [1.0]])
def test_a_value_that_is_not_a_number_is_rejected(value):
    with pytest.raises(ConfigError, match="temperature must be a number"):
        MachineConfig(temperature=value)


def test_an_integer_beyond_float_is_rejected():
    with pytest.raises(ConfigError, match="coherence_time must be finite"):
        MachineConfig(coherence_time=10**400)


def test_an_int_config_times_like_its_float_twin():
    # Compiled after its float twin, an int config used to be served the
    # twin's memoised tasks: its timing then listed 1.0 where a fresh walk
    # listed 1. Coerced at construction, the two agree.
    from spintip import (
        PureState,
        RegisterLayout,
        compiler,
        parse_circuit,
        schedule_multi_tip,
        timing,
    )

    circuit = parse_circuit("ROT 0 1.0\nCNOT 0 1\nMEASURE 1\n")
    layout = RegisterLayout(2)
    state = PureState.ground(layout)

    def run(cfg):
        tasks = compiler.expand_tasks(circuit, layout, cfg)
        result = compiler.execute(compiler.link(tasks), state, layout, cfg, rng=0)
        schedule = schedule_multi_tip(tasks, 2, layout, cfg)
        return repr(result.timing), compiler.listing(tasks), repr(schedule)

    twin = run(MachineConfig(measurement_dwell_time=1.0, tip_move_time=2.0))
    cfg = MachineConfig(measurement_dwell_time=1, tip_move_time=2)
    after_twin = run(cfg)
    assert after_twin[0] == twin[0]
    compiler._gate_tasks.cache_clear()
    timing.move_table.cache_clear()
    fresh = run(cfg)
    assert after_twin[1:] == fresh[1:]
