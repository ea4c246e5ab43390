"""Machine-config defaults, species data, file loading, validation."""

import dataclasses

import pytest

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


@pytest.mark.parametrize("field", COUPLINGS)
def test_a_coupling_may_vanish(field):
    cfg = dataclasses.replace(MachineConfig(), **{field: 0.0})
    assert cfg.validate() is cfg


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
