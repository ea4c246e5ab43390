"""Machine description: spin species data, physical constants, config files.

All energies in this package are expressed in Hz (energy divided by the Planck
constant), so Zeeman coefficients and hyperfine couplings below are frequencies.
"""

import dataclasses
import enum
import math
import numbers
import warnings

from .errors import ConfigError


class Species(enum.Enum):
    """The three kinds of spin-1/2 the machine manipulates."""

    ELECTRON = "electron"
    PHOSPHORUS_NUCLEUS = "phosphorus_nucleus"
    TIP_CARBON_NUCLEUS = "tip_carbon_nucleus"


@dataclasses.dataclass(frozen=True)
class SpeciesInfo:
    """Magnetic personality of one species.

    ``g_factor`` is stored as a magnitude; the sign convention is carried by
    ``uses_bohr_magneton`` (electron couples through +g mu_B, nuclei through
    -g mu_N) together with ``ground_orientation``, the field-aligned spin
    projection that minimises the Zeeman energy for that sign.
    """

    g_factor: float
    uses_bohr_magneton: bool
    ground_orientation: str  # "up" -> m=+1/2 is the ground state, "down" -> m=-1/2

    def m_of_bit(self, bit):
        """Spin projection for a logical bit; bit 0 is the ground orientation."""
        m_ground = 0.5 if self.ground_orientation == "up" else -0.5
        return m_ground if bit == 0 else -m_ground


#: CODATA 2018 magnetons (J/T) and the exact SI Boltzmann (J/K) and Planck (J s)
#: constants. Constants of nature, not properties of the machine, so no config
#: file sets them.
BOHR_MAGNETON = 9.2740100783e-24
NUCLEAR_MAGNETON = 5.0507837461e-27
BOLTZMANN_CONSTANT = 1.380649e-23
PLANCK_CONSTANT = 6.62607015e-34

SPECIES_INFO = {
    Species.ELECTRON: SpeciesInfo(2.0, True, "down"),
    Species.PHOSPHORUS_NUCLEUS: SpeciesInfo(2.26, False, "up"),
    Species.TIP_CARBON_NUCLEUS: SpeciesInfo(1.4048, False, "up"),
}


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Every tunable number in one place.

    Field names double as the keys of the ``key = value`` config-file format;
    unspecified keys keep these defaults. Frequencies in Hz, times in s,
    lengths in m, field in T, temperature in K. Every value is a float from
    construction on, so two equal configs list, time and hash alike; a value
    that is not a real number, or one beyond the float range, is a
    ConfigError. The hash is the dataclass hash of the values, computed once
    at construction: the memos keyed by a config hash it on every lookup.
    """

    magnetic_field: float = 5.0
    hyperfine_bare: float = 120e6            # electron-nucleus coupling, tip absent
    hyperfine_tip_modified: float = 120e6    # same coupling while the tip sits on the qubit
    tip_hyperfine: float = 2e9               # electron to tip-carbon coupling
    temperature: float = 1.0
    coherence_time: float = 10.0
    lattice_spacing: float = 30e-9
    tip_move_time: float = 15e-6             # per lattice hop
    nuclear_pi_duration: float = 10e-6
    electron_pi_duration: float = 0.1e-6
    measurement_dwell_time: float = 15e-6
    selectivity_tolerance: float = 1e3       # pulse-resonance window, Hz
    trace_frequency_scale: float = 1e6       # readout traces synthesized at f/scale
    trace_sample_rate: float = 1e6           # samples/s of synthetic traces
    trace_duration: float = 0.05             # s of synthetic trace

    def __post_init__(self):
        values = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, numbers.Real):
                raise ConfigError(f"{field.name} must be a number, got {value!r}")
            try:
                values.append(float(value))
            except OverflowError:
                raise ConfigError(f"{field.name} must be finite, got one beyond float") from None
            object.__setattr__(self, field.name, values[-1])
        object.__setattr__(self, "_hash", hash(tuple(values)))

    def __hash__(self):
        return self._hash

    def validate(self):
        """Raise ConfigError on nonsense; warn on merely questionable values.

        Returns self so loading code can chain on it.
        """
        values = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        for name, value in values.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        # Every value is positive, except the three couplings, which may vanish.
        for name, value in values.items():
            if "hyperfine" in name:
                if value < 0:
                    raise ConfigError(f"{name} must be non-negative, got {value!r}")
            elif value <= 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
        if self.lattice_spacing < 30e-9:
            warnings.warn(
                f"lattice_spacing {self.lattice_spacing:g} m is below the 30 nm "
                "tip-addressability margin",
                stacklevel=2,
            )
        # Selectivity must resolve individual transition lines, otherwise a
        # "selective" pulse would drive several of them at once.
        from . import compiler, physics  # deferred: both import this module

        gap = physics.min_spectral_gap(self)
        if gap > 0 and self.selectivity_tolerance >= gap:
            raise ConfigError(
                f"selectivity_tolerance {self.selectivity_tolerance:g} Hz does not "
                f"resolve the smallest transition-line gap {gap:g} Hz"
            )
        # The gap clusters coinciding lines, so check each compiled drive too.
        unselective = compiler.unselective_drive(self)
        if unselective is not None:
            role, count = unselective
            raise ConfigError(
                f"the {role} drive is not selective: {count} lines of its site lie within "
                f"selectivity_tolerance {self.selectivity_tolerance:g} Hz of it"
            )
        return self


_FIELD_NAMES = {f.name for f in dataclasses.fields(MachineConfig)}


def load_machine_config(path):
    """Parse a ``key = value`` config file into a validated MachineConfig.

    Blank lines and ``#`` comments are ignored. Unknown and repeated keys are
    errors (silent typos would quietly change the physics); missing keys keep
    their defaults. A file that is not UTF-8 text is a ConfigError too; a
    leading byte-order mark is dropped.
    """
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    lines = text.removeprefix("\ufeff").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is set twice")
        try:
            values[key] = float(text.strip())
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: value for {key!r} is not a number: {text.strip()!r}"
            ) from None
    return MachineConfig(**values).validate()
