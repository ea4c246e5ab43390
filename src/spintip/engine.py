"""Dense state-vector engine: selective pulses, measurement, thermal sampling.

States live in the full 2^(2n+1)-dimensional register space. A pulse drives
exactly the basis-index pairs whose single-spin flip lies within the machine's
selectivity window of the drive frequency — everything else is untouched, which
is the whole trick behind tip-conditional logic.

A flip line depends only on the bits of the addressed spin's one or two
partners (``physics.partner_sites``), so a pulse evaluates at most four lines
and moves whole slabs of amplitudes: basic-slice views of the state, with
the addressed and partner sites pinned, one slab per partner pattern and
addressed bit. No register-sized frequency or index array is built.
Populations and measurement read and zero the halves of a site through the
same kind of view.

``apply_selective_pulse`` and ``measure_spin`` work on a copy of their
input state by default. ``compiler.execute`` copies its input once and
passes ``in_place=True``, so a whole program runs in that one buffer.
"""

import dataclasses
import enum
import functools
import itertools
import math

import numpy as np

from . import physics
from .errors import DegenerateState, MismatchedRegister, TipParked
from .register import PARKED, index_of_bits

#: Resonant-subspace weight below which a pulse counts as having done nothing.
IDLE_POPULATION = 1e-12


class Channel(enum.Enum):
    """Which species an RF drive talks to (frequency does the rest)."""

    ELECTRON_RF = "electron_rf"
    PHOSPHORUS_NUCLEAR_RF = "phosphorus_nuclear_rf"
    TIP_CARBON_NUCLEAR_RF = "tip_carbon_nuclear_rf"


class PulseMode(enum.Enum):
    """How the resonant pair is rotated.

    LOGICAL_X treats the pulse as a clean logical bit operation: the pair gets
    X^(angle/pi), phase ignored, and an exact pi is a literal amplitude swap.
    PHASED_ROTATION is the physical Rabi rotation exp(-i angle/2 (cos(phase) X
    + sin(phase) Y)), global phases and all.
    """

    LOGICAL_X = "logical_x"
    PHASED_ROTATION = "phased_rotation"


_TWO_PI = 2.0 * math.pi


@dataclasses.dataclass(frozen=True)
class Pulse:
    """One RF drive: who, at what frequency, how far around the Bloch sphere."""

    channel: Channel
    frequency: float
    angle: float
    phase: float = 0.0
    duration: float = 0.0
    mode: PulseMode = PulseMode.LOGICAL_X

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError(f"pulse frequency must be positive, got {self.frequency!r}")
        if not 0 < self.angle <= _TWO_PI:
            raise ValueError(f"pulse angle must lie in (0, 2*pi], got {self.angle!r}")
        if not self.duration > 0:
            raise ValueError(f"pulse duration must be positive, got {self.duration!r}")


@dataclasses.dataclass(frozen=True)
class PulseOutcome:
    """What a pulse actually did.

    ``resonant_pair_count`` is spectral: how many basis-index pairs the drive
    frequency hit, independent of the state. ``resonant_population`` is the
    weight the state had on those pairs. ``no_resonant_transition`` flags the
    pulse as a no-op on this state — either a spectral miss or resonance with
    only empty branches.
    """

    resonant_pair_count: int
    resonant_population: float
    no_resonant_transition: bool


@dataclasses.dataclass
class PureState:
    """Normalized complex amplitudes over the register's basis states."""

    amplitudes: np.ndarray
    num_sites: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_sites,):
            raise MismatchedRegister(
                f"{amps.shape} amplitudes for a {self.num_sites}-site register"
            )
        self.amplitudes = amps

    @classmethod
    def ground(cls, layout):
        """Every spin in its species ground orientation."""
        amps = np.zeros(layout.dimension, dtype=np.complex128)
        amps[0] = 1.0
        return cls(amps, layout.num_sites)

    @classmethod
    def from_bits(cls, bits):
        """Basis state |bits> in site order."""
        n = len(bits)
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[index_of_bits(bits)] = 1.0
        return cls(amps, n)

    @classmethod
    def product(cls, layout, nuclear_amplitudes):
        """Product state with chosen qubit-nucleus amplitudes, ancillas ground.

        ``nuclear_amplitudes`` maps qubit index to an (a0, a1) pair; omitted
        qubits, all electrons and the tip start in bit 0.
        """
        ground = np.array([1.0, 0.0], dtype=np.complex128)
        factors = []
        for site in range(layout.num_sites):
            qubit = layout.qubit_of(site)
            if site % 2 == 0 and qubit is not None and qubit in nuclear_amplitudes:
                a0, a1 = nuclear_amplitudes[qubit]
                factor = np.array([a0, a1], dtype=np.complex128)
                factor = factor / np.linalg.norm(factor)
            else:
                factor = ground
            factors.append(factor)
        amps = factors[0]
        for factor in factors[1:]:
            amps = np.kron(amps, factor)
        return cls(amps, layout.num_sites)

    def copy(self):
        return PureState(self.amplitudes.copy(), self.num_sites)

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def population(self, site, bit):
        """Total weight with ``site`` in ``bit``."""
        return float(np.sum(np.abs(_pinned(self.amplitudes, {site: bit})) ** 2))

    def fidelity(self, other):
        """|<self|other>|^2."""
        return float(np.abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)

    def dump_text(self, threshold=1e-12):
        """One ``bitstring re im`` line per amplitude above ``threshold``."""
        lines = []
        for index, amp in enumerate(self.amplitudes):
            if abs(amp) > threshold:
                bits = format(index, f"0{self.num_sites}b")
                lines.append(f"{bits} {float(amp.real)!r} {float(amp.imag)!r}")
        return "\n".join(lines) + "\n"


def _pinned(amplitudes, fixed):
    """View of the amplitudes with each site of ``fixed`` pinned to its bit.

    Free sites between pinned ones share one axis, so k pinned sites give at
    most 2k + 1 axes. Length-1 slices rather than integers keep the result a
    view even when every site is pinned.
    """
    shape, index, start = [], [], 0
    for site, bit in sorted(fixed.items()):
        shape += [1 << (site - start), 2]
        index += [slice(None), slice(bit, bit + 1)]
        start = site + 1
    return amplitudes.reshape(shape + [-1])[tuple(index)]


def _pair_unitary(pulse):
    """2x2 matrix applied to each resonant (index0, index1) amplitude pair."""
    if pulse.mode is PulseMode.LOGICAL_X:
        # Principal fractional power of X: diagonalize in |+->, so
        # X^t = [[(1+w)/2, (1-w)/2], [(1-w)/2, (1+w)/2]] with w = e^{i pi t}.
        w = np.exp(1j * math.pi * (pulse.angle / math.pi))
        u00 = u11 = (1.0 + w) / 2.0
        u01 = u10 = (1.0 - w) / 2.0
    else:
        c = math.cos(pulse.angle / 2.0)
        s = math.sin(pulse.angle / 2.0)
        u00 = u11 = complex(c, 0.0)
        u01 = -1j * s * np.exp(-1j * pulse.phase)
        u10 = -1j * s * np.exp(1j * pulse.phase)
    return u00, u01, u10, u11


def _addressed_site(channel, layout):
    """Site a channel drives given the tip position; qubit channels need the tip."""
    if channel is Channel.TIP_CARBON_NUCLEAR_RF:
        return layout.tip_site
    if layout.tip_position is PARKED:
        raise TipParked(f"channel {channel.value} needs the tip over a qubit")
    if channel is Channel.ELECTRON_RF:
        return layout.electron_site(layout.tip_position)
    return layout.nucleus_site(layout.tip_position)


@functools.lru_cache(maxsize=1024)
def _pattern_lines(layout, cfg, site):
    """(partners, partner bit patterns, float64 flip line of each pattern).

    Each line is evaluated on one representative basis index of its pattern.
    Layouts and configs are frozen, so a circuit's pulses share the entries
    of each tip position and addressed site; the lines are read-only.
    """
    n = layout.num_sites
    partners = physics.partner_sites(layout, site)
    patterns = tuple(itertools.product((0, 1), repeat=len(partners)))
    representatives = np.array(
        [sum(bit << (n - 1 - p) for p, bit in zip(partners, bits)) for bits in patterns],
        dtype=np.int64,
    )
    lines = physics._flip_magnitudes(layout, cfg, site, representatives, np.float64)
    lines.flags.writeable = False
    return partners, patterns, lines


def apply_selective_pulse(state, pulse, layout, cfg, *, in_place=False):
    """Drive every basis pair resonant with the pulse; return (state, outcome).

    A pair (i, i^flip) of the addressed site is resonant when its flip
    frequency lies within ``cfg.selectivity_tolerance`` of the drive. That
    frequency is a function of the partner bits alone, so it is evaluated
    once per partner pattern (float64, on one representative index each).
    Every resonant pattern names two slabs of the state, addressed bit 0 and
    1 with the partners pinned; they are swapped (exact pi) or rotated by the
    pair unitary in place. By default that happens on a copy, returned as a
    new state, and the input is left alone; with ``in_place`` the input's own
    amplitudes are driven and the input is returned.
    """
    if state.num_sites != layout.num_sites:
        raise MismatchedRegister(
            f"state of {state.num_sites} sites under a {layout.num_sites}-site layout"
        )
    site = _addressed_site(pulse.channel, layout)
    n = layout.num_sites
    partners, patterns, lines = _pattern_lines(layout, cfg, site)
    resonant = np.abs(lines - pulse.frequency) <= cfg.selectivity_tolerance
    hits = [bits for bits, hit in zip(patterns, resonant) if hit]

    if not in_place:
        state = state.copy()
    amps = state.amplitudes
    swap = pulse.mode is PulseMode.LOGICAL_X and pulse.angle == math.pi
    u00, u01, u10, u11 = _pair_unitary(pulse)
    population = 0.0
    for bits in hits:
        fixed = dict(zip(partners, bits))
        a0 = _pinned(amps, {**fixed, site: 0})
        a1 = _pinned(amps, {**fixed, site: 1})
        population += float(np.sum(np.abs(a0) ** 2) + np.sum(np.abs(a1) ** 2))
        if swap:  # exact swap, no rounding
            held = a0.copy()
            a0[...] = a1
            a1[...] = held
        else:
            rotated0 = u00 * a0 + u01 * a1
            a1[...] = u10 * a0 + u11 * a1
            a0[...] = rotated0
    outcome = PulseOutcome(
        resonant_pair_count=len(hits) << (n - 1 - len(partners)),
        resonant_population=population,
        no_resonant_transition=population <= IDLE_POPULATION,
    )
    return state, outcome


def measure_spin(state, site, rng, *, in_place=False):
    """Projectively measure one site; return (bit, collapsed state, probability).

    ``rng`` is a seeded ``numpy.random.Generator`` (or a seed for one); exactly
    one draw is consumed, so measurement streams are reproducible. The
    collapse happens on a copy, and the input is left alone, unless
    ``in_place`` is set: then the input itself collapses and is returned.
    """
    rng = np.random.default_rng(rng)
    amps = state.amplitudes
    total = float(np.sum(np.abs(amps) ** 2))
    if math.sqrt(total) < 1e-9:
        raise DegenerateState(f"state norm {math.sqrt(total):.3e} is too small to measure")
    p_one = state.population(site, 1) / total
    bit = 1 if rng.random() < p_one else 0
    probability = p_one if bit == 1 else 1.0 - p_one
    if not in_place:
        state = state.copy()
    collapsed = state.amplitudes
    _pinned(collapsed, {site: 1 - bit})[...] = 0.0
    collapsed /= np.linalg.norm(collapsed)
    return bit, state, float(probability)


def thermal_ground_probability(species, cfg):
    """Boltzmann weight of the ground orientation at the bare Zeeman splitting."""
    splitting = physics.zeeman_splitting(species, cfg)
    x = cfg.planck_constant * splitting / (cfg.boltzmann_constant * cfg.temperature)
    return 1.0 / (1.0 + math.exp(-x))


def thermal_sample(layout, cfg, rng):
    """Draw one basis configuration from the independent-spin thermal state.

    Hyperfine shifts are negligible against the Zeeman splittings for this,
    so each site is sampled on its bare two-level Boltzmann factor, one RNG
    draw per site in site order.
    """
    rng = np.random.default_rng(rng)
    bits = []
    for site in range(layout.num_sites):
        p_ground = thermal_ground_probability(layout.species_of(site), cfg)
        bits.append(0 if rng.random() < p_ground else 1)
    return tuple(bits)


@dataclasses.dataclass(frozen=True)
class AncillaDiagnostics:
    """Ground-state populations and joint purity of the non-data spins."""

    populations: dict
    purity: float


def ancilla_diagnostics(state, layout, sites=None):
    """Check the working spins (electrons + tip) returned to their ground states.

    ``purity`` is Tr(rho^2) of the reduced state on ``sites`` (default: every
    electron and the tip); 1 means the ancillas are clean and disentangled
    from the data, anything less means a protocol leaked entanglement.

    rho = M M^dagger, where row r of M holds the amplitudes with the ancillas
    in configuration r. Only rows with a nonzero amplitude contribute, so M
    is gathered from those rows alone; after a compiled gate there is
    exactly one.
    """
    if sites is None:
        sites = tuple(layout.electron_site(q) for q in range(layout.num_qubits))
        sites = sites + (layout.tip_site,)
    n = state.num_sites
    populations = {layout.site_name(s): state.population(s, 0) for s in sites}
    others = [s for s in range(n) if s not in sites]
    tensor = np.transpose(state.amplitudes.reshape((2,) * n), tuple(sites) + tuple(others))
    support = np.flatnonzero(np.any((tensor != 0).reshape(1 << len(sites), -1), axis=1))
    rows = tensor[np.unravel_index(support, (2,) * len(sites))]
    matrix = rows.reshape(len(support), 1 << len(others))
    if matrix.shape[0] > matrix.shape[1]:
        # Both sides of a pure state share their nonzero spectrum, so the
        # smaller Gram matrix (conjugated, which keeps its norm) has the purity.
        matrix = matrix.T
    gram = matrix @ matrix.conj().T
    purity = float(np.vdot(gram, gram).real)
    return AncillaDiagnostics(populations=populations, purity=purity)
